//! Serving: one thread-less front over one or more prepared shards.
//!
//! A [`SearchService`] owns `Arc<PreparedGraph>`s — one for an unsharded
//! deployment, or the N edge-disjoint shards of a
//! [`PartitionPlan`](crate::shard::PartitionPlan) — and spawns no threads:
//! [`SearchService::search`] runs one request start to finish on the
//! caller's thread. The service is `Sync` and concurrency is the caller's:
//! any number of threads share one `&SearchService`, and a caller that wants
//! fire-and-forget spawns its own thread around `search`. One request:
//!
//! 1. **admission** — at most `max_inflight` requests
//!    ([`SearchService::with_max_inflight`]) are inside `search` at once; the
//!    next is rejected, never queued ([`ServeError::Rejected`]). The slot comes
//!    back however the request leaves, a panic on the caller's thread included;
//! 2. **deadline** — a [`SearchRequest::with_deadline`] budget runs from the
//!    call; expired before any work or mid-exploration (polled between cursor
//!    pops), the request fails with [`ServeError::DeadlineExceeded`];
//! 3. **cache probe** on shard 0 — a hit replays an earlier drained session's
//!    log and skips steps 4–5 (see [`crate::cache`]);
//! 4. **lookup** — once, on shard 0's keyword index, which every shard
//!    shares and which indexes the whole graph (see [`crate::shard`]);
//! 5. **one exploration** — a single [`SearchSession`] over those
//!    matches, drained to `k` and then remembered in the cache;
//! 6. **answer phase** ([`SearchRequest::with_min_answers`]) — the ranked
//!    queries evaluated in rank order, each limited to the still-missing
//!    count, until enough answers exist: the loop of
//!    [`PreparedGraph::answer_queries`], run over one evaluator that reads
//!    every shard's store as one (see [`crate::shard`]). The deadline is
//!    polled before each query; once it has passed, the phase stops and is
//!    flagged `truncated`. The top-k is drained first; to stop exploring
//!    early, hold a session and use [`SearchSession::answers_until`].
//!
//! ```
//! use kwsearch_core::{PreparedGraph, SearchConfig, SearchRequest, SearchService};
//! use kwsearch_rdf::fixtures::figure1_graph;
//!
//! let prepared = PreparedGraph::index(figure1_graph());
//! let service = SearchService::new([prepared], SearchConfig::default());
//! let reply = service.search(SearchRequest::new(["cimiano", "aifb"])).unwrap();
//! assert!(!reply.outcome.queries.is_empty());
//! assert_eq!(service.stats().admitted, 1);
//! ```
//!
//! Results do not depend on concurrency: sessions share nothing mutable but
//! the internally synchronized cache, whose hits are bit-identical to fresh
//! runs (`tests/concurrent_determinism.rs` pins this across threads).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kwsearch_query::Evaluator;

use crate::config::SearchConfig;
use crate::error::SearchError;
use crate::prepared::{answer_in_rank_order, PreparedGraph};
use crate::result::{AnswerPhase, RankedQuery, SearchOutcome};
use crate::session::SearchSession;
use crate::sync::lock_unpoisoned;

/// Why [`SearchService::search`] produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control turned the request away: `max_inflight` requests
    /// were already being served. Nothing was done for it; retry later.
    Rejected {
        /// The in-flight cap that was reached.
        max_inflight: usize,
    },
    /// The request's deadline expired before a complete result existed. The
    /// partial stream is discarded: a deadline caller asked for bounded
    /// latency, not a silently truncated top-k.
    DeadlineExceeded {
        /// The deadline the request carried.
        deadline: Duration,
    },
    /// The search itself failed with a typed [`SearchError`].
    Search(SearchError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected { max_inflight } => write!(
                f,
                "request rejected: {max_inflight} requests already in flight"
            ),
            Self::DeadlineExceeded { deadline } => {
                write!(f, "request deadline ({deadline:?}) exceeded")
            }
            Self::Search(error) => write!(f, "{error}"),
        }
    }
}

// No `source()`: `Display` already prints the wrapped search error.
impl std::error::Error for ServeError {}

impl From<SearchError> for ServeError {
    fn from(error: SearchError) -> Self {
        Self::Search(error)
    }
}

/// One keyword search to be served by [`SearchService::search`].
#[derive(Debug, Clone, Default)]
pub struct SearchRequest {
    /// The keyword query.
    pub keywords: Vec<String>,
    /// Per-request configuration; `None` uses the service default.
    pub config: Option<SearchConfig>,
    /// Latency budget, measured from the call to `search`; `None` means no
    /// deadline. See [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// When set, the drained top-k is followed by an answer phase that
    /// evaluates the queries in rank order until this many answers exist.
    pub min_answers: Option<usize>,
    /// Test seam: `search` panics after admission (see
    /// [`SearchRequest::with_injected_panic`]).
    #[cfg(test)]
    inject_panic: bool,
}

impl SearchRequest {
    /// A plain top-k request with the service's default configuration.
    pub fn new<S: AsRef<str>>(keywords: impl IntoIterator<Item = S>) -> Self {
        Self {
            keywords: keywords
                .into_iter()
                .map(|k| k.as_ref().to_string())
                .collect(),
            ..Self::default()
        }
    }

    /// Gives the request a latency budget: if no complete result exists
    /// when it expires, the request fails with
    /// [`ServeError::DeadlineExceeded`]. A budget that cannot be represented
    /// as a point in time (such as `Duration::MAX`) never expires.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the search configuration for this request.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Asks for an answer phase until `min_answers` answers exist.
    pub fn with_min_answers(mut self, min_answers: usize) -> Self {
        self.min_answers = Some(min_answers);
        self
    }

    /// Test seam: `search` panics on the caller's thread once the request
    /// holds its in-flight slot, so tests can show the slot is given back.
    #[cfg(test)]
    fn with_injected_panic(mut self) -> Self {
        self.inject_panic = true;
        self
    }
}

/// What [`SearchService::search`] produced for one [`SearchRequest`].
#[derive(Debug)]
pub struct SearchReply {
    /// The drained top-k with its match report, counters and timing split
    /// (`keyword_mapping_time`: cache probe and the one keyword lookup).
    pub outcome: SearchOutcome,
    /// The answer phase, when the request asked for one. A deadline that
    /// expires here truncates the phase (flagged) instead of failing the
    /// request: the top-k it follows is already complete.
    pub answer_phase: Option<AnswerPhase>,
}

/// Cumulative counters of a [`SearchService`] (see [`SearchService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted past the in-flight cap.
    pub admitted: u64,
    /// Requests turned away by admission control (not counted in `admitted`).
    pub rejected: u64,
    /// Admitted requests that failed with [`ServeError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// The most requests that were ever inside `search` at once.
    pub peak_inflight: usize,
    /// Ranked queries returned by successful requests.
    pub queries_returned: u64,
    /// Benchmark compat alias of `peak_inflight` (see the compat block).
    #[doc(hidden)]
    pub peak_queue_depth: usize,
    /// Benchmark compat alias of `rejected` (see the compat block).
    #[doc(hidden)]
    pub jobs_rejected: u64,
}

#[derive(Default)]
struct ServiceState {
    inflight: usize,
    stats: ServiceStats,
}

/// A thread-less serving front over one or more [`PreparedGraph`] shards —
/// see the [module docs](self) for the request lifecycle.
pub struct SearchService {
    shards: Vec<Arc<PreparedGraph>>,
    default_config: SearchConfig,
    max_inflight: usize,
    /// Admission count and counters: the service's only lock, held for a
    /// few stores at a time and never nested.
    state: Mutex<ServiceState>,
}

/// Gives the in-flight slot back however the request leaves `search`.
struct InflightGuard<'s>(&'s SearchService);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.0.state).inflight -= 1;
    }
}

impl SearchService {
    /// A service over `shards` (owned preparations or `Arc`s): one
    /// preparation is served unsharded, the shards of one
    /// [`PartitionPlan`](crate::shard::PartitionPlan) serve their union.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new<P: Into<Arc<PreparedGraph>>>(
        shards: impl IntoIterator<Item = P>,
        default_config: SearchConfig,
    ) -> Self {
        let shards: Vec<_> = shards.into_iter().map(Into::into).collect();
        assert!(!shards.is_empty(), "a service needs at least one shard");
        Self {
            shards,
            default_config,
            max_inflight: 64,
            state: Mutex::default(),
        }
    }

    /// Sets the admission cap (default 64) — the service's one option:
    /// requests beyond this many concurrently served ones are rejected.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// The preparations served, in shard order.
    pub fn shards(&self) -> &[Arc<PreparedGraph>] {
        &self.shards
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let stats = lock_unpoisoned(&self.state).stats;
        ServiceStats {
            peak_queue_depth: stats.peak_inflight, // benchmark compat
            jobs_rejected: stats.rejected,         // benchmark compat
            ..stats
        }
    }

    /// Serves one request on the caller's thread — see the
    /// [module docs](self) for the steps and the failure modes.
    pub fn search(&self, request: SearchRequest) -> Result<SearchReply, ServeError> {
        let _slot = self.admit()?;
        let result = self.serve(request);
        let mut state = lock_unpoisoned(&self.state);
        match &result {
            Ok(reply) => state.stats.queries_returned += reply.outcome.queries.len() as u64,
            Err(ServeError::DeadlineExceeded { .. }) => state.stats.deadline_exceeded += 1,
            Err(_) => {}
        }
        drop(state);
        result
    }

    fn admit(&self) -> Result<InflightGuard<'_>, ServeError> {
        let mut state = lock_unpoisoned(&self.state);
        if state.inflight >= self.max_inflight {
            state.stats.rejected += 1;
            return Err(ServeError::Rejected {
                max_inflight: self.max_inflight,
            });
        }
        state.inflight += 1;
        state.stats.admitted += 1;
        state.stats.peak_inflight = state.stats.peak_inflight.max(state.inflight);
        Ok(InflightGuard(self))
    }

    /// Steps 2–6 of the lifecycle, for a request that holds its slot.
    fn serve(&self, request: SearchRequest) -> Result<SearchReply, ServeError> {
        #[cfg(test)]
        if request.inject_panic {
            panic!("injected search panic (test seam)");
        }
        // A budget too large for `Instant` to represent is no deadline.
        let deadline = request
            .deadline
            .and_then(|budget| Instant::now().checked_add(budget));
        let exceeded = || ServeError::DeadlineExceeded {
            // Only deadline failures report it, and those carry a budget.
            deadline: request.deadline.unwrap_or_default(),
        };
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(exceeded());
        }
        let config = request
            .config
            .unwrap_or_else(|| self.default_config.clone());
        // Every shard carries the whole set's keyword index and summary;
        // shard 0's cache is the service's cache.
        let mut session = SearchSession::start(&self.shards[0], &request.keywords, config)?;
        session.set_deadline(deadline);
        session.drain();
        if session.aborted() {
            return Err(exceeded());
        }
        let outcome = session.into_partial_outcome();
        let answer_phase = request.min_answers.map(|min_answers| {
            answer_in_rank_order(&self.evaluator(), &outcome.queries, min_answers, deadline)
        });
        Ok(SearchReply {
            outcome,
            answer_phase,
        })
    }

    /// An evaluator over the union of the shards' stores: every shard's
    /// graph shares one id space, so shard 0's resolves the constants.
    pub(crate) fn evaluator(&self) -> Evaluator<'_> {
        let stores = self.shards.iter().map(|shard| shard.store());
        Evaluator::over_stores(self.shards[0].graph(), stores)
    }
}

impl std::fmt::Debug for SearchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchService")
            .field("shards", &self.shards.len())
            .field("max_inflight", &self.max_inflight)
            .field("default_config", &self.default_config)
            .finish_non_exhaustive()
    }
}

/// Benchmark compat, going with the `benchmark` catch-up issue (ROADMAP item 4):
/// the names the frozen `benchmark/` still calls. All of it, and the two hidden
/// `ServiceStats` fields, only delegates to `SearchService::{new, search}`.
#[doc(hidden)]
pub mod compat {
    #![allow(
        missing_debug_implementations,
        reason = "hidden shims that only delegate to SearchService"
    )]
    use super::*;
    pub struct SearchResponse {
        pub result: Result<SearchOutcome, ServeError>,
        pub service_time: Duration,
    }
    pub type SearchTicket = SearchResponse;
    impl SearchResponse {
        pub fn wait(self) -> Self {
            self
        }
    }
    impl SearchService {
        pub fn start(prepared: Arc<PreparedGraph>, config: SearchConfig, _workers: usize) -> Self {
            Self::new([prepared], config)
        }
        pub fn submit(&self, request: SearchRequest) -> Result<SearchTicket, ServeError> {
            let start = Instant::now();
            let result = match self.search(request) {
                Err(rejected @ ServeError::Rejected { .. }) => return Err(rejected),
                result => result.map(|reply| reply.outcome),
            };
            let service_time = start.elapsed();
            Ok(SearchResponse {
                result,
                service_time,
            })
        }
    }
    pub type ShardedServiceOptions = ();
    pub struct ShardedOutcome {
        pub queries: Vec<RankedQuery>,
        pub scatter_time: Duration,
        pub merge_time: Duration,
        pub early_emissions: usize,
    }
    pub struct ShardedService(SearchService);
    impl ShardedService {
        pub fn start(shards: Vec<PreparedGraph>, config: SearchConfig, _: ()) -> Self {
            Self(SearchService::new(shards, config))
        }
        pub fn search(&self, request: SearchRequest) -> Result<ShardedOutcome, ServeError> {
            let outcome = self.0.search(request)?.outcome;
            Ok(ShardedOutcome {
                early_emissions: outcome.queries.len(),
                queries: outcome.queries,
                scatter_time: outcome.keyword_mapping_time,
                merge_time: outcome.exploration_time,
            })
        }
        pub fn shutdown(self) {}
    }
}
pub use compat::*;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    pub(crate) const RUNNING_EXAMPLE: [&str; 3] = ["2006", "cimiano", "aifb"];

    /// One shard, cache on: the unsharded deployment.
    fn service() -> SearchService {
        let prepared = PreparedGraph::index(figure1_graph());
        SearchService::new([prepared], SearchConfig::default())
    }

    fn cache_hits(service: &SearchService) -> u64 {
        service.shards()[0].augmentation_cache().stats().hits
    }

    /// Eight client threads and a final cache hit all get, bit for bit, what
    /// a direct session on an uncached preparation computes.
    #[test]
    fn serves_concurrent_submissions_identically_to_direct_sessions() {
        let service = service();
        let direct = PreparedGraph::index_with(figure1_graph(), Default::default(), 0)
            .session(&RUNNING_EXAMPLE, SearchConfig::default())
            .unwrap()
            .into_outcome();
        let assert_direct = |got: SearchOutcome| {
            assert_eq!(got.queries.len(), direct.queries.len());
            for (got, want) in got.queries.iter().zip(&direct.queries) {
                assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                assert_eq!(got.query.canonicalized(), want.query.canonicalized());
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let reply = service.search(SearchRequest::new(RUNNING_EXAMPLE));
                    assert_direct(reply.expect("the running example matches").outcome);
                });
            }
        });
        let hits = cache_hits(&service);
        let replayed = service.search(SearchRequest::new(RUNNING_EXAMPLE)).unwrap();
        assert_eq!(cache_hits(&service), hits + 1, "served by replay");
        assert_direct(replayed.outcome);
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.rejected), (9, 0));
        assert!((1..=8).contains(&stats.peak_inflight), "{stats:?}");
    }

    #[test]
    fn workers_share_the_augmentation_cache() {
        let service = service();
        let request = || SearchRequest::new(["cimiano", "aifb"]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| (0..3).for_each(|_| drop(service.search(request()).unwrap())));
            }
        });
        // Only a thread's first request can race the first insert.
        assert!(cache_hits(&service) >= 8, "expected shared-cache hits");
    }

    /// The top-k is drained whole, then answered in rank order.
    #[test]
    fn min_answers_requests_carry_an_answer_phase() {
        let service = service();
        let plain = service
            .search(SearchRequest::new(["publications"]))
            .unwrap();
        assert!(plain.answer_phase.is_none());
        let reply = service
            .search(SearchRequest::new(["publications"]).with_min_answers(2))
            .unwrap();
        let phase = reply.answer_phase.expect("answer phase was requested");
        assert!(phase.total_answers() >= 2, "two publications exist");
        assert!(!phase.truncated);
        assert!(phase.queries_processed <= reply.outcome.queries.len());
        assert_eq!(reply.outcome.queries.len(), plain.outcome.queries.len());
    }

    #[test]
    fn per_request_config_overrides_the_default() {
        let request =
            SearchRequest::new(["cimiano", "publication"]).with_config(SearchConfig::with_k(2));
        assert!(service().search(request).unwrap().outcome.queries.len() <= 2);
    }

    /// Nothing matches: the session's typed error, through the service.
    pub(crate) fn check_unmatched_keywords(service: SearchService) {
        let error = service
            .search(SearchRequest::new(["xyzzy-unknown"]))
            .unwrap_err();
        let ServeError::Search(SearchError::AllKeywordsUnmatched { keywords }) = error else {
            panic!("expected a search error, got {error:?}");
        };
        assert_eq!(keywords.len(), 1);
    }

    #[test]
    fn unmatched_keywords_surface_as_typed_errors() {
        check_unmatched_keywords(service());
    }

    /// A deadline already expired at admission fails the request before any
    /// lookup, is counted, and gives its slot back: under `max_inflight = 1`
    /// the next request (without a deadline) is admitted and served.
    pub(crate) fn check_expired_deadline(service: SearchService) {
        let service = service.with_max_inflight(1);
        let error = service
            .search(SearchRequest::new(RUNNING_EXAMPLE).with_deadline(Duration::ZERO))
            .expect_err("a zero deadline cannot be met");
        let deadline = Duration::ZERO;
        assert_eq!(error, ServeError::DeadlineExceeded { deadline });
        let reply = service.search(SearchRequest::new(RUNNING_EXAMPLE));
        assert!(!reply
            .expect("the slot came back")
            .outcome
            .queries
            .is_empty());
        let stats = service.stats();
        assert_eq!(
            (stats.admitted, stats.rejected, stats.deadline_exceeded),
            (2, 0, 1)
        );
    }

    #[test]
    fn an_expired_deadline_is_a_typed_error_not_a_truncated_result() {
        check_expired_deadline(service());
    }

    /// `Duration::MAX` overflows `Instant`: the request runs without a
    /// deadline instead of panicking.
    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let service = service();
        let reply = service
            .search(SearchRequest::new(RUNNING_EXAMPLE).with_deadline(Duration::MAX))
            .expect("served without a deadline");
        let stats = service.stats();
        assert_eq!(
            (stats.admitted, stats.rejected, stats.deadline_exceeded),
            (1, 0, 0)
        );
        assert_eq!(stats.queries_returned, reply.outcome.queries.len() as u64);
        assert!(stats.queries_returned > 0);
    }

    /// Three sequential requests: all admitted, all served, one at a time.
    #[test]
    fn stats_track_submissions_served_jobs_and_peak_depth() {
        let service = service();
        let request = || SearchRequest::new(["publications"]);
        let returned: usize = (0..3)
            .map(|_| service.search(request()).unwrap().outcome.queries.len())
            .sum();
        let stats = service.stats();
        assert_eq!(
            (stats.admitted, stats.rejected, stats.deadline_exceeded),
            (3, 0, 0)
        );
        assert_eq!(stats.queries_returned, returned as u64);
        assert_eq!(stats.peak_inflight, 1, "sequential callers never overlap");
    }

    /// A panic inside `search` unwinds the caller's thread; the slot it held
    /// comes back and the service keeps serving.
    #[test]
    fn a_panicking_search_gives_its_slot_back_and_the_service_keeps_serving() {
        let service = service().with_max_inflight(1);
        let request = SearchRequest::new(["publications"]).with_injected_panic();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = service.search(request);
        }))
        .expect_err("the injected panic reaches the caller");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"injected search panic (test seam)")
        );
        assert!(service.search(SearchRequest::new(["publications"])).is_ok());
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.rejected), (2, 0));
    }
}
