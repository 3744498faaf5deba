//! Concurrent serving of one prepared graph from a worker pool.
//!
//! The read path is immutable (see [`PreparedGraph`]), so serving many
//! keyword searches at once needs no sharding, copying or locking of the
//! indexes: a [`SearchService`] owns an
//! `Arc<PreparedGraph>`, spawns a fixed pool of `std::thread` workers, and
//! feeds them from a submission queue. Each worker runs ordinary
//! [`SearchSession`](crate::SearchSession)s against the shared preparation —
//! the augmentation cache inside the prepared graph is shared too, so hot
//! keyword combinations are matched and augmented once, pool-wide.
//!
//! Admission is controlled: the submission queue is bounded
//! ([`DEFAULT_QUEUE_CAPACITY`], or [`SearchService::start_with_capacity`]),
//! and a full queue rejects the request with [`ServeError::Rejected`]
//! instead of queueing unboundedly. Requests may also carry a deadline
//! ([`SearchRequest::with_deadline`]): a request whose deadline expires
//! while still queued is answered with [`ServeError::DeadlineExceeded`]
//! without searching, and one that expires mid-exploration is cancelled
//! cooperatively (the exploration loop polls the deadline between cursor
//! pops) and answered the same way.
//!
//! Results are delivered through per-request [`SearchTicket`]s:
//!
//! ```
//! use kwsearch_core::serve::{SearchRequest, SearchService};
//! use kwsearch_core::{PreparedGraph, SearchConfig};
//! use kwsearch_rdf::fixtures::figure1_graph;
//! use std::sync::Arc;
//!
//! let service = SearchService::start(
//!     Arc::new(PreparedGraph::index(figure1_graph())),
//!     SearchConfig::default(),
//!     4, // workers
//! );
//! let tickets: Vec<_> = [vec!["cimiano".to_string()], vec!["aifb".to_string()]]
//!     .into_iter()
//!     .map(|keywords| service.submit(SearchRequest::new(keywords)).unwrap())
//!     .collect();
//! for ticket in tickets {
//!     let response = ticket.wait();
//!     assert!(!response.result.unwrap().queries.is_empty());
//! }
//! ```
//!
//! Determinism is unaffected by concurrency: sessions share nothing mutable
//! but the internally synchronized cache, whose hits are bit-identical to
//! fresh runs — the cross-thread determinism suite
//! (`tests/concurrent_determinism.rs`) pins exactly this.

use std::collections::VecDeque;
// Reply tickets are per-request rendezvous channels between exactly one
// worker and one caller; the model scenarios drive the job queue directly,
// so `mpsc` stays a std primitive outside the facade.
// lint: allow(no-raw-sync, reason = "mpsc reply channels are per-request rendezvous, never contended; model scenarios bypass them")
use std::sync::{mpsc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::SearchConfig;
use crate::error::SearchError;
use crate::prepared::PreparedGraph;
use crate::result::{AnswerPhase, SearchOutcome};
use crate::sync::{lock_unpoisoned, Arc, Condvar, Mutex};

/// Queue capacity used by [`SearchService::start`]: deep enough that no
/// realistic burst against a healthy pool is turned away, small enough that
/// a stalled pool rejects instead of buffering requests without bound (see
/// [`ServeError::Rejected`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Why the serving layer could not produce a [`SearchOutcome`] for a
/// request: the shared failure contract of [`SearchService`] and the
/// sharded coordinator ([`crate::shard::ShardedService`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control turned the request away: the submission queue was
    /// at capacity. The request was never enqueued; retry later or against
    /// a larger pool.
    Rejected {
        /// The capacity of the queue that was full (for the sharded
        /// coordinator, which has no queue: its in-flight cap).
        queue_capacity: usize,
    },
    /// The request's deadline expired before a complete result existed —
    /// either while the request was still queued, or mid-exploration (the
    /// partial stream is discarded: a deadline caller asked for bounded
    /// latency, not a silently truncated top-k).
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
            Self::Rejected { queue_capacity } => write!(
                f,
                "request rejected: submission queue at capacity ({queue_capacity})"
            ),
            Self::DeadlineExceeded { deadline } => {
                write!(f, "request deadline ({deadline:?}) exceeded")
            }
            Self::Search(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Search(error) => Some(error),
            _ => None,
        }
    }
}

impl From<SearchError> for ServeError {
    fn from(error: SearchError) -> Self {
        Self::Search(error)
    }
}

/// One keyword search to be served by a [`SearchService`] worker.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The keyword query.
    pub keywords: Vec<String>,
    /// Per-request configuration; `None` uses the service default.
    pub config: Option<SearchConfig>,
    /// Latency budget, measured from submission (so queueing counts
    /// against it); `None` means no deadline. See
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// When set, the worker interleaves the answer phase with the
    /// exploration ([`SearchSession::answers_until`](crate::SearchSession::answers_until))
    /// until at least this many answers exist, and the returned outcome
    /// covers only the queries the answer phase reached (no drain past the
    /// target).
    pub min_answers: Option<usize>,
    /// Test seam: makes the serving worker panic mid-job (see
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
            config: None,
            deadline: None,
            min_answers: None,
            #[cfg(test)]
            inject_panic: false,
        }
    }

    /// Gives the request a latency budget, measured from submission: if no
    /// complete result exists when it expires, the response is
    /// [`ServeError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Test seam: the worker that picks this request up panics mid-job
    /// instead of serving it. Exists so the pool's panic containment
    /// (drop-drain with a dead worker, poisoned-lock recovery) can be
    /// exercised from tests; serving code never sets it.
    #[cfg(test)]
    fn with_injected_panic(mut self) -> Self {
        self.inject_panic = true;
        self
    }

    /// Overrides the search configuration for this request.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Asks for the interleaved answer phase until `min_answers` answers.
    pub fn with_min_answers(mut self, min_answers: usize) -> Self {
        self.min_answers = Some(min_answers);
        self
    }
}

/// What a worker produced for one [`SearchRequest`].
#[derive(Debug)]
pub struct SearchResponse {
    /// The search outcome, or the typed serving error.
    pub result: Result<SearchOutcome, ServeError>,
    /// The answer phase, when the request asked for one.
    pub answer_phase: Option<AnswerPhase>,
    /// Wall-clock service time on the worker (queueing excluded).
    pub service_time: Duration,
    /// Index of the worker that served the request.
    pub worker: usize,
}

/// The receiving end of one submitted request.
#[must_use = "a dropped ticket discards the response"]
#[derive(Debug)]
pub struct SearchTicket {
    receiver: mpsc::Receiver<SearchResponse>,
}

impl SearchTicket {
    /// Blocks until the response is available.
    ///
    /// # Panics
    ///
    /// Panics if the serving worker died without replying (a worker panic —
    /// a bug, not an expected condition).
    pub fn wait(self) -> SearchResponse {
        self.receiver
            .recv()
            // lint: allow(no-unwrap, reason = "documented panic: a worker dying without replying is a bug surfaced here, not an expected condition")
            .expect("search worker dropped the reply channel without responding")
    }
}

pub(crate) struct Job {
    pub(crate) request: SearchRequest,
    pub(crate) reply: mpsc::Sender<SearchResponse>,
    /// Absolute form of `request.deadline`, fixed at submission so the
    /// budget covers time spent queued, not just time on a worker.
    pub(crate) deadline: Option<Instant>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Cumulative serving metrics, kept consistent with the queue they describe
/// (see [`SearchService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted by [`SearchService::submit`] since startup.
    pub jobs_submitted: u64,
    /// Requests handed to a worker since startup.
    pub jobs_served: u64,
    /// Requests turned away by admission control (full queue) since
    /// startup. Rejected requests are not counted in `jobs_submitted`.
    pub jobs_rejected: u64,
    /// The deepest the submission queue has ever been.
    pub peak_queue_depth: usize,
}

/// The submission queue: a mutex-protected deque with a condition variable,
/// closed on shutdown so idle workers wake up and exit, plus a metrics
/// mutex updated while the queue lock is held.
///
/// Lock order (workspace-wide, pinned by the `lock-order` lint's
/// acquisition graph): queue `state` **before** `metrics`. The nesting is
/// deliberate — `peak_queue_depth` and the submitted/served counters must
/// snapshot the queue they describe, so they are updated under the queue
/// lock rather than after it.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    metrics: Mutex<ServiceStats>,
    /// Admission bound: pushes beyond this depth are rejected.
    capacity: usize,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            metrics: Mutex::new(ServiceStats::default()),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn push(&self, job: Job) -> Result<(), ServeError> {
        self.push_all(std::iter::once(job))
    }

    /// Enqueues a batch atomically — all jobs under one lock acquisition
    /// and one wakeup, and all-or-nothing against the capacity bound, so a
    /// partially admitted batch can never exist.
    pub(crate) fn push_batch(&self, jobs: Vec<Job>) -> Result<(), ServeError> {
        if jobs.is_empty() {
            return Ok(());
        }
        self.push_all(jobs.into_iter())
    }

    fn push_all(&self, jobs: impl ExactSizeIterator<Item = Job>) -> Result<(), ServeError> {
        let count = jobs.len() as u64;
        let mut state = lock_unpoisoned(&self.state);
        debug_assert!(!state.closed, "submit after shutdown");
        if state.jobs.len() + jobs.len() > self.capacity {
            // lint: allow(lock-discipline, reason = "documented order: queue state before metrics; the rejection count must snapshot the queue that caused it")
            let mut metrics = lock_unpoisoned(&self.metrics);
            metrics.jobs_rejected += count;
            drop(metrics);
            return Err(ServeError::Rejected {
                queue_capacity: self.capacity,
            });
        }
        state.jobs.extend(jobs);
        let depth = state.jobs.len();
        // lint: allow(lock-discipline, reason = "documented order: queue state before metrics; the depth snapshot must match the queue it measures")
        let mut metrics = lock_unpoisoned(&self.metrics);
        metrics.jobs_submitted += count;
        metrics.peak_queue_depth = metrics.peak_queue_depth.max(depth);
        drop(metrics);
        drop(state);
        if count == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
        Ok(())
    }

    // lint: wait-loop
    #[cfg(not(all(kwsearch_model, kwsearch_model_mutation)))]
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                // lint: allow(lock-discipline, reason = "documented order: queue state before metrics, so served counts never outrun the queue")
                let mut metrics = lock_unpoisoned(&self.metrics);
                metrics.jobs_served += 1;
                drop(metrics);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Seeded mutation (b): acquires `metrics` before `state` — the inverse
    /// of `push`'s documented order, on the one nested pair that genuinely
    /// races it (workers pop while submitters push). The model checker must
    /// report the resulting AB-BA deadlock (`tests/model_mutations.rs`),
    /// and the `lock-order` lint would flag the cycle were the inverted
    /// edge not explicitly waived as a fixture.
    // lint: wait-loop
    #[cfg(all(kwsearch_model, kwsearch_model_mutation))]
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut metrics = lock_unpoisoned(&self.metrics);
        // lint: allow(lock-order, reason = "seeded mutation fixture: the inverted edge exists to be caught by the model checker, not to be ordered")
        let mut state = lock_unpoisoned(&self.state); // lint: allow(lock-discipline, reason = "seeded mutation fixture, compiled only under kwsearch_model_mutation")
        loop {
            if let Some(job) = state.jobs.pop_front() {
                metrics.jobs_served += 1;
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn close(&self) {
        let mut state = lock_unpoisoned(&self.state);
        state.closed = true;
        // Seeded mutation (a′): a queue that never held a job closes without
        // its notify_all ("nobody to wake" — backwards: that is exactly when
        // every worker is parked), leaving an idle worker blocked in `pop`
        // forever; the model checker must report it as a lost wakeup
        // (`tests/model_mutations.rs`). Scoped to the never-used queue (no
        // push ever grew the deque) so it stays out of the submit/drain
        // scenario, where the explorer's deepest-first search would meet it
        // before mutation (b)'s deadlock.
        #[cfg(all(kwsearch_model, kwsearch_model_mutation))]
        if state.jobs.capacity() == 0 {
            return;
        }
        drop(state);
        self.ready.notify_all();
    }

    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.state).jobs.len()
    }

    pub(crate) fn stats(&self) -> ServiceStats {
        *lock_unpoisoned(&self.metrics)
    }
}

/// A `std::thread` worker pool serving keyword searches against one shared
/// [`PreparedGraph`].
///
/// Workers run until the service is dropped (or [`Self::shutdown`] is
/// called): outstanding submissions are drained, then the threads are
/// joined. The service is `Send + Sync`, so it can itself be shared — e.g.
/// behind an `Arc` in a network front-end — and submissions from many
/// producer threads interleave safely.
pub struct SearchService {
    prepared: Arc<PreparedGraph>,
    default_config: SearchConfig,
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl SearchService {
    /// Starts a pool of `workers` threads (at least one) serving sessions
    /// against `prepared` with `default_config`, admitting up to
    /// [`DEFAULT_QUEUE_CAPACITY`] queued requests.
    pub fn start(
        prepared: Arc<PreparedGraph>,
        default_config: SearchConfig,
        workers: usize,
    ) -> Self {
        Self::start_with_capacity(prepared, default_config, workers, DEFAULT_QUEUE_CAPACITY)
    }

    /// [`Self::start`] with an explicit submission-queue capacity (at least
    /// one): submissions beyond `queue_capacity` outstanding requests are
    /// rejected with [`ServeError::Rejected`].
    pub fn start_with_capacity(
        prepared: Arc<PreparedGraph>,
        default_config: SearchConfig,
        workers: usize,
        queue_capacity: usize,
    ) -> Self {
        let queue = Arc::new(JobQueue::new(queue_capacity));
        let workers = (0..workers.max(1))
            .map(|worker| {
                let prepared = Arc::clone(&prepared);
                let queue = Arc::clone(&queue);
                let default_config = default_config.clone();
                std::thread::Builder::new()
                    .name(format!("kwsearch-worker-{worker}"))
                    .spawn(move || worker_loop(worker, &prepared, &default_config, &queue))
                    // lint: allow(no-unwrap, reason = "thread spawning fails only on resource exhaustion at pool startup; no graceful degradation exists")
                    .expect("spawning a search worker thread")
            })
            .collect();
        Self {
            prepared,
            default_config,
            queue,
            workers,
        }
    }

    /// Enqueues a request and returns the ticket its response arrives on,
    /// or [`ServeError::Rejected`] when the queue is at capacity. The
    /// request's deadline clock starts now, not when a worker picks it up.
    pub fn submit(&self, request: SearchRequest) -> Result<SearchTicket, ServeError> {
        let (reply, receiver) = mpsc::channel();
        let deadline = request.deadline.map(|budget| Instant::now() + budget);
        self.queue.push(Job {
            request,
            reply,
            deadline,
        })?;
        Ok(SearchTicket { receiver })
    }

    /// Enqueues a batch of requests atomically: one queue-lock acquisition
    /// and one pool wakeup for the whole batch, and admission is
    /// all-or-nothing — either every request fits under the capacity bound
    /// (tickets returned in submission order) or none is enqueued.
    pub fn submit_batch(
        &self,
        requests: impl IntoIterator<Item = SearchRequest>,
    ) -> Result<Vec<SearchTicket>, ServeError> {
        let now = Instant::now();
        let mut jobs = Vec::new();
        let mut tickets = Vec::new();
        for request in requests {
            let (reply, receiver) = mpsc::channel();
            let deadline = request.deadline.map(|budget| now + budget);
            jobs.push(Job {
                request,
                reply,
                deadline,
            });
            tickets.push(SearchTicket { receiver });
        }
        self.queue.push_batch(jobs)?;
        Ok(tickets)
    }

    /// Convenience: submits a plain top-k request for `keywords`.
    pub fn submit_keywords<S: AsRef<str>>(
        &self,
        keywords: &[S],
    ) -> Result<SearchTicket, ServeError> {
        self.submit(SearchRequest::new(keywords.iter().map(AsRef::as_ref)))
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of submitted requests not yet picked up by a worker.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The admission bound: submissions beyond this many outstanding
    /// requests are rejected.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The shared preparation the pool serves.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// The configuration used for requests without an explicit one.
    pub fn default_config(&self) -> &SearchConfig {
        &self.default_config
    }

    /// Cumulative serving metrics: submissions, served jobs, and the peak
    /// submission-queue depth.
    pub fn stats(&self) -> ServiceStats {
        self.queue.stats()
    }

    /// Closes the submission queue, drains outstanding requests and joins
    /// the workers. Dropping the service does the same; this form merely
    /// makes the blocking explicit.
    pub fn shutdown(self) {}
}

impl Drop for SearchService {
    fn drop(&mut self) {
        // Close (sets the flag and notifies) strictly before joining, so
        // idle workers wake up and exit instead of waiting forever.
        self.queue.close();
        // Join *every* worker before re-raising anything: resuming the
        // first panic mid-loop would leak the remaining handles and skip
        // draining their outstanding jobs.
        let mut first_panic = None;
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                if first_panic.is_none() {
                    first_panic = Some(panic);
                } else {
                    eprintln!("kwsearch-core: additional search worker panicked: {panic:?}");
                }
            }
        }
        if let Some(panic) = first_panic {
            // A panicking worker poisoned nothing shared (sessions are
            // per-request); surface the panic here instead of hiding it —
            // unless this drop is itself running during an unwind (e.g. the
            // caller's `SearchTicket::wait` panicked about the dead worker),
            // where a second panic would abort the process and destroy the
            // original message.
            if std::thread::panicking() {
                eprintln!("kwsearch-core: search worker panicked: {panic:?}");
            } else {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl std::fmt::Debug for SearchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchService")
            .field("workers", &self.workers.len())
            .field("pending", &self.pending())
            .field("default_config", &self.default_config)
            .finish_non_exhaustive()
    }
}

fn worker_loop(
    worker: usize,
    prepared: &PreparedGraph,
    default_config: &SearchConfig,
    queue: &JobQueue,
) {
    while let Some(job) = queue.pop() {
        let Job {
            request,
            reply,
            deadline,
        } = job;
        #[cfg(test)]
        if request.inject_panic {
            panic!("injected worker panic (test seam)");
        }
        let start = Instant::now();
        let deadline_error = || ServeError::DeadlineExceeded {
            // Jobs carry an absolute deadline only when the request had a
            // budget, so the unwrap-to-zero is unreachable in practice.
            deadline: request.deadline.unwrap_or(Duration::ZERO),
        };
        // A request that spent its whole budget queued is answered without
        // searching at all — tail-latency control means shedding work the
        // caller has already given up on.
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            let _ = reply.send(SearchResponse {
                result: Err(deadline_error()),
                answer_phase: None,
                service_time: start.elapsed(),
                worker,
            });
            continue;
        }
        let config = request
            .config
            .clone()
            .unwrap_or_else(|| default_config.clone());
        let (result, answer_phase) = match prepared.session(&request.keywords, config) {
            Ok(mut session) => {
                session.set_deadline(deadline);
                match request.min_answers {
                    Some(min_answers) => {
                        let phase = session.answers_until(min_answers);
                        if session.aborted() {
                            (Err(deadline_error()), None)
                        } else {
                            (Ok(session.into_partial_outcome()), Some(phase))
                        }
                    }
                    None => {
                        // Drain by hand instead of `into_outcome` so an
                        // abort can still be observed on the session: a
                        // deadline hit mid-stream discards the partial
                        // prefix rather than passing it off as a top-k.
                        while session.next_query().is_some() {}
                        if session.aborted() {
                            (Err(deadline_error()), None)
                        } else {
                            (Ok(session.into_partial_outcome()), None)
                        }
                    }
                }
            }
            Err(error) => (Err(ServeError::Search(error)), None),
        };
        // A closed ticket (submitter gave up) is not an error.
        let _ = reply.send(SearchResponse {
            result,
            answer_phase,
            service_time: start.elapsed(),
            worker,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    fn prepared() -> Arc<PreparedGraph> {
        Arc::new(PreparedGraph::index(figure1_graph()))
    }

    fn service(workers: usize) -> SearchService {
        SearchService::start(prepared(), SearchConfig::default(), workers)
    }

    #[test]
    fn serves_concurrent_submissions_identically_to_direct_sessions() {
        let service = service(4);
        let direct = service
            .prepared()
            .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome();
        let tickets: Vec<_> = (0..8)
            .map(|_| {
                service
                    .submit_keywords(&["2006", "cimiano", "aifb"])
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let response = ticket.wait();
            let outcome = response.result.expect("the running example matches");
            assert_eq!(outcome.queries.len(), direct.queries.len());
            for (got, want) in outcome.queries.iter().zip(direct.queries.iter()) {
                assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                assert_eq!(got.query.canonicalized(), want.query.canonicalized());
            }
            assert!(response.worker < service.worker_count());
        }
    }

    #[test]
    fn min_answers_requests_carry_an_answer_phase() {
        let service = service(2);
        let response = service
            .submit(SearchRequest::new(["publications"]).with_min_answers(2))
            .unwrap()
            .wait();
        let phase = response.answer_phase.expect("answer phase was requested");
        assert!(phase.total_answers() >= 2, "two publications exist");
        let outcome = response.result.unwrap();
        assert_eq!(outcome.queries.len(), phase.queries_processed);
    }

    #[test]
    fn per_request_config_overrides_the_default() {
        let service = service(2);
        let response = service
            .submit(
                SearchRequest::new(["cimiano", "publication"]).with_config(SearchConfig::with_k(2)),
            )
            .unwrap()
            .wait();
        assert!(response.result.unwrap().queries.len() <= 2);
    }

    #[test]
    fn unmatched_keywords_surface_as_typed_errors() {
        let service = service(1);
        let response = service.submit_keywords(&["xyzzy-unknown"]).unwrap().wait();
        let ServeError::Search(SearchError::AllKeywordsUnmatched { keywords }) =
            response.result.unwrap_err()
        else {
            panic!("expected a search error");
        };
        assert_eq!(keywords.len(), 1);
    }

    #[test]
    fn shutdown_drains_outstanding_requests() {
        let service = service(1);
        let tickets: Vec<_> = (0..4)
            .map(|_| service.submit_keywords(&["publications"]).unwrap())
            .collect();
        service.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().result.is_ok());
        }
    }

    #[test]
    fn stats_track_submissions_served_jobs_and_peak_depth() {
        let service = service(1);
        let tickets: Vec<_> = (0..3)
            .map(|_| service.submit_keywords(&["publications"]).unwrap())
            .collect();
        for ticket in tickets {
            let _ = ticket.wait().result.unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.jobs_served, 3);
        assert!(
            (1..=3).contains(&stats.peak_queue_depth),
            "peak depth reflects real queueing: {stats:?}"
        );
    }

    #[test]
    fn drop_completes_when_a_worker_panicked_mid_job() {
        // One worker dies on the injected panic; the other keeps serving.
        // Drop must still join both and then re-raise the worker's panic —
        // the hang this guards against is a drop that waits on a thread
        // that will never see the close flag, or that leaks live workers
        // after the first panicked join.
        let service = service(2);
        let poisoned = service
            .submit(SearchRequest::new(["publications"]).with_injected_panic())
            .unwrap();
        let healthy: Vec<_> = (0..4)
            .map(|_| service.submit_keywords(&["publications"]).unwrap())
            .collect();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || service.shutdown()));
        let message = *result
            .expect_err("the worker panic is re-raised from drop")
            .downcast::<&str>()
            .expect("the injected panic carries its message");
        assert_eq!(message, "injected worker panic (test seam)");
        // The panicked job's ticket is dead; the drain guarantee still
        // holds for every job a live worker could reach.
        for ticket in healthy {
            assert!(ticket.wait().result.is_ok());
        }
        assert!(
            poisoned.receiver.recv().is_err(),
            "no reply from a dead worker"
        );
    }

    #[test]
    fn workers_share_the_augmentation_cache() {
        let service = service(4);
        let tickets: Vec<_> = (0..12)
            .map(|_| service.submit_keywords(&["cimiano", "aifb"]).unwrap())
            .collect();
        for ticket in tickets {
            let _ = ticket.wait().result.unwrap();
        }
        let stats = service.prepared().augmentation_cache().stats();
        // 12 identical requests: at least the non-racing majority hit.
        assert!(stats.hits >= 8, "expected shared-cache hits, got {stats:?}");
    }

    #[test]
    fn a_full_queue_rejects_submissions_with_the_typed_error() {
        // Deterministic construction of a stalled pool: the only worker
        // dies on an injected panic, so nothing ever drains the queue and
        // it can be filled to capacity without racing a consumer.
        let service = SearchService::start_with_capacity(prepared(), SearchConfig::default(), 1, 3);
        assert_eq!(service.queue_capacity(), 3);
        let kill = service
            .submit(SearchRequest::new(["publications"]).with_injected_panic())
            .unwrap();
        // Wait until the worker has picked the poison job up (the queue
        // length drops to zero), so capacity is measured on queued jobs
        // only, never on the one in flight.
        while service.pending() > 0 {
            std::thread::yield_now();
        }
        let _parked: Vec<_> = (0..3)
            .map(|_| service.submit_keywords(&["publications"]).unwrap())
            .collect();
        let rejected = service.submit_keywords(&["publications"]);
        assert_eq!(
            rejected.map(|_| ()).unwrap_err(),
            ServeError::Rejected { queue_capacity: 3 }
        );
        assert_eq!(service.stats().jobs_rejected, 1);
        // Shutdown re-raises the injected panic; the parked tickets die
        // with the queue (their jobs were closed out, never served).
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || service.shutdown()));
        assert!(result.is_err(), "the worker panic is re-raised from drop");
        assert!(kill.receiver.recv().is_err(), "no reply from a dead worker");
    }

    #[test]
    fn an_expired_deadline_is_a_typed_error_not_a_truncated_result() {
        let service = service(2);
        let response = service
            .submit(SearchRequest::new(["2006", "cimiano", "aifb"]).with_deadline(Duration::ZERO))
            .unwrap()
            .wait();
        assert_eq!(
            response.result.unwrap_err(),
            ServeError::DeadlineExceeded {
                deadline: Duration::ZERO
            }
        );
        assert!(response.answer_phase.is_none());
        // A request without a deadline on the same service is unaffected.
        let ok = service.submit_keywords(&["publications"]).unwrap().wait();
        assert!(ok.result.is_ok());
    }

    #[test]
    fn batch_submission_is_all_or_nothing() {
        let service = SearchService::start_with_capacity(prepared(), SearchConfig::default(), 1, 2);
        let kill = service
            .submit(SearchRequest::new(["publications"]).with_injected_panic())
            .unwrap();
        while service.pending() > 0 {
            std::thread::yield_now();
        }
        // Three requests against capacity two: the whole batch is refused,
        // and none of it reached the queue.
        let oversized = service.submit_batch((0..3).map(|_| SearchRequest::new(["publications"])));
        assert_eq!(
            oversized.map(|_| ()).unwrap_err(),
            ServeError::Rejected { queue_capacity: 2 }
        );
        assert_eq!(service.pending(), 0, "a rejected batch leaves no residue");
        assert_eq!(service.stats().jobs_rejected, 3);
        // A fitting batch is admitted whole.
        let fits = service
            .submit_batch((0..2).map(|_| SearchRequest::new(["publications"])))
            .unwrap();
        assert_eq!(fits.len(), 2);
        assert_eq!(service.pending(), 2);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || service.shutdown()));
        assert!(result.is_err(), "the worker panic is re-raised from drop");
        assert!(kill.receiver.recv().is_err(), "no reply from a dead worker");
    }
}
