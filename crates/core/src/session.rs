//! Resumable, streaming search sessions.
//!
//! The paper's top-k exploration is an *anytime* algorithm: candidate
//! queries pop off the cursor queue in ascending cost order, so the best
//! query is known long before the k-th. A [`SearchSession`] exposes that
//! property instead of hiding it behind a batch call: it owns the augmented
//! summary graph and the suspended
//! [`ExplorationState`], and hands out
//! ranked queries one at a time, each one *provably* rank-correct the moment
//! it is returned (its cost is at most the cheapest remaining cursor cost —
//! the same certificate the batch top-k termination uses).
//!
//! ```
//! use kwsearch_core::{PreparedGraph, SearchConfig};
//! use kwsearch_rdf::fixtures::figure1_graph;
//!
//! let prepared = PreparedGraph::index(figure1_graph());
//! let mut session = prepared
//!     .session(&["2006", "cimiano", "aifb"], SearchConfig::with_k(5))
//!     .unwrap();
//! let best = session.next_query().expect("the running example matches");
//! assert_eq!(best.rank, 1);
//! // The rest of the top-k is computed only if somebody asks for it.
//! let outcome = session.into_outcome();
//! assert!(outcome.queries.len() > 1);
//! ```

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use kwsearch_summary::AugmentedSummaryGraph;

use crate::cache::{AugmentationKey, CachedAugmentation};
use crate::config::SearchConfig;
use crate::error::{KeywordMatch, SearchError};
use crate::exploration::ExplorationState;
use crate::prepared::PreparedGraph;
use crate::query_map::map_subgraph_to_query;
use crate::result::{AnswerPhase, RankedQuery, SearchOutcome};

/// A resumable, streaming keyword search over one [`PreparedGraph`].
///
/// Created by [`PreparedGraph::session`]. The session runs the
/// keyword-to-element mapping and the summary-graph augmentation eagerly —
/// those are cheap and shared by every result — and then advances the
/// cursor exploration *lazily*:
///
/// * [`Self::next_query`] pops the next ranked query, exploring only as far
///   as needed to certify it,
/// * [`Self::answers_until`] interleaves the streaming answer phase with the
///   exploration: each query is evaluated the moment it is certified,
/// * [`Self::raise_k`] re-arms a (possibly drained) session for more
///   results,
/// * [`Self::into_outcome`] drains the rest and returns the familiar batch
///   [`SearchOutcome`].
#[must_use = "a search session does nothing until queries are pulled from it"]
pub struct SearchSession<'e> {
    prepared: &'e PreparedGraph,
    config: SearchConfig,
    keywords: Vec<KeywordMatch>,
    /// The augmented summary graph and the suspended cursor walk over it.
    /// `None` only for a cache hit whose replay log is still serving the
    /// stream — the graph is built only if the session has to explore for
    /// real ([`Self::raise_k`]), which on the hot serving path is never.
    exploration: Option<(AugmentedSummaryGraph<'e>, ExplorationState)>,
    /// Element count of the augmented graph (on a cache hit, as recorded by
    /// the session that inserted the entry).
    augmented_elements: usize,
    /// Queries emitted so far, in rank order (rank 1 first).
    queries: Vec<RankedQuery>,
    /// Canonical forms of the emitted queries, for deduplication: different
    /// subgraphs can normalise to the same conjunctive query.
    seen: BTreeSet<String>,
    /// Set once the stream is known to be complete for the current `k`.
    drained: bool,
    /// On a cache miss: the key this session missed under. A naturally
    /// drained, never-raised session inserts its complete emission log
    /// under that key so later same-key sessions replay instead of
    /// searching (see [`crate::cache`]).
    pending_insert: Option<AugmentationKey>,
    /// On a cache hit: the entry an earlier drained session inserted under
    /// the same key, plus the replay position. While set, [`Self::advance`]
    /// emits from the entry's log instead of exploring — bit-identically,
    /// since the exploration is deterministic. Dropped by [`Self::raise_k`],
    /// which falls back to real exploration.
    replay: Option<(crate::sync::Arc<CachedAugmentation>, usize)>,
    /// Whether [`Self::raise_k`] changed the configuration away from the
    /// one the cache key was computed for (disables the insert).
    raised: bool,
    /// Counters of exploration runs retired by [`Self::raise_k`]: the
    /// session's reported stats cover all the work it performed, matching
    /// the accumulated `exploration_time`.
    prior_stats: crate::exploration::ExplorationStats,
    keyword_mapping_time: Duration,
    /// Accumulated augmentation + exploration + query-mapping time across
    /// all advancing calls (the lazy equivalent of the batch
    /// `exploration_time`).
    exploration_time: Duration,
    /// Deadline installed by the serving layer, kept on the session so a
    /// state rebuilt by [`Self::raise_k`] inherits it.
    deadline: Option<Instant>,
    /// debug-invariants: a shadow exploration over a freshly built augmented
    /// graph that cross-checks every replayed emission against honest
    /// exploration.
    /// Deliberately separate from `exploration` so a replayed session still
    /// reports zero exploration work in [`Self::stats`] (counters describe
    /// effort; the shadow is a checker, not work the session performed).
    #[cfg(debug_assertions)]
    shadow: Option<(AugmentedSummaryGraph<'e>, ExplorationState)>,
    /// debug-invariants: the shadow's own dedup set, mirroring `seen` for
    /// the honest emission order.
    #[cfg(debug_assertions)]
    shadow_seen: BTreeSet<String>,
}

impl<'e> SearchSession<'e> {
    pub(crate) fn start<S: AsRef<str>>(
        prepared: &'e PreparedGraph,
        keywords: &[S],
        config: SearchConfig,
    ) -> Result<Self, SearchError> {
        Self::start_with_lookup(prepared, keywords, config, || {
            prepared.keyword_index().lookup_all(keywords)
        })
    }

    /// [`Self::start`] with the keyword-to-element mapping supplied by the
    /// caller: [`crate::serve::SearchService`] arrives here with the
    /// per-shard lookups merged into the exact global match lists (one list
    /// per keyword, in keyword order). Cache probe, replay, the typed
    /// unmatched error and the insert on a natural drain are this one path.
    ///
    /// Augmenting any shard's graph with the *global* matches yields the
    /// unsharded augmented summary graph: the augmentation's structure
    /// depends only on the shared summary and the matches, and shard graphs
    /// retain the full vertex and label tables.
    pub(crate) fn start_with_lookup<S: AsRef<str>>(
        prepared: &'e PreparedGraph,
        keywords: &[S],
        config: SearchConfig,
        lookup: impl FnOnce() -> Vec<Vec<kwsearch_keyword_index::KeywordMatch>>,
    ) -> Result<Self, SearchError> {
        // 0. Probe the result cache: a search depends only on the immutable
        // indexes, the configuration and the normalized query terms, so a
        // hit replays what an earlier drained session emitted, bit for bit
        // (see `crate::cache`). A miss is an ordinary cold start.
        let mapping_start = Instant::now();
        let cache = prepared.augmentation_cache();
        let key = cache.is_enabled().then(|| {
            AugmentationKey::new(
                config.clone(),
                keywords
                    .iter()
                    .map(|k| prepared.keyword_index().normalized_query_terms(k.as_ref()))
                    .collect(),
            )
        });
        if let Some(cached) = key.as_ref().and_then(|key| cache.probe(key)) {
            let report: Vec<KeywordMatch> = keywords
                .iter()
                .zip(&cached.element_matches)
                .enumerate()
                .map(|(position, (keyword, &element_matches))| KeywordMatch {
                    position,
                    keyword: keyword.as_ref().to_string(),
                    element_matches,
                })
                .collect();
            // A negative entry: these keywords are known to match nothing
            // at all — re-raise the error without re-matching.
            if cached.queries.is_none() {
                return Err(SearchError::AllKeywordsUnmatched { keywords: report });
            }
            let mut session = Self::assemble(
                prepared,
                config,
                report,
                None,
                cached.augmented_elements,
                mapping_start.elapsed(),
                Duration::ZERO,
            );
            session.replay = Some((cached, 0));
            return Ok(session);
        }

        // 1. Keyword-to-element mapping.
        let all_matches = lookup();
        let keyword_mapping_time = mapping_start.elapsed();

        let report: Vec<KeywordMatch> = keywords
            .iter()
            .zip(&all_matches)
            .enumerate()
            .map(|(position, (keyword, matches))| KeywordMatch {
                position,
                keyword: keyword.as_ref().to_string(),
                element_matches: matches.len(),
            })
            .collect();
        if !report.is_empty() && report.iter().all(|k| !k.is_matched()) {
            // Cache the *negative* verdict (log-less entry): repeats of a
            // failing query get the typed error straight from the cache
            // instead of re-running the matching.
            if let Some(key) = key {
                cache.insert(
                    key,
                    CachedAugmentation {
                        element_matches: report.iter().map(|k| k.element_matches).collect(),
                        augmented_elements: 0,
                        queries: None,
                    },
                );
            }
            return Err(SearchError::AllKeywordsUnmatched { keywords: report });
        }
        let matches: Vec<_> = all_matches.into_iter().filter(|m| !m.is_empty()).collect();

        // 2. Augmentation + the seeded exploration state.
        let mut session =
            Self::start_with_matches(prepared, report, &matches, config, keyword_mapping_time);
        session.pending_insert = key;
        Ok(session)
    }

    /// Augmentation plus the seeded exploration state over already-filtered
    /// matches (no empty per-keyword lists; `report` covers the original
    /// keyword positions).
    fn start_with_matches(
        prepared: &'e PreparedGraph,
        report: Vec<KeywordMatch>,
        matches: &[Vec<kwsearch_keyword_index::KeywordMatch>],
        config: SearchConfig,
        keyword_mapping_time: Duration,
    ) -> Self {
        let exploration_start = Instant::now();
        let augmented = AugmentedSummaryGraph::build(prepared.graph(), prepared.summary(), matches);
        let state = ExplorationState::new(&augmented, &config);
        let exploration_time = exploration_start.elapsed();

        let augmented_elements = augmented.element_count();
        Self::assemble(
            prepared,
            config,
            report,
            Some((augmented, state)),
            augmented_elements,
            keyword_mapping_time,
            exploration_time,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        prepared: &'e PreparedGraph,
        config: SearchConfig,
        keywords: Vec<KeywordMatch>,
        exploration: Option<(AugmentedSummaryGraph<'e>, ExplorationState)>,
        augmented_elements: usize,
        keyword_mapping_time: Duration,
        exploration_time: Duration,
    ) -> Self {
        Self {
            prepared,
            config,
            keywords,
            exploration,
            augmented_elements,
            queries: Vec::new(),
            seen: BTreeSet::new(),
            drained: false,
            pending_insert: None,
            replay: None,
            raised: false,
            prior_stats: crate::exploration::ExplorationStats::default(),
            keyword_mapping_time,
            exploration_time,
            deadline: None,
            #[cfg(debug_assertions)]
            shadow: None,
            #[cfg(debug_assertions)]
            shadow_seen: BTreeSet::new(),
        }
    }

    /// The augmented graph and a seeded cursor state under the current
    /// configuration, rebuilt from a fresh keyword lookup — what a replaying
    /// session never built. A hit means this session's keywords normalize to
    /// the entry's terms on the entry's snapshot, so the rebuilt graph is the
    /// one the inserting session explored.
    fn build_exploration(&self) -> (AugmentedSummaryGraph<'e>, ExplorationState) {
        let prepared: &'e PreparedGraph = self.prepared;
        let keywords: Vec<&str> = self.keywords.iter().map(|k| k.keyword.as_str()).collect();
        let matches: Vec<_> = prepared
            .keyword_index()
            .lookup_all(&keywords)
            .into_iter()
            .filter(|m| !m.is_empty())
            .collect();
        let augmented =
            AugmentedSummaryGraph::build(prepared.graph(), prepared.summary(), &matches);
        let state = ExplorationState::new(&augmented, &self.config);
        (augmented, state)
    }

    /// The prepared graph this session searches.
    pub fn prepared(&self) -> &'e PreparedGraph {
        self.prepared
    }

    /// Installs an absolute wall-clock deadline on the exploration: once it
    /// passes, the cursor walk aborts at its next deadline poll and the
    /// stream ends early with [`Self::aborted`] set. Queries already emitted
    /// stand; nothing further is certified or flushed. Applies to real
    /// exploration only — a cache-replay stream is O(results) and finishes
    /// ahead of any meaningful deadline.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        if let Some((_, state)) = self.exploration.as_mut() {
            state.set_deadline(deadline);
        }
    }

    /// Whether the exploration was cut short by the deadline. An aborted
    /// session's emitted prefix is still certified; the stream simply ends
    /// without a completeness claim.
    pub fn aborted(&self) -> bool {
        self.exploration
            .as_ref()
            .is_some_and(|(_, state)| state.is_aborted())
    }

    /// The configuration the session runs with (its `k` bounds the stream).
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The per-keyword match report (one entry per input keyword).
    pub fn keyword_matches(&self) -> &[KeywordMatch] {
        &self.keywords
    }

    /// The keywords that did not match any graph element (and were ignored
    /// by the exploration) — the session-side mirror of
    /// [`SearchOutcome::unmatched_keywords`].
    pub fn unmatched_keywords(&self) -> impl Iterator<Item = &KeywordMatch> {
        self.keywords.iter().filter(|k| !k.is_matched())
    }

    /// The queries emitted so far, in rank order.
    pub fn queries(&self) -> &[RankedQuery] {
        &self.queries
    }

    /// The exploration counters so far, covering *all* the work the session
    /// performed — including runs retired by [`Self::raise_k`] — so they
    /// stay consistent with the accumulated exploration time. After
    /// [`Self::next_query`] returned the rank-1 result, `stats().queue_pops`
    /// is typically a small fraction of what a drained session reports —
    /// that gap is what streaming buys. A session served from the cache's
    /// replay log reports only the (near-zero) work it actually did;
    /// counters describe effort, never results.
    pub fn stats(&self) -> crate::exploration::ExplorationStats {
        let mut stats = self.prior_stats;
        if let Some((_, state)) = &self.exploration {
            stats.absorb(state.stats());
        }
        stats
    }

    /// Advances the stream by one emitted query and returns its index in
    /// `self.queries` — the clone-free core of [`Self::next_query`], also
    /// used by the drain paths ([`Self::into_outcome`],
    /// [`Self::answers_until`]) so batch consumption allocates no copies.
    fn advance(&mut self) -> Option<usize> {
        if self.drained {
            return None;
        }
        let start = Instant::now();
        let result = loop {
            if self.queries.len() >= self.config.k {
                self.drain_complete();
                break None;
            }
            // Replay: an earlier drained session under the same cache key
            // recorded its complete emission log; the exploration is
            // deterministic, so emitting from the log is bit-identical to
            // re-exploring (the canonical set still grows so a later
            // `raise_k` can fast-forward past the replayed prefix).
            if let Some((entry, position)) = &mut self.replay {
                let log = entry.queries.as_deref().unwrap_or_default();
                if let Some(ranked) = log.get(*position) {
                    let ranked = ranked.clone();
                    *position += 1;
                    self.seen.insert(ranked.query.canonicalized().to_string());
                    debug_assert_eq!(ranked.rank, self.queries.len() + 1);
                    #[cfg(debug_assertions)]
                    self.check_replayed_emission(&ranked);
                    self.queries.push(ranked);
                    break Some(self.queries.len() - 1);
                }
                self.drained = true; // the log is complete — nothing follows
                break None;
            }
            let Some((augmented, state)) = self.exploration.as_mut() else {
                unreachable!("a session that is not replaying holds its exploration")
            };
            let Some(subgraph) = state.next_certified(augmented, &self.config) else {
                self.drain_complete();
                break None;
            };
            // debug-invariants: the Theorem-1 rank certificate — an emitted
            // subgraph costs at most the cheapest still-pending cursor (no
            // undiscovered subgraph can outrank it), and within one
            // exploration run the emission costs are non-decreasing. Both
            // are void when the `max_cursors` safety valve truncated the run
            // (results are explicitly uncertified then).
            #[cfg(debug_assertions)]
            if crate::invariants::enabled() && !state.stats().hit_cursor_limit {
                if let Some(bound) = state.cheapest_pending_cost() {
                    assert!(
                        subgraph.cost <= bound,
                        "certificate violated: emitting cost {} above the cheapest \
                         pending cursor cost {bound}",
                        subgraph.cost
                    );
                }
                if !self.raised {
                    if let Some(last) = self.queries.last() {
                        assert!(
                            subgraph.cost >= last.cost,
                            "emission monotonicity violated: cost {} after {}",
                            subgraph.cost,
                            last.cost
                        );
                    }
                }
            }
            // Query mapping + deduplication: different subgraphs can
            // normalise to the same conjunctive query; only the first
            // (cheapest) occurrence is emitted.
            let query = map_subgraph_to_query(augmented, &subgraph);
            let canonical = query.canonicalized().to_string();
            if !self.seen.insert(canonical) {
                continue;
            }
            self.queries.push(RankedQuery {
                rank: self.queries.len() + 1,
                cost: subgraph.cost,
                query,
                subgraph,
            });
            break Some(self.queries.len() - 1);
        };
        self.exploration_time += start.elapsed();
        result
    }

    /// debug-invariants: cross-checks one replayed emission against a shadow
    /// exploration running honestly over a freshly built augmented graph.
    /// The shadow is built lazily on the first replayed emission (so replay
    /// stays free when the sanitizer is off) and advanced in lockstep: every
    /// replayed query must match the shadow's next deduplicated emission bit
    /// for bit.
    #[cfg(debug_assertions)]
    fn check_replayed_emission(&mut self, replayed: &RankedQuery) {
        if !crate::invariants::enabled() {
            return;
        }
        if self.shadow.is_none() {
            self.shadow = Some(self.build_exploration());
        }
        let Some((augmented, state)) = self.shadow.as_mut() else {
            return;
        };
        loop {
            let Some(subgraph) = state.next_certified(augmented, &self.config) else {
                panic!(
                    "replay-log equality violated: the log emits rank {} but the \
                     shadow exploration is exhausted",
                    replayed.rank
                );
            };
            let query = map_subgraph_to_query(augmented, &subgraph);
            let canonical = query.canonicalized().to_string();
            if !self.shadow_seen.insert(canonical.clone()) {
                continue; // the honest stream dedups identically
            }
            assert_eq!(
                replayed.cost.to_bits(),
                subgraph.cost.to_bits(),
                "replay-log equality violated: rank {} cost differs from honest \
                 exploration",
                replayed.rank
            );
            assert_eq!(
                replayed.query.canonicalized().to_string(),
                canonical,
                "replay-log equality violated: rank {} query differs from honest \
                 exploration",
                replayed.rank
            );
            return;
        }
    }

    /// Marks the stream drained and, when this session explored under an
    /// unraised cache key, inserts its complete emission log into the cache
    /// so later same-key sessions replay instead of searching.
    fn drain_complete(&mut self) {
        self.drained = true;
        if self.raised {
            return;
        }
        // A run truncated by the `max_cursors` safety valve yields
        // best-effort results whose lack of certification is only visible
        // through `stats().hit_cursor_limit` — and a replayed session
        // reports its own (clean) stats. Never cache such a log: repeats
        // must re-explore so the flag reaches the caller every time.
        if self.stats().hit_cursor_limit {
            return;
        }
        // An aborted (deadline) drain is a truncated prefix, not the
        // complete stream — caching it would serve short results forever.
        if self.aborted() {
            return;
        }
        if let Some(key) = self.pending_insert.take() {
            self.prepared.augmentation_cache().insert(
                key,
                CachedAugmentation {
                    element_matches: self.keywords.iter().map(|k| k.element_matches).collect(),
                    augmented_elements: self.augmented_elements,
                    queries: Some(self.queries.clone()),
                },
            );
        }
    }

    /// Pops the next ranked query, advancing the exploration only until the
    /// result is provably rank-correct: its subgraph cost is at most the
    /// cost of the cheapest unexpanded cursor, so no still-undiscovered
    /// subgraph can outrank it. Returns `None` once `k` queries were
    /// emitted or the exploration is exhausted.
    ///
    /// The certificate has one exception: if the run was truncated by the
    /// `max_cursors` safety valve (`stats().hit_cursor_limit`), the
    /// remaining results are the best found so far, not provably the best
    /// overall.
    ///
    /// The returned query is a clone; the session keeps its own copy
    /// (see [`Self::queries`]).
    pub fn next_query(&mut self) -> Option<RankedQuery> {
        self.advance().map(|index| self.queries[index].clone())
    }

    /// Re-arms the session for more results: raises the result bound to
    /// `new_k` so the stream continues past the previous limit, including on
    /// a session that already returned `None`. Values of `new_k` at or below
    /// the current `k` are ignored (already-emitted queries cannot be
    /// taken back).
    ///
    /// The exploration's pruning bounds (candidate-list capacity, the
    /// per-(element, keyword) path cap, the combination limit) all scale
    /// with `k`, so the cursor walk is deterministically re-run at the new
    /// `k` — reusing the keyword mapping and the augmented summary graph.
    /// Already-delivered queries are never re-emitted (the replayed
    /// certified subgraphs map to canonical forms the dedup set already
    /// holds) and keep their ranks, so a session raised from `k` to `k'`
    /// emits exactly what a fresh `k'` session would. The one caveat: on
    /// exact cost ties a candidate the smaller `k`'s tighter pruning had
    /// suppressed can surface *between* already-delivered results in the
    /// fresh-`k'` order; the raised session still emits it — nothing is
    /// dropped — just at a later rank than the fresh session would assign.
    pub fn raise_k(&mut self, new_k: usize) {
        if new_k <= self.config.k {
            return;
        }
        self.config.k = new_k;
        let start = Instant::now();
        // The session's configuration now differs from the one its cache key
        // was computed for: stop replaying (the log covers the old `k` only)
        // and never insert this session's log under the stale key. The
        // re-exploration below fast-forwards past everything already emitted
        // — replayed or explored — via the canonical dedup set.
        self.raised = true;
        self.replay = None;
        let (augmented, mut state) = match self.exploration.take() {
            Some((augmented, retired)) => {
                self.prior_stats.absorb(retired.stats());
                let state = ExplorationState::new(&augmented, &self.config);
                (augmented, state)
            }
            // A replay-served session that never explored: build the graph
            // and seed the walk under the raised configuration.
            None => self.build_exploration(),
        };
        state.set_deadline(self.deadline);
        self.exploration = Some((augmented, state));
        self.drained = false;
        self.exploration_time += start.elapsed();
    }

    /// Interleaves the streaming answer phase with the exploration: pops
    /// queries with [`Self::next_query`] and evaluates each one the moment
    /// it is certified, stopping as soon as at least `min_answers` answers
    /// exist (each evaluation is limited to the still-missing count, like
    /// [`PreparedGraph::answer_queries`]). The paper's Fig. 5 interaction,
    /// without ever computing queries the answer phase does not reach.
    ///
    /// Consumes the stream from its current position. The interleaved
    /// exploration slices accrue to the session's exploration time (they
    /// surface in [`Self::into_outcome`]'s `exploration_time`), and the
    /// reported `answer_time` covers only the evaluation side — the two
    /// halves of the Fig. 5 total stay disjoint and summable, exactly like
    /// draining the session and then calling [`PreparedGraph::answer_queries`].
    /// A `min_answers` of zero returns an empty phase without touching the
    /// stream ([`PreparedGraph::answer_queries`], by contrast, always probes
    /// its first query).
    pub fn answers_until(&mut self, min_answers: usize) -> AnswerPhase {
        let start = Instant::now();
        let exploration_before = self.exploration_time;
        let mut answers = Vec::new();
        let mut total = 0usize;
        let mut queries_processed = 0usize;
        while total < min_answers {
            let Some(index) = self.advance() else {
                break;
            };
            queries_processed += 1;
            let prepared = self.prepared;
            if let Ok(set) = prepared.answers(&self.queries[index].query, Some(min_answers - total))
            {
                total += set.len();
                answers.push(set);
            }
        }
        let interleaved = self.exploration_time - exploration_before;
        AnswerPhase {
            answers,
            queries_processed,
            answer_time: start.elapsed().saturating_sub(interleaved),
            truncated: self.aborted(),
        }
    }

    /// Drains the remaining queries and returns the batch [`SearchOutcome`]:
    /// the ranked queries, the timing split and the exploration counters.
    ///
    /// The queries are identical, bit for bit, to mapping the subgraphs of
    /// a bare [`ExplorationState::run_to_completion`], but the exploration
    /// *counters* can come out slightly lower: the drain stops at the k-th
    /// certification (`cost <= bound`), whereas `run_to_completion` keeps
    /// popping until the strict threshold (`kth cost < bound`) fires, so on
    /// cost ties the drained session skips a few trailing pops (and may
    /// report `terminated_by_threshold = false` where the bare run reports
    /// `true`). Counters are comparable across sessions.
    pub fn into_outcome(mut self) -> SearchOutcome {
        self.drain();
        self.into_partial_outcome()
    }

    /// Runs the stream to its end without handing the queries out, leaving
    /// the session inspectable ([`Self::aborted`]) — the serving layer's
    /// drain.
    pub(crate) fn drain(&mut self) {
        while self.advance().is_some() {}
    }

    /// Returns the batch [`SearchOutcome`] over the queries emitted *so
    /// far*, without draining the rest of the stream — the terminal form of
    /// an anytime consumer (e.g. one that ran [`Self::answers_until`] and
    /// has no use for queries the answer phase never reached).
    /// [`Self::into_outcome`] drains the stream to its end, then does this.
    pub fn into_partial_outcome(self) -> SearchOutcome {
        let exploration = self.stats();
        SearchOutcome {
            queries: self.queries,
            keywords: self.keywords,
            exploration,
            augmented_elements: self.augmented_elements,
            keyword_mapping_time: self.keyword_mapping_time,
            exploration_time: self.exploration_time,
        }
    }
}

impl std::fmt::Debug for SearchSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchSession")
            .field("config", &self.config)
            .field("keywords", &self.keywords)
            .field("emitted", &self.queries.len())
            .field("drained", &self.drained)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    fn prepared() -> PreparedGraph {
        PreparedGraph::index(figure1_graph())
    }

    /// A session under the default configuration.
    fn open<'p>(prepared: &'p PreparedGraph, keywords: &[&str]) -> SearchSession<'p> {
        prepared.session(keywords, SearchConfig::default()).unwrap()
    }

    #[test]
    fn next_query_streams_the_batch_result() {
        let prepared = prepared();
        let batch = open(&prepared, &["cimiano", "publication"]).into_outcome();
        let mut session = open(&prepared, &["cimiano", "publication"]);
        let mut streamed = Vec::new();
        while let Some(q) = session.next_query() {
            streamed.push(q);
        }
        assert_eq!(streamed.len(), batch.queries.len());
        for (got, want) in streamed.iter().zip(batch.queries.iter()) {
            assert_eq!(got.rank, want.rank);
            assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            assert_eq!(got.query.canonicalized(), want.query.canonicalized());
        }
        // Drained for good.
        assert!(session.next_query().is_none());
    }

    #[test]
    fn first_query_needs_no_more_pops_than_the_full_run() {
        let prepared = prepared();
        let mut session = open(&prepared, &["2006", "cimiano", "aifb"]);
        let first = session.next_query().expect("the running example matches");
        assert_eq!(first.rank, 1);
        let first_pops = session.stats().queue_pops;

        let drained = open(&prepared, &["2006", "cimiano", "aifb"]).into_outcome();
        assert!(
            first_pops <= drained.exploration.queue_pops,
            "certifying rank 1 ({first_pops} pops) must not exceed the drained run ({})",
            drained.exploration.queue_pops
        );
    }

    #[test]
    fn raise_k_after_draining_matches_a_fresh_larger_session() {
        let prepared = prepared();
        let keywords = ["cimiano", "publication"];

        let mut session = prepared
            .session(&keywords, SearchConfig::with_k(3))
            .unwrap();
        let mut collected = Vec::new();
        while let Some(q) = session.next_query() {
            collected.push(q);
        }
        assert_eq!(collected.len(), 3);
        session.raise_k(10);
        while let Some(q) = session.next_query() {
            collected.push(q);
        }

        let fresh = prepared
            .session(&keywords, SearchConfig::with_k(10))
            .unwrap()
            .into_outcome();
        assert_eq!(collected.len(), fresh.queries.len());
        for (got, want) in collected.iter().zip(fresh.queries.iter()) {
            assert_eq!(got.rank, want.rank);
            assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            assert_eq!(got.query.canonicalized(), want.query.canonicalized());
        }
    }

    #[test]
    fn raise_k_with_smaller_or_equal_k_is_a_no_op() {
        let prepared = prepared();
        let mut session = prepared
            .session(&["publications"], SearchConfig::with_k(3))
            .unwrap();
        let first = session.next_query().unwrap();
        session.raise_k(3);
        session.raise_k(1);
        assert_eq!(session.config().k, 3);
        let second = session.next_query().unwrap();
        assert!(first.cost <= second.cost + 1e-12);
    }

    #[test]
    fn replayed_sessions_match_and_raise_k_falls_back_to_exploration() {
        let keywords = ["cimiano", "publication"];
        // Honest reference: a cache-disabled preparation, drained at k=3 and
        // then raised to 10.
        let uncached = PreparedGraph::index_with(figure1_graph(), Default::default(), 0);
        let mut honest = uncached
            .session(&keywords, SearchConfig::with_k(3))
            .unwrap();
        let mut want = Vec::new();
        while let Some(q) = honest.next_query() {
            want.push(q);
        }
        honest.raise_k(10);
        while let Some(q) = honest.next_query() {
            want.push(q);
        }

        let prepared = prepared();
        // The first drain inserts the entry: its complete replay log.
        let first = prepared
            .session(&keywords, SearchConfig::with_k(3))
            .unwrap()
            .into_outcome();
        assert!(first.exploration.queue_pops > 0);

        // Second session replays the log (no exploration work) and then
        // falls back to honest exploration when raised.
        let mut replayed = prepared
            .session(&keywords, SearchConfig::with_k(3))
            .unwrap();
        let mut got = Vec::new();
        while let Some(q) = replayed.next_query() {
            got.push(q);
        }
        assert_eq!(
            replayed.stats().queue_pops,
            0,
            "a replayed drain pops nothing off the cursor queue"
        );
        replayed.raise_k(10);
        while let Some(q) = replayed.next_query() {
            got.push(q);
        }

        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.rank, w.rank);
            assert_eq!(g.cost.to_bits(), w.cost.to_bits());
            assert_eq!(g.query.canonicalized(), w.query.canonicalized());
        }
    }

    #[test]
    fn sessions_opened_before_either_drains_both_explore_and_insert_once() {
        let prepared = prepared();
        let keywords = ["cimiano", "publication"];
        let stats = || prepared.augmentation_cache().stats();

        let first = open(&prepared, &keywords);
        let second = open(&prepared, &keywords);
        let opened = stats();
        assert_eq!(
            (opened.hits, opened.misses, opened.len),
            (0, 2, 0),
            "nothing is resident until a session drains: {opened:?}"
        );

        let first = first.into_outcome();
        let second = second.into_outcome();
        assert!(first.exploration.queue_pops > 0);
        assert!(
            second.exploration.queue_pops > 0,
            "the second session missed, so it explored for itself"
        );
        assert_eq!(first.queries.len(), second.queries.len());
        for (a, b) in first.queries.iter().zip(second.queries.iter()) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.query.canonicalized(), b.query.canonicalized());
        }
        let drained = stats();
        assert_eq!(
            (drained.insertions, drained.len),
            (1, 1),
            "the first drain wins; the late identical log is dropped: {drained:?}"
        );
    }

    #[test]
    fn sessions_that_stop_early_insert_nothing() {
        let prepared = prepared();
        let keywords = ["publications"];

        // A `min_answers` consumer that reaches its target mid-stream …
        let mut session = open(&prepared, &keywords);
        assert!(session.answers_until(1).total_answers() >= 1);
        assert!(!session.drained, "the test needs an undrained stream");
        drop(session);
        // … and a first-query-only consumer.
        let mut session = open(&prepared, &keywords);
        assert!(session.next_query().is_some());
        drop(session);

        let stats = prepared.augmentation_cache().stats();
        assert_eq!(
            (stats.hits, stats.insertions, stats.len),
            (0, 0, 0),
            "only a drained session inserts: {stats:?}"
        );
        let full = open(&prepared, &keywords).into_outcome();
        assert!(
            full.exploration.queue_pops > 0,
            "with nothing resident the next same-key session explores"
        );
        assert_eq!(prepared.augmentation_cache().stats().insertions, 1);
    }

    #[test]
    fn truncated_runs_are_not_replayed_so_the_limit_flag_survives_repeats() {
        // A max_cursors small enough to trip the safety valve but large
        // enough to certify at least one result on the running example.
        let config = SearchConfig {
            max_cursors: 40,
            ..SearchConfig::default()
        };
        let prepared = prepared();
        let first = prepared
            .session(&["2006", "cimiano", "aifb"], config.clone())
            .unwrap()
            .into_outcome();
        assert!(
            first.exploration.hit_cursor_limit,
            "the config must trip the safety valve for this test to bite"
        );
        // The repeat must re-explore (no replay log was written), so the
        // caller sees the uncertified-results flag again.
        let second = prepared
            .session(&["2006", "cimiano", "aifb"], config)
            .unwrap()
            .into_outcome();
        assert!(
            second.exploration.hit_cursor_limit,
            "a replayed truncated run would report clean stats and claim \
             certification the results do not have"
        );
        assert_eq!(first.queries.len(), second.queries.len());
        for (a, b) in first.queries.iter().zip(second.queries.iter()) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }

    #[test]
    fn answers_until_interleaves_evaluation_with_exploration() {
        let prepared = prepared();
        let mut session = open(&prepared, &["publications"]);
        let phase = session.answers_until(2);
        assert!(phase.total_answers() >= 2, "two publications exist");
        assert!(phase.queries_processed >= 1);
        // The session kept every emitted query; the stream can continue.
        assert_eq!(session.queries().len(), phase.queries_processed);
        let outcome = session.into_outcome();
        assert!(outcome.queries.len() >= phase.queries_processed);
    }

    #[test]
    fn aborted_sessions_truncate_and_never_cache_their_log() {
        let prepared = prepared();
        let keywords = ["2006", "cimiano", "aifb"];
        let mut session = open(&prepared, &keywords);
        session.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert!(session.next_query().is_none());
        assert!(session.aborted());
        drop(session);
        // The truncated (here: empty) stream must not have been cached as a
        // replay log: a fresh same-key session re-explores (pops > 0)
        // instead of replaying a stream that would be short forever.
        let full = open(&prepared, &keywords).into_outcome();
        assert!(
            full.exploration.queue_pops > 0,
            "a truncated log must never be replayed"
        );
        assert!(!full.queries.is_empty());
    }

    #[test]
    fn an_expired_deadline_ends_the_stream_early() {
        let prepared = prepared();
        let mut session = open(&prepared, &["2006", "cimiano", "aifb"]);
        session.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert!(session.next_query().is_none());
        assert!(session.aborted());
    }

    #[test]
    fn session_reports_keyword_matches() {
        let prepared = prepared();
        let session = open(&prepared, &["cimiano", "xyzzy-unknown"]);
        let report = session.keyword_matches();
        assert_eq!(report.len(), 2);
        assert!(report[0].is_matched());
        assert!(!report[1].is_matched());
        assert_eq!(report[1].keyword, "xyzzy-unknown");
    }
}
