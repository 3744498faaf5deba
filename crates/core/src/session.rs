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
//! the same certificate the top-k termination uses).
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
use std::sync::Arc;
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
/// * [`Self::into_outcome`] drains the rest and returns the familiar batch
///   [`SearchOutcome`].
#[must_use = "a search session does nothing until queries are pulled from it"]
pub struct SearchSession<'e> {
    prepared: &'e PreparedGraph,
    config: SearchConfig,
    keywords: Vec<KeywordMatch>,
    /// The augmented summary graph and the suspended cursor walk over it.
    /// `None` for a cache hit: the replay log serves the whole stream.
    exploration: Option<(AugmentedSummaryGraph<'e>, ExplorationState)>,
    /// Element count of the augmented graph (on a cache hit, as recorded by
    /// the session that inserted the entry).
    augmented_elements: usize,
    /// Queries emitted so far, in rank order (rank 1 first).
    queries: Vec<RankedQuery>,
    /// Canonical forms of the emitted queries, for deduplication: different
    /// subgraphs can normalise to the same conjunctive query.
    seen: BTreeSet<String>,
    /// Set once the stream is known to be complete.
    drained: bool,
    /// On a cache miss: the key this session missed under. A naturally
    /// drained session inserts its complete emission log under that key so
    /// later same-key sessions replay instead of searching (see
    /// [`crate::cache`]).
    pending_insert: Option<AugmentationKey>,
    /// On a cache hit: the entry an earlier drained session inserted under
    /// the same key, plus the replay position. While set, [`Self::advance`]
    /// emits from the entry's log instead of exploring — bit-identically,
    /// since the exploration is deterministic.
    replay: Option<(Arc<CachedAugmentation>, usize)>,
    keyword_mapping_time: Duration,
    /// Accumulated augmentation + exploration + query-mapping time across
    /// all advancing calls (the lazy equivalent of the batch
    /// `exploration_time`).
    exploration_time: Duration,
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
    /// Starts a session: cache probe, keyword-to-element mapping on
    /// `prepared`'s index, augmentation and the seeded exploration state.
    /// A hit replays the entry's log instead of exploring; keywords that
    /// all match nothing fail with the typed (and cached) unmatched error;
    /// a session that drains naturally inserts its log. A
    /// [`crate::serve::SearchService`] starts here on its first shard,
    /// whose index is the whole set's (see [`crate::shard`]).
    pub(crate) fn start<S: AsRef<str>>(
        prepared: &'e PreparedGraph,
        keywords: &[S],
        config: SearchConfig,
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
        let all_matches = prepared.keyword_index().lookup_all(keywords);
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

        // 2. Augmentation + the seeded exploration state.
        let exploration_start = Instant::now();
        let (augmented, state) = Self::seeded_exploration(prepared, all_matches, &config);
        let exploration_time = exploration_start.elapsed();
        let augmented_elements = augmented.element_count();
        let mut session = Self::assemble(
            prepared,
            config,
            report,
            Some((augmented, state)),
            augmented_elements,
            keyword_mapping_time,
            exploration_time,
        );
        session.pending_insert = key;
        Ok(session)
    }

    /// The augmented summary graph over a lookup's matched keywords (the
    /// unmatched ones dropped) and the cursor state seeded on it.
    fn seeded_exploration(
        prepared: &'e PreparedGraph,
        all_matches: Vec<Vec<kwsearch_keyword_index::KeywordMatch>>,
        config: &SearchConfig,
    ) -> (AugmentedSummaryGraph<'e>, ExplorationState) {
        let matches: Vec<_> = all_matches.into_iter().filter(|m| !m.is_empty()).collect();
        let augmented =
            AugmentedSummaryGraph::build(prepared.graph(), prepared.summary(), &matches);
        let state = ExplorationState::new(&augmented, config);
        (augmented, state)
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "one private constructor that sets every field of a session"
    )]
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
            keyword_mapping_time,
            exploration_time,
            #[cfg(debug_assertions)]
            shadow: None,
            #[cfg(debug_assertions)]
            shadow_seen: BTreeSet::new(),
        }
    }

    /// debug-invariants: the augmented graph and a seeded cursor state,
    /// rebuilt from a fresh keyword lookup — what a replaying session never
    /// built. A hit means this session's keywords normalize to the entry's
    /// terms on the entry's snapshot, so the rebuilt graph is the one the
    /// inserting session explored.
    #[cfg(debug_assertions)]
    fn build_exploration(&self) -> (AugmentedSummaryGraph<'e>, ExplorationState) {
        let keywords: Vec<&str> = self.keywords.iter().map(|k| k.keyword.as_str()).collect();
        let all_matches = self.prepared.keyword_index().lookup_all(&keywords);
        Self::seeded_exploration(self.prepared, all_matches, &self.config)
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

    /// The exploration counters so far. After [`Self::next_query`] returned
    /// the rank-1 result, `stats().queue_pops` is typically a small fraction
    /// of what a drained session reports — that gap is what streaming buys. A session served from the cache's
    /// replay log reports only the (near-zero) work it actually did;
    /// counters describe effort, never results.
    pub fn stats(&self) -> crate::exploration::ExplorationStats {
        self.exploration
            .as_ref()
            .map(|(_, state)| state.stats())
            .unwrap_or_default()
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
            // re-exploring.
            if let Some((entry, position)) = &mut self.replay {
                let log = entry.queries.as_deref().unwrap_or_default();
                if let Some(ranked) = log.get(*position) {
                    let ranked = ranked.clone();
                    *position += 1;
                    // `seen` holds the canonical form of every emitted
                    // query, replayed or explored.
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
            // subgraph costs at most the completion bound (no undiscovered
            // subgraph can outrank it), and within one exploration run the
            // emission costs are non-decreasing. Both are void when the
            // `max_cursors` safety valve truncated the run (results are
            // explicitly uncertified then).
            #[cfg(debug_assertions)]
            if crate::invariants::enabled() && !state.stats().hit_cursor_limit {
                let bound = state.completion_bound();
                assert!(
                    subgraph.cost <= bound,
                    "certificate violated: emitting cost {} above the completion \
                     bound {bound}",
                    subgraph.cost
                );
                if let Some(last) = self.queries.last() {
                    assert!(
                        subgraph.cost >= last.cost,
                        "emission monotonicity violated: cost {} after {}",
                        subgraph.cost,
                        last.cost
                    );
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

    /// Marks the stream drained and, when this session explored under a
    /// cache key, inserts its complete emission log into the cache so later
    /// same-key sessions replay instead of searching.
    fn drain_complete(&mut self) {
        self.drained = true;
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
    /// completion bound (stated in the [`crate::exploration`] module doc),
    /// so no still-undiscovered subgraph can outrank it. Returns `None` once
    /// `k` queries were emitted or the exploration is exhausted.
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
    fn replayed_sessions_match_a_cache_disabled_session() {
        let keywords = ["cimiano", "publication"];
        let config = SearchConfig::with_k(3);
        // Honest reference: a cache-disabled preparation.
        let uncached = PreparedGraph::index_with(figure1_graph(), Default::default(), 0);
        let want = uncached
            .session(&keywords, config.clone())
            .unwrap()
            .into_outcome()
            .queries;

        let prepared = prepared();
        // The first drain inserts the entry: its complete replay log.
        let first = prepared
            .session(&keywords, config.clone())
            .unwrap()
            .into_outcome();
        assert!(first.exploration.queue_pops > 0);

        // The second session replays the log (no exploration work).
        let mut replayed = prepared.session(&keywords, config).unwrap();
        let mut got = Vec::new();
        while let Some(q) = replayed.next_query() {
            got.push(q);
        }
        assert_eq!(
            replayed.stats().queue_pops,
            0,
            "a replayed drain pops nothing off the cursor queue"
        );

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
