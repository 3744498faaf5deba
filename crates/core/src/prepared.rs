//! The off-line half of Fig. 2: the immutable, shareable read path.
//!
//! The paper's pipeline — keyword matching, summary-graph augmentation,
//! top-k exploration, query evaluation — is read-only over structures built
//! once per data graph. [`PreparedGraph`] bundles exactly those structures
//! (data graph, keyword index, summary graph, triple store, plus the
//! [`AugmentationCache`]) behind a `Send + Sync` value, so one preparation
//! can be wrapped in an [`Arc`](std::sync::Arc) and served from any number
//! of worker threads concurrently (see [`crate::serve`]): every
//! [`SearchSession`] borrows the prepared graph immutably and keeps its own
//! per-request state.
//!
//! This is the front door for reads: [`PreparedGraph::index`] once, then
//! [`PreparedGraph::session`] per keyword query — `session(..)?.into_outcome()`
//! is the batch shape, [`SearchSession::next_query`] the streaming one.

use std::time::{Duration, Instant};

use kwsearch_keyword_index::{KeywordIndex, KeywordIndexConfig};
use kwsearch_query::{AnswerSet, ConjunctiveQuery, EvalError, Evaluator};
use kwsearch_rdf::{DataGraph, GraphStats, TripleStore};
use kwsearch_summary::SummaryGraph;

use crate::cache::AugmentationCache;
use crate::config::SearchConfig;
use crate::error::SearchError;
use crate::result::{AnswerPhase, RankedQuery};
use crate::session::SearchSession;

/// The immutable artifacts of the off-line preprocessing: everything the
/// on-line phases read, and nothing they write.
///
/// A `PreparedGraph` is `Send + Sync` (a compile-time test pins this), so
/// the canonical sharing pattern is:
///
/// ```
/// use std::sync::Arc;
/// use kwsearch_core::{PreparedGraph, SearchConfig};
/// use kwsearch_rdf::fixtures::figure1_graph;
///
/// let prepared = Arc::new(PreparedGraph::index(figure1_graph()));
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let prepared = Arc::clone(&prepared);
///         std::thread::spawn(move || {
///             let session = prepared
///                 .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
///                 .unwrap();
///             session.into_outcome().queries.len()
///         })
///     })
///     .collect();
/// for handle in handles {
///     assert!(handle.join().unwrap() > 0);
/// }
/// ```
///
/// The augmentation cache is the only interior-mutable part; it is
/// internally synchronized and its hits are bit-identical to fresh runs (see
/// [`crate::cache`]), so sharing never changes results.
#[derive(Debug)]
pub struct PreparedGraph {
    graph: DataGraph,
    keyword_index: KeywordIndex,
    summary: SummaryGraph,
    store: TripleStore,
    /// This snapshot's own result cache: its entries are valid exactly as
    /// long as the snapshot's data, so nothing ever invalidates them. A live
    /// write gives its successor a fresh one; compaction shares it with the
    /// compacted snapshot, which holds the same data (see [`crate::live`]).
    cache: crate::sync::Arc<AugmentationCache>,
    /// Monotone write epoch of the live lineage this preparation belongs
    /// to; 0 for frozen preparations.
    write_epoch: u64,
    index_build_time: Duration,
}

impl PreparedGraph {
    /// Runs the off-line preprocessing with default configurations.
    pub fn index(graph: DataGraph) -> Self {
        Self::index_with(
            graph,
            KeywordIndexConfig::default(),
            AugmentationCache::DEFAULT_CAPACITY,
        )
    }

    /// Runs the off-line preprocessing with an explicit keyword-index
    /// configuration and augmentation-cache capacity (0 disables caching).
    pub fn index_with(
        graph: DataGraph,
        keyword_config: KeywordIndexConfig,
        cache_capacity: usize,
    ) -> Self {
        let start = Instant::now();
        let keyword_index = KeywordIndex::build_with(
            &graph,
            kwsearch_keyword_index::Analyzer::new(),
            kwsearch_keyword_index::Thesaurus::builtin(),
            keyword_config,
        );
        let summary = SummaryGraph::build(&graph);
        let store = TripleStore::build(&graph);
        let index_build_time = start.elapsed();
        Self {
            graph,
            keyword_index,
            summary,
            store,
            cache: crate::sync::Arc::new(AugmentationCache::new(cache_capacity)),
            write_epoch: 0,
            index_build_time,
        }
    }

    /// Assembles a prepared graph from already-built parts — the snapshot
    /// load path ([`crate::persist`]). `index_build_time` carries the
    /// original build cost recorded in the snapshot.
    pub(crate) fn from_parts(
        graph: DataGraph,
        keyword_index: KeywordIndex,
        summary: SummaryGraph,
        store: TripleStore,
        cache_capacity: usize,
        index_build_time: Duration,
    ) -> Self {
        Self::from_shared_parts(
            graph,
            keyword_index,
            summary,
            store,
            crate::sync::Arc::new(AugmentationCache::new(cache_capacity)),
            0,
            index_build_time,
        )
    }

    /// Assembles a prepared graph around a given cache at an explicit write
    /// epoch — the [`crate::live`] path: a write passes a fresh cache, a
    /// compaction the cache of the snapshot it flattens.
    pub(crate) fn from_shared_parts(
        graph: DataGraph,
        keyword_index: KeywordIndex,
        summary: SummaryGraph,
        store: TripleStore,
        cache: crate::sync::Arc<AugmentationCache>,
        write_epoch: u64,
        index_build_time: Duration,
    ) -> Self {
        Self {
            graph,
            keyword_index,
            summary,
            store,
            cache,
            write_epoch,
            index_build_time,
        }
    }

    /// Disassembles the preparation into its component structures — the
    /// compaction path, which reloads a freshly-written snapshot and
    /// re-wraps its parts around the flattened snapshot's cache.
    pub(crate) fn into_parts(self) -> (DataGraph, KeywordIndex, SummaryGraph, TripleStore) {
        (self.graph, self.keyword_index, self.summary, self.store)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The indexed data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The keyword index.
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.keyword_index
    }

    /// The summary graph (graph index).
    pub fn summary(&self) -> &SummaryGraph {
        &self.summary
    }

    /// The triple store used for query processing.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The augmentation cache (stats, clearing; see [`crate::cache`]).
    pub fn augmentation_cache(&self) -> &AugmentationCache {
        &self.cache
    }

    /// The cache handle — handed to the compacted snapshot, which holds the
    /// same data (see [`crate::live`]).
    pub(crate) fn shared_cache(&self) -> crate::sync::Arc<AugmentationCache> {
        crate::sync::Arc::clone(&self.cache)
    }

    /// The monotone write epoch this preparation was assembled at (0 for
    /// frozen preparations).
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// How long the off-line preprocessing took.
    pub fn index_build_time(&self) -> Duration {
        self.index_build_time
    }

    /// Structural statistics of the indexed data graph.
    pub fn graph_stats(&self) -> GraphStats {
        GraphStats::compute(&self.graph)
    }

    // ------------------------------------------------------------------
    // Query computation and processing
    // ------------------------------------------------------------------

    /// Opens a resumable, streaming [`SearchSession`] against this prepared
    /// graph: keyword mapping and summary-graph augmentation run eagerly,
    /// the exploration advances only as far as the queries actually pulled
    /// from the session require.
    ///
    /// Fails with [`SearchError::AllKeywordsUnmatched`] when a non-empty
    /// query matches nothing at all.
    pub fn session<S: AsRef<str>>(
        &self,
        keywords: &[S],
        config: SearchConfig,
    ) -> Result<SearchSession<'_>, SearchError> {
        SearchSession::start(self, keywords, config)
    }

    /// Evaluates a conjunctive query on the data graph, optionally stopping
    /// after `limit` answers.
    pub fn answers(
        &self,
        query: &ConjunctiveQuery,
        limit: Option<usize>,
    ) -> Result<AnswerSet, EvalError> {
        Evaluator::with_borrowed_store(&self.graph, &self.store).evaluate_with_limit(query, limit)
    }

    /// Processes already-computed ranked queries in rank order until at
    /// least `min_answers` answers have been retrieved — the answer phase of
    /// the paper's Fig. 5 interaction ("the time for computing the top-10
    /// queries plus the time for processing several queries (the top ones)
    /// until finding at least 10 answers"), measured on its own. Each
    /// evaluation is limited to the still-missing count, so the streaming
    /// evaluator stops the instant enough answers exist. To stop *computing*
    /// queries at that point too, use [`SearchSession::answers_until`].
    pub fn answer_queries(&self, queries: &[RankedQuery], min_answers: usize) -> AnswerPhase {
        let start = Instant::now();
        let mut answers = Vec::new();
        let mut total = 0usize;
        let mut queries_processed = 0usize;
        for ranked in queries {
            queries_processed += 1;
            if let Ok(set) = self.answers(&ranked.query, Some(min_answers.saturating_sub(total))) {
                total += set.len();
                answers.push(set);
            }
            if total >= min_answers {
                break;
            }
        }
        AnswerPhase {
            answers,
            queries_processed,
            answer_time: start.elapsed(),
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;
    use std::sync::Arc;

    #[test]
    fn prepared_graph_is_shareable_across_threads() {
        let prepared = Arc::new(PreparedGraph::index(figure1_graph()));
        let baseline = prepared
            .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let prepared = Arc::clone(&prepared);
                std::thread::spawn(move || {
                    prepared
                        .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
                        .unwrap()
                        .into_outcome()
                })
            })
            .collect();
        for handle in handles {
            let outcome = handle.join().unwrap();
            assert_eq!(outcome.queries.len(), baseline.queries.len());
            for (got, want) in outcome.queries.iter().zip(baseline.queries.iter()) {
                assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                assert_eq!(got.query.canonicalized(), want.query.canonicalized());
            }
        }
    }

    #[test]
    fn unmatched_queries_are_negatively_cached() {
        let prepared = PreparedGraph::index(figure1_graph());
        for _ in 0..2 {
            let error = prepared
                .session(&["xyzzy-unknown"], SearchConfig::default())
                .unwrap_err();
            let SearchError::AllKeywordsUnmatched { keywords } = error;
            assert_eq!(keywords.len(), 1);
            assert_eq!(keywords[0].keyword, "xyzzy-unknown");
            assert!(!keywords[0].is_matched());
        }
        let stats = prepared.augmentation_cache().stats();
        assert_eq!(
            stats.hits, 1,
            "the repeated failure is served from the negative entry: {stats:?}"
        );
    }

    #[test]
    fn repeated_sessions_hit_the_augmentation_cache() {
        let prepared = PreparedGraph::index(figure1_graph());
        let first = prepared
            .session(&["cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome();
        let second = prepared
            .session(&["Cimiano", "AIFB"], SearchConfig::default())
            .unwrap()
            .into_outcome();
        let stats = prepared.augmentation_cache().stats();
        assert_eq!(stats.hits, 1, "normalized repeat must hit: {stats:?}");
        assert_eq!(first.queries.len(), second.queries.len());
        for (got, want) in first.queries.iter().zip(second.queries.iter()) {
            assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            assert_eq!(got.query.canonicalized(), want.query.canonicalized());
        }
    }
}
