//! Top-k exploration of query candidates (the paper's core contribution).
//!
//! Given a keyword query, this crate computes the **top-k conjunctive
//! queries** whose answers connect the keywords on the data graph:
//!
//! 1. the keywords are mapped to graph elements by the keyword index
//!    (`kwsearch-keyword-index`),
//! 2. the summary graph is augmented with those elements
//!    (`kwsearch-summary`),
//! 3. [`exploration`] (Algorithm 1) explores the augmented summary graph
//!    with cost-ordered cursors, starting simultaneously from all keyword
//!    elements and traversing vertices *and* edges in both directions,
//! 4. the private `topk` module (Algorithm 2) maintains the candidate
//!    subgraphs; a Threshold-Algorithm-style test against the completion
//!    bound stated in [`exploration`] stops the search and certifies each
//!    result, guaranteeing the returned subgraphs really are the k cheapest,
//! 5. [`query_map`] translates each matching subgraph into a conjunctive
//!    query (Section VI-D),
//! 6. [`session`] runs the on-line half of Fig. 2 as a resumable,
//!    streaming [`SearchSession`]: the exploration is an *anytime*
//!    algorithm, so ranked queries are handed out one at a time, each
//!    provably rank-correct the moment it is returned;
//!    [`SearchSession::into_outcome`] drains it into the batch
//!    [`SearchOutcome`] and [`SearchSession::answers_until`] interleaves the
//!    answer phase (the `kwsearch-query` evaluator) with the exploration,
//! 7. [`prepared`] holds the off-line half: [`PreparedGraph`] indexes a
//!    data graph once (keyword index, summary graph, triple store) and is
//!    the immutable value every session borrows, so one preparation can be
//!    `Arc`-shared across threads; [`cache`] keeps the complete result
//!    log of every drained session, so a repeated query is a bit-identical
//!    replay instead of a search, and [`serve`] puts admission control,
//!    deadlines and the answer phase around one session per request in a
//!    thread-less [`SearchService`] that any number of caller threads share,
//! 8. [`persist`] saves a [`PreparedGraph`]'s data graph and keyword index
//!    to a checksummed, versioned disk snapshot and loads them back with
//!    bulk buffer reads, deriving the summary graph and the triple store
//!    from the loaded graph — a cold start that skips parsing and keyword
//!    indexing,
//! 9. [`shard`] partitions one data graph by predicate into edge-disjoint
//!    shards, each with its own in-memory preparation sharing one keyword
//!    index and one summary of the whole graph; the same [`SearchService`]
//!    serves them: one keyword lookup, one exploration over its matches,
//!    and one answer phase over the union of the shard-local stores — the
//!    unsharded stream and the unsharded answers, bit for bit,
//! 10. [`live`] absorbs writes with measured freshness: a [`LiveGraph`]
//!     maintains a lineage of immutable prepared snapshots whose delta
//!     overlays (triple store, adjacency, keyword vocabulary, summary)
//!     keep every read bit-identical to a from-scratch rebuild over the
//!     merged data; each snapshot owns its result cache (a write starts
//!     an empty one), and a compaction folds the overlays in memory,
//!     proves its store and summary equal to the live ones, and keeps the
//!     cache.
//!
//! Scoring (Section V) is configurable through [`ScoringFunction`]: path
//! length (C1), popularity (C2), or popularity weighted by the keyword
//! matching score (C3).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod cursor;
pub mod error;
pub mod exploration;
pub mod invariants;
pub mod live;
pub mod persist;
pub mod prepared;
pub mod query_map;
pub mod result;
pub mod scoring;
pub mod serve;
pub mod session;
pub mod shard;
pub mod subgraph;
mod sync;
mod topk;

pub use cache::{AugmentationCache, AugmentationKey, CacheStats};
pub use config::SearchConfig;
pub use error::{KeywordMatch, SearchError};
pub use exploration::{ExplorationState, ExplorationStats};
pub use kwsearch_rdf::snapshot::SnapshotError;
pub use live::{CompactionReport, DeltaBatch, LiveGraph, WriteTicket};
pub use prepared::PreparedGraph;
pub use query_map::map_subgraph_to_query;
pub use result::{AnswerPhase, RankedQuery, SearchOutcome};
pub use scoring::ScoringFunction;
pub use serve::{SearchReply, SearchRequest, SearchService, ServeError, ServiceStats};
pub use session::SearchSession;
pub use shard::PartitionPlan;
#[doc(hidden)] // benchmark compat, see `serve`
pub use shard::ShardedService;
pub use subgraph::{MatchingSubgraph, SubgraphPath};

/// End-to-end behaviour of the read API: [`PreparedGraph::index`] →
/// [`PreparedGraph::session`] → outcome → answers, on the Fig. 1 fixture.
///
/// These tests were first registered as `engine::tests::*` and keep that
/// module path so their suite ids stay stable across the removal of the
/// engine facade they used to go through.
#[cfg(test)]
mod engine {
    mod tests {
        use kwsearch_rdf::fixtures::figure1_graph;
        use kwsearch_rdf::GraphStats;

        use crate::{PreparedGraph, ScoringFunction, SearchConfig, SearchError, SearchOutcome};

        fn prepared() -> PreparedGraph {
            PreparedGraph::index(figure1_graph())
        }

        /// A drained session under `config`: the batch shape of one search.
        fn search_with(
            prepared: &PreparedGraph,
            keywords: &[&str],
            config: &SearchConfig,
        ) -> SearchOutcome {
            prepared
                .session(keywords, config.clone())
                .unwrap()
                .into_outcome()
        }

        fn search(prepared: &PreparedGraph, keywords: &[&str]) -> SearchOutcome {
            search_with(prepared, keywords, &SearchConfig::default())
        }

        #[test]
        fn end_to_end_running_example() {
            let prepared = prepared();
            let outcome = search(&prepared, &["2006", "cimiano", "aifb"]);
            assert!(!outcome.queries.is_empty());
            let best = outcome.best().unwrap();
            assert_eq!(best.rank, 1);
            assert!(best.query.predicates().contains("author"));
            assert!(best.query.constants().contains("AIFB"));
            // The best query answers with the publication from the fixture.
            let answers = prepared.answers(&best.query, None).unwrap();
            assert!(!answers.is_empty());
            let pub1 = prepared.graph().entity("pub1URI").unwrap();
            assert!(answers.rows().iter().any(|row| row.contains(&pub1)));
        }

        #[test]
        fn ranks_are_sequential_and_costs_non_decreasing() {
            let outcome = search(&prepared(), &["cimiano", "publication"]);
            for (i, q) in outcome.queries.iter().enumerate() {
                assert_eq!(q.rank, i + 1);
            }
            for pair in outcome.queries.windows(2) {
                assert!(pair[0].cost <= pair[1].cost + 1e-12);
            }
        }

        #[test]
        fn queries_are_deduplicated() {
            let outcome = search(&prepared(), &["cimiano", "aifb"]);
            let mut canonical: Vec<String> = outcome
                .queries
                .iter()
                .map(|q| q.query.canonicalized().to_string())
                .collect();
            let before = canonical.len();
            canonical.sort();
            canonical.dedup();
            assert_eq!(before, canonical.len());
        }

        #[test]
        fn unmatched_keywords_are_reported_and_ignored() {
            let outcome = search(&prepared(), &["cimiano", "xyzzy-unknown"]);
            let unmatched: Vec<_> = outcome.unmatched_keywords().collect();
            assert_eq!(unmatched.len(), 1);
            assert_eq!(unmatched[0].position, 1);
            assert_eq!(unmatched[0].keyword, "xyzzy-unknown");
            assert_eq!(unmatched[0].element_matches, 0);
            assert!(outcome.keywords[0].is_matched());
            assert!(
                !outcome.queries.is_empty(),
                "the matched keyword still produces queries"
            );
        }

        #[test]
        fn all_unmatched_keywords_are_a_typed_error() {
            let error = prepared()
                .session(&["xyzzy-unknown", "quux-unknown"], SearchConfig::default())
                .unwrap_err();
            let SearchError::AllKeywordsUnmatched { keywords } = error;
            assert_eq!(keywords.len(), 2);
            assert!(keywords.iter().all(|k| !k.is_matched()));
            assert_eq!(keywords[1].keyword, "quux-unknown");
        }

        #[test]
        fn k_bounds_the_number_of_queries() {
            let config = SearchConfig::with_k(2);
            let outcome = search_with(&prepared(), &["cimiano", "publication"], &config);
            assert!(outcome.queries.len() <= 2);
        }

        #[test]
        fn scoring_function_can_be_swept_per_search() {
            let prepared = prepared();
            for scoring in ScoringFunction::all() {
                let config = SearchConfig::default().scoring(scoring);
                let outcome = search_with(&prepared, &["2006", "cimiano", "aifb"], &config);
                assert!(
                    !outcome.queries.is_empty(),
                    "scoring {scoring} must produce queries"
                );
            }
        }

        #[test]
        fn search_and_answer_collects_enough_answers() {
            let prepared = prepared();
            let outcome = search(&prepared, &["publications"]);
            let phase = prepared.answer_queries(&outcome.queries, 2);
            assert!(!outcome.queries.is_empty());
            assert!(phase.queries_processed >= 1);
            assert!(
                phase.total_answers() >= 2,
                "two publications exist in the fixture"
            );
        }

        #[test]
        fn answer_queries_stops_once_enough_answers_exist() {
            let prepared = prepared();
            let outcome = search(&prepared, &["publications"]);
            assert!(!outcome.queries.is_empty());
            let phase = prepared.answer_queries(&outcome.queries, 1);
            assert!(
                phase.queries_processed <= outcome.queries.len(),
                "no queries are processed after the target is reached"
            );
            // Every evaluation is limited to the still-missing count, so asking
            // for one answer retrieves exactly one.
            assert_eq!(phase.total_answers(), 1);
        }

        /// Entries cached under one configuration must never leak into
        /// sessions running under another (the cache key embeds the config
        /// verbatim), and going back to the first configuration must re-hit
        /// its entries with bit-identical results.
        #[test]
        fn two_configs_over_one_prepared_graph_neither_share_nor_corrupt_cache_entries() {
            let keywords = ["cimiano", "publication"];
            let config_a = SearchConfig::default();
            let config_b = SearchConfig::with_k(2).scoring(ScoringFunction::PathLength);

            // Uncached references, one per configuration.
            let uncached = PreparedGraph::index_with(figure1_graph(), Default::default(), 0);
            let fresh_a = search_with(&uncached, &keywords, &config_a);
            let fresh_b = search_with(&uncached, &keywords, &config_b);

            let assert_identical = |got: &SearchOutcome, want: &SearchOutcome| {
                assert_eq!(got.queries.len(), want.queries.len());
                for (g, w) in got.queries.iter().zip(want.queries.iter()) {
                    assert_eq!(g.cost.to_bits(), w.cost.to_bits());
                    assert_eq!(g.query.canonicalized(), w.query.canonicalized());
                }
            };

            let prepared = prepared();
            let hits = || prepared.augmentation_cache().stats().hits;
            let a_miss = search_with(&prepared, &keywords, &config_a); // populate under A
            let a_hit = search_with(&prepared, &keywords, &config_a); // hit under A
            assert_eq!(hits(), 1);
            assert_identical(&a_miss, &fresh_a);
            assert_identical(&a_hit, &fresh_a);

            let b_miss = search_with(&prepared, &keywords, &config_b); // must NOT reuse A's entry
            assert_eq!(hits(), 1, "the other config must miss, not reuse A's entry");
            assert_identical(&b_miss, &fresh_b);

            let a_rehit = search_with(&prepared, &keywords, &config_a); // A's entry is still valid
            assert_eq!(hits(), 2, "going back to A re-hits");
            assert_identical(&a_rehit, &fresh_a);
        }

        #[test]
        fn timings_and_sizes_are_recorded() {
            let prepared = prepared();
            let outcome = search(&prepared, &["2006", "aifb"]);
            assert!(outcome.augmented_elements > 0);
            assert!(outcome.computation_time() >= outcome.exploration_time);
            let stats = GraphStats::compute(prepared.graph());
            assert_eq!(stats.entities, 8);
        }

        #[test]
        fn empty_keyword_list_produces_no_queries() {
            let outcome = search(&prepared(), &[]);
            assert!(outcome.queries.is_empty());
            assert!(outcome.keywords.is_empty());
        }
    }
}
