//! Sharding: one data graph partitioned into edge-disjoint preparations.
//!
//! [`partition()`] splits a data graph into `N` **edge-disjoint** shard graphs
//! over the original id space, each edge on the shard of its predicate, and
//! [`PartitionPlan::prepare_shards`] builds one [`PreparedGraph`] per shard,
//! each carrying the keyword index and the summary graph of the whole
//! graph. A [`SearchService`](crate::serve::SearchService) over those
//! preparations serves a keyword query exactly as it serves one unsharded
//! preparation (see [`crate::serve`] for the request lifecycle):
//!
//! * **one lookup, one exploration**: every shard shares the index built
//!   over the whole graph, so a request looks up its keywords once and gets
//!   the unsharded matches. The exploration then runs once, on the
//!   augmented summary graph — the shared summary plus those matches,
//!   orders of magnitude smaller than the data — so it is neither
//!   partitioned nor repeated;
//! * **one answer phase**: the stores of a shard set hold disjoint rows over
//!   one id space, so together they are the whole graph's store. The answer
//!   loop of [`PreparedGraph::answer_queries`] runs once, over an evaluator
//!   that reads every shard's store as one
//!   ([`Evaluator::over_stores`](kwsearch_query::Evaluator::over_stores)):
//!   each count is the unsharded count, so the rows and their order are the
//!   unsharded ones.
//!
//! What the shards divide is the data: graphs and triple stores. A shard set
//! lives in memory: snapshots store no summary, so a saved shard reloads
//! with the summary of its own graph (see
//! [`PartitionPlan::prepare_shards`]). The stream is **bit-identical** to
//! the unsharded session's for every shard count because it *is* that
//! session, and so is the answer phase — pinned, together with the exact
//! one-exploration cursor counts, by golden tests and property tests across
//! shard counts {1, 2, 3, 7} and all three scoring functions.

mod partition;

pub use partition::{partition, PartitionPlan};

// Benchmark compat (see the marked block in `crate::serve`).
#[doc(hidden)]
pub use crate::serve::{ShardedOutcome, ShardedService, ShardedServiceOptions};

#[allow(unused_imports, reason = "referenced by the module docs")]
use crate::prepared::PreparedGraph;

/// A [`SearchService`](crate::SearchService) over a shard set, end to end.
///
/// These tests were first registered as `coordinator::tests::*`, beside the
/// per-group scatter they then tested, and keep that module path so their
/// suite ids stay stable.
#[cfg(test)]
mod coordinator {
    mod tests {
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        use kwsearch_query::QueryBuilder;
        use kwsearch_rdf::fixtures::figure1_graph;

        use crate::config::SearchConfig;
        use crate::prepared::{answer_in_rank_order, PreparedGraph};
        use crate::scoring::ScoringFunction;
        use crate::serve::tests::{
            check_expired_deadline, check_unmatched_keywords, RUNNING_EXAMPLE,
        };
        use crate::serve::{SearchRequest, SearchService, ServeError};
        use crate::shard::partition;

        fn shards_of(shard_count: usize) -> Vec<Arc<PreparedGraph>> {
            let graph = figure1_graph();
            let shards = partition(&graph, shard_count).prepare_shards(&graph, Default::default());
            shards.into_iter().map(Arc::new).collect()
        }

        fn service_over(shard_count: usize) -> SearchService {
            SearchService::new(shards_of(shard_count), SearchConfig::default())
        }

        /// The acceptance bar of the sharded subsystem: the stream is
        /// bit-identical to the unsharded session for every shard count and
        /// every scoring function — same ranks, same cost bits, same canonical
        /// queries, same subgraphs — and it costs exactly one exploration: the
        /// cursor counters equal the unsharded session's, whatever the shard
        /// count.
        #[test]
        fn sharded_merge_is_bit_identical_to_the_unsharded_stream() {
            for scoring in [
                ScoringFunction::PathLength,
                ScoringFunction::Popularity,
                ScoringFunction::PopularityAndMatch,
            ] {
                let config = SearchConfig {
                    scoring,
                    ..SearchConfig::default()
                };
                let unsharded = PreparedGraph::index(figure1_graph())
                    .session(&RUNNING_EXAMPLE, config.clone())
                    .expect("the running example always matches")
                    .into_outcome();
                let want = &unsharded.queries;
                assert!(!want.is_empty(), "the running example has results");
                for shard_count in [1usize, 2, 3, 7] {
                    let service = SearchService::new(shards_of(shard_count), config.clone());
                    assert_eq!(service.shards().len(), shard_count);
                    let outcome = service
                        .search(SearchRequest::new(RUNNING_EXAMPLE))
                        .expect("the running example always matches")
                        .outcome;
                    assert_eq!(
                        outcome.queries.len(),
                        want.len(),
                        "{scoring:?} diverges at {shard_count} shards"
                    );
                    for (got, want) in outcome.queries.iter().zip(want) {
                        assert_eq!(got.rank, want.rank);
                        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                        assert_eq!(
                            got.query.canonicalized().to_string(),
                            want.query.canonicalized().to_string()
                        );
                        assert_eq!(got.subgraph, want.subgraph);
                    }
                    assert_eq!(
                        outcome.exploration.queue_pops, unsharded.exploration.queue_pops,
                        "{scoring:?} at {shard_count} shards explored more than once"
                    );
                    assert_eq!(
                        outcome.exploration.cursors_created,
                        unsharded.exploration.cursors_created
                    );
                }
            }
        }

        #[test]
        fn admission_control_rejects_beyond_the_inflight_cap() {
            let service = service_over(2).with_max_inflight(0);
            let err = service
                .search(SearchRequest::new(["cimiano"]))
                .expect_err("a zero in-flight budget admits nothing");
            assert_eq!(err, ServeError::Rejected { max_inflight: 0 });
            assert_eq!(
                err.to_string(),
                "request rejected: 0 requests already in flight"
            );
            assert_eq!((service.stats().rejected, service.stats().admitted), (1, 0));
        }

        /// The answer loop polls the deadline before each query, so an
        /// expired request stops before its next join: the phase is flagged
        /// and holds only what was complete.
        #[test]
        fn the_answer_phase_polls_deadline_and_cancellation() {
            let service = service_over(2);
            let queries = service
                .search(SearchRequest::new(["publications"]))
                .unwrap()
                .outcome
                .queries;
            assert!(!queries.is_empty());
            let evaluator = service.evaluator();

            // Control arm: unbounded, the phase completes and finds answers.
            let full = answer_in_rank_order(&evaluator, &queries, 2, None);
            assert!(!full.truncated);
            assert!(full.total_answers() >= 2, "two publications exist");

            // An already expired deadline truncates before any join work.
            let expired = Instant::now() - Duration::from_millis(1);
            let phase = answer_in_rank_order(&evaluator, &queries, 2, Some(expired));
            assert!(phase.truncated, "an expired deadline must cut the phase");
            assert_eq!(phase.total_answers(), 0);
            assert_eq!(phase.queries_processed, 0);
        }

        #[test]
        fn an_expired_deadline_fails_the_request_with_deadline_exceeded() {
            check_expired_deadline(service_over(2));
        }

        #[test]
        fn unmatched_keywords_fail_with_the_typed_search_error() {
            check_unmatched_keywords(service_over(2));
        }

        /// For every shard count the service's answer phase is the unsharded
        /// one: the same queries processed, and each set's rows in order.
        #[test]
        fn the_sharded_answer_phase_matches_the_unsharded_row_sets() {
            let prepared = PreparedGraph::index(figure1_graph());
            for shard_count in [1usize, 2, 3, 7] {
                let reply = service_over(shard_count)
                    .search(SearchRequest::new(RUNNING_EXAMPLE).with_min_answers(3))
                    .expect("the running example always matches");
                let phase = reply.answer_phase.expect("min_answers requests a phase");
                let want = prepared.answer_queries(&reply.outcome.queries, 3);
                assert!(want.total_answers() > 0, "the running example answers");
                assert_eq!(phase.queries_processed, want.queries_processed);
                assert_eq!(phase.answers, want.answers, "{shard_count} shards");
                assert!(!phase.truncated);
            }
        }

        #[test]
        fn stats_track_admissions_merges_and_early_emissions() {
            let service = service_over(2);
            let reply = service
                .search(SearchRequest::new(RUNNING_EXAMPLE))
                .expect("the running example always matches");
            let stats = service.stats();
            assert_eq!((stats.admitted, stats.peak_inflight), (1, 1));
            assert_eq!(stats.queries_returned, reply.outcome.queries.len() as u64);
            // The frozen benchmark's names for the same counters and request.
            assert_eq!((stats.peak_queue_depth, stats.jobs_rejected), (1, 0));
            let shards = partition(&figure1_graph(), 2);
            let shards = shards.prepare_shards(&figure1_graph(), Default::default());
            let compat = crate::serve::ShardedService::start(shards, SearchConfig::default(), ());
            let outcome = compat.search(SearchRequest::new(RUNNING_EXAMPLE)).unwrap();
            assert_eq!(outcome.early_emissions, reply.outcome.queries.len());
        }

        /// A constant-only atom (a `subclass` schema constraint) adds no
        /// column: satisfied, it leaves the other atoms' rows alone (on its
        /// own: the one empty binding); unsatisfied or naming an unknown
        /// class, it empties the answer. At three shards the `subclass`
        /// edges sit on none but the last shard.
        #[test]
        fn constant_only_atoms_guard_the_query_without_adding_columns() {
            let service = service_over(3);
            let evaluator = service.evaluator();
            let rows = |query: QueryBuilder| {
                let set = evaluator.evaluate_with_limit(&query.build(), Some(100));
                set.unwrap().rows().to_vec()
            };
            let publications = rows(QueryBuilder::new().class_pattern("x", "Publication"));
            assert!(!publications.is_empty());
            let holds = QueryBuilder::new().subclass_pattern("Researcher", "Person");
            assert_eq!(rows(holds.clone()), vec![Vec::new()]);
            assert_eq!(rows(holds.class_pattern("x", "Publication")), publications);
            for (class, super_class) in [("Person", "Researcher"), ("Nope", "Person")] {
                let fails = QueryBuilder::new().subclass_pattern(class, super_class);
                assert!(rows(fails.clone()).is_empty());
                assert!(rows(fails.class_pattern("x", "Publication")).is_empty());
            }
        }

        /// A query whose evaluation trips the visited-bindings budget
        /// contributes no set: the phase goes on to the next query as if the
        /// failed one had no answers.
        #[test]
        fn a_query_that_trips_the_budget_contributes_no_set() {
            let service = service_over(2);
            let mut queries = service
                .search(SearchRequest::new(["publications"]))
                .unwrap()
                .outcome
                .queries;
            let evaluator = service.evaluator().with_max_intermediate_rows(1);
            let cross_product = QueryBuilder::new()
                .relation_pattern("a", "author", "b")
                .relation_pattern("c", "worksAt", "d")
                .relation_pattern("e", "hasProject", "f")
                .build();
            assert!(evaluator
                .evaluate_with_limit(&cross_product, Some(2))
                .is_err());
            let mut tripping = queries[0].clone();
            tripping.query = cross_product;
            queries.insert(0, tripping);

            let phase = answer_in_rank_order(&evaluator, &queries, 2, None);
            let rest = answer_in_rank_order(&evaluator, &queries[1..], 2, None);
            assert!(rest.total_answers() >= 2, "two publications exist");
            assert_eq!(phase.queries_processed, rest.queries_processed + 1);
            assert_eq!(phase.answers, rest.answers);
        }
    }
}
