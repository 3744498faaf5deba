//! The sharded answer phase: conjunctive queries evaluated exactly across
//! edge-disjoint shards (step 6 of [`SearchService::search`]; over one shard
//! it degenerates to that shard's evaluator plus a sort of each row set).
//!
//! [`SearchService::search`]: crate::serve::SearchService::search

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use kwsearch_query::{AnswerSet, ConjunctiveQuery, EvalError, Evaluator};
use kwsearch_rdf::VertexId;

use crate::prepared::PreparedGraph;
use crate::result::{AnswerPhase, RankedQuery};

/// Evaluates `queries` in rank order across the shards until at least
/// `min_answers` answers exist — the scatter-gather analogue of
/// [`PreparedGraph::answer_queries`].
///
/// Row order differs from the unsharded streaming evaluator (per-group
/// unions are globally sorted), but the row *sets* are exact and the whole
/// phase is deterministic.
///
/// `deadline` bounds the phase: it is polled per processed query and per
/// emitted cross-product row (see [`evaluate_sharded`]), so an expired
/// request cannot sit inside a huge join. A truncated phase reports
/// `truncated = true`; the rows already emitted are exact.
pub(crate) fn answer_queries_sharded(
    shards: &[Arc<PreparedGraph>],
    queries: &[RankedQuery],
    min_answers: usize,
    deadline: Option<Instant>,
) -> AnswerPhase {
    let start = Instant::now();
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let mut answers = Vec::new();
    let mut total = 0usize;
    let mut queries_processed = 0usize;
    let mut truncated = false;
    for ranked in queries {
        if expired() {
            truncated = true;
            break;
        }
        queries_processed += 1;
        // A query whose evaluation failed on any shard contributes no set,
        // like `PreparedGraph::answer_queries` (a partial union would pass
        // for an exact one).
        let Ok((set, cut)) = evaluate_sharded(
            shards,
            &ranked.query,
            min_answers.saturating_sub(total).max(1),
            &expired,
        ) else {
            continue;
        };
        total += set.len();
        answers.push(set);
        if cut {
            truncated = true;
            break;
        }
        if total >= min_answers {
            break;
        }
    }
    AnswerPhase {
        answers,
        queries_processed,
        answer_time: start.elapsed(),
        truncated,
    }
}

/// Evaluates one conjunctive query across edge-disjoint shards, exactly.
///
/// The generated queries (see [`crate::query_map`]) put variables only in
/// entity and value positions, so the atoms of each variable-connected
/// group bind entirely within one connectivity component — which the
/// partitioner placed on exactly one shard. Hence: evaluate each group on
/// every shard, union the (shard-disjoint) row sets, and cross-product the
/// independent groups. A constant-only atom (a `subclass` schema
/// constraint) is a group of its own with no columns: one empty row where
/// the (replicated) edge exists, none — the query is unsatisfiable — where
/// it does not.
///
/// `expired` is the caller's deadline poll; it is consulted between
/// per-shard group evaluations and before every emitted cross-product row,
/// so the odometer materialization — whose output size is bounded only by
/// `limit` — aborts within one row of the signal. Returns the (exact,
/// possibly short) answer set plus whether the evaluation was cut off, or
/// the first per-shard evaluation error.
fn evaluate_sharded(
    shards: &[Arc<PreparedGraph>],
    query: &ConjunctiveQuery,
    limit: usize,
    expired: &dyn Fn() -> bool,
) -> Result<(AnswerSet, bool), EvalError> {
    let variables = query.effective_distinguished();

    // Union-find over the atoms: two atoms sharing a variable share a group.
    let atoms = query.atoms();
    let mut group_of_var: BTreeMap<&str, usize> = BTreeMap::new();
    let mut parent: Vec<usize> = (0..atoms.len()).collect();
    fn find(parent: &mut [usize], mut a: usize) -> usize {
        while parent[a] != a {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        a
    }
    for (i, atom) in atoms.iter().enumerate() {
        for var in atom.variables() {
            let other = *group_of_var.entry(var).or_insert(i);
            let (a, b) = (find(&mut parent, i), find(&mut parent, other));
            parent[a.max(b)] = a.min(b);
        }
    }
    // Atoms by group root, in first-atom order (deterministic).
    let mut groups: BTreeMap<usize, ConjunctiveQuery> = BTreeMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().add_atom(atom.clone());
    }

    // Evaluate each group on every shard; union the shard-disjoint rows.
    let mut group_results: Vec<(Vec<String>, Vec<Vec<VertexId>>)> = Vec::new();
    for mut sub in groups.into_values() {
        sub.distinguish_all();
        let mut per_shard = Vec::with_capacity(shards.len());
        for shard in shards {
            // A truncated group union would make the cross product below
            // silently incomplete-but-plausible; give back nothing instead.
            if expired() {
                return Ok((AnswerSet::empty(variables), true));
            }
            per_shard.push(
                Evaluator::new(shard.graph(), shard.store()).evaluate_with_limit(&sub, Some(limit)),
            );
        }
        let rows = union_shard_rows(per_shard)?;
        if rows.is_empty() {
            return Ok((AnswerSet::empty(variables), false));
        }
        group_results.push((sub.effective_distinguished(), rows));
    }

    // Cross-product the groups into the query's projection order.
    let column: BTreeMap<&str, (usize, usize)> = group_results
        .iter()
        .enumerate()
        .flat_map(|(g, (vars, _))| {
            vars.iter()
                .enumerate()
                .map(move |(c, var)| (var.as_str(), (g, c)))
        })
        .collect();
    let mut rows: Vec<Vec<VertexId>> = Vec::new();
    let mut cursor = vec![0usize; group_results.len()];
    'product: loop {
        // One poll per emitted row: the cross product is the only place in
        // the answer phase whose size is not bounded by per-shard evaluator
        // limits, so an expired deadline must be able to stop it mid-join.
        if expired() {
            return Ok((AnswerSet::new(variables, rows), true));
        }
        let row: Vec<VertexId> = variables
            .iter()
            .filter_map(|var| {
                column
                    .get(var.as_str())
                    .map(|&(g, c)| group_results[g].1[cursor[g]][c])
            })
            .collect();
        rows.push(row);
        if rows.len() >= limit {
            break;
        }
        // Odometer increment over the group result sets.
        for g in (0..cursor.len()).rev() {
            cursor[g] += 1;
            if cursor[g] < group_results[g].1.len() {
                continue 'product;
            }
            cursor[g] = 0;
        }
        break;
    }
    Ok((AnswerSet::new(variables, rows), false))
}

/// Unions one atom group's per-shard row sets (shard-disjoint, returned
/// sorted). One failed shard fails the group: the rows it would have
/// contributed are unknown, so the union of the rest is not the answer.
fn union_shard_rows(
    per_shard: Vec<Result<AnswerSet, EvalError>>,
) -> Result<Vec<Vec<VertexId>>, EvalError> {
    let mut rows: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    for set in per_shard {
        rows.extend(set?.rows().iter().cloned());
    }
    Ok(rows.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::scoring::ScoringFunction;
    use crate::serve::tests::{check_expired_deadline, check_unmatched_keywords, RUNNING_EXAMPLE};
    use crate::serve::{SearchRequest, SearchService, ServeError};
    use crate::shard::partition;
    use kwsearch_rdf::fixtures::figure1_graph;

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

    /// Deadline regression: the answer phase used to materialize its
    /// odometer cross-product without ever polling the deadline, so an
    /// expired request could sit inside a huge join. An expired deadline
    /// must truncate the phase (flagged, exact prefix) instead.
    #[test]
    fn the_answer_phase_polls_deadline_and_cancellation() {
        let shards = shards_of(2);
        let queries = service_over(1)
            .search(SearchRequest::new(["publications"]))
            .unwrap()
            .outcome
            .queries;
        assert!(!queries.is_empty());

        // Control arm: unbounded, the phase completes and finds answers.
        let full = answer_queries_sharded(&shards, &queries, 2, None);
        assert!(!full.truncated);
        assert!(full.total_answers() >= 2, "two publications exist");

        // An already expired deadline truncates before any join work.
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let phase = answer_queries_sharded(&shards, &queries, 2, Some(expired));
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

    /// The sharded answer phase returns the same answer *sets* as the
    /// unsharded evaluator for every ranked query it processes (row order
    /// within a set may differ; the sets may not).
    #[test]
    fn the_sharded_answer_phase_matches_the_unsharded_row_sets() {
        let reply = service_over(3)
            .search(SearchRequest::new(RUNNING_EXAMPLE).with_min_answers(3))
            .expect("the running example always matches");
        let queries = &reply.outcome.queries;
        let phase = reply.answer_phase.expect("min_answers requests a phase");
        assert!(phase.total_answers() >= 3 || phase.queries_processed == queries.len());

        let prepared = PreparedGraph::index(figure1_graph());
        for (set, ranked) in phase.answers.iter().zip(queries) {
            let want = prepared
                .answers(&ranked.query, None)
                .expect("the unsharded evaluator answers every emitted query");
            // The sharded phase caps each set at the still-missing count, so
            // it may hold fewer rows — but every row must be a real answer
            // (rows are distinct, so an uncapped set is then exactly equal).
            assert!(set.len() <= want.len());
            for row in set.rows() {
                assert!(want.rows().contains(row), "sharded phase invented a row");
            }
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

    /// A constant-only atom is a column-less group: satisfied, it leaves the
    /// other groups' rows alone (on its own: the one empty binding);
    /// unsatisfied or naming an unknown class, it empties the answer.
    #[test]
    fn constant_only_atoms_guard_the_query_without_adding_columns() {
        use kwsearch_query::QueryBuilder;
        let shards = shards_of(3);
        let rows = |query: QueryBuilder| {
            let (set, cut) = evaluate_sharded(&shards, &query.build(), 100, &|| false).unwrap();
            assert!(!cut);
            set.rows().to_vec()
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

    /// One shard tripping its evaluation budget fails the whole group
    /// union: the rows of the other shards alone would pass for an exact
    /// answer set.
    #[test]
    fn a_failed_shard_fails_the_group_union_instead_of_shrinking_it() {
        let row = |index: u32| vec![VertexId::from_index(index)];
        let set = |rows| AnswerSet::new(vec!["x".to_string()], rows);
        let union = union_shard_rows(vec![Ok(set(vec![row(2)])), Ok(set(vec![row(1), row(2)]))])
            .expect("every shard answered");
        assert_eq!(union, vec![row(1), row(2)], "sorted, duplicates folded");

        let failed = EvalError::TooManyIntermediateRows { limit: 7 };
        assert_eq!(
            union_shard_rows(vec![Ok(set(vec![row(1)])), Err(failed.clone())]),
            Err(failed)
        );
    }
}
