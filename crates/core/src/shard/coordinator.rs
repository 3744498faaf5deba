//! The sharded serving coordinator.
//!
//! A [`ShardedService`] owns one [`PreparedGraph`] per shard (built by
//! [`PartitionPlan::prepare_shards`](crate::shard::PartitionPlan::prepare_shards))
//! and spawns no threads: [`ShardedService::search`] runs one request start
//! to finish on the caller's thread — admission, scatter lookups, one
//! exploration, scattered answer phase; [`crate::shard`]'s module docs
//! give the lifecycle and why each step is exact.
//!
//! The only lock is the coordinator's `state` (admission count and
//! counters), held for a few stores at a time and never nested.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use kwsearch_keyword_index::KeywordMatch as ElementMatch;
use kwsearch_query::{AnswerSet, Atom, ConjunctiveQuery, EvalError, Evaluator};
use kwsearch_rdf::VertexId;

use crate::config::SearchConfig;
use crate::error::{KeywordMatch, SearchError};
use crate::exploration::ExplorationStats;
use crate::prepared::PreparedGraph;
use crate::result::AnswerPhase;
use crate::result::RankedQuery;
use crate::serve::{SearchRequest, ServeError};
use crate::session::SearchSession;
use crate::shard::matches::merge_keyword_matches;
use crate::sync::{lock_unpoisoned, CancelToken, Mutex};

/// Tuning knobs of a [`ShardedService`].
#[derive(Debug, Clone)]
pub struct ShardedServiceOptions {
    /// Admission cap: concurrently served requests beyond this are turned
    /// away with [`ServeError::Rejected`].
    pub max_inflight: usize,
}

impl Default for ShardedServiceOptions {
    fn default() -> Self {
        Self { max_inflight: 64 }
    }
}

/// Counters of a [`ShardedService`] (see [`ShardedService::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Requests admitted past the in-flight cap.
    pub requests_admitted: u64,
    /// Requests turned away by admission control.
    pub requests_rejected: u64,
    /// Requests that failed with [`ServeError::DeadlineExceeded`].
    pub requests_deadline_exceeded: u64,
    /// Rank-certified queries returned by successful requests.
    pub merged_emissions: u64,
}

/// The result of one sharded search (the sharded analogue of
/// [`SearchOutcome`](crate::SearchOutcome)).
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The top-k queries — the unsharded session's stream over the merged
    /// matches.
    pub queries: Vec<RankedQuery>,
    /// The per-keyword match report (from the merged global matches).
    pub keywords: Vec<KeywordMatch>,
    /// The sharded answer phase, when the request asked for one.
    pub answer_phase: Option<AnswerPhase>,
    /// Number of shards the lookups and the answer phase were scattered over.
    pub shard_count: usize,
    /// Counters of the request's one exploration.
    pub exploration: ExplorationStats,
    /// Latency of the per-shard lookups and the match merge.
    pub scatter_time: Duration,
    /// Span of the one exploration (augmentation, cursor walk, query
    /// mapping). Goes when a later `benchmark` issue retires
    /// `shard.merge_ms_p50`.
    pub merge_time: Duration,
    /// Always `queries.len()`: no emission waits on another shard. Goes
    /// when a later `benchmark` issue retires `shard.early_emit_ratio`.
    pub early_emissions: usize,
}

struct CoordinatorState {
    inflight: usize,
    stats: ShardedStats,
}

/// A serving front over partitioned [`PreparedGraph`]s — see the
/// [module docs](crate::shard) for the request lifecycle and the
/// correctness argument.
///
/// [`Self::search`] runs synchronously on the caller's thread. The service
/// is `Sync`: clones of one `Arc<ShardedService>` can search from many
/// threads concurrently, subject to admission control.
pub struct ShardedService {
    shards: Vec<PreparedGraph>,
    state: Mutex<CoordinatorState>,
    default_config: SearchConfig,
    options: ShardedServiceOptions,
}

/// Decrements the in-flight count however the request leaves `search`.
struct InflightGuard<'s> {
    service: &'s ShardedService,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.service.state);
        state.inflight -= 1;
    }
}

impl ShardedService {
    /// Starts the service over already-prepared shards (one
    /// [`PreparedGraph`] per shard, from
    /// [`PartitionPlan::prepare_shards`](crate::shard::PartitionPlan::prepare_shards)
    /// or [`load_shards`](crate::shard::load_shards)).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn start(
        shards: Vec<PreparedGraph>,
        default_config: SearchConfig,
        options: ShardedServiceOptions,
    ) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded service needs at least one shard"
        );
        Self {
            shards,
            state: Mutex::new(CoordinatorState {
                inflight: 0,
                stats: ShardedStats::default(),
            }),
            default_config,
            options,
        }
    }

    /// Convenience: partition `graph` into `shard_count` shards, prepare
    /// them with default keyword indexing, and start the service.
    pub fn over(
        graph: &kwsearch_rdf::DataGraph,
        shard_count: usize,
        default_config: SearchConfig,
    ) -> Self {
        let plan = crate::shard::partition(graph, shard_count);
        let shards = plan.prepare_shards(graph, Default::default());
        Self::start(shards, default_config, ShardedServiceOptions::default())
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ShardedStats {
        lock_unpoisoned(&self.state).stats.clone()
    }

    /// Counts one deadline failure and builds its error.
    fn deadline_exceeded(&self, budget: Duration) -> ServeError {
        lock_unpoisoned(&self.state)
            .stats
            .requests_deadline_exceeded += 1;
        ServeError::DeadlineExceeded { deadline: budget }
    }

    /// Serves one request on the caller's thread: admission, scatter
    /// lookups, one exploration, optional scattered answer phase. See the
    /// [module docs](crate::shard) for the lifecycle and failure modes.
    pub fn search(&self, request: SearchRequest) -> Result<ShardedOutcome, ServeError> {
        let submitted = Instant::now();
        let deadline = request.deadline.map(|budget| submitted + budget);
        // Reported by deadline failures only, which need a deadline.
        let budget = request.deadline.unwrap_or_default();
        let expired = || deadline.is_some_and(|deadline| Instant::now() >= deadline);

        // 1. Admission.
        {
            let mut state = lock_unpoisoned(&self.state);
            if state.inflight >= self.options.max_inflight {
                state.stats.requests_rejected += 1;
                return Err(ServeError::Rejected {
                    queue_capacity: self.options.max_inflight,
                });
            }
            state.inflight += 1;
            state.stats.requests_admitted += 1;
        }
        let _inflight = InflightGuard { service: self };
        if expired() {
            return Err(self.deadline_exceeded(budget));
        }

        // 2. Scatter lookups: per-shard lists, merged to the global matches
        // (exact — see `crate::shard::matches`).
        let scatter_start = Instant::now();
        let config = request
            .config
            .unwrap_or_else(|| self.default_config.clone());
        let per_shard: Vec<Vec<Vec<ElementMatch>>> = self
            .shards
            .iter()
            .map(|shard| shard.keyword_index().lookup_all(&request.keywords))
            .collect();
        let max_matches = self.shards[0]
            .keyword_index()
            .config()
            .max_matches_per_keyword;
        let merged_matches = merge_keyword_matches(&per_shard, max_matches);
        let report: Vec<KeywordMatch> = request
            .keywords
            .iter()
            .zip(&merged_matches)
            .enumerate()
            .map(|(position, (keyword, matches))| KeywordMatch {
                position,
                keyword: keyword.clone(),
                element_matches: matches.len(),
            })
            .collect();
        if !report.is_empty() && report.iter().all(|k| !k.is_matched()) {
            return Err(ServeError::Search(SearchError::AllKeywordsUnmatched {
                keywords: report,
            }));
        }
        let matches: Vec<Vec<ElementMatch>> = merged_matches
            .into_iter()
            .filter(|m| !m.is_empty())
            .collect();
        let scatter_time = scatter_start.elapsed();

        // 3. One exploration over the merged matches. Any shard would do:
        // each carries the global summary and the full vertex/label tables.
        let explore_start = Instant::now();
        let mut session = SearchSession::start_with_matches(
            &self.shards[0],
            report,
            &matches,
            config,
            scatter_time,
        );
        session.set_deadline(deadline);
        while session.next_query().is_some() {}
        if session.aborted() {
            return Err(self.deadline_exceeded(budget));
        }
        let outcome = session.into_partial_outcome();
        let merge_time = explore_start.elapsed();
        lock_unpoisoned(&self.state).stats.merged_emissions += outcome.queries.len() as u64;

        // 4. The scattered answer phase, if asked for.
        let answer_phase = request.min_answers.map(|min_answers| {
            answer_queries_sharded(&self.shards, &outcome.queries, min_answers, deadline, None)
        });

        Ok(ShardedOutcome {
            early_emissions: outcome.queries.len(),
            queries: outcome.queries,
            keywords: outcome.keywords,
            answer_phase,
            shard_count: self.shards.len(),
            exploration: outcome.exploration,
            scatter_time,
            merge_time,
        })
    }

    /// Consumes the service. It owns no threads or queues, so there is
    /// nothing to stop; dropping it is equivalent.
    pub fn shutdown(self) {}
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards.len())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// The sharded answer phase
// ---------------------------------------------------------------------

/// Evaluates `queries` in rank order across the shards until at least
/// `min_answers` answers exist — the scatter-gather analogue of
/// [`PreparedGraph::answer_queries`].
///
/// Row order differs from the unsharded streaming evaluator (per-group
/// unions are globally sorted), but the row *sets* are exact and the whole
/// phase is deterministic.
///
/// `deadline` and `cancel` bound the phase: both are polled per processed
/// query and per emitted cross-product row (see [`evaluate_sharded`]), so an
/// expired request cannot sit inside a huge join. A truncated phase reports
/// `truncated = true`; the rows already emitted are exact.
pub(crate) fn answer_queries_sharded(
    shards: &[PreparedGraph],
    queries: &[RankedQuery],
    min_answers: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> AnswerPhase {
    let start = Instant::now();
    let expired = || {
        deadline.is_some_and(|d| Instant::now() >= d) || cancel.is_some_and(|c| c.is_cancelled())
    };
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
/// independent groups. Constant-only atoms (`subclass` schema constraints)
/// are boolean guards, checked against the replicated schema edges.
/// `expired` is the caller's deadline/cancellation poll; it is consulted
/// between per-shard group evaluations and before every emitted
/// cross-product row, so the odometer materialization — whose output size is
/// bounded only by `limit` — aborts within one row of the signal. Returns
/// the (exact, possibly short) answer set plus whether the evaluation was
/// cut off, or the first per-shard evaluation error.
fn evaluate_sharded(
    shards: &[PreparedGraph],
    query: &ConjunctiveQuery,
    limit: usize,
    expired: &dyn Fn() -> bool,
) -> Result<(AnswerSet, bool), EvalError> {
    let variables = query.effective_distinguished();

    // Split atoms into constant-only guards and variable-connected groups.
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
    let mut guards = Vec::new();
    for (i, atom) in atoms.iter().enumerate() {
        let vars = atom.variables();
        if vars.is_empty() {
            guards.push(atom);
            continue;
        }
        for var in vars {
            match group_of_var.get(var) {
                Some(&other) => {
                    let a = find(&mut parent, i);
                    let b = find(&mut parent, other);
                    if a != b {
                        parent[a.max(b)] = a.min(b);
                    }
                }
                None => {
                    group_of_var.insert(var, i);
                }
            }
        }
    }

    // Constant-only guards: the query is unsatisfiable unless every guard
    // edge exists somewhere (subclass edges are replicated, so "somewhere"
    // is every shard — but check them all to stay general).
    for guard in &guards {
        let holds = shards
            .iter()
            .any(|shard| constant_atom_holds(shard.graph(), guard));
        if !holds {
            return Ok((AnswerSet::empty(variables), false));
        }
    }

    // Group atoms by union-find root, in first-atom order (deterministic).
    let mut groups: BTreeMap<usize, Vec<Atom>> = BTreeMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        if atom.variables().is_empty() {
            continue;
        }
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(atom.clone());
    }

    // Evaluate each group on every shard; union the shard-disjoint rows.
    let mut group_results: Vec<(Vec<String>, Vec<Vec<VertexId>>)> = Vec::new();
    for group_atoms in groups.into_values() {
        let mut sub = ConjunctiveQuery::new();
        for atom in group_atoms {
            sub.add_atom(atom);
        }
        sub.distinguish_all();
        let sub_vars = sub.effective_distinguished();
        let mut per_shard = Vec::with_capacity(shards.len());
        for shard in shards {
            // A truncated group union would make the cross product below
            // silently incomplete-but-plausible; give back nothing instead.
            if expired() {
                return Ok((AnswerSet::empty(variables), true));
            }
            per_shard.push(
                Evaluator::with_borrowed_store(shard.graph(), shard.store())
                    .evaluate_with_limit(&sub, Some(limit)),
            );
        }
        let rows = union_shard_rows(per_shard)?;
        if rows.is_empty() {
            return Ok((AnswerSet::empty(variables), false));
        }
        group_results.push((sub_vars, rows));
    }

    if group_results.is_empty() {
        // Guards only (all satisfied) — a single empty binding, projected
        // onto zero variables.
        return Ok((AnswerSet::new(variables, vec![Vec::new()]), false));
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

/// Whether a constant-only atom holds on `graph` — an edge with the
/// atom's predicate between the named vertices exists.
fn constant_atom_holds(graph: &kwsearch_rdf::DataGraph, atom: &Atom) -> bool {
    let Some(subject) = atom.subject.as_constant() else {
        return false;
    };
    let Some(object) = atom.object.as_constant() else {
        return false;
    };
    let labels = graph.edge_labels_named(&atom.predicate);
    let Some(from) = lookup_vertex(graph, subject) else {
        return false;
    };
    let Some(to) = lookup_vertex(graph, object) else {
        return false;
    };
    graph.out_edges(from).iter().any(|&e| {
        let edge = graph.edge(e);
        edge.to == to && labels.contains(&edge.label)
    })
}

/// Resolves a constant to a vertex: class, then entity, then value.
fn lookup_vertex(graph: &kwsearch_rdf::DataGraph, name: &str) -> Option<VertexId> {
    graph
        .class(name)
        .or_else(|| graph.entity(name))
        .or_else(|| graph.value(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::result::SearchOutcome;
    use crate::scoring::ScoringFunction;
    use crate::shard::partition;
    use kwsearch_rdf::fixtures::figure1_graph;

    fn service_over(shard_count: usize, config: &SearchConfig) -> ShardedService {
        ShardedService::over(&figure1_graph(), shard_count, config.clone())
    }

    /// The unsharded session over the whole graph, drained to `config.k`.
    fn unsharded_outcome(config: &SearchConfig, keywords: &[&str]) -> SearchOutcome {
        PreparedGraph::index(figure1_graph())
            .session(keywords, config.clone())
            .expect("the running example always matches")
            .into_outcome()
    }

    /// The acceptance bar of the sharded subsystem: the stream is
    /// bit-identical to the unsharded session for every shard count and
    /// every scoring function — same ranks, same cost bits, same canonical
    /// queries, same subgraphs — and it costs exactly one exploration: the
    /// cursor counters equal the unsharded session's, whatever the shard
    /// count.
    #[test]
    fn sharded_merge_is_bit_identical_to_the_unsharded_stream() {
        let keywords = ["2006", "cimiano", "aifb"];
        for scoring in [
            ScoringFunction::PathLength,
            ScoringFunction::Popularity,
            ScoringFunction::PopularityAndMatch,
        ] {
            let config = SearchConfig {
                scoring,
                ..SearchConfig::default()
            };
            let unsharded = unsharded_outcome(&config, &keywords);
            let want = &unsharded.queries;
            assert!(!want.is_empty(), "the running example has results");
            for shard_count in [1usize, 2, 3, 7] {
                let service = service_over(shard_count, &config);
                let outcome = service
                    .search(SearchRequest::new(keywords.iter()))
                    .expect("the running example always matches");
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
                assert_eq!(outcome.shard_count, shard_count);
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
        let graph = figure1_graph();
        let plan = partition(&graph, 2);
        let shards = plan.prepare_shards(&graph, Default::default());
        let service = ShardedService::start(
            shards,
            SearchConfig::default(),
            ShardedServiceOptions { max_inflight: 0 },
        );
        let err = service
            .search(SearchRequest::new(["cimiano"]))
            .expect_err("a zero in-flight budget admits nothing");
        assert!(matches!(err, ServeError::Rejected { queue_capacity: 0 }));
        assert_eq!(service.stats().requests_rejected, 1);
        assert_eq!(service.stats().requests_admitted, 0);
    }

    /// Cancellation regression: the answer phase used to materialize its
    /// odometer cross-product without ever polling the deadline or the
    /// cancel token, so an expired request could sit inside a huge join.
    /// Both signals must now truncate the phase (flagged, exact prefix)
    /// instead of running it to completion.
    #[test]
    fn the_answer_phase_polls_deadline_and_cancellation() {
        let graph = figure1_graph();
        let plan = partition(&graph, 2);
        let shards = plan.prepare_shards(&graph, Default::default());
        let config = SearchConfig::default();
        let queries = unsharded_outcome(&config, &["publications"]).queries;
        assert!(!queries.is_empty());

        // Control arm: unbounded, the phase completes and finds answers.
        let full = answer_queries_sharded(&shards, &queries, 2, None, None);
        assert!(!full.truncated);
        assert!(full.total_answers() >= 2, "two publications exist");

        // A tiny (already expired) deadline truncates before any join work.
        let expired = Instant::now() - Duration::from_millis(1);
        let phase = answer_queries_sharded(&shards, &queries, 2, Some(expired), None);
        assert!(phase.truncated, "an expired deadline must cut the phase");
        assert_eq!(phase.total_answers(), 0);
        assert_eq!(phase.queries_processed, 0);

        // A cancelled token truncates identically.
        let token = CancelToken::new();
        token.cancel();
        let phase = answer_queries_sharded(&shards, &queries, 2, None, Some(&token));
        assert!(phase.truncated, "a cancelled token must cut the phase");
        assert_eq!(phase.total_answers(), 0);
    }

    /// A deadline already expired at admission fails the request before any
    /// lookup, and the failed request gives its in-flight slot back: under
    /// `max_inflight = 1` the next request is admitted.
    #[test]
    fn an_expired_deadline_fails_the_request_with_deadline_exceeded() {
        let graph = figure1_graph();
        let shards = partition(&graph, 2).prepare_shards(&graph, Default::default());
        let service = ShardedService::start(
            shards,
            SearchConfig::default(),
            ShardedServiceOptions { max_inflight: 1 },
        );
        let err = service
            .search(SearchRequest::new(["2006", "cimiano", "aifb"]).with_deadline(Duration::ZERO))
            .expect_err("a zero deadline cannot be met");
        assert!(matches!(
            err,
            ServeError::DeadlineExceeded {
                deadline: Duration::ZERO
            }
        ));
        assert_eq!(service.stats().requests_deadline_exceeded, 1);
        let outcome = service
            .search(SearchRequest::new(["2006", "cimiano", "aifb"]))
            .expect("the expired request released its in-flight slot");
        assert!(!outcome.queries.is_empty());
        assert_eq!(service.stats().requests_admitted, 2);
        assert_eq!(service.stats().requests_rejected, 0);
    }

    #[test]
    fn unmatched_keywords_fail_with_the_typed_search_error() {
        let config = SearchConfig::default();
        let service = service_over(2, &config);
        let err = service
            .search(SearchRequest::new(["zzz-no-such-keyword"]))
            .expect_err("nothing matches");
        assert!(matches!(
            err,
            ServeError::Search(SearchError::AllKeywordsUnmatched { .. })
        ));
    }

    /// The sharded answer phase returns the same answer *sets* as the
    /// unsharded evaluator for every ranked query it processes (row order
    /// within a set may differ; the sets may not).
    #[test]
    fn the_sharded_answer_phase_matches_the_unsharded_row_sets() {
        let keywords = ["2006", "cimiano", "aifb"];
        let config = SearchConfig::default();
        let service = service_over(3, &config);
        let outcome = service
            .search(SearchRequest::new(keywords.iter()).with_min_answers(3))
            .expect("the running example always matches");
        let phase = outcome.answer_phase.expect("min_answers requests a phase");
        assert!(phase.total_answers() >= 3 || phase.queries_processed == outcome.queries.len());

        let prepared = PreparedGraph::index(figure1_graph());
        for (set, ranked) in phase.answers.iter().zip(&outcome.queries) {
            let want = prepared
                .answers(&ranked.query, None)
                .expect("the unsharded evaluator answers every emitted query");
            let mut got_rows: Vec<_> = set.rows().to_vec();
            let mut want_rows: Vec<_> = want.rows().to_vec();
            got_rows.sort();
            want_rows.sort();
            // The sharded phase caps each set at the still-missing count, so
            // it may hold fewer rows — but every row must be a real answer,
            // and an uncapped set must be exactly equal.
            if got_rows.len() == want_rows.len() {
                assert_eq!(got_rows, want_rows);
            } else {
                for row in &got_rows {
                    assert!(want_rows.contains(row), "sharded phase invented a row");
                }
            }
        }
    }

    #[test]
    fn stats_track_admissions_merges_and_early_emissions() {
        let config = SearchConfig::default();
        let service = service_over(2, &config);
        let outcome = service
            .search(SearchRequest::new(["2006", "cimiano", "aifb"]))
            .expect("the running example always matches");
        let stats = service.stats();
        assert_eq!(stats.requests_admitted, 1);
        assert_eq!(stats.merged_emissions, outcome.queries.len() as u64);
        assert_eq!(outcome.early_emissions, outcome.queries.len());
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
