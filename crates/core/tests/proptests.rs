//! Property-based tests of the top-k exploration: result validity,
//! cost ordering, the prefix property of increasing k, agreement across
//! configurations, and the streaming `SearchSession` (drain-equivalence to
//! the batch exploration) on randomly generated graphs.

use proptest::prelude::*;

use kwsearch_core::{
    map_subgraph_to_query, ExplorationOutcome, ExplorationState, PreparedGraph, RankedQuery,
    ScoringFunction, SearchConfig, SearchOutcome,
};
use kwsearch_keyword_index::KeywordIndex;
use kwsearch_rdf::{DataGraph, Triple};
use kwsearch_summary::{AugmentedSummaryGraph, SummaryGraph};

/// A compact random data graph: a handful of classes, entities with
/// attributes drawn from a small label pool, and random relations.
#[derive(Debug, Clone)]
struct RandomGraph {
    triples: Vec<Triple>,
    value_labels: Vec<String>,
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    let classes = ["Alpha", "Beta", "Gamma"];
    let values = ["red", "green", "blue", "cyan", "amber"];
    let relations = ["linksTo", "near", "uses"];

    (
        proptest::collection::vec((0usize..12, 0usize..classes.len()), 3..12),
        proptest::collection::vec((0usize..12, 0usize..values.len()), 2..12),
        proptest::collection::vec((0usize..12, 0usize..relations.len(), 0usize..12), 0..16),
    )
        .prop_map(move |(types, attrs, rels)| {
            let mut triples = Vec::new();
            let mut used_values = Vec::new();
            for (e, c) in &types {
                triples.push(Triple::typed(format!("e{e}"), classes[*c]));
            }
            for (e, v) in &attrs {
                triples.push(Triple::attribute(format!("e{e}"), "label", values[*v]));
                if !used_values.contains(&values[*v].to_string()) {
                    used_values.push(values[*v].to_string());
                }
            }
            for (s, r, o) in &rels {
                triples.push(Triple::relation(
                    format!("e{s}"),
                    relations[*r],
                    format!("e{o}"),
                ));
            }
            RandomGraph {
                triples,
                value_labels: used_values,
            }
        })
}

fn build(graph_spec: &RandomGraph) -> DataGraph {
    let mut graph = DataGraph::new();
    for t in &graph_spec.triples {
        graph
            .insert_triple(t)
            .expect("generated triples are well-formed");
    }
    graph
}

/// Algorithm 1 + 2 run to completion over one augmented graph (the batch
/// shape).
fn explore(augmented: &AugmentedSummaryGraph<'_>, config: &SearchConfig) -> ExplorationOutcome {
    let mut state = ExplorationState::new(augmented, config);
    state.run_to_completion(augmented, config);
    state.into_outcome()
}

/// A drained session: the batch shape of one keyword search.
fn search(prepared: &PreparedGraph, keywords: &[String], config: &SearchConfig) -> SearchOutcome {
    prepared
        .session(keywords, config.clone())
        .expect("at least one keyword matches")
        .into_outcome()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every returned subgraph is connected, covers every keyword, and the
    /// result list is sorted by non-decreasing cost — for all three scoring
    /// functions.
    #[test]
    fn results_are_valid_and_sorted(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();

        let base = SummaryGraph::build(&graph);
        let index = KeywordIndex::build(&graph);
        let matches = index.lookup_all(&keywords);
        let augmented = AugmentedSummaryGraph::build(&graph, &base, &matches);

        for scoring in ScoringFunction::all() {
            let config = SearchConfig::with_k(5).scoring(scoring);
            let outcome = explore(&augmented, &config);
            let mut previous = 0.0f64;
            for subgraph in &outcome.subgraphs {
                prop_assert!(subgraph.cost >= previous - 1e-9);
                previous = subgraph.cost;
                prop_assert!(subgraph.is_connected(&augmented));
                prop_assert_eq!(subgraph.keyword_count(), keywords.len());
                // Path costs are consistent with the scoring function.
                for path in subgraph.paths() {
                    let recomputed = scoring.path_cost(&augmented, &path.elements);
                    prop_assert!((recomputed - path.cost).abs() < 1e-6);
                }
            }
        }
    }

    /// Increasing k never changes the cheaper prefix of the result list
    /// (the top-k guarantee), and never returns more than k results.
    #[test]
    fn larger_k_extends_the_result_list(spec in random_graph()) {
        prop_assume!(!spec.value_labels.is_empty());
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();
        let prepared = PreparedGraph::index(graph);

        let small = search(&prepared, &keywords, &SearchConfig::with_k(2));
        let large = search(&prepared, &keywords, &SearchConfig::with_k(6));
        prop_assert!(small.queries.len() <= 2);
        prop_assert!(large.queries.len() <= 6);
        prop_assert!(large.queries.len() >= small.queries.len());
        for (a, b) in small.queries.iter().zip(large.queries.iter()) {
            prop_assert!((a.cost - b.cost).abs() < 1e-9);
        }
    }

    /// The search is deterministic: searching twice yields identical
    /// queries and costs.
    #[test]
    fn search_is_deterministic(spec in random_graph()) {
        prop_assume!(!spec.value_labels.is_empty());
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();
        let prepared = PreparedGraph::index(graph);
        let first = search(&prepared, &keywords, &SearchConfig::default());
        let second = search(&prepared, &keywords, &SearchConfig::default());
        prop_assert_eq!(first.queries.len(), second.queries.len());
        for (a, b) in first.queries.iter().zip(second.queries.iter()) {
            prop_assert_eq!(a.query.canonicalized(), b.query.canonicalized());
            prop_assert!((a.cost - b.cost).abs() < 1e-12);
        }
    }

    /// The optimized exploration returns cost-identical top-k results to the
    /// exhaustive reference (a run with `k = usize::MAX / 2`, whose
    /// threshold test never fires, enumerating every candidate within
    /// `dmax`) — across random graphs, keyword choices, and all three
    /// scoring functions. This is the safety net of the dense-id/CSR/global-
    /// queue refactor of the exploration hot path.
    #[test]
    fn topk_is_cost_identical_to_the_exhaustive_reference(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();

        let base = SummaryGraph::build(&graph);
        let index = KeywordIndex::build(&graph);
        let matches = index.lookup_all(&keywords);
        let augmented = AugmentedSummaryGraph::build(&graph, &base, &matches);

        for scoring in ScoringFunction::all() {
            // dmax is kept small so the exhaustive enumeration stays cheap
            // on adversarial random graphs; both runs use the same bound.
            let reference_config = SearchConfig {
                k: usize::MAX / 2,
                ..SearchConfig::default()
            }
            .scoring(scoring)
            .dmax(4);
            let reference = explore(&augmented, &reference_config);

            for k in [1usize, 3, 7] {
                let config = SearchConfig::with_k(k).scoring(scoring).dmax(4);
                let topk = explore(&augmented, &config);
                prop_assert_eq!(
                    topk.subgraphs.len(),
                    reference.subgraphs.len().min(k),
                    "k = {}, scoring {}: result count",
                    k,
                    scoring
                );
                for (i, (got, want)) in
                    topk.subgraphs.iter().zip(reference.subgraphs.iter()).enumerate()
                {
                    prop_assert!(
                        (got.cost - want.cost).abs() < 1e-9,
                        "k = {}, scoring {}, rank {}: cost {} != reference {}",
                        k,
                        scoring,
                        i,
                        got.cost,
                        want.cost
                    );
                }
            }
        }
    }

    /// Generated queries never contain unknown predicates: every predicate
    /// of every result exists as an edge label of the data graph (or is the
    /// reserved `type`/`subclass`).
    #[test]
    fn generated_queries_use_existing_vocabulary(spec in random_graph()) {
        prop_assume!(!spec.value_labels.is_empty());
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();
        let prepared = PreparedGraph::index(graph);
        let outcome = search(&prepared, &keywords, &SearchConfig::default());
        for ranked in &outcome.queries {
            for predicate in ranked.query.predicates() {
                prop_assert!(
                    !prepared.graph().edge_labels_named(&predicate).is_empty(),
                    "unknown predicate {} in generated query",
                    predicate
                );
            }
            prop_assert!(!ranked.query.distinguished().is_empty());
        }
    }
}

/// The batch pipeline, reimplemented on the exploration directly: run
/// Algorithm 1 + 2 to completion, then map and deduplicate the subgraphs.
/// The independent reference the streaming `SearchSession` is checked
/// against.
fn batch_reference(
    graph: &DataGraph,
    keywords: &[String],
    config: &SearchConfig,
) -> Vec<RankedQuery> {
    use std::collections::BTreeSet;

    let base = SummaryGraph::build(graph);
    let index = KeywordIndex::build(graph);
    let all_matches = index.lookup_all(keywords);
    let matches: Vec<_> = all_matches.into_iter().filter(|m| !m.is_empty()).collect();
    let augmented = AugmentedSummaryGraph::build(graph, &base, &matches);
    let outcome = explore(&augmented, config);

    let mut queries: Vec<RankedQuery> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for subgraph in outcome.subgraphs {
        let query = map_subgraph_to_query(&augmented, &subgraph);
        let canonical = query.canonicalized().to_string();
        if !seen.insert(canonical) {
            continue;
        }
        queries.push(RankedQuery {
            rank: queries.len() + 1,
            cost: subgraph.cost,
            query,
            subgraph,
        });
        if queries.len() >= config.k {
            break;
        }
    }
    queries
}

/// Sorted element labels of a ranked query's subgraph — the element-set
/// identity used by the drain-equivalence checks.
fn element_key(ranked: &RankedQuery) -> Vec<String> {
    let mut labels: Vec<String> = ranked
        .subgraph
        .elements()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    labels.sort_unstable();
    labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fully draining a `SearchSession` yields cost- and element-identical
    /// results to the batch exploration pipeline — across random graphs and
    /// all three scoring functions. Costs are compared bit-for-bit: the
    /// streaming emission must not change a single arithmetic step.
    #[test]
    fn draining_a_session_is_identical_to_batch_search(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();
        let prepared = PreparedGraph::index(graph.clone());

        for scoring in ScoringFunction::all() {
            let config = SearchConfig::with_k(5).scoring(scoring);
            let reference = batch_reference(&graph, &keywords, &config);

            let mut session = prepared
                .session(&keywords, config.clone())
                .expect("at least one keyword matches");
            let mut streamed: Vec<RankedQuery> = Vec::new();
            while let Some(ranked) = session.next_query() {
                streamed.push(ranked);
            }
            prop_assert!(session.next_query().is_none(), "the stream stays drained");

            prop_assert_eq!(
                streamed.len(),
                reference.len(),
                "scoring {}: result count",
                scoring
            );
            for (got, want) in streamed.iter().zip(reference.iter()) {
                prop_assert_eq!(got.rank, want.rank);
                prop_assert_eq!(
                    got.cost.to_bits(),
                    want.cost.to_bits(),
                    "scoring {}, rank {}: cost {} != {}",
                    scoring,
                    got.rank,
                    got.cost,
                    want.cost
                );
                prop_assert_eq!(element_key(got), element_key(want));
                prop_assert_eq!(got.query.canonicalized(), want.query.canonicalized());
            }
        }
    }
}

/// The bit-identity key of one search outcome: per rank the cost bits, the
/// canonical query string and the sorted element labels — the equality the
/// augmentation-cache coherence properties demand.
fn outcome_key(outcome: &SearchOutcome) -> Vec<(u64, String, Vec<String>)> {
    outcome
        .queries
        .iter()
        .map(|q| {
            (
                q.cost.to_bits(),
                q.query.canonicalized().to_string(),
                element_key(q),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cache coherence: for random graphs, keyword sets and all three
    /// scoring functions, a cache-hit search equals a cache-miss search
    /// bit for bit — both compared against a preparation whose cache is
    /// disabled, so neither direction of the memoization can drift.
    #[test]
    fn cache_hits_equal_cache_misses_exactly(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();

        let cached = PreparedGraph::index_with(graph.clone(), Default::default(), 8);
        let uncached = PreparedGraph::index_with(graph, Default::default(), 0);

        for scoring in ScoringFunction::all() {
            let config = SearchConfig::with_k(5).scoring(scoring);
            let reference = search(&uncached, &keywords, &config);
            let miss = search(&cached, &keywords, &config);
            let hit = search(&cached, &keywords, &config);
            prop_assert_eq!(
                outcome_key(&miss),
                outcome_key(&reference),
                "scoring {}: cache-miss run differs from the uncached preparation",
                scoring
            );
            prop_assert_eq!(
                outcome_key(&hit),
                outcome_key(&reference),
                "scoring {}: cache-hit run differs from the uncached preparation",
                scoring
            );
        }
        let stats = cached.augmentation_cache().stats();
        prop_assert_eq!(stats.hits, 3, "one hit per scoring function: {:?}", stats);
    }

    /// Evicting mid-sequence never changes results: a capacity-1 cache is
    /// thrashed by alternating keyword sets (every search after the first
    /// either hits or re-computes a just-evicted entry), and every outcome
    /// stays bit-identical to the uncached preparation's.
    #[test]
    fn eviction_mid_sequence_never_changes_results(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let a = vec![spec.value_labels[0].clone()];
        let b = vec![spec.value_labels[1].clone()];
        let config = SearchConfig::with_k(4);

        let thrashed = PreparedGraph::index_with(graph.clone(), Default::default(), 1);
        let uncached = PreparedGraph::index_with(graph, Default::default(), 0);

        for round in 0..3 {
            for keywords in [&a, &b] {
                let got = search(&thrashed, keywords, &config);
                let want = search(&uncached, keywords, &config);
                prop_assert_eq!(
                    outcome_key(&got),
                    outcome_key(&want),
                    "round {}, keywords {:?}: thrashed cache drifted",
                    round,
                    keywords
                );
            }
        }
        let stats = thrashed.augmentation_cache().stats();
        prop_assert!(stats.len <= 1, "capacity bound violated: {:?}", stats);
        prop_assert!(stats.evictions >= 4, "alternation must evict: {:?}", stats);
    }

    /// The LRU capacity bound holds under adversarial key sequences: every
    /// distinct (keyword set, config) pair inserts its own entry, yet the
    /// resident count never exceeds the configured capacity.
    #[test]
    fn lru_capacity_bound_holds_under_adversarial_keys(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let capacity = 3usize;
        let prepared = PreparedGraph::index_with(graph, Default::default(), capacity);

        // Adversarial mix: distinct keyword sets × distinct ks (distinct
        // config keys), with re-touches of early keys interleaved so
        // recency ordering actually matters.
        for k in [1usize, 2, 3] {
            let config = SearchConfig::with_k(k);
            for width in 1..=spec.value_labels.len().min(3) {
                let keywords: Vec<String> =
                    spec.value_labels.iter().take(width).cloned().collect();
                let _ = search(&prepared, &keywords, &config);
                let _ = search(&prepared, &keywords[..1], &config);
                let stats = prepared.augmentation_cache().stats();
                prop_assert!(
                    stats.len <= capacity,
                    "capacity bound violated: {:?}",
                    stats
                );
            }
        }
        let stats = prepared.augmentation_cache().stats();
        prop_assert!(stats.insertions > capacity as u64, "the sequence overflows: {:?}", stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded scatter-gather identity: for random graphs, every shard
    /// count in {1, 2, 3, 7} and all three scoring functions, the stream a
    /// [`SearchService`] over the shards returns (merged per-shard lookups,
    /// one exploration) equals a drained unsharded session on a fresh cache-disabled preparation — ranks dense, costs
    /// bit-for-bit, canonical queries and element sets equal. This is the
    /// randomized arm of the golden Figure-1 bit-identity tests.
    #[test]
    fn sharded_merge_equals_the_unsharded_stream(spec in random_graph()) {
        use kwsearch_core::serve::{SearchRequest, SearchService};
        use kwsearch_core::shard::partition;

        prop_assume!(spec.value_labels.len() >= 2);
        let graph = build(&spec);
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();
        let pristine = PreparedGraph::index_with(graph.clone(), Default::default(), 0);

        for shard_count in [1usize, 2, 3, 7] {
            let shards = partition(&graph, shard_count).prepare_shards(&graph, Default::default());
            let service = SearchService::new(shards, SearchConfig::default());
            for scoring in ScoringFunction::all() {
                let config = SearchConfig::with_k(5).scoring(scoring);
                let Ok(mut session) = pristine.session(&keywords, config.clone()) else {
                    // No keyword matched: the service must agree on the miss.
                    prop_assert!(service
                        .search(SearchRequest::new(keywords.iter()).with_config(config))
                        .is_err());
                    continue;
                };
                let mut reference: Vec<RankedQuery> = Vec::new();
                while let Some(ranked) = session.next_query() {
                    reference.push(ranked);
                }
                let outcome = service
                    .search(SearchRequest::new(keywords.iter()).with_config(config))
                    .expect("the unsharded session matched, so the service must too")
                    .outcome;
                prop_assert_eq!(
                    outcome.queries.len(),
                    reference.len(),
                    "{} shards, scoring {}: stream length",
                    shard_count,
                    scoring
                );
                for (got, want) in outcome.queries.iter().zip(reference.iter()) {
                    prop_assert_eq!(got.rank, want.rank);
                    prop_assert_eq!(
                        got.cost.to_bits(),
                        want.cost.to_bits(),
                        "{} shards, scoring {}, rank {}: cost drifted",
                        shard_count,
                        scoring,
                        got.rank
                    );
                    prop_assert_eq!(got.query.canonicalized(), want.query.canonicalized());
                    prop_assert_eq!(element_key(got), element_key(want));
                }
            }
        }
    }
}
