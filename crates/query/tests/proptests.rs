//! Property-based equivalence tests of the streaming evaluator against the
//! materializing reference implementation (the evaluator this crate shipped
//! before the streaming rewrite, kept in `kwsearch_query::eval::reference`),
//! across random graphs and random conjunctive queries, with and without
//! answer limits.

use proptest::prelude::*;

use kwsearch_query::eval::{reference, DEFAULT_MAX_INTERMEDIATE_ROWS};
use kwsearch_query::{ConjunctiveQuery, Evaluator, QueryBuilder};
use kwsearch_rdf::{DataGraph, Triple, TripleStore};

const CLASSES: [&str; 3] = ["Alpha", "Beta", "Gamma"];
const VALUES: [&str; 5] = ["red", "green", "blue", "cyan", "amber"];
const RELATIONS: [&str; 3] = ["linksTo", "near", "uses"];
const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// A compact random data graph: entities with types, attributes from a small
/// value pool, and random relations — the same shape the core crate's
/// exploration proptests use.
#[derive(Debug, Clone)]
struct GraphSpec {
    types: Vec<(usize, usize)>,
    attrs: Vec<(usize, usize)>,
    rels: Vec<(usize, usize, usize)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        proptest::collection::vec((0usize..10, 0usize..CLASSES.len()), 2..10),
        proptest::collection::vec((0usize..10, 0usize..VALUES.len()), 2..10),
        proptest::collection::vec((0usize..10, 0usize..RELATIONS.len(), 0usize..10), 0..14),
    )
        .prop_map(|(types, attrs, rels)| GraphSpec { types, attrs, rels })
}

fn build_graph(spec: &GraphSpec) -> DataGraph {
    let mut graph = DataGraph::new();
    for (e, c) in &spec.types {
        graph
            .insert_triple(&Triple::typed(format!("e{e}"), CLASSES[*c]))
            .expect("well-formed triple");
    }
    for (e, v) in &spec.attrs {
        graph
            .insert_triple(&Triple::attribute(format!("e{e}"), "label", VALUES[*v]))
            .expect("well-formed triple");
    }
    for (s, r, o) in &spec.rels {
        graph
            .insert_triple(&Triple::relation(
                format!("e{s}"),
                RELATIONS[*r],
                format!("e{o}"),
            ))
            .expect("well-formed triple");
    }
    graph
}

/// A random conjunctive query: each atom is a type/attribute/relation pattern
/// over a pool of four variables, plus a distinguished-variable count (0
/// declares none, i.e. all variables are distinguished by default).
#[derive(Debug, Clone)]
struct QuerySpec {
    atoms: Vec<(usize, usize, usize, usize)>,
    distinguished: usize,
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::collection::vec(
            (0usize..4, 0usize..VARS.len(), 0usize..VARS.len(), 0usize..6),
            1..5,
        ),
        0usize..4,
    )
        .prop_map(|(atoms, distinguished)| QuerySpec {
            atoms,
            distinguished,
        })
}

fn build_query(spec: &QuerySpec) -> ConjunctiveQuery {
    let mut builder = QueryBuilder::new();
    for &(kind, a, b, c) in &spec.atoms {
        builder = match kind {
            0 => builder.class_pattern(VARS[a], CLASSES[c % CLASSES.len()]),
            1 => builder.attribute_pattern(VARS[a], "label", VALUES[c % VALUES.len()]),
            2 => builder.relation_pattern(VARS[a], RELATIONS[c % RELATIONS.len()], VARS[b]),
            _ => builder.attribute_variable(VARS[a], "label", VARS[b]),
        };
    }
    let mut query = builder.build();
    // Distinguish a prefix of the variables that actually occur, so the
    // query is always well-formed; 0 leaves the default (all variables).
    let present: Vec<String> = query.variables().into_iter().collect();
    for v in present.iter().take(spec.distinguished.min(present.len())) {
        query.add_distinguished(v);
    }
    query
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unlimited evaluation: the streaming evaluator returns exactly the
    /// answer set (same rows, same order) of the materializing reference.
    #[test]
    fn streaming_equals_the_materializing_reference(
        gspec in graph_spec(),
        qspec in query_spec(),
    ) {
        let graph = build_graph(&gspec);
        let query = build_query(&qspec);
        let store = TripleStore::build(&graph);
        let evaluator = Evaluator::new(&graph, &store);
        let streaming = evaluator.evaluate(&query).expect("small graphs stay in budget");
        let materializing = reference::evaluate_with_limit(
            &graph,
            &store,
            &query,
            None,
            DEFAULT_MAX_INTERMEDIATE_ROWS,
        )
        .expect("small graphs stay in budget");
        prop_assert_eq!(streaming, materializing);
    }

    /// Limited evaluation returns exactly `min(n, total_distinct)` answers,
    /// and they are precisely the first `n` answers of the unlimited run —
    /// the limit only truncates, it never changes or reorders answers.
    #[test]
    fn limited_evaluation_is_a_prefix_of_the_full_answer_set(
        gspec in graph_spec(),
        qspec in query_spec(),
    ) {
        let graph = build_graph(&gspec);
        let query = build_query(&qspec);
        let store = TripleStore::build(&graph);
        let evaluator = Evaluator::new(&graph, &store);
        let full = evaluator.evaluate(&query).expect("small graphs stay in budget");
        for n in [1usize, 2, 5, 17] {
            let limited = evaluator
                .evaluate_with_limit(&query, Some(n))
                .expect("limited runs do at most the work of the full run");
            let expected = n.min(full.len());
            prop_assert_eq!(
                limited.len(),
                expected,
                "limit {} must return min(limit, {})",
                n,
                full.len()
            );
            prop_assert_eq!(limited.rows(), &full.rows()[..expected]);
            prop_assert_eq!(limited.variables(), full.variables());
        }
    }

    /// The streaming limit never returns fewer answers than the reference's
    /// over-collect heuristic — the shortfall bug is fixed, not relocated.
    #[test]
    fn streaming_limit_never_falls_short_of_the_reference(
        gspec in graph_spec(),
        qspec in query_spec(),
    ) {
        let graph = build_graph(&gspec);
        let query = build_query(&qspec);
        let store = TripleStore::build(&graph);
        let evaluator = Evaluator::new(&graph, &store);
        for n in [1usize, 3, 10] {
            let streaming = evaluator
                .evaluate_with_limit(&query, Some(n))
                .expect("small graphs stay in budget");
            let materializing = reference::evaluate_with_limit(
                &graph,
                &store,
                &query,
                Some(n),
                DEFAULT_MAX_INTERMEDIATE_ROWS,
            )
            .expect("small graphs stay in budget");
            prop_assert!(
                streaming.len() >= materializing.len(),
                "limit {}: streaming returned {} answers, reference {}",
                n,
                streaming.len(),
                materializing.len()
            );
        }
    }
}
