//! Property-based checks of the streaming evaluator against Definition 3,
//! computed by a nested-loop oracle that tries every assignment of vertices
//! to variables and reads nothing but the graph's edges and labels (no
//! triple store, no variable order), across random graphs and random
//! conjunctive queries, with and without answer limits, over a flat store,
//! over one split between base and delta, and over several edge-disjoint
//! stores read as one.

use std::collections::BTreeSet;

use proptest::prelude::*;

use kwsearch_query::{ConjunctiveQuery, Evaluator, QueryBuilder, QueryTerm};
use kwsearch_rdf::fixtures::figure1_graph;
use kwsearch_rdf::{DataGraph, Edge, EdgeId, SpoRow, Triple, TripleStore, VertexId};

/// `Delta` types no entity: `build_graph` names it in a `subclass` edge only.
const CLASSES: [&str; 4] = ["Alpha", "Beta", "Gamma", "Delta"];
const VALUES: [&str; 5] = ["red", "green", "blue", "cyan", "amber"];
/// `label` is also the attribute's predicate: one name, two edge labels.
const RELATIONS: [&str; 4] = ["linksTo", "near", "uses", "label"];
const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// A compact random data graph: entities with types, attributes from a small
/// value pool, and random relations — the same shape the core crate's
/// exploration proptests use — plus a fixed class hierarchy.
#[derive(Debug, Clone)]
struct GraphSpec {
    types: Vec<(usize, usize)>,
    attrs: Vec<(usize, usize)>,
    rels: Vec<(usize, usize, usize)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        proptest::collection::vec((0usize..10, 0usize..CLASSES.len() - 1), 2..10),
        proptest::collection::vec((0usize..10, 0usize..VALUES.len()), 2..10),
        proptest::collection::vec((0usize..10, 0usize..RELATIONS.len(), 0usize..10), 0..14),
    )
        .prop_map(|(types, attrs, rels)| GraphSpec { types, attrs, rels })
}

fn build_graph(spec: &GraphSpec) -> DataGraph {
    let mut graph = DataGraph::new();
    for (class, super_class) in [("Alpha", "Beta"), ("Delta", "Beta")] {
        graph
            .insert_triple(&Triple::subclass(class, super_class))
            .expect("well-formed triple");
    }
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

/// A random conjunctive query: each atom is a type, attribute, relation or
/// `subclass` pattern over a pool of four variables, with constants in every
/// position the evaluator resolves (classes, values, entities — some absent
/// from the graph) and atoms with both ends constant, plus a
/// distinguished-variable count (0 declares none, i.e. all variables are
/// distinguished by default). One query in four (`ground == 0`) is made of
/// variable-free atoms only.
#[derive(Debug, Clone)]
struct QuerySpec {
    atoms: Vec<(usize, usize, usize, usize)>,
    distinguished: usize,
    ground: usize,
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::collection::vec(
            (
                0usize..12,
                0usize..VARS.len(),
                0usize..VARS.len(),
                0usize..12,
            ),
            1..5,
        ),
        0usize..4,
        0usize..4,
    )
        .prop_map(|(atoms, distinguished, ground)| QuerySpec {
            atoms,
            distinguished,
            ground,
        })
}

/// Builds the query of `spec`. A relation atom with an entity constant
/// takes its constant and predicate from the `c`-th relation edge of
/// `graph`, so it has a match; past the last edge it names entity `e{c}`,
/// which may be absent (`e10` and `e11` always are). A variable-free
/// attribute atom takes its entity and value from the `c`-th attribute the
/// same way.
fn build_query(graph: &GraphSpec, spec: &QuerySpec) -> ConjunctiveQuery {
    let mut builder = QueryBuilder::new();
    for &(kind, a, b, c) in &spec.atoms {
        let class = CLASSES[c % CLASSES.len()];
        let (s, r, o) = graph.rels.get(c).copied().unwrap_or((c, b, c));
        let relation = RELATIONS[r % RELATIONS.len()];
        let (e, v) = graph.attrs.get(c).copied().unwrap_or((c, a));
        let kind = if spec.ground == 0 { 9 + kind % 3 } else { kind };
        builder = match kind {
            0 => builder.class_pattern(VARS[a], class),
            1 => builder.attribute_pattern(VARS[a], "label", VALUES[c % VALUES.len()]),
            2 => builder.relation_pattern(VARS[a], RELATIONS[c % RELATIONS.len()], VARS[b]),
            3 => builder.attribute_variable(VARS[a], "label", VARS[b]),
            4 => builder.atom(
                relation,
                QueryTerm::iri(format!("e{s}")),
                QueryTerm::var(VARS[a]),
            ),
            5 => builder.atom(
                relation,
                QueryTerm::var(VARS[a]),
                QueryTerm::iri(format!("e{o}")),
            ),
            6 => builder.atom("subclass", QueryTerm::var(VARS[a]), QueryTerm::iri(class)),
            7 => builder.atom("subclass", QueryTerm::iri(class), QueryTerm::var(VARS[a])),
            8 => builder.atom("subclass", QueryTerm::var(VARS[a]), QueryTerm::var(VARS[b])),
            9 => builder.atom(
                relation,
                QueryTerm::iri(format!("e{s}")),
                QueryTerm::iri(format!("e{o}")),
            ),
            10 => builder.subclass_pattern(class, CLASSES[b % CLASSES.len()]),
            _ => builder.atom(
                "label",
                QueryTerm::iri(format!("e{e}")),
                QueryTerm::literal(VALUES[v % VALUES.len()]),
            ),
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

/// One atom for the oracle: the variable slots of its two positions, and the
/// `(from, to)` pairs of the edges its predicate names whose endpoints carry
/// its constants.
struct OracleAtom {
    subject: Option<usize>,
    object: Option<usize>,
    pairs: Vec<(VertexId, VertexId)>,
}

impl OracleAtom {
    fn holds(&self, assignment: &[VertexId]) -> bool {
        self.pairs.iter().any(|&(from, to)| {
            self.subject.is_none_or(|i| assignment[i] == from)
                && self.object.is_none_or(|i| assignment[i] == to)
        })
    }
}

/// The answers of Definition 3 by brute force: every assignment of graph
/// vertices to the query's variables that satisfies all atoms, projected
/// onto the distinguished variables, as a sorted set. A constant matches the
/// endpoint with that label; the edge's kind already fixes the endpoint's
/// vertex kind.
fn nested_loop_answers(graph: &DataGraph, query: &ConjunctiveQuery) -> Vec<Vec<VertexId>> {
    let variables: Vec<String> = query.variables().into_iter().collect();
    let slot = |name: &str| variables.iter().position(|v| v == name);
    let carries = |term: &QueryTerm, v: VertexId| {
        term.as_constant()
            .is_none_or(|c| graph.vertex_label(v) == c)
    };
    let atoms: Vec<OracleAtom> = query
        .atoms()
        .iter()
        .map(|atom| OracleAtom {
            subject: atom.subject.as_variable().and_then(slot),
            object: atom.object.as_variable().and_then(slot),
            pairs: graph
                .edges()
                .map(|e| graph.edge(e))
                .filter(|edge| {
                    graph.edge_label_name(edge.label) == atom.predicate
                        && carries(&atom.subject, edge.from)
                        && carries(&atom.object, edge.to)
                })
                .map(|edge| (edge.from, edge.to))
                .collect(),
        })
        .collect();
    let projection: Vec<usize> = query
        .effective_distinguished()
        .iter()
        .map(|d| slot(d).expect("distinguished variables occur in the body"))
        .collect();

    let vertices: Vec<VertexId> = graph.vertices().collect();
    let mut digits = vec![0usize; variables.len()];
    let mut answers = BTreeSet::new();
    loop {
        let assignment: Vec<VertexId> = digits.iter().map(|&d| vertices[d]).collect();
        if atoms.iter().all(|atom| atom.holds(&assignment)) {
            answers.insert(projection.iter().map(|&i| assignment[i]).collect());
        }
        let Some(last) = digits.iter().rposition(|&d| d + 1 < vertices.len()) else {
            break;
        };
        digits[last] += 1;
        digits[last + 1..].fill(0);
    }
    answers.into_iter().collect()
}

/// The graph's store built from its even edges, with the odd ones added as
/// a delta: every pattern's rows are split between two runs.
fn split_store(graph: &DataGraph) -> TripleStore {
    let mut store = TripleStore::build(&graph.edge_subset(|id, _| id.index() % 2 == 0));
    let odd: Vec<SpoRow> = graph
        .edges()
        .filter(|id| id.index() % 2 == 1)
        .map(|id| {
            let edge = graph.edge(id);
            SpoRow {
                subject: edge.from,
                predicate: edge.label,
                object: edge.to,
            }
        })
        .collect();
    store.add_rows(&odd);
    store
}

/// The graph's edges split into `n` edge-disjoint stores over its id space:
/// by predicate (label id mod `n`) or by edge id mod `n`.
fn disjoint_stores(graph: &DataGraph, n: usize, by_predicate: bool) -> Vec<TripleStore> {
    let key = |id: EdgeId, edge: &Edge| {
        if by_predicate {
            edge.label.index()
        } else {
            id.index()
        }
    };
    (0..n)
        .map(|shard| TripleStore::build(&graph.edge_subset(|id, edge| key(id, edge) % n == shard)))
        .collect()
}

/// The streaming evaluator's rows, sorted with duplicates kept, and the
/// oracle's set. The rows, in order, are the same over a flat store, over
/// one split between base and delta, and over the union of 2 or 3
/// edge-disjoint stores split by predicate or by edge id.
fn streaming_and_oracle(
    graph: &DataGraph,
    query: &ConjunctiveQuery,
) -> (Vec<Vec<VertexId>>, Vec<Vec<VertexId>>) {
    let rows = |stores: &[TripleStore]| {
        let answers = Evaluator::over_stores(graph, stores)
            .evaluate(query)
            .expect("small graphs stay in budget");
        assert_eq!(answers.variables(), query.effective_distinguished());
        answers.rows().to_vec()
    };
    let mut flat = rows(&[TripleStore::build(graph)]);
    assert_eq!(
        rows(&[split_store(graph)]),
        flat,
        "base/delta split of {query}"
    );
    for n in [2, 3] {
        for by_predicate in [true, false] {
            assert_eq!(
                rows(&disjoint_stores(graph, n, by_predicate)),
                flat,
                "{n} stores (by predicate: {by_predicate}) of {query}"
            );
        }
    }
    flat.sort();
    (flat, nested_loop_answers(graph, query))
}

#[test]
fn streaming_matches_the_nested_loop_oracle_on_the_fixture() {
    let g = figure1_graph();
    let queries = [
        QueryBuilder::new()
            .class_pattern("p", "Publication")
            .relation_pattern("p", "author", "a")
            .distinguished(["a"])
            .build(),
        QueryBuilder::new()
            .relation_pattern("p", "author", "a")
            .relation_pattern("a", "worksAt", "i")
            .build(),
        QueryBuilder::new()
            .relation_pattern("p", "author", "a1")
            .relation_pattern("p", "author", "a2")
            .relation_pattern("a1", "worksAt", "i")
            .relation_pattern("a2", "worksAt", "i")
            .distinguished(["a1", "a2"])
            .build(),
        QueryBuilder::new()
            .atom("subclass", QueryTerm::var("c"), QueryTerm::iri("Agent"))
            .build(),
    ];
    for q in &queries {
        let (streaming, oracle) = streaming_and_oracle(&g, q);
        assert_eq!(streaming, oracle, "query {q}");
    }
}

/// A self-join `r(x, x)` holds on whichever store has the loop: split by
/// edge id, the three loops below sit on different stores, and every split
/// answers all three, in the one-store order.
#[test]
fn self_joins_hold_on_any_store() {
    let mut graph = DataGraph::new();
    for (s, o) in [("a", "b"), ("a", "a"), ("b", "b"), ("c", "c"), ("c", "a")] {
        graph
            .insert_triple(&Triple::relation(s, "linksTo", o))
            .expect("well-formed triple");
    }
    let query = QueryBuilder::new()
        .relation_pattern("x", "linksTo", "x")
        .build();
    let (streaming, oracle) = streaming_and_oracle(&graph, &query);
    assert_eq!(streaming, oracle);
    assert_eq!(streaming.len(), 3, "a, b and c each link to themselves");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unlimited evaluation: the streaming evaluator returns exactly the
    /// oracle's answer set, each answer once.
    #[test]
    fn streaming_equals_the_nested_loop_oracle(
        gspec in graph_spec(),
        qspec in query_spec(),
    ) {
        let (streaming, oracle) = streaming_and_oracle(&build_graph(&gspec), &build_query(&gspec, &qspec));
        prop_assert_eq!(streaming, oracle);
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
        let query = build_query(&gspec, &qspec);
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
}
