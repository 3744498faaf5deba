//! Mapping matching subgraphs to conjunctive queries (Section VI-D).
//!
//! Every subgraph computed on the augmented summary graph is translated into
//! a conjunctive query by the following rules:
//!
//! * every node of the subgraph is associated with a distinct variable
//!   (`var(v)`) and with its label (`constant(v)`),
//! * an **A-edge** `e(v1, v2)` maps to `type(var(v1), constant(v1))` plus
//!   `e(var(v1), constant(v2))` when `v2` is a concrete value, or
//!   `e(var(v1), var(v2))` when `v2` is the artificial `value` node,
//! * an **R-edge** `e(v1, v2)` maps to `type(var(v1), constant(v1))`,
//!   `type(var(v2), constant(v2))` and `e(var(v1), var(v2))`,
//! * a **subclass** edge `subclass(v1, v2)` maps to
//!   `subclass(constant(v1), constant(v2))` (a schema-level constraint),
//! * an isolated class node (a subgraph with no incident edge in the
//!   subgraph) maps to `type(var(v), constant(v))`; an isolated value node
//!   is attached through its cheapest incident attribute edge of the
//!   augmented graph so the query remains answerable.
//!
//! `Thing` nodes represent untyped entities; they receive a variable but no
//! `type` atom (there is no `Thing` class in the data).
//!
//! All variables are distinguished by default, following the paper: "a
//! reasonable choice is to treat all query variables as distinguished".

use std::collections::{BTreeMap, BTreeSet};

use kwsearch_query::{Atom, ConjunctiveQuery, QueryTerm};
use kwsearch_summary::{
    AugmentedSummaryGraph, SummaryEdgeKind, SummaryElement, SummaryNodeId, SummaryNodeKind,
};

use crate::subgraph::MatchingSubgraph;

/// Translates a matching subgraph into a conjunctive query.
pub fn map_subgraph_to_query(
    graph: &AugmentedSummaryGraph<'_>,
    subgraph: &MatchingSubgraph,
) -> ConjunctiveQuery {
    let elements = subgraph.elements();

    // Stable variable naming: nodes in ascending id order get x0, x1, …
    let mut nodes: BTreeSet<SummaryNodeId> = elements.iter().filter_map(|e| e.as_node()).collect();
    // Edge endpoints participate in atoms even when the path ended on the
    // edge itself; make sure they have variables too.
    for element in elements {
        if let Some(edge_id) = element.as_edge() {
            let edge = graph.edge(edge_id);
            nodes.insert(edge.from);
            nodes.insert(edge.to);
        }
    }
    let variables: BTreeMap<SummaryNodeId, String> = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, format!("x{i}")))
        .collect();

    let mut query = ConjunctiveQuery::new();
    let mut nodes_with_atoms: BTreeSet<SummaryNodeId> = BTreeSet::new();

    for element in elements {
        let Some(edge_id) = element.as_edge() else {
            continue;
        };
        let edge = graph.edge(edge_id);
        let predicate = graph
            .element_label(SummaryElement::Edge(edge_id))
            .to_string();
        match edge.kind {
            SummaryEdgeKind::Attribute { .. } => {
                add_type_atom(graph, &variables, &mut query, edge.from);
                let subject = QueryTerm::var(&variables[&edge.from]);
                let object = match graph.node(edge.to).kind {
                    SummaryNodeKind::ArtificialValue => QueryTerm::var(&variables[&edge.to]),
                    _ => QueryTerm::literal(node_constant(graph, edge.to)),
                };
                query.add_atom(Atom::new(predicate, subject, object));
                nodes_with_atoms.insert(edge.from);
                nodes_with_atoms.insert(edge.to);
            }
            SummaryEdgeKind::Relation { .. } => {
                add_type_atom(graph, &variables, &mut query, edge.from);
                add_type_atom(graph, &variables, &mut query, edge.to);
                query.add_atom(Atom::new(
                    predicate,
                    QueryTerm::var(&variables[&edge.from]),
                    QueryTerm::var(&variables[&edge.to]),
                ));
                nodes_with_atoms.insert(edge.from);
                nodes_with_atoms.insert(edge.to);
            }
            SummaryEdgeKind::SubClass => {
                query.add_atom(Atom::new(
                    "subclass",
                    QueryTerm::iri(node_constant(graph, edge.from)),
                    QueryTerm::iri(node_constant(graph, edge.to)),
                ));
                nodes_with_atoms.insert(edge.from);
                nodes_with_atoms.insert(edge.to);
            }
        }
    }

    // Nodes of the subgraph not yet covered by any atom (isolated keyword
    // elements, e.g. a single-class or single-value subgraph).
    for element in elements {
        let Some(node_id) = element.as_node() else {
            continue;
        };
        if nodes_with_atoms.contains(&node_id) {
            continue;
        }
        match graph.node(node_id).kind {
            SummaryNodeKind::Class { .. } => {
                add_type_atom(graph, &variables, &mut query, node_id);
            }
            SummaryNodeKind::Thing | SummaryNodeKind::ArtificialValue => {
                // No constraint can be derived from an isolated Thing or
                // artificial value node.
            }
            SummaryNodeKind::Value { .. } => {
                // Attach the value through one of its augmented attribute
                // edges so the query constrains something.
                if let Some(edge_el) = graph
                    .neighbors(SummaryElement::Node(node_id))
                    .iter()
                    .copied()
                    .find(|n| n.as_edge().is_some())
                {
                    #[expect(
                        clippy::expect_used,
                        reason = "the find() two lines up filtered to elements whose as_edge() is Some"
                    )]
                    let edge = graph.edge(edge_el.as_edge().expect("filtered to edges"));
                    let source_var = variables
                        .get(&edge.from)
                        .cloned()
                        .unwrap_or_else(|| format!("x{}", variables.len()));
                    add_type_atom_named(graph, &source_var, &mut query, edge.from);
                    query.add_atom(Atom::new(
                        graph.element_label(edge_el).to_string(),
                        QueryTerm::var(&source_var),
                        QueryTerm::literal(node_constant(graph, node_id)),
                    ));
                }
            }
        }
    }

    query.distinguish_all();
    query
}

/// The constant associated with a node (its label).
fn node_constant(graph: &AugmentedSummaryGraph<'_>, node: SummaryNodeId) -> String {
    graph.element_label(SummaryElement::Node(node)).to_string()
}

/// Adds `type(var(node), constant(node))` for class nodes; `Thing` and value
/// nodes get no type atom.
fn add_type_atom(
    graph: &AugmentedSummaryGraph<'_>,
    variables: &BTreeMap<SummaryNodeId, String>,
    query: &mut ConjunctiveQuery,
    node: SummaryNodeId,
) {
    #[expect(
        clippy::expect_used,
        reason = "the caller populates `variables` with every node of the subgraph before mapping atoms"
    )]
    let var = variables
        .get(&node)
        .expect("every subgraph node has a variable");
    add_type_atom_named(graph, var, query, node);
}

fn add_type_atom_named(
    graph: &AugmentedSummaryGraph<'_>,
    var: &str,
    query: &mut ConjunctiveQuery,
    node: SummaryNodeId,
) {
    if let SummaryNodeKind::Class { .. } = graph.node(node).kind {
        query.add_atom(Atom::new(
            "type",
            QueryTerm::var(var),
            QueryTerm::iri(node_constant(graph, node)),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::exploration::ExplorationState;
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_query::evaluate;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::DataGraph;
    use kwsearch_summary::SummaryGraph;

    fn augmented<'g>(graph: &'g DataGraph, keywords: &[&str]) -> AugmentedSummaryGraph<'g> {
        let base = SummaryGraph::build(graph);
        let index = KeywordIndex::build(graph);
        let matches = index.lookup_all(keywords);
        AugmentedSummaryGraph::build(graph, &base, &matches)
    }

    fn best_query(graph: &DataGraph, keywords: &[&str]) -> ConjunctiveQuery {
        let aug = augmented(graph, keywords);
        let config = SearchConfig::default();
        let mut state = ExplorationState::new(&aug, &config);
        let best = state
            .next_certified(&aug, &config)
            .unwrap_or_else(|| panic!("no subgraph for {keywords:?}"));
        map_subgraph_to_query(&aug, &best)
    }

    #[test]
    fn the_running_example_produces_the_papers_query_shape() {
        let g = figure1_graph();
        let q = best_query(&g, &["2006", "cimiano", "aifb"]);
        let predicates = q.predicates();
        assert!(predicates.contains("type"));
        assert!(predicates.contains("year"));
        assert!(predicates.contains("author"));
        assert!(predicates.contains("name"));
        assert!(predicates.contains("worksAt"));
        let constants = q.constants();
        assert!(constants.contains("Publication"));
        assert!(constants.contains("Researcher"));
        assert!(constants.contains("Institute"));
        assert!(constants.contains("2006"));
        assert!(constants.contains("P. Cimiano"));
        assert!(constants.contains("AIFB"));
        assert!(!q.distinguished().is_empty(), "all variables distinguished");
    }

    #[test]
    fn the_generated_query_actually_answers_on_the_data_graph() {
        let g = figure1_graph();
        let q = best_query(&g, &["2006", "cimiano", "aifb"]);
        let answers = evaluate(&g, &q).expect("query evaluates");
        assert!(
            !answers.is_empty(),
            "the generated query must retrieve the publication:\n{q}"
        );
        // pub1URI must appear in some binding of some answer.
        let pub1 = g.entity("pub1URI").unwrap();
        assert!(answers.rows().iter().any(|row| row.contains(&pub1)));
    }

    #[test]
    fn single_class_keyword_maps_to_a_type_query() {
        let g = figure1_graph();
        let q = best_query(&g, &["publications"]);
        assert_eq!(q.len(), 1);
        let atom = &q.atoms()[0];
        assert_eq!(atom.predicate, "type");
        assert_eq!(atom.object, QueryTerm::iri("Publication"));
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn single_value_keyword_maps_to_an_attribute_query() {
        let g = figure1_graph();
        let q = best_query(&g, &["aifb"]);
        let predicates = q.predicates();
        assert!(predicates.contains("name"));
        let answers = evaluate(&g, &q).unwrap();
        assert!(!answers.is_empty());
        let inst1 = g.entity("inst1URI").unwrap();
        assert!(answers.rows().iter().any(|row| row.contains(&inst1)));
    }

    #[test]
    fn attribute_keyword_maps_to_a_variable_valued_atom() {
        let g = figure1_graph();
        let q = best_query(&g, &["year"]);
        let year_atom = q
            .atoms()
            .iter()
            .find(|a| a.predicate == "year")
            .expect("year atom present");
        assert!(
            year_atom.object.is_variable(),
            "artificial value becomes a variable"
        );
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(answers.len(), 2, "both publications have a year");
    }

    #[test]
    fn relation_keyword_maps_to_typed_relation_atoms() {
        let g = figure1_graph();
        let q = best_query(&g, &["author"]);
        let author_atom = q
            .atoms()
            .iter()
            .find(|a| a.predicate == "author")
            .expect("author atom present");
        assert!(author_atom.subject.is_variable());
        assert!(author_atom.object.is_variable());
        assert!(q.constants().contains("Publication"));
        assert!(q.constants().contains("Researcher"));
        let answers = evaluate(&g, &q).unwrap();
        assert!(!answers.is_empty());
    }

    #[test]
    fn two_keyword_query_connects_through_a_relation() {
        let g = figure1_graph();
        let q = best_query(&g, &["cimiano", "publication"]);
        let predicates = q.predicates();
        assert!(predicates.contains("author"));
        assert!(predicates.contains("name"));
        let answers = evaluate(&g, &q).unwrap();
        assert!(!answers.is_empty());
    }

    #[test]
    fn variables_are_stable_and_deduplicated() {
        let g = figure1_graph();
        let q = best_query(&g, &["2006", "cimiano", "aifb"]);
        let vars = q.variables();
        // x, y, z style: one variable per subgraph node that carries atoms.
        assert!(vars.len() >= 3);
        assert!(vars.iter().all(|v| v.starts_with('x')));
        // No duplicate atoms.
        let mut atoms = q.atoms().to_vec();
        let before = atoms.len();
        atoms.dedup();
        assert_eq!(before, atoms.len());
    }
}
