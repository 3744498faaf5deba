//! Join ordering and query compilation.
//!
//! The evaluator processes query atoms one at a time, extending the bindings
//! accumulated so far with each atom's matches. The order matters: starting
//! from selective atoms (those mentioning constants that occur rarely in the
//! data) and always staying connected to already-bound variables keeps the
//! search narrow. [`CompiledQuery::compile`] orders the atoms greedily this
//! way and resolves predicates, constants and variable slots once per query
//! instead of once per row × per edge label.

use std::collections::{BTreeSet, HashMap};

use kwsearch_rdf::triple::EdgeKind;
use kwsearch_rdf::{DataGraph, EdgeLabelId, TriplePattern, TripleStore, VertexId};

use crate::eval::EvalError;
use crate::model::{ConjunctiveQuery, QueryTerm};

/// Resolves a constant appearing in subject position to a vertex, respecting
/// the vertex kind implied by the edge kind.
fn resolve_subject_constant(graph: &DataGraph, kind: EdgeKind, constant: &str) -> Option<VertexId> {
    match kind {
        EdgeKind::SubClass => graph.class(constant),
        _ => graph.entity(constant),
    }
}

/// Resolves a constant appearing in object position to a vertex, respecting
/// the vertex kind implied by the edge kind.
fn resolve_object_constant(graph: &DataGraph, kind: EdgeKind, constant: &str) -> Option<VertexId> {
    match kind {
        EdgeKind::Relation => graph.entity(constant),
        EdgeKind::Attribute => graph.value(constant),
        EdgeKind::Type | EdgeKind::SubClass => graph.class(constant),
    }
}

/// Estimates the number of rows matching `atom` when only its constants are
/// bound.
fn estimate_atom(
    query: &ConjunctiveQuery,
    atom_idx: usize,
    graph: &DataGraph,
    store: &TripleStore,
) -> usize {
    let atom = &query.atoms()[atom_idx];
    let labels = graph.edge_labels_named(&atom.predicate);
    if labels.is_empty() {
        return 0;
    }
    let mut total = 0usize;
    for label in labels {
        let kind = graph.edge_label(label).kind();
        let mut pattern = TriplePattern::new(label);
        if let Some(c) = atom.subject.as_constant() {
            match resolve_subject_constant(graph, kind, c) {
                Some(v) => pattern = pattern.with_subject(v),
                None => continue,
            }
        }
        if let Some(c) = atom.object.as_constant() {
            match resolve_object_constant(graph, kind, c) {
                Some(v) => pattern = pattern.with_object(v),
                None => continue,
            }
        }
        total += store.count(pattern);
    }
    total
}

/// A greedy, connectivity-aware join order: indices into `query.atoms()`,
/// in evaluation order.
///
/// The first atom is the one with the smallest estimated cardinality; each
/// following atom is the cheapest one that shares a variable with the atoms
/// already planned (falling back to the globally cheapest remaining atom if
/// the query is disconnected).
fn join_order(query: &ConjunctiveQuery, graph: &DataGraph, store: &TripleStore) -> Vec<usize> {
    let n = query.atoms().len();
    let estimates: Vec<usize> = (0..n)
        .map(|i| estimate_atom(query, i, graph, store))
        .collect();

    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let mut bound_vars: BTreeSet<String> = BTreeSet::new();
    let mut order = Vec::with_capacity(n);

    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                query.atoms()[i]
                    .variables()
                    .iter()
                    .any(|v| bound_vars.contains(*v))
            })
            .collect();
        let candidates = if order.is_empty() || connected.is_empty() {
            remaining.iter().copied().collect::<Vec<_>>()
        } else {
            connected
        };
        // Among candidates prefer (more constants, lower estimate) — constants
        // make the scan a prefix lookup, and low estimates keep joins small.
        #[expect(
            clippy::expect_used,
            reason = "the loop guard guarantees `remaining` is non-empty, so min_by_key sees at least one candidate"
        )]
        let &best = candidates
            .iter()
            .min_by_key(|&&i| {
                let atom = &query.atoms()[i];
                (usize::MAX - atom.constant_count(), estimates[i])
            })
            .expect("candidates is non-empty");
        remaining.remove(&best);
        for v in query.atoms()[best].variables() {
            bound_vars.insert(v.to_owned());
        }
        order.push(best);
    }

    order
}

/// A term position of a [`CompiledPattern`]: constants are resolved to
/// concrete vertices at compile time, variables to indices into the compiled
/// variable table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A constant, resolved against the data graph once per query.
    Const(VertexId),
    /// A variable, identified by its index into [`CompiledQuery::variables`].
    Var(usize),
}

/// One scannable triple pattern: a concrete edge label plus compiled
/// subject/object slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompiledPattern {
    /// The edge label this pattern scans.
    pub(crate) label: EdgeLabelId,
    /// The subject position.
    pub(crate) subject: Slot,
    /// The object position.
    pub(crate) object: Slot,
}

/// A query atom compiled to the edge labels sharing the atom's predicate
/// name. Labels whose constants do not resolve against the graph are dropped
/// here, once, instead of being re-resolved (and re-skipped) per row during
/// evaluation. An atom with no patterns can never match.
#[derive(Debug)]
pub(crate) struct CompiledAtom {
    /// The scannable patterns of this atom, in edge-label order.
    pub(crate) patterns: Vec<CompiledPattern>,
}

/// A conjunctive query compiled for the streaming evaluator: atoms in
/// [`join_order`] order with every predicate name, constant and variable
/// resolved exactly once.
#[derive(Debug)]
pub(crate) struct CompiledQuery {
    /// The variable table (sorted); [`Slot::Var`] indexes into it.
    pub(crate) variables: Vec<String>,
    /// The atoms, in evaluation (plan) order.
    pub(crate) atoms: Vec<CompiledAtom>,
    /// Indices into `variables` of the distinguished variables, in
    /// `distinguished` order.
    pub(crate) projection: Vec<usize>,
    /// The distinguished variables (declaration order; defaults to all
    /// variables when the query declares none).
    pub(crate) distinguished: Vec<String>,
}

impl CompiledQuery {
    /// Compiles `query` against `graph`, ordering atoms with [`join_order`].
    ///
    /// Fails if a distinguished variable does not occur in any atom.
    pub(crate) fn compile(
        query: &ConjunctiveQuery,
        graph: &DataGraph,
        store: &TripleStore,
    ) -> Result<Self, EvalError> {
        let variables: Vec<String> = query.variables().into_iter().collect();
        let var_index: HashMap<&str, usize> = variables
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();

        let distinguished = query.effective_distinguished();
        for d in &distinguished {
            if !var_index.contains_key(d.as_str()) {
                return Err(EvalError::UnboundDistinguishedVariable(d.clone()));
            }
        }
        let projection: Vec<usize> = distinguished
            .iter()
            .map(|d| var_index[d.as_str()])
            .collect();

        let order = join_order(query, graph, store);
        let mut atoms = Vec::with_capacity(order.len());
        for atom_idx in order {
            let atom = &query.atoms()[atom_idx];
            let mut patterns = Vec::new();
            for label in graph.edge_labels_named(&atom.predicate) {
                let kind = graph.edge_label(label).kind();
                let subject = match &atom.subject {
                    QueryTerm::Variable(v) => Slot::Var(var_index[v.as_str()]),
                    other => {
                        #[expect(
                            clippy::expect_used,
                            reason = "the match arm above handles Variable, so this term can only be a constant"
                        )]
                        let c = other
                            .as_constant()
                            .expect("non-variable term is a constant");
                        match resolve_subject_constant(graph, kind, c) {
                            Some(v) => Slot::Const(v),
                            None => continue,
                        }
                    }
                };
                let object = match &atom.object {
                    QueryTerm::Variable(v) => Slot::Var(var_index[v.as_str()]),
                    other => {
                        #[expect(
                            clippy::expect_used,
                            reason = "the match arm above handles Variable, so this term can only be a constant"
                        )]
                        let c = other
                            .as_constant()
                            .expect("non-variable term is a constant");
                        match resolve_object_constant(graph, kind, c) {
                            Some(v) => Slot::Const(v),
                            None => continue,
                        }
                    }
                };
                patterns.push(CompiledPattern {
                    label,
                    subject,
                    object,
                });
            }
            atoms.push(CompiledAtom { patterns });
        }

        Ok(CompiledQuery {
            variables,
            atoms,
            projection,
            distinguished,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use kwsearch_rdf::fixtures::figure1_graph;

    #[test]
    fn plan_covers_every_atom_exactly_once() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .class_pattern("x", "Publication")
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .relation_pattern("y", "worksAt", "z")
            .build();
        let mut sorted = join_order(&q, &g, &store);
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn selective_constant_atoms_come_first() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .build();
        let order = join_order(&q, &g, &store);
        // The name atom has a constant and cardinality 1; it must be planned
        // before the unconstrained author atom.
        assert_eq!(order[0], 1);
    }

    #[test]
    fn plan_stays_connected_when_possible() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .attribute_pattern("x", "year", "2006")
            .relation_pattern("x", "author", "y")
            .relation_pattern("y", "worksAt", "z")
            .build();
        let order = join_order(&q, &g, &store);
        // After the first atom (year, selective), the next atom must share a
        // variable with it; worksAt(y,z) does not share a variable with
        // year(x, 2006), so author(x, y) has to come second.
        assert_eq!(order[..2], [0, 1]);
    }

    #[test]
    fn unknown_predicates_estimate_to_zero() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .relation_pattern("x", "nonexistent", "y")
            .build();
        assert_eq!(estimate_atom(&q, 0, &g, &store), 0);
    }

    #[test]
    fn compile_resolves_constants_and_variable_slots_once() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .attribute_pattern("x", "name", "AIFB")
            .relation_pattern("x", "worksAt", "y")
            .build();
        let compiled = CompiledQuery::compile(&q, &g, &store).unwrap();
        assert_eq!(compiled.variables, vec!["x".to_string(), "y".to_string()]);
        // No distinguished variables declared -> all variables, projected in
        // table order.
        assert_eq!(compiled.distinguished, compiled.variables);
        assert_eq!(compiled.projection, vec![0, 1]);
        assert_eq!(compiled.atoms.len(), 2);
        for atom in &compiled.atoms {
            assert!(!atom.patterns.is_empty());
        }
        // The name atom resolves its literal to a concrete value vertex.
        let name_atom = &compiled.atoms[0];
        let value = g.value("AIFB").unwrap();
        assert!(name_atom
            .patterns
            .iter()
            .any(|p| p.object == Slot::Const(value)));
    }

    #[test]
    fn compile_drops_unresolvable_patterns() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .attribute_pattern("x", "name", "No Such Name")
            .build();
        let compiled = CompiledQuery::compile(&q, &g, &store).unwrap();
        assert_eq!(compiled.atoms.len(), 1);
        assert!(compiled.atoms[0].patterns.is_empty());
    }

    #[test]
    fn compile_rejects_unbound_distinguished_variables() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .relation_pattern("x", "author", "y")
            .distinguished(["z"])
            .build();
        match CompiledQuery::compile(&q, &g, &store) {
            Err(EvalError::UnboundDistinguishedVariable(v)) => assert_eq!(v, "z"),
            other => panic!("expected unbound-variable error, got {other:?}"),
        }
    }
}
