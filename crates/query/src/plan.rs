//! Query compilation: constants resolved once, and the variable order.
//!
//! The evaluator binds one variable at a time (see [`crate::eval`]): a
//! variable's values are the intersection of sorted store columns, one per
//! atom that links it to a constant or to a variable bound before it. The
//! order therefore decides which atoms anchor which variable.
//! [`CompiledQuery::compile`] resolves every predicate name and constant
//! once per query, and [`levels`] fixes the order once — no count is
//! repeated per binding — recording per variable the atoms it reads, the
//! self-joins it checks and the budget units a binding costs.

use std::collections::HashMap;

use kwsearch_rdf::triple::EdgeKind;
use kwsearch_rdf::{DataGraph, SpoRow, TriplePattern, TripleStore, VertexId};

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

/// The end of an atom a [`Level`]'s variable takes, and so the column of
/// the atom's store rows its values are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The subject column: POS `(p, o, *)` is sorted by it.
    Subject,
    /// The object column: SPO `(s, p, *)` and POS `(p, *, *)` are sorted by
    /// it.
    Object,
}

impl Side {
    /// The vertex at this end of `row`.
    pub(crate) fn of(self, row: &SpoRow) -> VertexId {
        match self {
            Side::Subject => row.subject,
            Side::Object => row.object,
        }
    }
}

/// A query atom compiled against the graph.
#[derive(Debug)]
pub(crate) struct CompiledAtom {
    /// The subject's index into [`CompiledQuery::variables`]; `None` for a
    /// constant.
    pub(crate) subject: Option<usize>,
    /// The object's index into [`CompiledQuery::variables`]; `None` for a
    /// constant.
    pub(crate) object: Option<usize>,
    /// One pattern per edge label the predicate names whose constants
    /// resolve, with those constants bound and the variables free. Labels
    /// whose constants do not resolve are dropped here, once; an atom with
    /// no pattern can never match.
    pub(crate) patterns: Vec<TriplePattern>,
}

impl CompiledAtom {
    /// `pattern` with the atom's variables bound as in `row` (an unbound
    /// variable stays free).
    pub(crate) fn under(&self, pattern: TriplePattern, row: &[Option<VertexId>]) -> TriplePattern {
        let bound = |slot: Option<usize>| slot.and_then(|i| row[i]);
        TriplePattern {
            subject: pattern.subject.or_else(|| bound(self.subject)),
            predicate: pattern.predicate,
            object: pattern.object.or_else(|| bound(self.object)),
        }
    }

    /// The rows matching the atom with only its constants bound, summed
    /// over `stores`.
    fn constant_rows(&self, stores: &[&TripleStore]) -> usize {
        let count = |p| stores.iter().map(|store| store.count(p)).sum::<usize>();
        self.patterns.iter().map(|&p| count(p)).sum()
    }
}

/// One step of the variable order: a variable and how its values are found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Level {
    /// The variable this level binds, an index into
    /// [`CompiledQuery::variables`].
    pub(crate) variable: usize,
    /// The atoms (indices into [`CompiledQuery::atoms`]) whose sorted
    /// columns are intersected for the variable's values, each with the end
    /// the variable takes: every atom linking it to a constant or to an
    /// earlier variable; when there is none, every atom naming it as object,
    /// entered through POS `(p, *, *)`. Never empty.
    pub(crate) columns: Vec<(usize, Side)>,
    /// The self-joins `r(v, v)` on the variable, checked once it is bound.
    pub(crate) self_loops: Vec<usize>,
    /// The atoms whose last variable this is: a binding is charged one
    /// budget unit for each, so a full binding costs one unit per atom.
    pub(crate) charge: usize,
}

/// The key [`levels`] ranks an unbound variable `v` by, as `atom` sees it
/// (`count` is the atom's [`CompiledAtom::constant_rows`]); `None` when the
/// atom cannot anchor `v` yet.
fn rank(atom: &CompiledAtom, count: usize, v: usize, bound: &[bool]) -> Option<(u8, usize)> {
    match (atom.subject, atom.object) {
        (Some(u), None) | (None, Some(u)) if u == v => Some((0, count)),
        (Some(s), Some(o)) if s == v && o != v && bound[o] => Some((1, count)),
        (Some(s), Some(o)) if o == v && s != v && bound[s] => Some((1, count)),
        (Some(_), Some(o)) if o == v => Some((2, count)),
        _ => None,
    }
}

/// The levels in binding order, fixed once per query. Each step binds the
/// unbound variable that ranks first by:
///
/// 1. the smallest constant-anchored count — the fewest rows of an atom
///    linking it to a constant;
/// 2. sharing an atom with a bound variable (the atom with the fewest rows
///    first);
/// 3. being some atom's object: it is entered through the object column of
///    POS `(p, *, *)` (the smallest predicate first).
///
/// Ties go to the lower variable index. A variable that is only ever a
/// subject with a free object waits for that object: SPO has no sorted
/// subject column for a bare predicate.
fn levels(atoms: &[CompiledAtom], variable_count: usize, stores: &[&TripleStore]) -> Vec<Level> {
    let counts: Vec<usize> = atoms.iter().map(|a| a.constant_rows(stores)).collect();
    let mut bound = vec![false; variable_count];
    let mut levels = Vec::with_capacity(variable_count);
    while levels.len() < variable_count {
        // Some variable always ranks: an unbound object ranks 3rd at worst,
        // and when no unbound variable is an object, any unbound one is the
        // subject of an atom whose object is a constant or bound.
        #[expect(
            clippy::expect_used,
            reason = "every variable occurs in an atom, so some unbound variable always ranks (see above)"
        )]
        let (_, next) = (0..variable_count)
            .filter(|&v| !bound[v])
            .filter_map(|v| {
                atoms
                    .iter()
                    .zip(&counts)
                    .filter_map(|(atom, &count)| rank(atom, count, v, &bound))
                    .min()
                    .map(|key| (key, v))
            })
            .min()
            .expect("an unbound variable ranks");
        levels.push(level(atoms, next, &bound));
        bound[next] = true;
    }
    levels
}

/// The [`Level`] binding `v` once the variables in `bound` are bound.
fn level(atoms: &[CompiledAtom], v: usize, bound: &[bool]) -> Level {
    let anchored = |end: Option<usize>| end.is_none_or(|u| bound[u]);
    let (mut columns, mut entries, mut self_loops) = (Vec::new(), Vec::new(), Vec::new());
    for (i, atom) in atoms.iter().enumerate() {
        match (atom.subject, atom.object) {
            (Some(s), Some(o)) if s == v && o == v => {
                self_loops.push(i);
                entries.push((i, Side::Object));
            }
            (Some(s), o) if s == v && anchored(o) => columns.push((i, Side::Subject)),
            (s, Some(o)) if o == v && anchored(s) => columns.push((i, Side::Object)),
            (Some(_), Some(o)) if o == v => entries.push((i, Side::Object)),
            _ => {}
        }
    }
    let charge = columns.len() + self_loops.len();
    if columns.is_empty() {
        columns = entries;
    }
    debug_assert!(
        !columns.is_empty(),
        "levels anchors every variable it binds"
    );
    Level {
        variable: v,
        columns,
        self_loops,
        charge,
    }
}

/// A conjunctive query compiled for the evaluator: every predicate name,
/// constant and variable resolved exactly once, and the variables ordered
/// into [`levels`].
#[derive(Debug)]
pub(crate) struct CompiledQuery {
    /// The variable table (sorted); atoms and levels index into it.
    pub(crate) variables: Vec<String>,
    /// The atoms, in query order.
    pub(crate) atoms: Vec<CompiledAtom>,
    /// One level per variable, in binding order; empty when the query
    /// cannot hold.
    pub(crate) levels: Vec<Level>,
    /// Whether the query can have answers: it has atoms, every atom keeps a
    /// pattern, and every variable-free atom holds.
    pub(crate) satisfiable: bool,
    /// The number of variable-free atoms, checked once here.
    pub(crate) ground_atoms: usize,
    /// Indices into `variables` of the distinguished variables, in
    /// `distinguished` order.
    pub(crate) projection: Vec<usize>,
    /// The distinguished variables (declaration order; defaults to all
    /// variables when the query declares none).
    pub(crate) distinguished: Vec<String>,
}

impl CompiledQuery {
    /// Compiles `query` against `graph`, ordering its variables with
    /// [`levels`] by the row counts of `stores`.
    ///
    /// Fails if a distinguished variable does not occur in any atom.
    pub(crate) fn compile(
        query: &ConjunctiveQuery,
        graph: &DataGraph,
        stores: &[&TripleStore],
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

        let slot = |term: &QueryTerm| term.as_variable().map(|v| var_index[v]);
        let atoms: Vec<CompiledAtom> = query
            .atoms()
            .iter()
            .map(|atom| {
                let patterns = graph
                    .edge_labels_named(&atom.predicate)
                    .into_iter()
                    .filter_map(|label| {
                        let kind = graph.edge_label(label).kind();
                        let mut pattern = TriplePattern::new(label);
                        if let Some(c) = atom.subject.as_constant() {
                            pattern =
                                pattern.with_subject(resolve_subject_constant(graph, kind, c)?);
                        }
                        if let Some(c) = atom.object.as_constant() {
                            pattern = pattern.with_object(resolve_object_constant(graph, kind, c)?);
                        }
                        Some(pattern)
                    })
                    .collect();
                CompiledAtom {
                    subject: slot(&atom.subject),
                    object: slot(&atom.object),
                    patterns,
                }
            })
            .collect();

        let ground = |atom: &CompiledAtom| atom.subject.is_none() && atom.object.is_none();
        let ground_atoms = atoms.iter().filter(|a| ground(a)).count();
        let satisfiable = !atoms.is_empty()
            && atoms.iter().all(|atom| {
                !atom.patterns.is_empty() && (!ground(atom) || atom.constant_rows(stores) > 0)
            });
        let levels = if satisfiable {
            levels(&atoms, variables.len(), stores)
        } else {
            Vec::new()
        };

        Ok(CompiledQuery {
            variables,
            atoms,
            levels,
            satisfiable,
            ground_atoms,
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

    fn compiled(q: &ConjunctiveQuery) -> CompiledQuery {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        CompiledQuery::compile(q, &g, &[&store]).unwrap()
    }

    /// The binding order, as variable names.
    fn order(q: &ConjunctiveQuery) -> Vec<String> {
        let c = compiled(q);
        c.levels
            .iter()
            .map(|level| c.variables[level.variable].clone())
            .collect()
    }

    #[test]
    fn plan_covers_every_atom_exactly_once() {
        // Every variable is bound once, and every atom with a variable is
        // charged at exactly one level: a full binding costs one unit per
        // atom.
        let q = QueryBuilder::new()
            .class_pattern("x", "Publication")
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .relation_pattern("y", "worksAt", "z")
            .relation_pattern("z", "hasProject", "z")
            .build();
        let c = compiled(&q);
        let mut bound: Vec<usize> = c.levels.iter().map(|l| l.variable).collect();
        bound.sort_unstable();
        assert_eq!(bound, [0, 1, 2]);
        let charged: usize = c.levels.iter().map(|l| l.charge).sum();
        assert_eq!(charged + c.ground_atoms, q.atoms().len());
    }

    #[test]
    fn selective_constant_atoms_come_first() {
        // `name(y, 'P. Cimiano')` has 1 row, `type(x, Publication)` 2.
        let q = QueryBuilder::new()
            .class_pattern("x", "Publication")
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .relation_pattern("y", "worksAt", "z")
            .build();
        assert_eq!(order(&q), ["y", "x", "z"]);
    }

    #[test]
    fn constant_anchored_variables_precede_connected_ones() {
        // After y, z is anchored by a constant and bound before x, which
        // only shares an atom with y.
        let q = QueryBuilder::new()
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .attribute_pattern("z", "name", "AIFB")
            .build();
        assert_eq!(order(&q), ["y", "z", "x"]);
    }

    #[test]
    fn a_subject_with_a_free_object_waits_for_that_object() {
        // Neither variable has a constant: y is an object and is entered
        // through POS (author, *, *); x, only a subject, follows it.
        let q = QueryBuilder::new()
            .relation_pattern("x", "author", "y")
            .build();
        assert_eq!(order(&q), ["y", "x"]);
        let c = compiled(&q);
        assert_eq!(c.levels[0].columns, [(0, Side::Object)]);
        assert_eq!(c.levels[0].charge, 0, "the entry column anchors no atom");
        assert_eq!(c.levels[1].columns, [(0, Side::Subject)]);
        assert_eq!(c.levels[1].charge, 1);
    }

    #[test]
    fn plan_stays_connected_when_possible() {
        // After the anchored y, x shares an atom with it; the object p of a
        // second component is entered last, then its subject q.
        let q = QueryBuilder::new()
            .relation_pattern("q", "worksAt", "p")
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .build();
        assert_eq!(order(&q), ["y", "x", "p", "q"]);
    }

    #[test]
    fn a_level_reads_every_anchored_atom_and_checks_its_self_loops() {
        let q = QueryBuilder::new()
            .attribute_pattern("y", "name", "P. Cimiano")
            .relation_pattern("x", "author", "y")
            .class_pattern("x", "Publication")
            .relation_pattern("x", "hasProject", "x")
            .build();
        let c = compiled(&q);
        assert_eq!(c.variables, ["x", "y"]);
        let x = &c.levels[1];
        assert_eq!(x.variable, 0);
        assert_eq!(x.columns, [(1, Side::Subject), (2, Side::Subject)]);
        assert_eq!(x.self_loops, [3]);
        assert_eq!(x.charge, 3, "author, type and the self-join end at x");
    }

    #[test]
    fn unknown_predicates_estimate_to_zero() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .relation_pattern("x", "nonexistent", "y")
            .build();
        let c = CompiledQuery::compile(&q, &g, &[&store]).unwrap();
        assert_eq!(c.atoms[0].constant_rows(&[&store]), 0);
        assert!(!c.satisfiable && c.levels.is_empty());
    }

    #[test]
    fn compile_resolves_constants_and_variable_slots_once() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .attribute_pattern("x", "name", "AIFB")
            .relation_pattern("x", "worksAt", "y")
            .build();
        let compiled = CompiledQuery::compile(&q, &g, &[&store]).unwrap();
        assert_eq!(compiled.variables, vec!["x".to_string(), "y".to_string()]);
        // No distinguished variables declared -> all variables, projected in
        // table order.
        assert_eq!(compiled.distinguished, compiled.variables);
        assert_eq!(compiled.projection, vec![0, 1]);
        assert_eq!(compiled.atoms.len(), 2);
        assert!(compiled.satisfiable);
        for atom in &compiled.atoms {
            assert!(!atom.patterns.is_empty());
        }
        // The name atom resolves its literal to a concrete value vertex.
        let value = g.value("AIFB").unwrap();
        let name_atom = &compiled.atoms[0];
        assert_eq!((name_atom.subject, name_atom.object), (Some(0), None));
        assert!(name_atom.patterns.iter().all(|p| p.object == Some(value)));
    }

    #[test]
    fn compile_drops_unresolvable_patterns() {
        let q = QueryBuilder::new()
            .attribute_pattern("x", "name", "No Such Name")
            .build();
        let c = compiled(&q);
        assert_eq!(c.atoms.len(), 1);
        assert!(c.atoms[0].patterns.is_empty());
        assert!(!c.satisfiable && c.levels.is_empty());
    }

    #[test]
    fn variable_free_atoms_are_checked_at_compile_time() {
        let holds = QueryBuilder::new().subclass_pattern("Researcher", "Person");
        let c = compiled(&holds.clone().build());
        assert!(c.satisfiable && c.levels.is_empty());
        assert_eq!(c.ground_atoms, 1);
        let fails = holds.subclass_pattern("Person", "Researcher").build();
        assert!(!compiled(&fails).satisfiable);
    }

    #[test]
    fn compile_rejects_unbound_distinguished_variables() {
        let g = figure1_graph();
        let store = TripleStore::build(&g);
        let q = QueryBuilder::new()
            .relation_pattern("x", "author", "y")
            .distinguished(["z"])
            .build();
        match CompiledQuery::compile(&q, &g, &[&store]) {
            Err(EvalError::UnboundDistinguishedVariable(v)) => assert_eq!(v, "z"),
            other => panic!("expected unbound-variable error, got {other:?}"),
        }
    }
}
