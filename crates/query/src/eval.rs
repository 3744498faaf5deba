//! Evaluation of conjunctive queries against a data graph (Definition 3).
//!
//! The evaluator runs a **streaming, pipelined index-nested-loop join**: the
//! query is compiled once into a [`CompiledQuery`] (atoms in the order chosen
//! by [`crate::plan`], with predicates, constants and variable slots
//! resolved up front), and a depth-first binding search over the compiled
//! atoms yields projected, deduplicated answers one at a time through
//! [`AnswerStream`]. Because answers are produced incrementally,
//! [`Evaluator::evaluate_with_limit`] stops the instant the requested number
//! of **distinct** answers exists — the paper's Fig. 5 experiment processes
//! queries "until finding at least 10 answers", and that phase must not pay
//! for answers nobody asked for.
//!
//! The previous breadth-first evaluator materialized every intermediate join
//! result before applying the limit; it is kept verbatim in [`reference`](mod@reference) as
//! the executable specification that the streaming evaluator is tested (and
//! benchmarked) against.

use std::collections::HashSet;
use std::fmt;

use kwsearch_rdf::triple::EdgeKind;
use kwsearch_rdf::{DataGraph, SpoRow, TriplePattern, TripleStore, VertexId};

use crate::bindings::AnswerSet;
use crate::model::ConjunctiveQuery;
use crate::plan::{CompiledPattern, CompiledQuery, Slot};

/// Default budget on visited (accepted) bindings; prevents accidental cross
/// products from exhausting time and memory.
pub const DEFAULT_MAX_INTERMEDIATE_ROWS: usize = 5_000_000;

/// Errors raised during query evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A distinguished variable does not occur in any atom and can therefore
    /// never be bound.
    UnboundDistinguishedVariable(String),
    /// The evaluation exhausted its visited-bindings budget before producing
    /// all requested answers.
    TooManyIntermediateRows {
        /// The configured budget.
        limit: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundDistinguishedVariable(v) => {
                write!(
                    f,
                    "distinguished variable ?{v} does not occur in the query body"
                )
            }
            EvalError::TooManyIntermediateRows { limit } => {
                write!(
                    f,
                    "evaluation exceeded the intermediate result limit of {limit} rows"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Resolves a constant appearing in subject position to a vertex, respecting
/// the vertex kind implied by the edge kind.
pub(crate) fn resolve_subject_constant(
    graph: &DataGraph,
    kind: EdgeKind,
    constant: &str,
) -> Option<VertexId> {
    match kind {
        EdgeKind::SubClass => graph.class(constant),
        _ => graph.entity(constant),
    }
}

/// Resolves a constant appearing in object position to a vertex, respecting
/// the vertex kind implied by the edge kind.
pub(crate) fn resolve_object_constant(
    graph: &DataGraph,
    kind: EdgeKind,
    constant: &str,
) -> Option<VertexId> {
    match kind {
        EdgeKind::Relation => graph.entity(constant),
        EdgeKind::Attribute => graph.value(constant),
        EdgeKind::Type | EdgeKind::SubClass => graph.class(constant),
    }
}

/// Owned or borrowed triple store backing an [`Evaluator`].
enum StoreHolder<'g> {
    Owned(TripleStore),
    Borrowed(&'g TripleStore),
}

impl StoreHolder<'_> {
    fn get(&self) -> &TripleStore {
        match self {
            StoreHolder::Owned(s) => s,
            StoreHolder::Borrowed(s) => s,
        }
    }
}

/// A reusable evaluator bound to one data graph.
pub struct Evaluator<'g> {
    graph: &'g DataGraph,
    store: StoreHolder<'g>,
    max_intermediate_rows: usize,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator, building the triple-store index for `graph`.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self::with_store(graph, TripleStore::build(graph))
    }

    /// Creates an evaluator reusing an existing store (the store must have
    /// been built from the same graph).
    pub fn with_store(graph: &'g DataGraph, store: TripleStore) -> Self {
        Self {
            graph,
            store: StoreHolder::Owned(store),
            max_intermediate_rows: DEFAULT_MAX_INTERMEDIATE_ROWS,
        }
    }

    /// Creates an evaluator borrowing an existing store (the store must have
    /// been built from the same graph). Useful when many queries are
    /// evaluated against the same data, e.g. by the keyword-search engine.
    pub fn with_borrowed_store(graph: &'g DataGraph, store: &'g TripleStore) -> Self {
        Self {
            graph,
            store: StoreHolder::Borrowed(store),
            max_intermediate_rows: DEFAULT_MAX_INTERMEDIATE_ROWS,
        }
    }

    /// Overrides the visited-bindings budget.
    pub fn with_max_intermediate_rows(mut self, limit: usize) -> Self {
        self.max_intermediate_rows = limit;
        self
    }

    /// The underlying triple store (exposed for benchmarks).
    pub fn store(&self) -> &TripleStore {
        self.store.get()
    }

    /// Evaluates `query`, returning all answers.
    pub fn evaluate(&self, query: &ConjunctiveQuery) -> Result<AnswerSet, EvalError> {
        self.evaluate_with_limit(query, None)
    }

    /// Evaluates `query`, stopping the instant `limit` **distinct** answers
    /// have been found (the paper's Fig. 5 experiment processes queries
    /// "until finding at least 10 answers").
    ///
    /// Returns exactly `min(limit, total_distinct_answers)` rows: duplicates
    /// produced by the projection onto the distinguished variables never
    /// count towards the limit, and the visited-bindings budget only trips
    /// when it is exhausted *before* the requested answers were found.
    pub fn evaluate_with_limit(
        &self,
        query: &ConjunctiveQuery,
        limit: Option<usize>,
    ) -> Result<AnswerSet, EvalError> {
        let mut stream = self.answer_stream(query)?;
        let cap = limit.unwrap_or(usize::MAX);
        let mut rows = Vec::new();
        while rows.len() < cap {
            match stream.next() {
                Some(Ok(row)) => rows.push(row),
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(AnswerSet::from_distinct(stream.into_distinguished(), rows))
    }

    /// Compiles `query` and returns a lazy stream over its distinct answers.
    ///
    /// The stream performs a depth-first search over the compiled atoms and
    /// yields each projected answer as soon as the first binding producing it
    /// is found — pulling `n` items costs only the work needed to reach the
    /// first `n` distinct answers.
    pub fn answer_stream(&self, query: &ConjunctiveQuery) -> Result<AnswerStream<'_>, EvalError> {
        let compiled = CompiledQuery::compile(query, self.graph, self.store.get())?;
        let variable_count = compiled.variables.len();
        Ok(AnswerStream {
            store: self.store.get(),
            row: vec![None; variable_count],
            stack: Vec::with_capacity(compiled.atoms.len()),
            seen: HashSet::new(),
            visited: 0,
            budget: self.max_intermediate_rows,
            started: false,
            done: false,
            compiled,
        })
    }
}

/// One level of the depth-first binding search: the enumeration state of one
/// compiled atom, plus the variable slots this level bound (to undo on
/// backtracking).
#[derive(Debug, Default)]
struct Frame {
    pattern_idx: usize,
    matches: Option<Vec<SpoRow>>,
    match_idx: usize,
    bound_subject: Option<usize>,
    bound_object: Option<usize>,
}

/// Builds the triple pattern for `pattern` under the current bindings: a
/// compiled constant or an already-bound variable pins the position, an
/// unbound variable leaves it as a wildcard.
fn scan_pattern(
    store: &TripleStore,
    row: &[Option<VertexId>],
    pattern: &CompiledPattern,
) -> Vec<SpoRow> {
    let mut tp = TriplePattern::any().with_predicate(pattern.label);
    match pattern.subject {
        Slot::Const(v) => tp = tp.with_subject(v),
        Slot::Var(s) => {
            if let Some(v) = row[s] {
                tp = tp.with_subject(v);
            }
        }
    }
    match pattern.object {
        Slot::Const(v) => tp = tp.with_object(v),
        Slot::Var(o) => {
            if let Some(v) = row[o] {
                tp = tp.with_object(v);
            }
        }
    }
    store.scan(tp)
}

/// Extends the current bindings with one matched triple, recording the newly
/// bound slots in `frame`. Returns `false` (with `row` unchanged) when the
/// match is inconsistent with existing bindings, e.g. a self-join
/// `knows(x, x)` on a non-loop edge.
fn bind(
    row: &mut [Option<VertexId>],
    frame: &mut Frame,
    pattern: &CompiledPattern,
    m: SpoRow,
) -> bool {
    debug_assert!(frame.bound_subject.is_none() && frame.bound_object.is_none());
    if let Slot::Var(s) = pattern.subject {
        match row[s] {
            None => {
                row[s] = Some(m.subject);
                frame.bound_subject = Some(s);
            }
            Some(v) if v != m.subject => return false,
            Some(_) => {}
        }
    }
    if let Slot::Var(o) = pattern.object {
        match row[o] {
            None => {
                row[o] = Some(m.object);
                frame.bound_object = Some(o);
            }
            Some(v) if v != m.object => {
                if let Some(s) = frame.bound_subject.take() {
                    row[s] = None;
                }
                return false;
            }
            Some(_) => {}
        }
    }
    true
}

/// A lazy, deduplicating stream over the answers of a compiled query.
///
/// Created by [`Evaluator::answer_stream`]. Each item is one projected answer
/// row (positionally matching [`AnswerStream::distinguished`]); rows are
/// yielded in the same order the materializing evaluator would produce them,
/// with duplicates (projections collapsing different bindings onto the same
/// answer) filtered out before they are yielded. An
/// [`EvalError::TooManyIntermediateRows`] item is produced — and the stream
/// ends — if the visited-bindings budget is exhausted while searching for the
/// next answer.
pub struct AnswerStream<'e> {
    store: &'e TripleStore,
    compiled: CompiledQuery,
    row: Vec<Option<VertexId>>,
    stack: Vec<Frame>,
    seen: HashSet<Vec<VertexId>>,
    visited: usize,
    budget: usize,
    started: bool,
    done: bool,
}

impl AnswerStream<'_> {
    /// The variables answers are projected onto.
    pub fn distinguished(&self) -> &[String] {
        &self.compiled.distinguished
    }

    /// Consumes the stream, returning the projected variables.
    pub fn into_distinguished(self) -> Vec<String> {
        self.compiled.distinguished
    }

    /// Number of bindings accepted so far (the unit the
    /// `max_intermediate_rows` budget is charged in).
    pub fn visited_bindings(&self) -> usize {
        self.visited
    }
}

impl Iterator for AnswerStream<'_> {
    type Item = Result<Vec<VertexId>, EvalError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            if self.compiled.atoms.is_empty() {
                self.done = true;
                return None;
            }
            self.stack.push(Frame::default());
        }
        loop {
            if self.visited > self.budget {
                self.done = true;
                return Some(Err(EvalError::TooManyIntermediateRows {
                    limit: self.budget,
                }));
            }
            let Some(depth) = self.stack.len().checked_sub(1) else {
                self.done = true;
                return None;
            };
            let atom = &self.compiled.atoms[depth];
            let frame = &mut self.stack[depth];
            // Undo what this level bound for its previous match before
            // advancing to the next one.
            if let Some(s) = frame.bound_subject.take() {
                self.row[s] = None;
            }
            if let Some(o) = frame.bound_object.take() {
                self.row[o] = None;
            }
            let mut advanced = false;
            'patterns: while frame.pattern_idx < atom.patterns.len() {
                let pattern = &atom.patterns[frame.pattern_idx];
                if frame.matches.is_none() {
                    frame.matches = Some(scan_pattern(self.store, &self.row, pattern));
                }
                // lint: allow(no-unwrap, reason = "the branch above fills frame.matches when it is None, so it is Some here")
                let match_count = frame.matches.as_ref().expect("just populated").len();
                while frame.match_idx < match_count {
                    // lint: allow(no-unwrap, reason = "frame.matches was populated before entering this loop and is not cleared inside it")
                    let m = frame.matches.as_ref().expect("just populated")[frame.match_idx];
                    frame.match_idx += 1;
                    if bind(&mut self.row, frame, pattern, m) {
                        advanced = true;
                        break 'patterns;
                    }
                }
                frame.pattern_idx += 1;
                frame.matches = None;
                frame.match_idx = 0;
            }
            if !advanced {
                self.stack.pop();
                continue;
            }
            self.visited += 1;
            if depth + 1 == self.compiled.atoms.len() {
                // Full binding: project, dedup, yield.
                let projected: Vec<VertexId> = self
                    .compiled
                    .projection
                    .iter()
                    // lint: allow(no-unwrap, reason = "this branch runs only once every atom is matched, which binds every variable in the row")
                    .map(|&i| self.row[i].expect("all query variables are bound at full depth"))
                    .collect();
                if self.seen.insert(projected.clone()) {
                    return Some(Ok(projected));
                }
                // Duplicate projection: keep searching from this frame.
            } else {
                self.stack.push(Frame::default());
            }
        }
    }
}

/// One-shot convenience wrapper around [`Evaluator`].
pub fn evaluate(graph: &DataGraph, query: &ConjunctiveQuery) -> Result<AnswerSet, EvalError> {
    Evaluator::new(graph).evaluate(query)
}

#[doc(hidden)]
pub mod reference {
    //! The pre-streaming, breadth-first evaluator, kept verbatim as the
    //! executable specification of Definition 3.
    //!
    //! It materializes every intermediate join result before the limit is
    //! applied, so it cannot terminate early — tests use it to check that the
    //! streaming evaluator returns identical answer sets. Not part of the
    //! supported API.

    use std::collections::HashMap;

    use kwsearch_rdf::{DataGraph, TriplePattern, TripleStore, VertexId};

    use super::{resolve_object_constant, resolve_subject_constant, EvalError};
    use crate::bindings::AnswerSet;
    use crate::model::{Atom, ConjunctiveQuery, QueryTerm};
    use crate::plan::plan_atoms;

    type Row = Vec<Option<VertexId>>;

    /// Evaluates `query` by materializing one full intermediate result per
    /// atom, then projecting, deduplicating and truncating to `limit` — the
    /// exact behaviour (including the `limit * 4` over-collect heuristic and
    /// its shortfall bug) of the evaluator this crate shipped before the
    /// streaming rewrite.
    pub fn evaluate_with_limit(
        graph: &DataGraph,
        store: &TripleStore,
        query: &ConjunctiveQuery,
        limit: Option<usize>,
        max_intermediate_rows: usize,
    ) -> Result<AnswerSet, EvalError> {
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

        if query.is_empty() {
            return Ok(AnswerSet::empty(distinguished));
        }

        let plan = plan_atoms(query, graph, store);
        let mut rows: Vec<Row> = vec![vec![None; variables.len()]];
        for &atom_idx in &plan.order {
            let atom = &query.atoms()[atom_idx];
            rows = join_atom(graph, store, atom, &var_index, rows, max_intermediate_rows)?;
            if rows.is_empty() {
                return Ok(AnswerSet::empty(distinguished));
            }
        }

        let proj_indices: Vec<usize> = distinguished
            .iter()
            .map(|d| var_index[d.as_str()])
            .collect();
        let mut projected = Vec::with_capacity(rows.len());
        for row in rows {
            let out: Option<Vec<VertexId>> = proj_indices.iter().map(|&i| row[i]).collect();
            // lint: allow(no-unwrap, reason = "rows surviving every join bind all variables; an unbound slot here is an evaluator bug")
            let out = out.expect("all query variables are bound after the final join");
            projected.push(out);
            if let Some(limit) = limit {
                if projected.len() >= limit.saturating_mul(4).max(limit) {
                    break;
                }
            }
        }
        let mut answers = AnswerSet::new(distinguished.clone(), projected);
        if let Some(limit) = limit {
            if answers.len() > limit {
                let rows = answers.rows()[..limit].to_vec();
                answers = AnswerSet::new(distinguished, rows);
            }
        }
        Ok(answers)
    }

    fn join_atom(
        graph: &DataGraph,
        store: &TripleStore,
        atom: &Atom,
        var_index: &HashMap<&str, usize>,
        rows: Vec<Row>,
        max_intermediate_rows: usize,
    ) -> Result<Vec<Row>, EvalError> {
        let labels = graph.edge_labels_named(&atom.predicate);
        if labels.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for row in &rows {
            for &label in &labels {
                let kind = graph.edge_label(label).kind();
                let subject_bound = match &atom.subject {
                    QueryTerm::Variable(v) => row[var_index[v.as_str()]],
                    other => {
                        let c = other
                            .as_constant()
                            // lint: allow(no-unwrap, reason = "the match arm above handles Variable, so this term can only be a constant")
                            .expect("non-variable term is a constant");
                        match resolve_subject_constant(graph, kind, c) {
                            Some(v) => Some(v),
                            None => continue,
                        }
                    }
                };
                let object_bound = match &atom.object {
                    QueryTerm::Variable(v) => row[var_index[v.as_str()]],
                    other => {
                        let c = other
                            .as_constant()
                            // lint: allow(no-unwrap, reason = "the match arm above handles Variable, so this term can only be a constant")
                            .expect("non-variable term is a constant");
                        match resolve_object_constant(graph, kind, c) {
                            Some(v) => Some(v),
                            None => continue,
                        }
                    }
                };
                let mut pattern = TriplePattern::any().with_predicate(label);
                if let Some(s) = subject_bound {
                    pattern = pattern.with_subject(s);
                }
                if let Some(o) = object_bound {
                    pattern = pattern.with_object(o);
                }
                for matched in store.scan(pattern) {
                    let mut new_row = row.clone();
                    if let QueryTerm::Variable(v) = &atom.subject {
                        new_row[var_index[v.as_str()]] = Some(matched.subject);
                    }
                    if let QueryTerm::Variable(v) = &atom.object {
                        let idx = var_index[v.as_str()];
                        if let Some(existing) = new_row[idx] {
                            if existing != matched.object {
                                continue;
                            }
                        }
                        new_row[idx] = Some(matched.object);
                    }
                    out.push(new_row);
                    if out.len() > max_intermediate_rows {
                        return Err(EvalError::TooManyIntermediateRows {
                            limit: max_intermediate_rows,
                        });
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::model::QueryTerm;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::Triple;
    use std::collections::HashMap;

    #[test]
    fn the_papers_example_query_returns_the_expected_answer() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .class_pattern("x", "Publication")
            .attribute_pattern("x", "year", "2006")
            .relation_pattern("x", "author", "y")
            .attribute_pattern("y", "name", "P. Cimiano")
            .relation_pattern("y", "worksAt", "z")
            .attribute_pattern("z", "name", "AIFB")
            .distinguished(["x", "y", "z"])
            .build();
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(answers.len(), 1);
        let labelled = answers.labelled_rows(&g);
        let row: HashMap<_, _> = labelled[0].iter().cloned().collect();
        assert_eq!(row["x"], "pub1URI");
        assert_eq!(row["y"], "re2URI");
        assert_eq!(row["z"], "inst1URI");
    }

    #[test]
    fn joins_over_shared_variables() {
        let g = figure1_graph();
        // All researchers that authored a publication.
        let q = QueryBuilder::new()
            .class_pattern("p", "Publication")
            .relation_pattern("p", "author", "a")
            .class_pattern("a", "Researcher")
            .distinguished(["a"])
            .build();
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(answers.len(), 2, "re1 and re2 both authored publications");
    }

    #[test]
    fn default_distinguished_variables_are_all_variables() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("p", "author", "a")
            .build();
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(answers.variables().len(), 2);
        assert_eq!(answers.len(), 3, "three author edges in the fixture");
    }

    #[test]
    fn constant_subject_atoms_work() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .atom("author", QueryTerm::iri("pub1URI"), QueryTerm::var("a"))
            .distinguished(["a"])
            .build();
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn subclass_atoms_with_constants() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .atom("subclass", QueryTerm::var("c"), QueryTerm::iri("Agent"))
            .distinguished(["c"])
            .build();
        let answers = evaluate(&g, &q).unwrap();
        assert_eq!(
            answers.len(),
            2,
            "Institute and Person are subclasses of Agent"
        );
    }

    #[test]
    fn unknown_predicate_or_constant_yields_empty_answers() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("x", "missingPredicate", "y")
            .build();
        assert!(evaluate(&g, &q).unwrap().is_empty());

        let q = QueryBuilder::new()
            .attribute_pattern("x", "name", "No Such Name")
            .build();
        assert!(evaluate(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn unbound_distinguished_variable_is_an_error() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("x", "author", "y")
            .distinguished(["z"])
            .build();
        match evaluate(&g, &q) {
            Err(EvalError::UnboundDistinguishedVariable(v)) => assert_eq!(v, "z"),
            other => panic!("expected unbound-variable error, got {other:?}"),
        }
    }

    #[test]
    fn empty_query_has_no_answers() {
        let g = figure1_graph();
        let q = ConjunctiveQuery::new();
        let answers = evaluate(&g, &q).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn cyclic_queries_are_supported() {
        // Two researchers authoring the same publication and working at the
        // same institute form a cycle in the query graph.
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("p", "author", "a1")
            .relation_pattern("p", "author", "a2")
            .relation_pattern("a1", "worksAt", "i")
            .relation_pattern("a2", "worksAt", "i")
            .distinguished(["a1", "a2"])
            .build();
        let answers = evaluate(&g, &q).unwrap();
        // (re1, re1), (re1, re2), (re2, re1), (re2, re2) — all pairs of pub1's
        // authors working at inst1.
        assert_eq!(answers.len(), 4);
    }

    #[test]
    fn answer_limit_is_respected() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("p", "author", "a")
            .build();
        let evaluator = Evaluator::new(&g);
        let answers = evaluator.evaluate_with_limit(&q, Some(1)).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn intermediate_row_cap_triggers() {
        let g = figure1_graph();
        // A deliberately unconstrained cross product.
        let q = QueryBuilder::new()
            .relation_pattern("a", "author", "b")
            .relation_pattern("c", "worksAt", "d")
            .relation_pattern("e", "hasProject", "f")
            .build();
        let evaluator = Evaluator::new(&g).with_max_intermediate_rows(3);
        match evaluator.evaluate(&q) {
            Err(EvalError::TooManyIntermediateRows { limit }) => assert_eq!(limit, 3),
            other => panic!("expected row-cap error, got {other:?}"),
        }
    }

    #[test]
    fn self_join_variables_must_agree() {
        let g = figure1_graph();
        // worksAt(x, x) can never hold.
        let q = QueryBuilder::new()
            .relation_pattern("x", "worksAt", "x")
            .build();
        assert!(evaluate(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn evaluation_matches_definition_3_on_type_atoms() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .class_pattern("x", "Researcher")
            .distinguished(["x"])
            .build();
        let answers = evaluate(&g, &q).unwrap();
        let labels: Vec<&str> = answers
            .labelled_rows(&g)
            .into_iter()
            .map(|row| row[0].1)
            .collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"re1URI"));
        assert!(labels.contains(&"re2URI"));
    }

    /// Two hub entities each linking to 8 targets: projecting onto the hub
    /// collapses 16 bindings to 2 distinct answers (> ¾ collapse).
    fn collapsing_graph() -> DataGraph {
        let mut g = DataGraph::new();
        for hub in ["hubA", "hubB"] {
            for t in 0..8 {
                g.insert_triple(&Triple::relation(hub, "linksTo", format!("{hub}-t{t}")))
                    .expect("well-formed triple");
            }
        }
        g
    }

    #[test]
    fn limit_returns_min_of_limit_and_total_distinct_answers() {
        // Regression: the materializing evaluator's `limit * 4` over-collect
        // heuristic truncated *bindings*, not answers; a projection that
        // collapses more than ¾ of the bindings returned fewer than `limit`
        // distinct answers even though more exist.
        let g = collapsing_graph();
        let q = QueryBuilder::new()
            .relation_pattern("x", "linksTo", "y")
            .distinguished(["x"])
            .build();
        let evaluator = Evaluator::new(&g);

        let full = evaluator.evaluate(&q).unwrap();
        assert_eq!(full.len(), 2, "two distinct hubs");

        let limited = evaluator.evaluate_with_limit(&q, Some(2)).unwrap();
        assert_eq!(limited.len(), 2, "limit 2 must return both hubs");
        assert_eq!(limited.rows(), full.rows());

        // The reference evaluator exhibits the shortfall this test pins down.
        let short = reference::evaluate_with_limit(
            &g,
            evaluator.store(),
            &q,
            Some(2),
            DEFAULT_MAX_INTERMEDIATE_ROWS,
        )
        .unwrap();
        assert!(
            short.len() < 2,
            "the materializing evaluator over-collects 8 bindings that all \
             project onto hubA; if this starts passing the reference changed"
        );
    }

    #[test]
    fn limit_succeeds_below_the_visited_bindings_budget() {
        // Regression: the row cap used to fire even when the first `limit`
        // answers were reachable far below the cap, because every
        // intermediate row was materialized first. The streaming evaluator
        // only charges the budget for bindings it actually visits.
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("a", "author", "b")
            .relation_pattern("c", "worksAt", "d")
            .relation_pattern("e", "hasProject", "f")
            .build();
        let evaluator = Evaluator::new(&g).with_max_intermediate_rows(3);

        // Unrestricted evaluation exceeds the budget...
        assert!(matches!(
            evaluator.evaluate(&q),
            Err(EvalError::TooManyIntermediateRows { limit: 3 })
        ));
        // ...but the first answer needs exactly one accepted binding per
        // atom, well within it.
        let answers = evaluator.evaluate_with_limit(&q, Some(1)).unwrap();
        assert_eq!(answers.len(), 1);

        // The reference evaluator cannot do this: it trips the cap first.
        let reference = reference::evaluate_with_limit(&g, evaluator.store(), &q, Some(1), 3);
        assert!(matches!(
            reference,
            Err(EvalError::TooManyIntermediateRows { limit: 3 })
        ));
    }

    #[test]
    fn limit_zero_returns_no_answers() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("p", "author", "a")
            .build();
        let answers = Evaluator::new(&g).evaluate_with_limit(&q, Some(0)).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn answer_stream_visits_only_what_the_limit_needs() {
        let g = collapsing_graph();
        let q = QueryBuilder::new()
            .relation_pattern("x", "linksTo", "y")
            .build();
        let evaluator = Evaluator::new(&g);
        let mut stream = evaluator.answer_stream(&q).unwrap();
        let first = stream.next().expect("an answer exists").unwrap();
        assert_eq!(first.len(), 2, "two distinguished variables by default");
        assert_eq!(
            stream.visited_bindings(),
            1,
            "the first answer of a single-atom query costs one binding"
        );
    }

    #[test]
    fn streaming_matches_the_reference_evaluator_on_the_fixture() {
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
        let evaluator = Evaluator::new(&g);
        for q in &queries {
            let streaming = evaluator.evaluate(q).unwrap();
            let materializing = reference::evaluate_with_limit(
                &g,
                evaluator.store(),
                q,
                None,
                DEFAULT_MAX_INTERMEDIATE_ROWS,
            )
            .unwrap();
            assert_eq!(streaming, materializing, "query {q}");
        }
    }
}
