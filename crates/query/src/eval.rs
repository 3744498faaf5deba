//! Evaluation of conjunctive queries against a data graph (Definition 3).
//!
//! The evaluator runs a **streaming, pipelined index-nested-loop join**: the
//! query is compiled once (atoms in a greedy, selectivity-driven join order,
//! with predicates, constants and variable slots resolved up front), and a
//! depth-first binding search over the compiled atoms yields projected,
//! deduplicated answers one at a time through [`AnswerStream`]. Because
//! answers are produced incrementally, [`Evaluator::evaluate_with_limit`]
//! stops the instant the requested number of **distinct** answers exists —
//! the paper's Fig. 5 experiment processes queries "until finding at least 10
//! answers", and that phase must not pay for answers nobody asked for.

use std::collections::HashSet;
use std::fmt;

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

/// A reusable evaluator over one data graph and the triple store built from
/// it.
pub struct Evaluator<'g> {
    graph: &'g DataGraph,
    store: &'g TripleStore,
    max_intermediate_rows: usize,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator over `graph` and `store`, which must have been
    /// built from that graph.
    pub fn new(graph: &'g DataGraph, store: &'g TripleStore) -> Self {
        Self {
            graph,
            store,
            max_intermediate_rows: DEFAULT_MAX_INTERMEDIATE_ROWS,
        }
    }

    /// Overrides the visited-bindings budget.
    pub fn with_max_intermediate_rows(mut self, limit: usize) -> Self {
        self.max_intermediate_rows = limit;
        self
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
        let compiled = CompiledQuery::compile(query, self.graph, self.store)?;
        let variable_count = compiled.variables.len();
        Ok(AnswerStream {
            store: self.store,
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

/// Scans the triple pattern for `pattern` under the current bindings: a
/// compiled constant or an already-bound variable pins the position, an
/// unbound variable leaves it as a wildcard.
fn scan_pattern(
    store: &TripleStore,
    row: &[Option<VertexId>],
    pattern: &CompiledPattern,
) -> Vec<SpoRow> {
    let bound = |slot| match slot {
        Slot::Const(v) => Some(v),
        Slot::Var(i) => row[i],
    };
    store.scan(TriplePattern {
        subject: bound(pattern.subject),
        predicate: pattern.label,
        object: bound(pattern.object),
    })
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
/// row (positionally matching [`AnswerStream::distinguished`]); duplicates
/// (projections collapsing different bindings onto the same answer) are
/// filtered out before they are yielded. Definition 3 fixes the answers as a
/// set, not their order; the one order contract is that the stream is
/// deterministic, so a run cut off after `n` answers yields a prefix of the
/// unlimited run. An [`EvalError::TooManyIntermediateRows`] item is produced
/// — and the stream ends — if the visited-bindings budget is exhausted while
/// searching for the next answer.
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
                #[expect(
                    clippy::expect_used,
                    reason = "the branch above fills frame.matches when it is None, so it is Some here"
                )]
                let match_count = frame.matches.as_ref().expect("just populated").len();
                while frame.match_idx < match_count {
                    #[expect(
                        clippy::expect_used,
                        reason = "frame.matches was populated before entering this loop and is not cleared inside it"
                    )]
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
                #[expect(
                    clippy::expect_used,
                    reason = "this branch runs only once every atom is matched, which binds every variable in the row"
                )]
                let projected: Vec<VertexId> = self
                    .compiled
                    .projection
                    .iter()
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

/// One-shot convenience wrapper around [`Evaluator`]: builds the triple
/// store for `graph` and evaluates `query` against it.
pub fn evaluate(graph: &DataGraph, query: &ConjunctiveQuery) -> Result<AnswerSet, EvalError> {
    let store = TripleStore::build(graph);
    Evaluator::new(graph, &store).evaluate(query)
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
        let store = TripleStore::build(&g);
        let evaluator = Evaluator::new(&g, &store);
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
        let store = TripleStore::build(&g);
        let evaluator = Evaluator::new(&g, &store).with_max_intermediate_rows(3);
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
        // A limit counts distinct answers, not bindings: the first 8 of the
        // 16 bindings all project onto hubA, so a cut after `4 * limit`
        // bindings would return one answer although two exist.
        let g = collapsing_graph();
        let q = QueryBuilder::new()
            .relation_pattern("x", "linksTo", "y")
            .distinguished(["x"])
            .build();
        let store = TripleStore::build(&g);
        let evaluator = Evaluator::new(&g, &store);

        let full = evaluator.evaluate(&q).unwrap();
        assert_eq!(full.len(), 2, "two distinct hubs");

        let limited = evaluator.evaluate_with_limit(&q, Some(2)).unwrap();
        assert_eq!(limited.len(), 2, "limit 2 must return both hubs");
        assert_eq!(limited.rows(), full.rows());
    }

    #[test]
    fn limit_succeeds_below_the_visited_bindings_budget() {
        // The budget is charged per visited binding, so a limited run whose
        // answers lie below it succeeds where the full run exceeds it.
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("a", "author", "b")
            .relation_pattern("c", "worksAt", "d")
            .relation_pattern("e", "hasProject", "f")
            .build();
        let store = TripleStore::build(&g);
        let evaluator = Evaluator::new(&g, &store).with_max_intermediate_rows(3);

        // Unrestricted evaluation exceeds the budget...
        assert!(matches!(
            evaluator.evaluate(&q),
            Err(EvalError::TooManyIntermediateRows { limit: 3 })
        ));
        // ...but the first answer needs exactly one accepted binding per
        // atom, well within it.
        let answers = evaluator.evaluate_with_limit(&q, Some(1)).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn limit_zero_returns_no_answers() {
        let g = figure1_graph();
        let q = QueryBuilder::new()
            .relation_pattern("p", "author", "a")
            .build();
        let store = TripleStore::build(&g);
        let answers = Evaluator::new(&g, &store)
            .evaluate_with_limit(&q, Some(0))
            .unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn answer_stream_visits_only_what_the_limit_needs() {
        let g = collapsing_graph();
        let q = QueryBuilder::new()
            .relation_pattern("x", "linksTo", "y")
            .build();
        let store = TripleStore::build(&g);
        let evaluator = Evaluator::new(&g, &store);
        let mut stream = evaluator.answer_stream(&q).unwrap();
        let first = stream.next().expect("an answer exists").unwrap();
        assert_eq!(first.len(), 2, "two distinguished variables by default");
        assert_eq!(
            stream.visited_bindings(),
            1,
            "the first answer of a single-atom query costs one binding"
        );
    }
}
