//! Evaluation of conjunctive queries against a data graph (Definition 3).
//!
//! The evaluator runs a **streaming, variable-at-a-time join** (Generic
//! Join / Leapfrog Triejoin: Ngo, Ré and Rudra, "Skew Strikes Back", 2013;
//! Veldhuizen, ICDT 2014). The query is compiled once: predicates and
//! constants resolved, and a static variable order fixed — the smallest
//! constant-anchored count first, then variables sharing an atom with a
//! bound one, then variables that are only some predicate's object. A
//! depth-first search then binds one variable per level. The candidate
//! values of a variable come from every atom linking it to a constant or to
//! an earlier variable: each contributes a sorted column borrowed from the
//! triple stores — the subjects of POS `(p, o, *)` or the objects of SPO
//! `(s, p, *)`, over every store's base and delta — and the level leapfrogs
//! them, galloping every column to the largest head until all agree. A Zipf
//! head on one side of a join then costs a few galloping steps against a
//! selective column on the other, not one probe per row.
//!
//! The evaluator reads a slice of stores as one: the stores of a shard set
//! hold disjoint rows over one id space, so a column's runs are taken from
//! each of them, a count is their sum, and a row holds if any store has it.
//! Over edge-disjoint stores whose union is the graph's edges every count
//! equals the one-store count, so the variable order, the answers and their
//! order equal the one-store evaluation's.
//!
//! Answers are projected, deduplicated and yielded one at a time through
//! [`AnswerStream`], so [`Evaluator::evaluate_with_limit`] stops the instant
//! the requested number of **distinct** answers exists — the paper's Fig. 5
//! experiment processes queries "until finding at least 10 answers", and
//! that phase must not pay for answers nobody asked for.

use std::collections::HashSet;
use std::fmt;

use kwsearch_rdf::{DataGraph, SpoRow, TripleStore, VertexId};

use crate::bindings::AnswerSet;
use crate::model::ConjunctiveQuery;
use crate::plan::{CompiledAtom, CompiledQuery, Level, Side};

/// Default visited-bindings budget, in units of one atom satisfied (see
/// [`AnswerStream::visited_bindings`]); prevents accidental cross products
/// from exhausting time and memory.
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

/// A reusable evaluator over one data graph and the triple stores holding
/// its edges.
pub struct Evaluator<'g> {
    graph: &'g DataGraph,
    stores: Vec<&'g TripleStore>,
    max_intermediate_rows: usize,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator over `graph` and `store`, which must have been
    /// built from that graph.
    pub fn new(graph: &'g DataGraph, store: &'g TripleStore) -> Self {
        Self::over_stores(graph, [store])
    }

    /// Creates an evaluator over the union of `stores`: edge-disjoint
    /// stores over `graph`'s id space whose rows together are the edges the
    /// queries are answered over (the shards of one graph). `graph` only
    /// resolves predicate names and constants, so any graph sharing that id
    /// space serves.
    pub fn over_stores(
        graph: &'g DataGraph,
        stores: impl IntoIterator<Item = &'g TripleStore>,
    ) -> Self {
        Self {
            graph,
            stores: stores.into_iter().collect(),
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
    /// The stream binds the query's variables depth-first, one per level,
    /// and yields each projected answer as soon as the first binding
    /// producing it is found — pulling `n` items costs only the work needed
    /// to reach the first `n` distinct answers.
    pub fn answer_stream(&self, query: &ConjunctiveQuery) -> Result<AnswerStream<'_>, EvalError> {
        let compiled = CompiledQuery::compile(query, self.graph, &self.stores)?;
        Ok(AnswerStream {
            stores: &self.stores,
            row: vec![None; compiled.variables.len()],
            frames: compiled.levels.iter().map(|_| Frame::default()).collect(),
            depth: 0,
            seen: HashSet::new(),
            visited: compiled.ground_atoms,
            budget: self.max_intermediate_rows,
            started: false,
            done: false,
            compiled,
        })
    }
}

/// The first index of `rows` whose value at `side` is at least `target`, or
/// `rows.len()`; `rows` is sorted by that value. Steps double from the
/// front until one passes `target`, then a binary search inside the last
/// step: `O(log d)` for an answer `d` rows in, so walking a run by rising
/// targets costs the log of the gaps, not of the run.
fn gallop(rows: &[SpoRow], side: Side, target: VertexId) -> usize {
    let below = |row: &SpoRow| side.of(row) < target;
    // Every row before `lo` is below `target`.
    let (mut lo, mut step) = (0, 1);
    while lo + step <= rows.len() && below(&rows[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(rows.len());
    lo + rows[lo..hi].partition_point(below)
}

/// The rows of one column not yet passed, borrowed from the store and read
/// at `side`.
#[derive(Debug, Clone, Copy)]
struct Run<'s> {
    rows: &'s [SpoRow],
    side: Side,
}

/// The enumeration state of one level: the runs of its columns and the
/// least value still to try.
#[derive(Debug, Default)]
struct Frame<'s> {
    /// The runs of every column, flattened: one per edge label of the
    /// column's atom, per store, per base and delta, empty ones left out.
    runs: Vec<Run<'s>>,
    /// Column `c`'s runs end at `ends[c]` and start at the previous end.
    ends: Vec<usize>,
    /// The least value still to try; `None` once the level is exhausted.
    next: Option<VertexId>,
}

impl<'s> Frame<'s> {
    /// Starts `level` under the bindings in `row`: borrows each column's
    /// runs from every store, and restarts the values at the lowest id.
    fn enter(
        &mut self,
        level: &Level,
        atoms: &[CompiledAtom],
        row: &[Option<VertexId>],
        stores: &[&'s TripleStore],
    ) {
        self.runs.clear();
        self.ends.clear();
        for &(atom, side) in &level.columns {
            let atom = &atoms[atom];
            for &pattern in &atom.patterns {
                let pattern = atom.under(pattern, row);
                for store in stores {
                    self.runs.extend(
                        store
                            .ranges(pattern)
                            .into_iter()
                            .filter(|rows| !rows.is_empty())
                            .map(|rows| Run { rows, side }),
                    );
                }
            }
            self.ends.push(self.runs.len());
        }
        self.next = Some(VertexId::from_index(0));
    }

    /// The next value every column holds, from `next` on (leapfrog): each
    /// column in turn gallops its runs to the target and raises the target
    /// to its smallest head, until as many columns in a row as there are
    /// agree.
    fn seek(&mut self) -> Option<VertexId> {
        let mut target = self.next?;
        let (mut column, mut agreed) = (0usize, 0);
        loop {
            let start = column.checked_sub(1).map_or(0, |c| self.ends[c]);
            let head = self.runs[start..self.ends[column]]
                .iter_mut()
                .filter_map(|run| {
                    run.rows = &run.rows[gallop(run.rows, run.side, target)..];
                    run.rows.first().map(|row| run.side.of(row))
                })
                .min();
            let Some(head) = head else {
                self.next = None;
                return None;
            };
            if head == target {
                agreed += 1;
            } else {
                target = head;
                agreed = 1;
            }
            if agreed == self.ends.len() {
                self.next = u32::try_from(head.index() + 1)
                    .ok()
                    .map(VertexId::from_index);
                return Some(head);
            }
            column = (column + 1) % self.ends.len();
        }
    }
}

/// A lazy, deduplicating stream over the answers of a compiled query.
///
/// Created by [`Evaluator::answer_stream`]. Each item is one projected answer
/// row (positionally matching [`AnswerStream::distinguished`]); duplicates
/// (projections collapsing different bindings onto the same answer) are
/// filtered out before they are yielded. Definition 3 fixes the answers as a
/// set, not their order; the one order contract is that the stream is
/// deterministic (level by level, in ascending vertex id), so a run cut off
/// after `n` answers yields a prefix of the unlimited run. An
/// [`EvalError::TooManyIntermediateRows`] item is produced — and the stream
/// ends — if the visited-bindings budget is exhausted while searching for
/// the next answer.
pub struct AnswerStream<'e> {
    stores: &'e [&'e TripleStore],
    compiled: CompiledQuery,
    row: Vec<Option<VertexId>>,
    /// One frame per level; those below `depth` hold their level's value.
    frames: Vec<Frame<'e>>,
    /// The level being searched.
    depth: usize,
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

    /// Budget units spent so far, the unit the `max_intermediate_rows`
    /// budget is charged in: one per atom satisfied. A binding is charged
    /// once for each atom whose last variable it binds, and a query's
    /// variable-free atoms are charged once, up front.
    pub fn visited_bindings(&self) -> usize {
        self.visited
    }

    /// Starts the level at `depth` under the current bindings.
    fn enter(&mut self, depth: usize) {
        let level = &self.compiled.levels[depth];
        self.frames[depth].enter(level, &self.compiled.atoms, &self.row, self.stores);
    }

    /// Binds the level at `depth` to its next value that passes the level's
    /// self-join checks; `false` (with the variable unbound) once none is
    /// left.
    fn advance(&mut self, depth: usize) -> bool {
        let level = &self.compiled.levels[depth];
        while let Some(value) = self.frames[depth].seek() {
            self.row[level.variable] = Some(value);
            let holds = |&atom: &usize| {
                let atom: &CompiledAtom = &self.compiled.atoms[atom];
                atom.patterns.iter().any(|&p| {
                    let p = atom.under(p, &self.row);
                    self.stores.iter().any(|store| store.count(p) > 0)
                })
            };
            if level.self_loops.iter().all(holds) {
                return true;
            }
        }
        self.row[level.variable] = None;
        false
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
            if !self.compiled.satisfiable {
                self.done = true;
                return None;
            }
            if self.compiled.levels.is_empty() {
                // Every atom is variable-free and holds: one empty binding.
                self.done = true;
                return Some(Ok(Vec::new()));
            }
            self.enter(0);
        }
        loop {
            if self.visited > self.budget {
                self.done = true;
                return Some(Err(EvalError::TooManyIntermediateRows {
                    limit: self.budget,
                }));
            }
            let depth = self.depth;
            if !self.advance(depth) {
                let Some(up) = depth.checked_sub(1) else {
                    self.done = true;
                    return None;
                };
                self.depth = up;
                continue;
            }
            self.visited += self.compiled.levels[depth].charge;
            if depth + 1 < self.compiled.levels.len() {
                self.depth += 1;
                self.enter(depth + 1);
                continue;
            }
            // Full binding: project, dedup, yield.
            #[expect(
                clippy::expect_used,
                reason = "this branch runs only once every level is bound, which binds every variable in the row"
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
            // Duplicate projection: keep searching from this level.
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

    /// A long POS `(p, *, *)` run — 1 200 rows over 37 repeated objects, so
    /// the doubling phase runs many steps — gallops to the same index as
    /// `partition_point` for every target, from several starting points.
    #[test]
    fn gallop_agrees_with_partition_point_on_long_runs() {
        let mut g = DataGraph::new();
        for i in 0..1_200 {
            g.insert_triple(&Triple::relation(
                format!("s{i}"),
                "linksTo",
                format!("t{}", i * 7 % 37),
            ))
            .expect("well-formed triple");
        }
        let store = TripleStore::build(&g);
        let label = g.edge_labels_named("linksTo")[0];
        let [run, delta] = store.ranges(kwsearch_rdf::TriplePattern::new(label));
        assert_eq!((run.len(), delta.len()), (1_200, 0));
        let vertices = u32::try_from(g.vertex_count()).unwrap();
        for from in [0, 1, 31, 600, 1_199, 1_200] {
            let rows = &run[from..];
            for target in (0..=vertices).map(VertexId::from_index) {
                assert_eq!(
                    gallop(rows, Side::Object, target),
                    rows.partition_point(|r| r.object < target),
                    "from {from}, target {target:?}"
                );
            }
        }
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
