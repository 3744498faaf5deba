//! Conjunctive queries over RDF data graphs.
//!
//! The paper's keyword-search pipeline does not compute answers directly:
//! it computes **conjunctive queries** (Definition 2) from the keywords and
//! hands the query the user selects to "the underlying database engine".
//! This crate is that engine:
//!
//! * [`model`] — the query language: variables, constants, atoms
//!   `P(v1, v2)` and [`ConjunctiveQuery`] with
//!   distinguished / undistinguished variables,
//! * [`sparql`] — rendering of a conjunctive query into the SPARQL form
//!   shown in Fig. 1c of the paper,
//! * [`eval`] — the streaming evaluator implementing the answer semantics of
//!   Definition 3 against a [`DataGraph`](kwsearch_rdf::DataGraph) via the
//!   indexed [`TripleStore`](kwsearch_rdf::TripleStore); each query is
//!   compiled once (predicates and constants resolved, a static variable
//!   order fixed), its variables are bound one at a time by intersecting
//!   sorted store ranges, and its answers are yielded one at a time, so a
//!   limited evaluation ("until
//!   finding at least 10 answers", the paper's Fig. 5 metric) terminates as
//!   early as possible,
//! * [`bindings`] — answer sets (variable bindings and projections).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bindings;
pub mod builder;
pub mod eval;
pub mod model;
mod plan;
pub mod sparql;

pub use bindings::AnswerSet;
pub use builder::QueryBuilder;
pub use eval::{evaluate, AnswerStream, EvalError, Evaluator};
pub use model::{Atom, ConjunctiveQuery, QueryTerm};
