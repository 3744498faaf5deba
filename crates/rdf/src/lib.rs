//! RDF data-graph substrate for the SearchWebDB keyword-search system.
//!
//! This crate implements the *data graph* of Definition 1 in the paper
//! "Top-k Exploration of Query Candidates for Efficient Keyword Search on
//! Graph-Shaped (RDF) Data" (ICDE 2009):
//!
//! * vertices are partitioned into **E-vertices** (entities), **C-vertices**
//!   (classes) and **V-vertices** (data values),
//! * edges are partitioned into **R-edges** (relations between entities),
//!   **A-edges** (attribute assignments from an entity to a value), the
//!   predefined **`type`** edge (entity membership in a class) and the
//!   predefined **`subclass`** edge (class hierarchy).
//!
//! On top of the typed graph the crate provides
//!
//! * a compact string [`Interner`] shared by all labels,
//! * a [`GraphBuilder`] that ingests RDF triples and
//!   classifies them into the four edge kinds,
//! * an indexed [`TripleStore`] offering the pattern scans a
//!   conjunctive-query atom needs (`(s?, p, o?)`: the predicate is always
//!   bound) to the query evaluator,
//! * a line-oriented [N-Triples-like parser/serialiser](ntriples), and
//! * [graph statistics](stats) used by the evaluation harness.
//!
//! The crate is purely in-memory and has no third-party dependencies.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod builder;
pub mod error;
pub mod fixtures;
pub mod graph;
pub mod interner;
pub mod ntriples;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod term;
pub mod triple;
pub mod vocab;

pub use builder::GraphBuilder;
pub use error::RdfError;
pub use graph::{
    counting_sort, DataGraph, Edge, EdgeId, EdgeLabel, EdgeLabelId, EdgesRef, EntityClasses,
    Vertex, VertexId, VertexKind,
};
pub use interner::{Interner, Symbol};
pub use ntriples::{ingest_ntriples, IngestStats};
pub use snapshot::{SectionDecoder, SectionEncoder, SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::GraphStats;
pub use store::{SpoRow, TriplePattern, TripleStore};
pub use term::{Term, TermRef};
pub use triple::{EdgeKind, Triple, TripleRef};

/// Convenience result type used throughout the crate.
pub type Result<T> = std::result::Result<T, RdfError>;
