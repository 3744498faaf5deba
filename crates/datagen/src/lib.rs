//! Synthetic dataset generators and benchmark workloads.
//!
//! The paper evaluates on three datasets — DBLP (26M triples, bibliographic),
//! TAP (220k triples, broad general-knowledge ontology) and LUBM(50, 0)
//! (university benchmark) — plus two workloads: keyword queries collected
//! from 12 participants (effectiveness, Fig. 4; this crate regenerates the
//! 30 DBLP ones) and the queries Q1–Q10 of the BLINKS evaluation
//! (performance, Fig. 5).
//!
//! The original dumps are not redistributable and far exceed laptop scale,
//! so this crate generates structurally equivalent datasets at a
//! configurable scale — what each generator preserves of its original:
//!
//! * [`dblp`] — publications/authors/venues with Zipfian label reuse: few
//!   classes, very many V-vertices (large keyword index),
//! * [`lubm`] — the LUBM schema (universities, departments, professors,
//!   students, courses) generated from its published class/relation layout,
//! * [`tap`] — a class-rich, broad ontology (large graph index),
//! * [`workload`] — DBLP keyword queries with gold-standard conjunctive
//!   queries for the MRR study, and the Q1–Q10 performance queries.
//!
//! All generators are deterministic given a seed.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use kwsearch_rdf::DataGraph;

pub mod dblp;
pub mod lubm;
pub mod names;
pub mod tap;
pub mod workload;
pub mod zipf;

pub use dblp::{DblpConfig, DblpDataset};
pub use lubm::{LubmConfig, LubmDataset};
pub use tap::{TapConfig, TapDataset};
pub use workload::{EffectivenessQuery, PerformanceQuery};
pub use zipf::ZipfSampler;

/// Writes a generated graph to `path` as N-Triples through the streaming
/// writer (no intermediate `String` of the whole document), returning the
/// number of bytes on disk. This is how the committed benchmark materialises
/// its 10⁶-triple input for the ingest measurements.
pub fn write_ntriples_file<P: AsRef<Path>>(graph: &DataGraph, path: P) -> io::Result<u64> {
    let file = File::create(&path)?;
    let mut writer = BufWriter::new(file);
    kwsearch_rdf::ntriples::write_graph_to(graph, &mut writer)?;
    writer.flush()?;
    Ok(std::fs::metadata(&path)?.len())
}
