//! Shared infrastructure for the figure-reproduction harnesses.
//!
//! The binaries in `src/bin/` regenerate the tables behind every figure of
//! the paper's evaluation section:
//!
//! * `fig4_effectiveness` — MRR of the scoring functions C1/C2/C3 (Fig. 4),
//! * `fig5_comparison`    — query performance vs. the baselines (Fig. 5),
//! * `fig6a_topk`         — search time as a function of `k` and query
//!   length (Fig. 6a),
//! * `fig6b_index`        — keyword-index and graph-index sizes and build
//!   times for DBLP/LUBM/TAP (Fig. 6b),
//! * `ablation`           — one design choice toggled at a time.
//!
//! Performance tracking lives in the standalone `benchmark/` package (see
//! `benchmark/README.md`), not here.
//!
//! This library crate provides the pieces the binaries share: dataset
//! construction with environment-variable scaling, wall-clock timing and
//! fixed-width table rendering.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod report;

pub use datasets::{dblp_dataset, lubm_dataset, tap_dataset, ScaleProfile};
pub use report::{format_duration, time, Table};
