//! The graph index of Section IV-B: summary graph and per-query augmentation.
//!
//! Exploration in the paper does **not** operate on the data graph but on a
//! *summary graph* (Definition 4) "which intuitively captures only relations
//! between classes of entities": one node per class (plus `Thing` for
//! untyped entities), one edge per relation that holds between instances of
//! two classes, plus the `subclass` hierarchy. Every node and edge records
//! how many data-graph elements it aggregates — the basis of the popularity
//! cost (Section V).
//!
//! At query time the summary graph is *augmented* (Definition 5) with the
//! V-vertices and A-edges returned by the keyword index, producing the
//! [`AugmentedSummaryGraph`] on which the
//! top-k exploration of the core crate runs.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(missing_debug_implementations)]

pub mod augment;
pub mod cost;
pub mod element;
pub mod summary;

pub use augment::{AugmentedSummaryGraph, KeywordElement};
pub use cost::CostModel;
pub use element::{
    SummaryEdge, SummaryEdgeId, SummaryEdgeKind, SummaryElement, SummaryNode, SummaryNodeId,
    SummaryNodeKind,
};
pub use summary::SummaryGraph;
