//! Baseline keyword-search algorithms on the full data graph.
//!
//! The paper compares its summary-graph exploration against systems that
//! compute *answer trees* directly on the data graph under the distinct-root
//! assumption:
//!
//! * **bidirectional search** (BLINKS-style, \[14\]) — expansion along both
//!   edge directions with degree-based activation factors,
//! * **partitioned search** — bidirectional search restricted to the graph
//!   blocks that contain keyword matches (a stand-in for the METIS- and
//!   BFS-based 1000/300-block indexes of \[2\]; greedy BFS partitioning
//!   replaces METIS).
//!
//! Both share the exact-match keyword mapping of [`keyword_match`] and the
//! [`AnswerTree`] result model, and report how many vertices they visited,
//! so a comparison can relate their search effort to the exploration's.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod answer_tree;
pub mod bidirectional;
pub mod keyword_match;
pub mod partition;
mod search_core;

pub use answer_tree::{AnswerTree, BaselineResult};
pub use bidirectional::bidirectional_search;
pub use keyword_match::match_keywords;
pub use partition::{partition_graph, partitioned_search, Partitioning};
