//! Top-k exploration of query candidates (the paper's core contribution).
//!
//! Given a keyword query, this crate computes the **top-k conjunctive
//! queries** whose answers connect the keywords on the data graph:
//!
//! 1. the keywords are mapped to graph elements by the keyword index
//!    (`kwsearch-keyword-index`),
//! 2. the summary graph is augmented with those elements
//!    (`kwsearch-summary`),
//! 3. [`exploration`] (Algorithm 1) explores the augmented summary graph
//!    with cost-ordered cursors, starting simultaneously from all keyword
//!    elements and traversing vertices *and* edges in both directions,
//! 4. [`topk`] (Algorithm 2) maintains the candidate subgraphs and the
//!    Threshold-Algorithm-style termination test that guarantees the
//!    returned subgraphs really are the k cheapest,
//! 5. [`query_map`] translates each matching subgraph into a conjunctive
//!    query (Section VI-D),
//! 6. [`engine`] packages the whole pipeline — including answering the
//!    selected query with the `kwsearch-query` evaluator — behind the
//!    [`KeywordSearchEngine`] facade, and [`session`] exposes it as a
//!    resumable, streaming [`SearchSession`]: the exploration is an
//!    *anytime* algorithm, so ranked queries are handed out one at a time,
//!    each provably rank-correct the moment it is returned,
//! 7. [`prepared`] splits the immutable read path ([`PreparedGraph`]) off
//!    the engine so one preparation can be `Arc`-shared across threads,
//!    [`cache`] memoizes finished augmentations (bit-identical hits), and
//!    [`serve`] runs many sessions concurrently against one shared
//!    preparation from a [`SearchService`] worker pool,
//! 8. [`persist`] saves a [`PreparedGraph`] to a checksummed, versioned
//!    disk snapshot and loads it back with bulk buffer reads — an O(bytes)
//!    cold start that skips re-indexing entirely,
//! 9. [`shard`] partitions one data graph into edge-disjoint shards, each
//!    with its own preparation (and snapshot), and serves keyword queries
//!    across them from a [`ShardedService`]: scattered keyword lookups,
//!    one exploration over the merged matches (the unsharded stream, bit
//!    for bit), and an answer phase scattered over the shard-local stores,
//! 10. [`live`] absorbs writes with measured freshness: a [`LiveGraph`]
//!     maintains a lineage of immutable prepared snapshots whose delta
//!     overlays (triple store, adjacency, keyword vocabulary, summary)
//!     keep every read bit-identical to a from-scratch rebuild over the
//!     merged data, with epoch-keyed cache invalidation and a compaction
//!     that proves itself byte-identical to a fresh preparation.
//!
//! Scoring (Section V) is configurable through [`ScoringFunction`]: path
//! length (C1), popularity (C2), or popularity weighted by the keyword
//! matching score (C3).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod cursor;
pub mod engine;
pub mod error;
pub mod exploration;
pub mod invariants;
pub mod live;
#[cfg(kwsearch_model)]
pub mod model_scenarios;
pub mod persist;
pub mod prepared;
pub mod query_map;
pub mod result;
pub mod scoring;
pub mod serve;
pub mod session;
pub mod shard;
pub mod subgraph;
mod sync;
pub mod topk;

pub use cache::{AugmentationCache, AugmentationKey, CacheStats};
pub use config::SearchConfig;
pub use engine::{AnswerPhase, EngineBuilder, KeywordSearchEngine, SearchOutcome};
pub use error::{KeywordMatch, SearchError};
pub use exploration::{ExplorationOutcome, ExplorationState, ExplorationStats, Explorer};
pub use kwsearch_rdf::snapshot::SnapshotError;
pub use live::{CompactionReport, DeltaBatch, LiveGraph, WriteTicket};
pub use prepared::PreparedGraph;
pub use query_map::map_subgraph_to_query;
pub use result::RankedQuery;
pub use scoring::ScoringFunction;
pub use serve::{
    SearchRequest, SearchResponse, SearchService, SearchTicket, ServeError, ServiceStats,
    DEFAULT_QUEUE_CAPACITY,
};
pub use session::SearchSession;
pub use shard::{PartitionPlan, ShardedService};
pub use subgraph::{MatchingSubgraph, SubgraphPath};
pub use sync::CancelToken;
