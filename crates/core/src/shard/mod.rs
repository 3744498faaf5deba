//! Sharding: one data graph partitioned into edge-disjoint preparations.
//!
//! [`partition`] splits a data graph into `N` **edge-disjoint** shard graphs
//! over the original id space (entity/value connectivity components stay
//! whole; `subclass` schema edges are replicated), and
//! [`PartitionPlan::prepare_shards`] builds one [`PreparedGraph`] per shard —
//! each persistable as a standalone snapshot via [`persist_shards`] /
//! [`load_shards`]. A [`SearchService`](crate::serve::SearchService) over
//! those preparations serves a keyword query exactly as it serves one
//! unsharded preparation (see [`crate::serve`] for the request lifecycle);
//! what makes the two sharded steps exact lives here:
//!
//! * **merged lookups** (`matches`): shards keep the full vertex/label
//!   tables, so per-shard lookups agree on elements, scores and order; only
//!   edge-derived payloads need a union. The exploration then runs once, on
//!   the augmented summary graph — a shared global summary plus the merged
//!   matches, orders of magnitude smaller than the data and identical on
//!   every shard — so it is neither partitioned nor repeated;
//! * **scattered answer phase** (`coordinator`): each ranked query is
//!   evaluated against the shard-local triple stores and the row sets
//!   unioned — exact, because variable-connected atom groups bind within one
//!   connectivity component. A shard that fails a query's evaluation fails
//!   that query's set, never shrinks it.
//!
//! What the shards divide is the data: triple stores, keyword-index
//! payloads and snapshots. The stream is **bit-identical** to the unsharded
//! session's for every shard count because it *is* that session — pinned,
//! together with the exact one-exploration cursor counts, by golden tests
//! and property tests across shard counts {1, 2, 3, 7} and all three
//! scoring functions.

mod coordinator;
mod matches;
mod partition;

pub(crate) use coordinator::answer_queries_sharded;
pub(crate) use matches::merge_keyword_matches;
pub use partition::{load_shards, partition, persist_shards, PartitionPlan};

// Benchmark compat (see the marked block in `crate::serve`).
#[doc(hidden)]
pub use crate::serve::{ShardedOutcome, ShardedService, ShardedServiceOptions};

#[allow(unused_imports)] // referenced by the module docs
use crate::prepared::PreparedGraph;
