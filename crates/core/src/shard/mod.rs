//! Sharded serving: partitioned preparations behind one exploration.
//!
//! # Architecture
//!
//! [`partition`] splits one data graph into `N` **edge-disjoint** shard
//! graphs over the original id space (entity/value connectivity components
//! stay whole; `subclass` schema edges are replicated), and
//! [`PartitionPlan::prepare_shards`] builds one [`PreparedGraph`] per
//! shard — each persistable as a standalone snapshot via
//! [`persist_shards`] / [`load_shards`]. A [`ShardedService`] then serves
//! a keyword query over the shards, on the caller's thread:
//!
//! 1. **admission**: a bounded in-flight budget, and the request deadline
//!    checked once before any work;
//! 2. **scatter lookups**: the keywords are looked up on every shard index
//!    and the per-shard lists merged into the exact global match lists
//!    (shards keep the full vertex/label tables, so per-shard lookups agree
//!    on elements, scores and order; only edge-derived payloads need the
//!    union — `matches`);
//! 3. **one exploration**: a single
//!    [`SearchSession`](crate::session::SearchSession) over the merged
//!    matches. The exploration runs on the augmented summary graph — a
//!    shared global summary plus the matches, orders of magnitude smaller
//!    than the data and identical on every shard — so it is neither
//!    partitioned nor repeated: any one shard's preparation yields the
//!    unsharded certified stream;
//! 4. **scattered answer phase**: each ranked query is evaluated against
//!    the shard-local triple stores and the row sets unioned (exact,
//!    because variable-connected atom groups bind within one connectivity
//!    component — see `coordinator`). A shard that fails a query's
//!    evaluation fails that query's set, never shrinks it.
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

pub use coordinator::{ShardedOutcome, ShardedService, ShardedServiceOptions, ShardedStats};
pub use partition::{load_shards, partition, persist_shards, PartitionPlan};

#[allow(unused_imports)] // referenced by the module docs
use crate::prepared::PreparedGraph;
