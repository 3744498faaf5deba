//! Sharding: one data graph partitioned into edge-disjoint preparations.
//!
//! [`partition()`] splits a data graph into `N` **edge-disjoint** shard graphs
//! over the original id space (entity/value connectivity components stay
//! whole; `subclass` schema edges are replicated), and
//! [`PartitionPlan::prepare_shards`] builds one [`PreparedGraph`] per shard,
//! each carrying the keyword index and the summary graph of the whole
//! graph. A [`SearchService`](crate::serve::SearchService) over those
//! preparations serves a keyword query exactly as it serves one unsharded
//! preparation (see [`crate::serve`] for the request lifecycle); what makes
//! the sharded steps exact lives here:
//!
//! * **one lookup, one exploration**: every shard shares the index built
//!   over the whole graph, so a request looks up its keywords once and gets
//!   the unsharded matches. The exploration then runs once, on the
//!   augmented summary graph — the shared summary plus those matches,
//!   orders of magnitude smaller than the data — so it is neither
//!   partitioned nor repeated;
//! * **scattered answer phase** (`coordinator`): each ranked query is
//!   evaluated against the shard-local triple stores and the row sets
//!   unioned — exact, because variable-connected atom groups bind within one
//!   connectivity component. A shard that fails a query's evaluation fails
//!   that query's set, never shrinks it.
//!
//! What the shards divide is the data: graphs and triple stores. A shard set
//! lives in memory: snapshots store no summary, so a saved shard reloads
//! with the summary of its own graph (see
//! [`PartitionPlan::prepare_shards`]). The stream is **bit-identical** to
//! the unsharded session's for every shard count because it *is* that
//! session — pinned, together with the exact one-exploration cursor counts,
//! by golden tests and property tests across shard counts {1, 2, 3, 7} and
//! all three scoring functions.

mod coordinator;
mod partition;

pub(crate) use coordinator::answer_queries_sharded;
pub use partition::{partition, PartitionPlan};

// Benchmark compat (see the marked block in `crate::serve`).
#[doc(hidden)]
pub use crate::serve::{ShardedOutcome, ShardedService, ShardedServiceOptions};

#[allow(unused_imports, reason = "referenced by the module docs")]
use crate::prepared::PreparedGraph;
