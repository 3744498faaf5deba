//! Deterministic, edge-disjoint partitioning of a data graph.
//!
//! The partitioner splits one [`DataGraph`] into `N` shard graphs over the
//! **same id space** (see [`DataGraph::edge_subset`]): every vertex, label
//! and interned symbol of the original graph remains valid — and means the
//! same thing — in every shard, so one keyword index built over the whole
//! graph serves every shard, and per-shard answer rows are directly
//! comparable and mergeable without id translation.
//!
//! # Assignment rule
//!
//! 1. Entity and value vertices are grouped into **connected components**
//!    by a union-find over the Relation and Attribute edges (`type` edges
//!    do not merge components: routing every instance of a class through
//!    one shard would defeat balancing, and class vertices are present in
//!    every shard anyway).
//! 2. Every Relation, Attribute and `type` edge is assigned to the shard
//!    of its *subject's* component — components are atomic, so the edges
//!    incident to any entity (including all its `type` edges) land in one
//!    shard, which is what makes per-shard query evaluation exact for
//!    variable-connected atom groups (see [`crate::shard`]).
//! 3. `subclass` edges are **replicated** to every shard: they are schema,
//!    not data, and every shard needs the class hierarchy.
//! 4. Components are sorted (edge count descending, then minimum member
//!    vertex id ascending) and greedily placed on the currently lightest
//!    shard (ties break toward the lowest shard id) — a deterministic LPT
//!    bin packing, so the same graph always yields the same plan.
//!
//! The research prototype's hash partitioner lives in
//! `baselines/src/partition.rs`; this module is the engine-grade
//! replacement it points to.

use std::sync::Arc;
use std::time::Instant;

use kwsearch_keyword_index::{Analyzer, KeywordIndex, KeywordIndexConfig, Thesaurus};
use kwsearch_rdf::{DataGraph, EdgeId, EdgeLabel, TripleStore};
use kwsearch_summary::SummaryGraph;

use crate::cache::AugmentationCache;
use crate::prepared::PreparedGraph;

/// Sentinel for edges replicated to every shard (`subclass`).
const REPLICATED: u32 = u32::MAX;

/// A deterministic edge-to-shard assignment for one data graph.
///
/// Built by [`partition`]; use [`Self::shard_graph`] /
/// [`Self::prepare_shards`] to materialize the shards.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    shard_count: usize,
    /// Per [`EdgeId`]: the owning shard, or [`REPLICATED`].
    assignment: Vec<u32>,
    /// Assigned (non-replicated) edges per shard.
    shard_edge_counts: Vec<usize>,
    replicated_edges: usize,
    component_count: usize,
}

/// Computes a deterministic [`PartitionPlan`] splitting `graph` into
/// `shard_count` edge-disjoint shards (plus replicated `subclass` edges).
/// A `shard_count` of zero is treated as one.
pub fn partition(graph: &DataGraph, shard_count: usize) -> PartitionPlan {
    PartitionPlan::new(graph, shard_count)
}

impl PartitionPlan {
    /// See [`partition`].
    ///
    /// Components are unioned through *value* vertices too, and a literal
    /// is one value vertex however many entities carry it (a year, a venue
    /// name). On bibliographic data nearly every entity therefore lands in
    /// one component: `cargo run --release --example sharded_serving`
    /// splits its 1 108 edges as `[1087, 8, 6]`, so one shard holds 98 % of
    /// the data and the answer phase's scatter divides almost nothing.
    pub fn new(graph: &DataGraph, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let labels: Vec<EdgeLabel> = graph.edge_labels().map(|(_, label)| label).collect();
        let n = graph.vertex_count();

        // 1. Union-find over Relation/Attribute edges.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut v: u32) -> u32 {
            while parent[v as usize] != v {
                parent[v as usize] = parent[parent[v as usize] as usize]; // path halving
                v = parent[v as usize];
            }
            v
        }
        for e in graph.edges() {
            let edge = graph.edge(e);
            if matches!(
                labels[edge.label.index()],
                EdgeLabel::Relation(_) | EdgeLabel::Attribute(_)
            ) {
                let a = find(&mut parent, edge.from.index() as u32);
                let b = find(&mut parent, edge.to.index() as u32);
                if a != b {
                    // Deterministic union: the smaller root wins.
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent[hi as usize] = lo;
                }
            }
        }

        // 2. Per-component edge counts and minimum member vertex ids.
        let mut component_edges: Vec<usize> = vec![0; n];
        let mut component_min: Vec<u32> = (0..n as u32).collect();
        let mut edge_root: Vec<u32> = Vec::with_capacity(graph.edge_count());
        for e in graph.edges() {
            let edge = graph.edge(e);
            if matches!(labels[edge.label.index()], EdgeLabel::SubClass) {
                edge_root.push(REPLICATED);
                continue;
            }
            let root = find(&mut parent, edge.from.index() as u32);
            component_edges[root as usize] += 1;
            edge_root.push(root);
        }
        for v in 0..n as u32 {
            let root = find(&mut parent, v);
            if v < component_min[root as usize] {
                component_min[root as usize] = v;
            }
        }

        // 3. Deterministic LPT placement of the non-empty components.
        let mut components: Vec<u32> = (0..n as u32)
            .filter(|&root| parent[root as usize] == root && component_edges[root as usize] > 0)
            .collect();
        components.sort_by_key(|&root| {
            (
                std::cmp::Reverse(component_edges[root as usize]),
                component_min[root as usize],
            )
        });
        let component_count = components.len();
        let mut shard_edge_counts = vec![0usize; shard_count];
        let mut shard_of_root: Vec<u32> = vec![0; n];
        for &root in &components {
            let lightest = shard_edge_counts
                .iter()
                .enumerate()
                .min_by_key(|&(id, &load)| (load, id))
                .map(|(id, _)| id)
                .unwrap_or(0);
            shard_of_root[root as usize] = lightest as u32;
            shard_edge_counts[lightest] += component_edges[root as usize];
        }

        // 4. Per-edge assignment.
        let mut replicated_edges = 0usize;
        let assignment: Vec<u32> = edge_root
            .into_iter()
            .map(|root| {
                if root == REPLICATED {
                    replicated_edges += 1;
                    REPLICATED
                } else {
                    shard_of_root[root as usize]
                }
            })
            .collect();

        Self {
            shard_count,
            assignment,
            shard_edge_counts,
            replicated_edges,
            component_count,
        }
    }

    /// Number of shards the plan splits the graph into.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The owning shard of `edge`, or `None` for a replicated (`subclass`)
    /// edge that every shard carries.
    pub fn shard_of(&self, edge: EdgeId) -> Option<usize> {
        match self.assignment[edge.index()] {
            REPLICATED => None,
            shard => Some(shard as usize),
        }
    }

    /// Assigned (non-replicated) edges per shard, indexed by shard id.
    pub fn shard_edge_counts(&self) -> &[usize] {
        &self.shard_edge_counts
    }

    /// Number of `subclass` edges replicated to every shard.
    pub fn replicated_edge_count(&self) -> usize {
        self.replicated_edges
    }

    /// Number of connected components that carried at least one edge.
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// Materializes shard `shard` as a [`DataGraph`] over the original id
    /// space: its assigned edges plus every replicated edge.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()` or if `graph` is not the
    /// graph the plan was computed for (detected by edge-count mismatch).
    pub fn shard_graph(&self, graph: &DataGraph, shard: usize) -> DataGraph {
        assert!(shard < self.shard_count, "shard id out of range");
        assert_eq!(
            graph.edge_count(),
            self.assignment.len(),
            "plan was computed for a different graph"
        );
        let shard = shard as u32;
        graph.edge_subset(|e, _| {
            let owner = self.assignment[e.index()];
            owner == shard || owner == REPLICATED
        })
    }

    /// Builds one [`PreparedGraph`] per shard, ready for
    /// [`SearchService::new`](crate::serve::SearchService::new).
    ///
    /// The keyword index and the summary graph are built once, over the
    /// whole `graph`, and every shard preparation carries a clone of each
    /// (the index's columns are `Arc`-shared): a lookup on any shard is the
    /// unsharded lookup, and the augmentation's structure depends only on
    /// the summary and those matches, so every shard's exploration is
    /// bit-identical to the unsharded one (see [`crate::shard`]). Only the
    /// graph and the triple store are the shard's own. The result cache
    /// stays disabled (capacity 0): the service's probe/replay/insert runs
    /// on shard 0's cache, so turning it on is this one constant.
    ///
    /// A shard preparation can be saved like any other, but snapshots do
    /// not store the summary: loading one keeps the set's keyword index and
    /// derives the summary of the shard's own edges, so a reloaded shard is
    /// neither a member of its set nor a standalone preparation of its own
    /// edges.
    pub fn prepare_shards(
        &self,
        graph: &DataGraph,
        keyword_config: KeywordIndexConfig,
    ) -> Vec<PreparedGraph> {
        let start = Instant::now();
        let summary = SummaryGraph::build(graph);
        let keyword_index =
            KeywordIndex::build_with(graph, Analyzer::new(), Thesaurus::builtin(), keyword_config);
        let shared_build_time = start.elapsed();
        (0..self.shard_count)
            .map(|s| {
                let start = Instant::now();
                let shard_graph = self.shard_graph(graph, s);
                let store = TripleStore::build(&shard_graph);
                PreparedGraph::from_shared_parts(
                    shard_graph,
                    keyword_index.clone(),
                    summary.clone(),
                    store,
                    Arc::new(AugmentationCache::new(0)),
                    0,
                    shared_build_time + start.elapsed(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use kwsearch_rdf::fixtures::figure1_graph;

    use super::*;

    /// Every shard preparation looks up exactly what the unsharded index
    /// returns — elements, scores, order and the edge-derived neighbourhood
    /// payloads — although no shard holds every edge those payloads come
    /// from: the `Institute` class's `type` in-edges fall in different
    /// shards, and only one shard holds the in-edges behind the value
    /// `AIFB`'s `[V-vertex, A-edge, (C-vertex…)]` structure.
    #[test]
    fn every_shard_looks_up_what_the_unsharded_index_returns() {
        let graph = figure1_graph();
        let keywords = [
            "cimiano",
            "publication",
            "aifb",
            "year",
            "author",
            "institute",
        ];
        let want = KeywordIndex::build(&graph).lookup_all(&keywords);
        let owners = |plan: &PartitionPlan, vertex| -> BTreeSet<_> {
            let edges = graph.in_edges(vertex).iter();
            edges.map(|&e| plan.shard_of(e)).collect()
        };
        let institute = graph.class("Institute").unwrap();
        let aifb = graph.value("AIFB").unwrap();
        for shard_count in [1usize, 2, 3, 7] {
            let plan = partition(&graph, shard_count);
            if shard_count > 1 {
                assert!(owners(&plan, institute).len() > 1);
                assert_eq!(owners(&plan, aifb).len(), 1);
            }
            let shards = plan.prepare_shards(&graph, KeywordIndexConfig::default());
            assert_eq!(shards.len(), shard_count);
            for (shard, prepared) in shards.iter().enumerate() {
                let got = prepared.keyword_index().lookup_all(&keywords);
                assert_eq!(got.len(), want.len());
                for (keyword, (got, want)) in keywords.iter().zip(got.iter().zip(&want)) {
                    let at = format!("`{keyword}` on shard {shard} of {shard_count}");
                    assert_eq!(got.len(), want.len(), "{at}: match count");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{at}: score");
                        assert_eq!(g.element, w.element, "{at}: payload");
                    }
                }
            }
        }
    }
}
