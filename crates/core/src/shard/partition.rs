//! Deterministic, edge-disjoint partitioning of a data graph by predicate.
//!
//! The partitioner splits one [`DataGraph`] into `N` shard graphs over the
//! **same id space** (see [`DataGraph::edge_subset`]): every vertex, label
//! and interned symbol of the original graph remains valid — and means the
//! same thing — in every shard, so one keyword index built over the whole
//! graph serves every shard, and the shards' triple stores together are the
//! whole graph's store, read as one by the evaluator.
//!
//! # Assignment rule
//!
//! Every edge goes to the shard of its edge label (vertical partitioning:
//! Abadi et al., "Scalable Semantic Web Data Management Using Vertical
//! Partitioning", VLDB 2007). Labels are placed by a deterministic LPT bin
//! packing over their edge counts: count descending, then label id, each
//! onto the currently lightest shard, ties to the lowest shard id — so the
//! same graph always yields the same plan. Every triple pattern binds its
//! predicate, so the rows of one pattern sit on one shard: a join reads as
//! many non-empty runs as it does unsharded, and nothing is replicated.
//!
//! The research prototype's hash partitioner lives in
//! `baselines/src/partition.rs`; this module is the engine-grade
//! replacement it points to.

use std::sync::Arc;

use kwsearch_keyword_index::{Analyzer, KeywordIndex, KeywordIndexConfig, Thesaurus};
use kwsearch_rdf::{DataGraph, EdgeId, TripleStore};
use kwsearch_summary::SummaryGraph;

use crate::cache::AugmentationCache;
use crate::prepared::PreparedGraph;

/// A deterministic edge-to-shard assignment for one data graph.
///
/// Built by [`partition`]; use [`Self::shard_graph`] /
/// [`Self::prepare_shards`] to materialize the shards.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    shard_count: usize,
    /// Per [`EdgeId`]: the owning shard, the shard of the edge's label.
    assignment: Vec<u32>,
    /// Edges per shard.
    shard_edge_counts: Vec<usize>,
}

/// Computes a deterministic [`PartitionPlan`] splitting `graph` into
/// `shard_count` edge-disjoint shards, each edge label whole on one shard.
/// A `shard_count` of zero is treated as one.
pub fn partition(graph: &DataGraph, shard_count: usize) -> PartitionPlan {
    PartitionPlan::new(graph, shard_count)
}

impl PartitionPlan {
    /// See [`partition`].
    pub fn new(graph: &DataGraph, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let mut label_edges = vec![0usize; graph.edge_label_count()];
        for e in graph.edges() {
            label_edges[graph.edge(e).label.index()] += 1;
        }
        let mut labels: Vec<usize> = (0..label_edges.len()).collect();
        labels.sort_by_key(|&label| (std::cmp::Reverse(label_edges[label]), label));
        let mut shard_edge_counts = vec![0usize; shard_count];
        let mut shard_of_label = vec![0u32; label_edges.len()];
        for label in labels {
            let lightest = (0..shard_count)
                .min_by_key(|&shard| (shard_edge_counts[shard], shard))
                .unwrap_or(0);
            shard_of_label[label] = lightest as u32;
            shard_edge_counts[lightest] += label_edges[label];
        }
        let assignment = graph
            .edges()
            .map(|e| shard_of_label[graph.edge(e).label.index()])
            .collect();
        Self {
            shard_count,
            assignment,
            shard_edge_counts,
        }
    }

    /// Number of shards the plan splits the graph into.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard that owns `edge`.
    pub fn shard_of(&self, edge: EdgeId) -> usize {
        self.assignment[edge.index()] as usize
    }

    /// Edges per shard, indexed by shard id.
    pub fn shard_edge_counts(&self) -> &[usize] {
        &self.shard_edge_counts
    }

    /// Always 0: no edge is replicated. Kept for the benchmark's
    /// `shard.replicated_edge_frac`, which goes with its next revision.
    #[doc(hidden)]
    pub fn replicated_edge_count(&self) -> usize {
        0
    }

    /// Materializes shard `shard` as a [`DataGraph`] over the original id
    /// space, holding exactly its assigned edges.
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
        graph.edge_subset(|e, _| self.shard_of(e) == shard)
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
        let summary = SummaryGraph::build(graph);
        let keyword_index =
            KeywordIndex::build_with(graph, Analyzer::new(), Thesaurus::builtin(), keyword_config);
        (0..self.shard_count)
            .map(|s| {
                let shard_graph = self.shard_graph(graph, s);
                let store = TripleStore::build(&shard_graph);
                PreparedGraph::from_shared_parts(
                    shard_graph,
                    keyword_index.clone(),
                    summary.clone(),
                    store,
                    Arc::new(AugmentationCache::new(0)),
                    0,
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

    /// Each edge label lands whole on one shard, placed by LPT: on Fig. 1,
    /// `type` (8 edges) first, then `name` and `subclass` (4 each, by label
    /// id), then `author` (3), `year` and `worksAt` (2), `hasProject` and
    /// `title` (1), each onto the lightest shard.
    #[test]
    fn each_label_lands_whole_on_the_lightest_shard() {
        let graph = figure1_graph();
        let name = |label| graph.edge_label_name(label).to_string();
        for (shard_count, want) in [(1, vec![25]), (2, vec![13, 12]), (3, vec![9, 8, 8])] {
            let plan = partition(&graph, shard_count);
            assert_eq!(plan.shard_edge_counts(), want);
            let mut shard_of_label = std::collections::BTreeMap::new();
            for e in graph.edges() {
                let shard = *shard_of_label
                    .entry(name(graph.edge(e).label))
                    .or_insert(plan.shard_of(e));
                assert_eq!(plan.shard_of(e), shard, "a label split across shards");
            }
            let shard_graphs = (0..shard_count).map(|s| plan.shard_graph(&graph, s));
            let edges: Vec<usize> = shard_graphs.map(|g| g.edge_count()).collect();
            assert_eq!(edges, want);
            if shard_count == 3 {
                assert_eq!(shard_of_label["subclass"], 2);
            }
        }
    }

    /// Every shard preparation looks up exactly what the unsharded index
    /// returns — elements, scores, order and the edge-derived neighbourhood
    /// payloads — although no shard holds every edge those payloads come
    /// from: the `Institute` class's and the value `AIFB`'s payloads join
    /// `name` edges with `type` edges, the two largest labels, which land
    /// on different shards.
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
        // The shards of `vertex`'s in-edges and of their subjects' out-edges.
        let owners = |plan: &PartitionPlan, vertex| -> BTreeSet<_> {
            let subjects = graph.in_edges(vertex).iter().map(|&e| graph.edge(e).from);
            let edges = subjects.flat_map(|s| graph.out_edges(s).iter());
            edges.map(|&e| plan.shard_of(e)).collect()
        };
        let institute = graph.class("Institute").unwrap();
        let aifb = graph.value("AIFB").unwrap();
        for shard_count in [1usize, 2, 3, 7] {
            let plan = partition(&graph, shard_count);
            if shard_count > 1 {
                assert!(owners(&plan, institute).len() > 1);
                assert!(owners(&plan, aifb).len() > 1);
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
