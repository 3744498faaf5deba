//! Deterministic, edge-disjoint partitioning of a data graph.
//!
//! The partitioner splits one [`DataGraph`] into `N` shard graphs over the
//! **same id space** (see [`DataGraph::edge_subset`]): every vertex, label
//! and interned symbol of the original graph remains valid — and means the
//! same thing — in every shard, so per-shard results are directly
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

use std::path::{Path, PathBuf};
use std::time::Instant;

use kwsearch_keyword_index::{Analyzer, KeywordIndex, KeywordIndexConfig, Thesaurus};
use kwsearch_rdf::snapshot::SnapshotError;
use kwsearch_rdf::{DataGraph, EdgeId, EdgeLabel, TripleStore};
use kwsearch_summary::SummaryGraph;

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
    /// Every shard preparation carries a clone of the **global** summary
    /// graph: the augmentation's structure depends only on the summary and
    /// the keyword matches, so sharing the summary is what makes every
    /// shard's exploration bit-identical to the unsharded one (see
    /// [`crate::shard`]). The keyword index and the triple store are built
    /// from the shard's own edges. The result cache stays disabled
    /// (capacity 0): the service's probe/replay/insert runs on shard 0's
    /// cache, so turning it on is this one constant — after which a replaying
    /// session's debug-invariants shadow (`SearchSession::build_exploration`,
    /// which looks up on shard 0 alone) needs the merged lookup too.
    pub fn prepare_shards(
        &self,
        graph: &DataGraph,
        keyword_config: KeywordIndexConfig,
    ) -> Vec<PreparedGraph> {
        let summary = SummaryGraph::build(graph);
        (0..self.shard_count)
            .map(|s| {
                let start = Instant::now();
                let shard_graph = self.shard_graph(graph, s);
                let keyword_index = KeywordIndex::build_with(
                    &shard_graph,
                    Analyzer::new(),
                    Thesaurus::builtin(),
                    keyword_config.clone(),
                );
                let store = TripleStore::build(&shard_graph);
                PreparedGraph::from_parts(
                    shard_graph,
                    keyword_index,
                    summary.clone(),
                    store,
                    0,
                    start.elapsed(),
                )
            })
            .collect()
    }
}

/// Name of the shard-set manifest written next to the snapshots.
const MANIFEST_FILE: &str = "shards.manifest";

/// First line of a version-1 manifest.
const MANIFEST_HEADER: &str = "kwsearch-shards v1";

/// The snapshot file name of shard `s`.
fn shard_file(s: usize) -> String {
    format!("shard-{s:03}.kws")
}

/// Saves every shard preparation as a disk snapshot (`shard-000.kws`,
/// `shard-001.kws`, …) under `dir`, creating the directory if needed.
/// Returns the written paths in shard order. Uses the [`crate::persist`]
/// format — each file round-trips through [`load_shards`] or
/// [`PreparedGraph::load_from_path`].
///
/// A `shards.manifest` recording the shard count is written **last**, as
/// the commit point: [`load_shards`] refuses a directory whose manifest is
/// missing or disagrees with the snapshots next to it, so a crash
/// mid-persist (or a deleted snapshot) fails loudly instead of silently
/// serving a subset of the data. Stale `shard-NNN.kws` files from a
/// previous, larger persist are removed so the directory always holds
/// exactly shards `0..len`.
pub fn persist_shards(shards: &[PreparedGraph], dir: &Path) -> Result<Vec<PathBuf>, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let paths: Vec<PathBuf> = shards
        .iter()
        .enumerate()
        .map(|(s, shard)| {
            let path = dir.join(shard_file(s));
            shard.save_to_path(&path)?;
            Ok(path)
        })
        .collect::<Result<_, SnapshotError>>()?;
    let mut stale = shards.len();
    loop {
        let leftover = dir.join(shard_file(stale));
        if !leftover.exists() {
            break;
        }
        std::fs::remove_file(leftover)?;
        stale += 1;
    }
    std::fs::write(
        dir.join(MANIFEST_FILE),
        format!("{MANIFEST_HEADER}\nshard_count={}\n", shards.len()),
    )?;
    Ok(paths)
}

/// Loads the shard snapshots written by [`persist_shards`] from `dir`, in
/// shard order.
///
/// The directory's `shards.manifest` is the source of truth: loading fails
/// with [`SnapshotError::BadManifest`] when the manifest is absent (an
/// empty, foreign, or partially-persisted directory), when any of the
/// recorded `shard-NNN.kws` snapshots is missing, or when extra shard
/// files exist beyond the recorded count — a sharded service must start
/// over exactly the persisted shard set, never a plausible-looking subset.
pub fn load_shards(dir: &Path) -> Result<Vec<PreparedGraph>, SnapshotError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = std::fs::read_to_string(&manifest_path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            SnapshotError::BadManifest {
                detail: format!(
                    "missing {} in {} — not a persisted shard set (or an interrupted persist)",
                    MANIFEST_FILE,
                    dir.display()
                ),
            }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    let shard_count = parse_manifest(&manifest)?;
    let mut shards = Vec::with_capacity(shard_count);
    for s in 0..shard_count {
        let path = dir.join(shard_file(s));
        if !path.exists() {
            return Err(SnapshotError::BadManifest {
                detail: format!(
                    "manifest records {shard_count} shards but {} is missing",
                    shard_file(s)
                ),
            });
        }
        shards.push(PreparedGraph::load_from_path(&path)?);
    }
    if dir.join(shard_file(shard_count)).exists() {
        return Err(SnapshotError::BadManifest {
            detail: format!(
                "manifest records {shard_count} shards but {} also exists — \
                 stale or mixed shard sets in one directory",
                shard_file(shard_count)
            ),
        });
    }
    Ok(shards)
}

/// Parses a [`persist_shards`] manifest into its shard count.
fn parse_manifest(manifest: &str) -> Result<usize, SnapshotError> {
    let bad = |detail: String| SnapshotError::BadManifest { detail };
    let mut lines = manifest.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        other => {
            return Err(bad(format!(
                "unsupported manifest header {other:?} (this build reads \"{MANIFEST_HEADER}\")"
            )))
        }
    }
    let count_line = lines
        .next()
        .ok_or_else(|| bad("manifest is missing its shard_count line".to_string()))?;
    let count: usize = count_line
        .strip_prefix("shard_count=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(format!("malformed shard_count line {count_line:?}")))?;
    if count == 0 {
        return Err(bad("manifest records zero shards".to_string()));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    /// A unique, cleaned-up-on-success scratch directory per test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kwsearch-shard-manifest-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persisted(tag: &str, shard_count: usize) -> PathBuf {
        let graph = figure1_graph();
        let plan = partition(&graph, shard_count);
        let shards = plan.prepare_shards(&graph, Default::default());
        let dir = scratch(tag);
        persist_shards(&shards, &dir).expect("persisting shards");
        dir
    }

    #[test]
    fn persisted_shards_load_back_complete_and_in_order() {
        let dir = persisted("roundtrip", 3);
        let loaded = load_shards(&dir).expect("a freshly persisted set loads");
        assert_eq!(loaded.len(), 3, "the manifest pins the shard count");
        let graph = figure1_graph();
        let plan = partition(&graph, 3);
        for (s, shard) in loaded.iter().enumerate() {
            assert_eq!(
                shard.graph().edge_count(),
                plan.shard_graph(&graph, s).edge_count(),
                "shard {s} must come back in shard order"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_directory_without_a_manifest_is_refused() {
        let dir = persisted("no-manifest", 2);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("drop the manifest");
        let err = load_shards(&dir).expect_err("no manifest, no service");
        assert!(matches!(err, SnapshotError::BadManifest { .. }), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn an_empty_directory_is_refused_not_an_empty_service() {
        let dir = scratch("empty");
        std::fs::create_dir_all(&dir).expect("creating the scratch dir");
        let err = load_shards(&dir).expect_err("an empty dir is not a shard set");
        assert!(matches!(err, SnapshotError::BadManifest { .. }), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_deleted_snapshot_fails_the_load_instead_of_shrinking_it() {
        let dir = persisted("deleted", 3);
        std::fs::remove_file(dir.join(shard_file(1))).expect("drop a middle shard");
        let err = load_shards(&dir).expect_err("a missing shard must fail the set");
        assert!(
            matches!(&err, SnapshotError::BadManifest { detail } if detail.contains("shard-001")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn extra_shard_files_beyond_the_manifest_are_refused() {
        let dir = persisted("extra", 2);
        std::fs::write(dir.join(shard_file(2)), b"stale").expect("plant a stale shard");
        let err = load_shards(&dir).expect_err("a mixed shard set must fail");
        assert!(
            matches!(&err, SnapshotError::BadManifest { detail } if detail.contains("shard-002")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn re_persisting_fewer_shards_removes_the_stale_snapshots() {
        let dir = persisted("shrink", 3);
        let graph = figure1_graph();
        let shards = partition(&graph, 2).prepare_shards(&graph, Default::default());
        persist_shards(&shards, &dir).expect("re-persisting a smaller set");
        assert!(!dir.join(shard_file(2)).exists(), "stale shard removed");
        let loaded = load_shards(&dir).expect("the shrunk set loads cleanly");
        assert_eq!(loaded.len(), 2);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_tampered_manifest_is_refused() {
        let dir = persisted("tampered", 2);
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "kwsearch-shards v9\nshard_count=2\n",
        )
        .expect("rewrite the manifest");
        let err = load_shards(&dir).expect_err("unknown manifest versions are refused");
        assert!(matches!(err, SnapshotError::BadManifest { .. }), "{err}");
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "kwsearch-shards v1\nshard_count=0\n",
        )
        .expect("rewrite the manifest");
        let err = load_shards(&dir).expect_err("a zero-shard set is meaningless");
        assert!(matches!(err, SnapshotError::BadManifest { .. }), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
