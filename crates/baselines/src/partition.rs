//! Partition-based search (stand-in for the METIS/BLINKS block indexes).
//!
//! The graph-index baselines of \[2\] partition the data graph into blocks
//! (1000 or 300 of them, using METIS or BFS) and index, per block, which
//! keywords occur inside. At query time only the blocks containing keyword
//! matches — plus their neighbouring blocks — need to be searched. METIS is
//! not available here, so the partitioning is a greedy BFS bisection, which
//! preserves the relevant behaviour: the search space shrinks to a
//! keyword-dependent subset of the graph.
//!
//! This block partitioning is a *baseline search heuristic* and is distinct
//! from the engine's serving-side partitioner
//! (`crates/core/src/shard/partition.rs`), which splits the data graph into
//! edge-disjoint shards for a `SearchService` over partitioned preparations
//! — see the README's "Serving" section.

use std::collections::{HashSet, VecDeque};

use kwsearch_rdf::{DataGraph, VertexId};

use crate::answer_tree::BaselineResult;
use crate::search_core::{multi_source_search, SearchParams};

/// A partitioning of the vertex set into blocks.
#[derive(Debug, Clone)]
pub struct Partitioning {
    blocks: Vec<Vec<VertexId>>,
    block_of: Vec<u32>,
}

impl Partitioning {
    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block a vertex belongs to.
    pub fn block_of(&self, v: VertexId) -> usize {
        self.block_of[v.index()] as usize
    }

    /// The vertices of one block.
    pub fn block(&self, i: usize) -> &[VertexId] {
        &self.blocks[i]
    }

    /// The blocks adjacent to `block` (sharing at least one edge).
    pub fn neighbor_blocks(&self, graph: &DataGraph, block: usize) -> HashSet<usize> {
        let mut out = HashSet::new();
        for &v in &self.blocks[block] {
            for (_, n) in graph.neighbors(v) {
                let b = self.block_of(n);
                if b != block {
                    out.insert(b);
                }
            }
        }
        out
    }
}

/// Partitions `graph` into (at most) `num_blocks` blocks of roughly equal
/// size using greedy BFS growth.
pub fn partition_graph(graph: &DataGraph, num_blocks: usize) -> Partitioning {
    let n = graph.vertex_count();
    let num_blocks = num_blocks.clamp(1, n.max(1));
    let target = n.div_ceil(num_blocks).max(1);

    let mut block_of = vec![u32::MAX; n];
    let mut blocks: Vec<Vec<VertexId>> = Vec::new();
    let mut current: Vec<VertexId> = Vec::new();
    let mut queue: VecDeque<VertexId> = VecDeque::new();

    let assign = |v: VertexId,
                  block_of: &mut Vec<u32>,
                  blocks: &mut Vec<Vec<VertexId>>,
                  current: &mut Vec<VertexId>| {
        block_of[v.index()] = blocks.len() as u32;
        current.push(v);
        if current.len() >= target {
            blocks.push(std::mem::take(current));
        }
    };

    for start in graph.vertices() {
        if block_of[start.index()] != u32::MAX {
            continue;
        }
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            if block_of[v.index()] != u32::MAX {
                continue;
            }
            assign(v, &mut block_of, &mut blocks, &mut current);
            for (_, n) in graph.neighbors(v) {
                if block_of[n.index()] == u32::MAX {
                    queue.push_back(n);
                }
            }
        }
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    // Fix up block ids: `assign` used `blocks.len()` which only advances when
    // a block fills up, so re-derive ids from the final block list.
    let mut block_of = vec![0u32; n];
    for (i, block) in blocks.iter().enumerate() {
        for &v in block {
            block_of[v.index()] = i as u32;
        }
    }
    Partitioning { blocks, block_of }
}

/// Runs bidirectional search restricted to the blocks that contain keyword
/// matches plus their neighbouring blocks.
pub fn partitioned_search(
    graph: &DataGraph,
    partitioning: &Partitioning,
    keyword_groups: &[Vec<VertexId>],
    k: usize,
    dmax: usize,
) -> BaselineResult {
    // Blocks containing a keyword match.
    let mut selected: HashSet<usize> = HashSet::new();
    for group in keyword_groups {
        for &v in group {
            selected.insert(partitioning.block_of(v));
        }
    }
    // Plus their direct neighbours.
    let direct: Vec<usize> = selected.iter().copied().collect();
    for block in direct {
        selected.extend(partitioning.neighbor_blocks(graph, block));
    }
    let allowed: HashSet<VertexId> = selected
        .iter()
        .flat_map(|&b| partitioning.block(b).iter().copied())
        .collect();

    let params = SearchParams {
        k,
        dmax,
        ..SearchParams::default()
    };
    multi_source_search(graph, keyword_groups, &params, Some(&allowed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidirectional::bidirectional_search;
    use crate::keyword_match::match_keywords;
    use kwsearch_rdf::fixtures::figure1_graph;

    #[test]
    fn every_vertex_is_assigned_to_exactly_one_block() {
        let g = figure1_graph();
        let p = partition_graph(&g, 4);
        assert!(p.block_count() >= 2);
        let mut seen = 0usize;
        for i in 0..p.block_count() {
            seen += p.block(i).len();
            for &v in p.block(i) {
                assert_eq!(p.block_of(v), i);
            }
        }
        assert_eq!(seen, g.vertex_count());
    }

    #[test]
    fn block_sizes_are_roughly_balanced() {
        let g = figure1_graph();
        let p = partition_graph(&g, 4);
        let target = g.vertex_count().div_ceil(4);
        for i in 0..p.block_count() {
            assert!(p.block(i).len() <= target + 1);
        }
    }

    #[test]
    fn single_block_partitioning_is_the_whole_graph() {
        let g = figure1_graph();
        let p = partition_graph(&g, 1);
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.block(0).len(), g.vertex_count());
    }

    #[test]
    fn neighbor_blocks_are_symmetric_enough_for_search() {
        let g = figure1_graph();
        let p = partition_graph(&g, 3);
        for b in 0..p.block_count() {
            for n in p.neighbor_blocks(&g, b) {
                assert!(n < p.block_count());
                assert_ne!(n, b);
            }
        }
    }

    #[test]
    fn partitioned_search_finds_connections_when_blocks_cover_them() {
        let g = figure1_graph();
        let groups = match_keywords(&g, &["2006", "Cimiano"]);
        // Coarse partitioning: keyword blocks + neighbours cover the
        // connection, so the result should match plain bidirectional search.
        let p = partition_graph(&g, 2);
        let partitioned = partitioned_search(&g, &p, &groups, 10, 8);
        let full = bidirectional_search(&g, &groups, 10, 8);
        assert!(!partitioned.is_empty());
        assert!(partitioned.visited <= full.visited + groups.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn finer_partitioning_visits_fewer_vertices() {
        let g = figure1_graph();
        let groups = match_keywords(&g, &["2006", "Cimiano"]);
        let coarse = partition_graph(&g, 1);
        let fine = partition_graph(&g, 8);
        let coarse_result = partitioned_search(&g, &coarse, &groups, 10, 8);
        let fine_result = partitioned_search(&g, &fine, &groups, 10, 8);
        assert!(fine_result.visited <= coarse_result.visited);
    }
}
