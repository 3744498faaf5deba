//! Shared multi-source search machinery for the baseline algorithms.
//!
//! Bidirectional search and its partitioned variant follow one skeleton:
//! expand frontiers from every keyword-vertex group along both edge
//! directions, de-prioritising hub vertices, and emit an answer tree
//! whenever some vertex has been reached from every group. The partitioned
//! variant only restricts the vertices the frontiers may enter.

use std::collections::{BinaryHeap, HashMap, HashSet};

use kwsearch_rdf::{DataGraph, VertexId};

use crate::answer_tree::{finalize_trees, AnswerTree, BaselineResult};

/// Configuration of a multi-source search.
#[derive(Debug, Clone)]
pub(crate) struct SearchParams {
    /// Number of answer trees to return.
    pub k: usize,
    /// Maximum path length (in edges) from a keyword vertex to the root.
    pub dmax: usize,
    /// Upper bound on vertex visits, a safety valve for large graphs.
    pub max_visits: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            k: 10,
            dmax: 6,
            max_visits: 2_000_000,
        }
    }
}

/// Priority-queue entry: `(priority, distance, vertex, origin group, trace)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frontier {
    priority: f64,
    distance: usize,
    vertex: VertexId,
    group: usize,
    trace: usize,
}

impl Eq for Frontier {}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by priority (BinaryHeap is a max-heap, so reverse).
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| other.distance.cmp(&self.distance))
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// A back-pointer chain for path recovery.
#[derive(Debug, Clone, Copy)]
struct Trace {
    vertex: VertexId,
    parent: Option<usize>,
}

/// Runs the multi-source search.
///
/// `allowed` optionally restricts the search to a vertex subset (used by the
/// partitioned baseline). Keyword vertices outside the subset are still used
/// as sources.
pub(crate) fn multi_source_search(
    graph: &DataGraph,
    keyword_groups: &[Vec<VertexId>],
    params: &SearchParams,
    allowed: Option<&HashSet<VertexId>>,
) -> BaselineResult {
    let m = keyword_groups.len();
    let mut result = BaselineResult::default();
    if m == 0 || keyword_groups.iter().any(Vec::is_empty) {
        return result;
    }

    let mut traces: Vec<Trace> = Vec::new();
    let mut heap: BinaryHeap<Frontier> = BinaryHeap::new();
    // Best settled distance and trace per (vertex, group).
    let mut settled: Vec<HashMap<VertexId, (usize, usize)>> = vec![HashMap::new(); m];
    let mut trees: Vec<AnswerTree> = Vec::new();

    for (group, sources) in keyword_groups.iter().enumerate() {
        for &source in sources {
            let trace = traces.len();
            traces.push(Trace {
                vertex: source,
                parent: None,
            });
            heap.push(Frontier {
                priority: 0.0,
                distance: 0,
                vertex: source,
                group,
                trace,
            });
        }
    }

    while let Some(entry) = heap.pop() {
        if result.visited >= params.max_visits {
            break;
        }
        // Early termination (approximate, as in the original systems): once k
        // trees exist and the cheapest open frontier cannot improve on the
        // k-th tree, stop.
        if trees.len() >= params.k {
            let kth = {
                let mut weights: Vec<f64> = trees.iter().map(|t| t.weight).collect();
                weights.sort_by(f64::total_cmp);
                weights[params.k - 1]
            };
            if entry.distance as f64 > kth {
                break;
            }
        }

        if settled[entry.group].contains_key(&entry.vertex) {
            continue;
        }
        settled[entry.group].insert(entry.vertex, (entry.distance, entry.trace));
        result.visited += 1;

        // Connecting vertex: reached from every keyword group.
        if settled.iter().all(|s| s.contains_key(&entry.vertex)) {
            let paths: Vec<Vec<VertexId>> = (0..m)
                .map(|g| {
                    let (_, trace) = settled[g][&entry.vertex];
                    recover_path(&traces, trace)
                })
                .collect();
            trees.push(AnswerTree::new(entry.vertex, paths));
        }

        if entry.distance >= params.dmax {
            continue;
        }

        // Expand along outgoing, then incoming edges.
        let outgoing = graph
            .out_edges(entry.vertex)
            .iter()
            .map(|&e| graph.edge(e).to);
        let incoming = graph
            .in_edges(entry.vertex)
            .iter()
            .map(|&e| graph.edge(e).from);
        for neighbor in outgoing.chain(incoming) {
            if settled[entry.group].contains_key(&neighbor) {
                continue;
            }
            if let Some(allowed) = allowed {
                if !allowed.contains(&neighbor) {
                    continue;
                }
            }
            let distance = entry.distance + 1;
            // Activation-factor style: popular hubs are de-prioritised.
            let priority = distance as f64 + (graph.degree(neighbor) as f64).ln_1p() * 0.1;
            let trace = traces.len();
            traces.push(Trace {
                vertex: neighbor,
                parent: Some(entry.trace),
            });
            heap.push(Frontier {
                priority,
                distance,
                vertex: neighbor,
                group: entry.group,
                trace,
            });
        }
    }

    result.trees = finalize_trees(trees, params.k);
    result
}

/// Recovers the path (keyword vertex first, reached vertex last) from a
/// trace index.
fn recover_path(traces: &[Trace], mut index: usize) -> Vec<VertexId> {
    let mut path = Vec::new();
    loop {
        let trace = traces[index];
        path.push(trace.vertex);
        match trace.parent {
            Some(parent) => index = parent,
            None => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;

    #[test]
    fn running_example_finds_a_root_connecting_all_keywords() {
        let g = figure1_graph();
        let groups = vec![
            vec![g.value("2006").unwrap()],
            vec![g.value("P. Cimiano").unwrap()],
            vec![g.value("AIFB").unwrap()],
        ];
        let params = SearchParams::default();
        let result = multi_source_search(&g, &groups, &params, None);
        assert!(!result.is_empty());
        let best = result.best().unwrap();
        assert_eq!(best.paths.len(), 3);
        assert!(result.visited > 0);
        // Every keyword vertex is the start of its path.
        assert_eq!(best.keyword_vertices().len(), 3);
    }

    #[test]
    fn unreachable_keywords_produce_no_trees() {
        let g = figure1_graph();
        let groups = vec![
            vec![g.value("2006").unwrap()],
            vec![], // keyword without matches
        ];
        let result = multi_source_search(&g, &groups, &SearchParams::default(), None);
        assert!(result.is_empty());
    }

    #[test]
    fn dmax_limits_the_search_radius() {
        let g = figure1_graph();
        let groups = vec![
            vec![g.value("2006").unwrap()],
            vec![g.value("AIFB").unwrap()],
        ];
        let narrow = SearchParams {
            dmax: 1,
            ..SearchParams::default()
        };
        let result = multi_source_search(&g, &groups, &narrow, None);
        // 2006 and AIFB are 3+ hops apart: no tree within radius 1.
        assert!(result.is_empty());
        let wide = SearchParams::default();
        assert!(!multi_source_search(&g, &groups, &wide, None).is_empty());
    }

    #[test]
    fn allowed_set_restricts_exploration() {
        let g = figure1_graph();
        let groups = vec![
            vec![g.value("2006").unwrap()],
            vec![g.value("AIFB").unwrap()],
        ];
        // Restrict to only the two keyword vertices: no connection possible.
        let allowed: HashSet<VertexId> = groups.iter().flatten().copied().collect();
        let result = multi_source_search(&g, &groups, &SearchParams::default(), Some(&allowed));
        assert!(result.is_empty());
    }

    #[test]
    fn visit_limit_is_respected() {
        let g = figure1_graph();
        let groups = vec![
            vec![g.value("2006").unwrap()],
            vec![g.value("AIFB").unwrap()],
        ];
        let params = SearchParams {
            max_visits: 3,
            ..SearchParams::default()
        };
        let result = multi_source_search(&g, &groups, &params, None);
        assert!(result.visited <= 3);
    }
}
