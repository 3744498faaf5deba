//! Bidirectional search (BLINKS-style expansion with activation factors).
//!
//! "The intuition is that from some vertices the answer root can be reached
//! faster by following outgoing rather than incoming edges. For
//! prioritization, heuristic activation factors are used in order to
//! estimate how likely an edge will lead to an answer root." We traverse
//! both edge directions and de-prioritise high-degree hubs, which is the
//! essence of the activation heuristic.

use kwsearch_rdf::{DataGraph, VertexId};

use crate::answer_tree::BaselineResult;
use crate::search_core::{multi_source_search, SearchParams};

/// Runs bidirectional search for the given keyword-vertex groups.
pub fn bidirectional_search(
    graph: &DataGraph,
    keyword_groups: &[Vec<VertexId>],
    k: usize,
    dmax: usize,
) -> BaselineResult {
    let params = SearchParams {
        k,
        dmax,
        ..SearchParams::default()
    };
    multi_source_search(graph, keyword_groups, &params, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyword_match::match_keywords;
    use kwsearch_rdf::fixtures::figure1_graph;

    #[test]
    fn finds_connections_in_both_directions() {
        let g = figure1_graph();
        // AIFB (value of inst1) and Thanh Tran (value of re1): the connection
        // re1 -> inst1 requires one forward and one backward step.
        let groups = match_keywords(&g, &["Thanh Tran", "AIFB"]);
        let result = bidirectional_search(&g, &groups, 10, 6);
        assert!(!result.is_empty());
        let roots: Vec<&str> = result
            .trees
            .iter()
            .map(|t| g.vertex_label(t.root))
            .collect();
        assert!(roots.contains(&"re1URI") || roots.contains(&"inst1URI"));
    }

    #[test]
    fn trees_cover_every_keyword() {
        let g = figure1_graph();
        let groups = match_keywords(&g, &["2006", "Cimiano", "AIFB"]);
        let result = bidirectional_search(&g, &groups, 5, 8);
        for tree in &result.trees {
            assert_eq!(tree.paths.len(), 3);
            for (group, path) in tree.paths.iter().enumerate() {
                assert!(groups[group].contains(&path[0]));
                assert_eq!(*path.last().unwrap(), tree.root);
            }
        }
    }

    #[test]
    fn empty_keyword_groups_yield_no_trees() {
        let g = figure1_graph();
        let groups = match_keywords(&g, &["2006", "doesnotexist"]);
        let result = bidirectional_search(&g, &groups, 10, 6);
        assert!(result.is_empty());
    }
}
