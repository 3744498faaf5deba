//! Matching subgraphs (Definition 6).
//!
//! A K-matching subgraph contains at least one representative element for
//! every keyword and is connected. In Algorithm 2 a subgraph is produced by
//! merging, at a *connecting element*, one explored path per keyword. The
//! merged structure is a graph in general — it may contain cycles, e.g. when
//! keyword elements are edges or when paths overlap — which is why the paper
//! does not restrict results to trees.

use std::collections::BTreeSet;

use kwsearch_summary::{AugmentedSummaryGraph, SummaryElement};

/// One path of a matching subgraph: from a keyword element to the connecting
/// element.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphPath {
    /// Index of the keyword this path represents.
    pub keyword: usize,
    /// The elements of the path, starting at the keyword element and ending
    /// at the connecting element.
    pub elements: Vec<SummaryElement>,
    /// The cost of the path under the scoring function in use.
    pub cost: f64,
}

impl SubgraphPath {
    /// The keyword element this path originates from.
    #[expect(
        clippy::expect_used,
        reason = "paths are constructed from a keyword element, so `elements` is never empty"
    )]
    pub fn keyword_element(&self) -> SummaryElement {
        *self
            .elements
            .first()
            .expect("a path always contains at least the keyword element")
    }

    /// The path length (number of elements).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the path contains no elements. Never true for paths produced
    /// by the exploration, which always include the keyword element.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Whether the path consists of the keyword element only.
    pub fn is_trivial(&self) -> bool {
        self.elements.len() == 1
    }
}

/// A matching subgraph: one path per keyword, merged at a connecting element.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingSubgraph {
    /// The element at which all paths meet.
    pub connecting_element: SummaryElement,
    /// One path per keyword (index `i` holds the path for keyword `i`).
    /// Private so the cached element set and hash below cannot silently
    /// desynchronize — construct a new subgraph instead of mutating paths.
    paths: Vec<SubgraphPath>,
    /// Total cost: the sum of the path costs (shared elements counted once
    /// per path, as prescribed in Section V).
    pub cost: f64,
    /// The distinct elements (union of all paths), sorted ascending —
    /// computed once at construction so deduplication never re-derives it.
    elements: Vec<SummaryElement>,
    /// FNV-1a hash of `elements`, the fast dedup probe of the candidate list.
    element_hash: u64,
}

impl MatchingSubgraph {
    /// Builds a subgraph from per-keyword paths, computing its cost as the
    /// sum of the path costs and caching the sorted element set plus its
    /// hash (the candidate list's deduplication key).
    pub fn new(connecting_element: SummaryElement, paths: Vec<SubgraphPath>) -> Self {
        let cost = paths.iter().map(|p| p.cost).sum();
        let mut elements: Vec<SummaryElement> = paths
            .iter()
            .flat_map(|p| p.elements.iter().copied())
            .collect();
        elements.sort_unstable();
        elements.dedup();
        let element_hash = hash_elements(&elements);
        Self {
            connecting_element,
            paths,
            cost,
            elements,
            element_hash,
        }
    }

    /// The per-keyword paths (index `i` holds the path for keyword `i`).
    pub fn paths(&self) -> &[SubgraphPath] {
        &self.paths
    }

    /// The distinct elements of the subgraph (union of all paths), sorted
    /// ascending. Borrowed from the cache computed at construction.
    pub fn elements(&self) -> &[SummaryElement] {
        &self.elements
    }

    /// The canonical identity of the subgraph used for deduplication: two
    /// subgraphs with the same element set describe the same query.
    pub fn canonical_key(&self) -> BTreeSet<SummaryElement> {
        self.elements.iter().copied().collect()
    }

    /// Hash of the sorted element set — a cheap first-stage dedup probe.
    /// Equal element sets always hash equal; on a hash match callers confirm
    /// with [`Self::same_elements`].
    pub fn element_hash(&self) -> u64 {
        self.element_hash
    }

    /// Whether two subgraphs cover exactly the same element set (and thus
    /// describe the same query).
    pub fn same_elements(&self, other: &Self) -> bool {
        self.element_hash == other.element_hash && self.elements == other.elements
    }

    /// Number of distinct elements.
    pub fn size(&self) -> usize {
        self.elements.len()
    }

    /// Number of keywords covered (one path each).
    pub fn keyword_count(&self) -> usize {
        self.paths.len()
    }

    /// Whether every path's endpoint is the connecting element and the
    /// element set is internally connected through the neighbour relation of
    /// `graph`. Used by tests and debug assertions.
    pub fn is_connected(&self, graph: &AugmentedSummaryGraph<'_>) -> bool {
        if self.elements.is_empty() {
            return false;
        }
        if !self
            .paths
            .iter()
            .all(|p| p.elements.last() == Some(&self.connecting_element))
        {
            return false;
        }
        // BFS over the subgraph's elements only; `self.elements` is sorted,
        // so membership is a binary search.
        let mut visited = BTreeSet::new();
        let mut queue = vec![self.connecting_element];
        visited.insert(self.connecting_element);
        while let Some(current) = queue.pop() {
            for &n in graph.neighbors(current) {
                if self.elements.binary_search(&n).is_ok() && visited.insert(n) {
                    queue.push(n);
                }
            }
        }
        visited.len() == self.elements.len()
    }

    /// A human-readable sketch of the subgraph (element labels per path),
    /// useful in examples and debugging output.
    pub fn describe(&self, graph: &AugmentedSummaryGraph<'_>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "connecting element: {}\n",
            graph.element_label(self.connecting_element)
        ));
        for path in &self.paths {
            let labels: Vec<&str> = path
                .elements
                .iter()
                .map(|&e| graph.element_label(e))
                .collect();
            out.push_str(&format!(
                "  keyword {}: {} (cost {:.3})\n",
                path.keyword,
                labels.join(" -> "),
                path.cost
            ));
        }
        out.push_str(&format!("total cost: {:.3}", self.cost));
        out
    }
}

/// FNV-1a over the sorted element list. Deterministic across runs (unlike
/// `DefaultHasher` with random state) so candidate-list behaviour — and
/// therefore the top-k output — is reproducible.
fn hash_elements(elements: &[SummaryElement]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for &element in elements {
        match element {
            SummaryElement::Node(n) => mix(n.index() as u64),
            SummaryElement::Edge(e) => mix(1 << 32 | e.index() as u64),
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::DataGraph;
    use kwsearch_summary::SummaryGraph;

    fn augmented<'g>(graph: &'g DataGraph, keywords: &[&str]) -> AugmentedSummaryGraph<'g> {
        let base = SummaryGraph::build(graph);
        let index = KeywordIndex::build(graph);
        let matches = index.lookup_all(keywords);
        AugmentedSummaryGraph::build(graph, &base, &matches)
    }

    /// Builds a small two-path subgraph by walking real adjacency of the
    /// augmented graph: value node -> attribute edge -> class node.
    fn sample_subgraph(graph: &AugmentedSummaryGraph<'_>) -> MatchingSubgraph {
        let value = graph.keyword_elements()[0][0].element;
        let edge = graph.neighbors(value)[0];
        let class = graph
            .neighbors(edge)
            .iter()
            .copied()
            .find(|&n| n != value)
            .unwrap();
        let path0 = SubgraphPath {
            keyword: 0,
            elements: vec![value, edge, class],
            cost: 3.0,
        };
        let path1 = SubgraphPath {
            keyword: 1,
            elements: vec![class],
            cost: 1.0,
        };
        MatchingSubgraph::new(class, vec![path0, path1])
    }

    #[test]
    fn cost_is_the_sum_of_path_costs() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        let subgraph = sample_subgraph(&aug);
        assert_eq!(subgraph.cost, 4.0);
        assert_eq!(subgraph.keyword_count(), 2);
        assert_eq!(subgraph.size(), 3);
    }

    #[test]
    fn paths_expose_their_keyword_elements() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        let subgraph = sample_subgraph(&aug);
        assert_eq!(
            subgraph.paths[0].keyword_element(),
            aug.keyword_elements()[0][0].element
        );
        assert!(!subgraph.paths[0].is_trivial());
        assert!(subgraph.paths[1].is_trivial());
        assert_eq!(subgraph.paths[0].len(), 3);
    }

    #[test]
    fn connectivity_check_accepts_real_subgraphs() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        let subgraph = sample_subgraph(&aug);
        assert!(subgraph.is_connected(&aug));
    }

    #[test]
    fn connectivity_check_rejects_disconnected_element_sets() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        let subgraph = sample_subgraph(&aug);
        // Graft a far-away element onto one path without connecting it.
        let foreign = aug
            .elements()
            .find(|e| {
                !subgraph.elements().contains(e)
                    && aug
                        .neighbors(*e)
                        .iter()
                        .all(|n| !subgraph.elements().contains(n))
            })
            .expect("the fixture has elements far from the sample subgraph");
        // Rebuild the subgraph with the grafted path: `paths` is private so
        // the cached element set cannot be desynchronized by mutation.
        let mut paths = subgraph.paths().to_vec();
        paths[1].elements.insert(0, foreign);
        let grafted = MatchingSubgraph::new(subgraph.connecting_element, paths);
        assert!(!grafted.is_connected(&aug));
    }

    #[test]
    fn canonical_key_ignores_path_decomposition() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        let a = sample_subgraph(&aug);
        // Same elements, different path split.
        let mut b = a.clone();
        b.paths.swap(0, 1);
        b.paths[0].keyword = 0;
        b.paths[1].keyword = 1;
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn describe_mentions_labels_and_cost() {
        let g = figure1_graph();
        let aug = augmented(&g, &["aifb", "institute"]);
        let subgraph = sample_subgraph(&aug);
        let text = subgraph.describe(&aug);
        assert!(text.contains("AIFB"));
        assert!(text.contains("Institute"));
        assert!(text.contains("total cost"));
    }
}
