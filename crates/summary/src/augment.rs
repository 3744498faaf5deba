//! The augmented summary graph (Definition 5).
//!
//! "In order to keep the search space minimal, the summary graph is
//! augmented only with the A-edges and V-vertices that are obtained from the
//! keyword-to-element mapping":
//!
//! * for a keyword-matching **V-vertex** `vk`, an edge `e(v', vk)` is added
//!   for every class `v'` of an entity carrying that value,
//! * for a keyword-matching **A-edge** `ek`, an edge `ek(v', value)` to a new
//!   artificial `value` node is added for every class `v'` of an entity
//!   using that attribute — the label's
//!   [`SummaryGraph::attribute_sources`], which the base summary projects
//!   once per data graph,
//! * keyword-matching **classes** and **relations** are already part of the
//!   summary graph and are only marked as keyword elements.
//!
//! The augmented graph is query-specific and also carries the matching
//! scores `s_m` of the keyword elements, which the C3 cost function uses.

use std::collections::HashMap;

use kwsearch_keyword_index::{KeywordMatch, MatchedElement};
use kwsearch_rdf::{DataGraph, EdgeLabelId, VertexId};

use crate::element::{
    SummaryEdge, SummaryEdgeId, SummaryEdgeKind, SummaryElement, SummaryNode, SummaryNodeId,
    SummaryNodeKind,
};
use crate::summary::SummaryGraph;

/// A keyword element: a summary-graph element that represents one of the
/// query keywords, together with its matching score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeywordElement {
    /// The element representing the keyword.
    pub element: SummaryElement,
    /// The matching score `s_m ∈ (0, 1]`.
    pub score: f64,
}

/// The per-query augmented summary graph on which exploration runs.
///
/// # Dense element ids
///
/// Every element has a contiguous dense index in `0..element_count()`:
/// **nodes first** (index = node id), **then edges** (index is
/// `node_count() + edge id`). [`Self::element_index`] and
/// [`Self::element_from_index`] convert between the two representations
/// without hashing; the exploration uses the dense index to address flat
/// per-element tables (costs, paths, match scores).
///
/// # CSR adjacency
///
/// The neighbour relation over *all* elements (incident edges of a node in
/// both directions, endpoints of an edge) is stored as one flattened CSR:
/// `csr_offsets[i]..csr_offsets[i + 1]` indexes the neighbour slice of the
/// element with dense index `i` inside `csr_neighbors`. [`Self::neighbors`]
/// therefore returns a borrowed slice — zero allocation on the exploration
/// hot path.
#[derive(Debug, Clone)]
pub struct AugmentedSummaryGraph<'g> {
    graph: &'g DataGraph,
    nodes: Vec<SummaryNode>,
    edges: Vec<SummaryEdge>,
    /// Build-time adjacency, emptied once the CSR has been finalized.
    out_adj: Vec<Vec<SummaryEdgeId>>,
    in_adj: Vec<Vec<SummaryEdgeId>>,
    /// CSR offsets over dense element indices (`element_count() + 1` entries).
    csr_offsets: Vec<u32>,
    /// Flattened neighbour lists: for a node its out-edges then in-edges, for
    /// an edge its `from` endpoint then (unless a self-loop) its `to` endpoint.
    csr_neighbors: Vec<SummaryElement>,
    thing_node: SummaryNodeId,
    value_nodes: HashMap<VertexId, SummaryNodeId>,
    artificial_value_nodes: HashMap<EdgeLabelId, SummaryNodeId>,
    keyword_elements: Vec<Vec<KeywordElement>>,
    /// Best matching score per dense element index (1.0 for non-keyword
    /// elements), replacing the former `HashMap<SummaryElement, f64>` probe.
    match_scores: Vec<f64>,
    total_entities: usize,
    total_relation_edges: usize,
}

impl<'g> AugmentedSummaryGraph<'g> {
    /// Augments `base` with the keyword matches of one query.
    ///
    /// `matches_per_keyword` holds, for every keyword of the query, the
    /// matches returned by the keyword index. Keywords with no matches
    /// contribute an empty keyword-element list (the exploration will then
    /// report that no connecting subgraph exists).
    pub fn build(
        graph: &'g DataGraph,
        base: &SummaryGraph,
        matches_per_keyword: &[Vec<KeywordMatch>],
    ) -> Self {
        let (nodes, edges, out_adj, in_adj) = base.clone_storage();
        let mut augmented = Self {
            graph,
            nodes,
            edges,
            out_adj,
            in_adj,
            csr_offsets: Vec::new(),
            csr_neighbors: Vec::new(),
            thing_node: base.thing_node(),
            value_nodes: HashMap::new(),
            artificial_value_nodes: HashMap::new(),
            keyword_elements: Vec::with_capacity(matches_per_keyword.len()),
            match_scores: Vec::new(),
            total_entities: base.total_entities(),
            total_relation_edges: base.total_relation_edges(),
        };

        // Best matching score per element, folded over all keywords; only
        // needed while the element set is still growing.
        let mut best_scores: HashMap<SummaryElement, f64> = HashMap::new();
        for keyword_matches in matches_per_keyword {
            let mut elements: Vec<KeywordElement> = Vec::new();
            for m in keyword_matches {
                for element in augmented.attach_match(base, m) {
                    record_keyword_element(&mut best_scores, &mut elements, element, m.score);
                }
            }
            augmented.keyword_elements.push(elements);
        }
        augmented.finalize(&best_scores);
        augmented
    }

    /// Freezes the element set: flattens the build-time adjacency lists into
    /// the CSR arrays and densifies the matching scores. After this point
    /// `neighbors()` is allocation-free and `match_score()` is an array load.
    fn finalize(&mut self, best_scores: &HashMap<SummaryElement, f64>) {
        let node_count = self.nodes.len();
        let degree_sum: usize = self
            .out_adj
            .iter()
            .zip(&self.in_adj)
            .map(|(o, i)| o.len() + i.len())
            .sum();
        self.csr_offsets = Vec::with_capacity(node_count + self.edges.len() + 1);
        self.csr_neighbors = Vec::with_capacity(degree_sum + 2 * self.edges.len());
        self.csr_offsets.push(0);
        // Nodes first: out-edges then in-edges, preserving insertion order.
        for (out, inc) in self.out_adj.iter().zip(&self.in_adj) {
            self.csr_neighbors
                .extend(out.iter().map(|&e| SummaryElement::Edge(e)));
            self.csr_neighbors
                .extend(inc.iter().map(|&e| SummaryElement::Edge(e)));
            self.csr_offsets.push(self.csr_neighbors.len() as u32);
        }
        // Then edges: endpoints inlined (one entry for self-loops).
        for edge in &self.edges {
            self.csr_neighbors.push(SummaryElement::Node(edge.from));
            if edge.to != edge.from {
                self.csr_neighbors.push(SummaryElement::Node(edge.to));
            }
            self.csr_offsets.push(self.csr_neighbors.len() as u32);
        }
        // The per-node lists are no longer needed; free them.
        self.out_adj = Vec::new();
        self.in_adj = Vec::new();

        self.match_scores = vec![1.0; node_count + self.edges.len()];
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each element writes its own distinct slot of match_scores, so visit order cannot change the result"
        )]
        for (&element, &score) in best_scores {
            let index = self.element_index(element);
            self.match_scores[index] = score;
        }
    }

    /// Attaches a single keyword match to the graph and returns the summary
    /// elements that represent it.
    fn attach_match(&mut self, base: &SummaryGraph, m: &KeywordMatch) -> Vec<SummaryElement> {
        match &m.element {
            MatchedElement::Class { class } => base
                .node_of_class(*class)
                .map(SummaryElement::Node)
                .into_iter()
                .collect(),
            MatchedElement::Relation { label } => base
                .edges_with_relation(*label)
                .into_iter()
                .map(SummaryElement::Edge)
                .collect(),
            MatchedElement::Value { value, connections } => {
                let value_node = self.value_node(*value);
                for conn in connections {
                    let mut sources: Vec<SummaryNodeId> = conn
                        .classes
                        .iter()
                        .filter_map(|&c| base.node_of_class(c))
                        .collect();
                    if conn.has_untyped_source {
                        sources.push(self.thing_node);
                    }
                    for source in sources {
                        self.add_attribute_edge(source, conn.attribute, value_node);
                    }
                }
                vec![SummaryElement::Node(value_node)]
            }
            MatchedElement::Attribute { label } => {
                let value_node = self.artificial_value_node(*label);
                base.attribute_sources(*label)
                    .iter()
                    .map(|&source| {
                        SummaryElement::Edge(self.add_attribute_edge(source, *label, value_node))
                    })
                    .collect()
            }
        }
    }

    fn push_node(&mut self, kind: SummaryNodeKind) -> SummaryNodeId {
        let id = SummaryNodeId(self.nodes.len() as u32);
        self.nodes.push(SummaryNode {
            kind,
            aggregated: 1,
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    fn value_node(&mut self, value: VertexId) -> SummaryNodeId {
        if let Some(&n) = self.value_nodes.get(&value) {
            return n;
        }
        let id = self.push_node(SummaryNodeKind::Value { value });
        self.value_nodes.insert(value, id);
        id
    }

    fn artificial_value_node(&mut self, label: EdgeLabelId) -> SummaryNodeId {
        if let Some(&n) = self.artificial_value_nodes.get(&label) {
            return n;
        }
        let id = self.push_node(SummaryNodeKind::ArtificialValue);
        self.artificial_value_nodes.insert(label, id);
        id
    }

    fn add_attribute_edge(
        &mut self,
        from: SummaryNodeId,
        label: EdgeLabelId,
        to: SummaryNodeId,
    ) -> SummaryEdgeId {
        // Deduplicate: the same (class, attribute, value) edge may arise from
        // several keyword matches.
        for &e in &self.out_adj[from.index()] {
            let edge = self.edges[e.index()];
            if edge.to == to && edge.kind == (SummaryEdgeKind::Attribute { label }) {
                return e;
            }
        }
        let id = SummaryEdgeId(self.edges.len() as u32);
        self.edges.push(SummaryEdge {
            kind: SummaryEdgeKind::Attribute { label },
            from,
            to,
            aggregated: 1,
        });
        self.out_adj[from.index()].push(id);
        self.in_adj[to.index()].push(id);
        id
    }

    // ------------------------------------------------------------------
    // Accessors used by the exploration and the query mapping
    // ------------------------------------------------------------------

    /// Number of nodes (base + augmented).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (base + augmented).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of elements (nodes + edges).
    pub fn element_count(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// The dense index of an element: nodes occupy `0..node_count()`, edges
    /// follow at `node_count()..element_count()`. The inverse of
    /// [`Self::element_from_index`].
    #[inline]
    pub fn element_index(&self, element: SummaryElement) -> usize {
        match element {
            SummaryElement::Node(n) => n.index(),
            SummaryElement::Edge(e) => self.nodes.len() + e.index(),
        }
    }

    /// The element with the given dense index (see [`Self::element_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= element_count()`.
    #[inline]
    pub fn element_from_index(&self, index: usize) -> SummaryElement {
        if index < self.nodes.len() {
            SummaryElement::Node(SummaryNodeId(index as u32))
        } else {
            let edge = index - self.nodes.len();
            assert!(edge < self.edges.len(), "element index out of bounds");
            SummaryElement::Edge(SummaryEdgeId(edge as u32))
        }
    }

    /// The node record.
    pub fn node(&self, id: SummaryNodeId) -> SummaryNode {
        self.nodes[id.index()]
    }

    /// The edge record.
    pub fn edge(&self, id: SummaryEdgeId) -> SummaryEdge {
        self.edges[id.index()]
    }

    /// All elements (nodes then edges).
    pub fn elements(&self) -> impl Iterator<Item = SummaryElement> + '_ {
        let nodes = (0..self.nodes.len() as u32).map(|i| SummaryElement::Node(SummaryNodeId(i)));
        let edges = (0..self.edges.len() as u32).map(|i| SummaryElement::Edge(SummaryEdgeId(i)));
        nodes.chain(edges)
    }

    /// The neighbours of an element: for a node its incident edges (outgoing
    /// then incoming), for an edge its two endpoints. Exploration traverses
    /// incoming and outgoing edges alike ("forward search is equally
    /// important as backward search"). Borrowed straight from the CSR arrays
    /// — no allocation.
    #[inline]
    pub fn neighbors(&self, element: SummaryElement) -> &[SummaryElement] {
        let i = self.element_index(element);
        &self.csr_neighbors[self.csr_offsets[i] as usize..self.csr_offsets[i + 1] as usize]
    }

    /// The keyword elements of every keyword (aligned with the keyword order
    /// used at construction time).
    pub fn keyword_elements(&self) -> &[Vec<KeywordElement>] {
        &self.keyword_elements
    }

    /// The matching score of an element: `s_m` for keyword elements, 1.0 for
    /// all others (Section V, C3). A dense-table load, no hashing.
    #[inline]
    pub fn match_score(&self, element: SummaryElement) -> f64 {
        self.match_scores[self.element_index(element)]
    }

    /// Number of data-graph elements aggregated by `element`.
    pub fn aggregated(&self, element: SummaryElement) -> usize {
        match element {
            SummaryElement::Node(n) => self.nodes[n.index()].aggregated,
            SummaryElement::Edge(e) => self.edges[e.index()].aggregated,
        }
    }

    /// Denominator of the node popularity cost.
    pub fn total_entities(&self) -> usize {
        self.total_entities
    }

    /// Denominator of the edge popularity cost.
    pub fn total_relation_edges(&self) -> usize {
        self.total_relation_edges
    }

    /// A human-readable label for any element (class name, value text,
    /// relation name, …).
    pub fn element_label(&self, element: SummaryElement) -> &str {
        match element {
            SummaryElement::Node(n) => match self.nodes[n.index()].kind {
                SummaryNodeKind::Class { class } => self.graph.vertex_label(class),
                SummaryNodeKind::Thing => kwsearch_rdf::vocab::THING,
                SummaryNodeKind::Value { value } => self.graph.vertex_label(value),
                SummaryNodeKind::ArtificialValue => kwsearch_rdf::vocab::VALUE,
            },
            SummaryElement::Edge(e) => match self.edges[e.index()].kind {
                SummaryEdgeKind::Relation { label } | SummaryEdgeKind::Attribute { label } => {
                    self.graph.edge_label_name(label)
                }
                SummaryEdgeKind::SubClass => kwsearch_rdf::vocab::SUBCLASS,
            },
        }
    }
}

/// Folds one keyword match into the per-keyword element list and the global
/// best-score map, keeping the highest score per element.
fn record_keyword_element(
    best_scores: &mut HashMap<SummaryElement, f64>,
    elements: &mut Vec<KeywordElement>,
    element: SummaryElement,
    score: f64,
) {
    let best = best_scores.entry(element).or_insert(0.0);
    if score > *best {
        *best = score;
    }
    if let Some(existing) = elements.iter_mut().find(|e| e.element == element) {
        if score > existing.score {
            existing.score = score;
        }
    } else {
        elements.push(KeywordElement { element, score });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_keyword_index::KeywordIndex;
    use kwsearch_rdf::fixtures::figure1_graph;

    fn augmented_for<'g>(
        graph: &'g DataGraph,
        base: &SummaryGraph,
        keywords: &[&str],
    ) -> AugmentedSummaryGraph<'g> {
        let index = KeywordIndex::build(graph);
        let matches = index.lookup_all(keywords);
        AugmentedSummaryGraph::build(graph, base, &matches)
    }

    #[test]
    fn the_running_example_keywords_produce_three_keyword_element_sets() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["2006", "cimiano", "aifb"]);
        assert_eq!(aug.keyword_elements().len(), 3);
        for (i, elements) in aug.keyword_elements().iter().enumerate() {
            assert!(!elements.is_empty(), "keyword {i} must have elements");
        }
    }

    #[test]
    fn value_matches_add_value_nodes_and_attribute_edges() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["aifb"]);
        assert_eq!(aug.node_count(), base.node_count() + 1);
        assert!(aug.edge_count() > base.edge_count());
        // The new value node is connected to the Institute class node through
        // a `name` attribute edge.
        let value_node = aug.keyword_elements()[0]
            .iter()
            .find_map(|ke| ke.element.as_node())
            .expect("aifb matches a value node");
        let neighbors = aug.neighbors(SummaryElement::Node(value_node));
        assert_eq!(neighbors.len(), 1);
        let edge = neighbors[0].as_edge().unwrap();
        assert_eq!(aug.element_label(SummaryElement::Edge(edge)), "name");
        let from = aug.edge(edge).from;
        assert_eq!(aug.element_label(SummaryElement::Node(from)), "Institute");
    }

    #[test]
    fn class_matches_reuse_base_nodes() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["publications"]);
        // Exact class match: no new nodes needed for the class itself.
        let elements = &aug.keyword_elements()[0];
        let has_class_node = elements.iter().any(|ke| {
            ke.element
                .as_node()
                .map(|n| aug.element_label(SummaryElement::Node(n)) == "Publication")
                .unwrap_or(false)
        });
        assert!(has_class_node);
    }

    #[test]
    fn relation_matches_mark_summary_edges() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["author"]);
        let elements = &aug.keyword_elements()[0];
        let has_relation_edge = elements.iter().any(|ke| {
            ke.element
                .as_edge()
                .map(|e| aug.element_label(SummaryElement::Edge(e)) == "author")
                .unwrap_or(false)
        });
        assert!(has_relation_edge);
    }

    #[test]
    fn attribute_matches_add_artificial_value_nodes() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["year"]);
        // A new artificial `value` node must exist…
        let artificial: Vec<_> = (0..aug.node_count() as u32)
            .map(SummaryNodeId)
            .filter(|&n| aug.node(n).kind == SummaryNodeKind::ArtificialValue)
            .collect();
        assert_eq!(artificial.len(), 1);
        // …and the keyword element is the A-edge pointing at it from the
        // Publication class.
        let elements = &aug.keyword_elements()[0];
        let edge = elements
            .iter()
            .find_map(|ke| ke.element.as_edge())
            .expect("year must match an attribute edge");
        assert_eq!(aug.element_label(SummaryElement::Edge(edge)), "year");
        assert_eq!(
            aug.element_label(SummaryElement::Node(aug.edge(edge).from)),
            "Publication"
        );
        assert_eq!(aug.edge(edge).to, artificial[0]);
    }

    #[test]
    fn match_scores_default_to_one_for_structure_elements() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["cimiano"]);
        // A keyword element has its matching score…
        let ke = aug.keyword_elements()[0][0];
        assert!(aug.match_score(ke.element) > 0.0);
        assert!(aug.match_score(ke.element) <= 1.0);
        // …while an arbitrary schema node scores 1.0.
        let publication =
            SummaryElement::Node(base.node_of_class(g.class("Publication").unwrap()).unwrap());
        assert_eq!(aug.match_score(publication), 1.0);
    }

    #[test]
    fn neighbors_alternate_between_nodes_and_edges() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["aifb"]);
        for element in aug.elements() {
            for n in aug.neighbors(element) {
                match element {
                    SummaryElement::Node(_) => assert!(n.as_edge().is_some()),
                    SummaryElement::Edge(_) => assert!(n.as_node().is_some()),
                }
            }
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["2006", "cimiano", "aifb"]);
        for element in aug.elements() {
            for &n in aug.neighbors(element) {
                assert!(
                    aug.neighbors(n).contains(&element),
                    "neighbor relation must be symmetric: {element:?} / {n:?}"
                );
            }
        }
    }

    #[test]
    fn keywords_without_matches_yield_empty_element_lists() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["quetzalcoatl"]);
        assert_eq!(aug.keyword_elements().len(), 1);
        assert!(aug.keyword_elements()[0].is_empty());
    }

    #[test]
    fn duplicate_matches_do_not_duplicate_augmented_structure() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        // "aifb aifb" as two keywords: the value node must be shared.
        let aug = augmented_for(&g, &base, &["aifb", "aifb"]);
        assert_eq!(aug.node_count(), base.node_count() + 1);
        assert_eq!(aug.keyword_elements()[0], aug.keyword_elements()[1]);
    }

    #[test]
    fn dense_indices_round_trip_nodes_before_edges() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["2006", "cimiano", "aifb"]);
        for (expected, element) in aug.elements().enumerate() {
            assert_eq!(aug.element_index(element), expected);
            assert_eq!(aug.element_from_index(expected), element);
        }
        // Invariant: nodes occupy the low indices, edges follow.
        assert_eq!(
            aug.element_index(aug.element_from_index(aug.node_count())),
            aug.node_count()
        );
        assert!(aug.element_from_index(aug.node_count()).as_edge().is_some());
    }

    #[test]
    fn csr_neighbors_match_edge_records() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["2006", "cimiano", "aifb"]);
        for element in aug.elements() {
            if let Some(e) = element.as_edge() {
                let edge = aug.edge(e);
                let expected: Vec<SummaryElement> = if edge.from == edge.to {
                    vec![SummaryElement::Node(edge.from)]
                } else {
                    vec![
                        SummaryElement::Node(edge.from),
                        SummaryElement::Node(edge.to),
                    ]
                };
                assert_eq!(aug.neighbors(element), expected.as_slice());
            }
        }
    }

    #[test]
    fn element_count_and_aggregation_accessors() {
        let g = figure1_graph();
        let base = SummaryGraph::build(&g);
        let aug = augmented_for(&g, &base, &["2006"]);
        assert_eq!(aug.element_count(), aug.node_count() + aug.edge_count());
        assert_eq!(aug.total_entities(), 8);
        assert_eq!(aug.total_relation_edges(), 6);
        // The Publication node aggregates two entities.
        let publication =
            SummaryElement::Node(base.node_of_class(g.class("Publication").unwrap()).unwrap());
        assert_eq!(aug.aggregated(publication), 2);
    }
}
