//! Construction of the summary graph (Definition 4).
//!
//! The summary graph `G' = (V', L', E')` of a data graph `G` has
//!
//! * one node per class (C-vertex) plus the artificial `Thing` node that
//!   aggregates every entity without a `type` edge,
//! * an edge `e(v1', v2')` labelled with a relation `e ∈ L_R` whenever some
//!   instances `v1 ∈ [[v1']]`, `v2 ∈ [[v2']]` are connected by `e` in the
//!   data graph, and
//! * the `subclass` edges between class nodes.
//!
//! Every node records `|[[v']]|` (how many entities it aggregates) and every
//! relation edge records `|e_agg|` (how many data edges it aggregates); the
//! popularity cost of Section V is computed from these counts.

use std::collections::HashMap;

use kwsearch_rdf::{DataGraph, EdgeLabel, EdgeLabelId, VertexId};

use crate::element::{
    SummaryEdge, SummaryEdgeId, SummaryEdgeKind, SummaryNode, SummaryNodeId, SummaryNodeKind,
};

/// Cloned node/edge/adjacency storage handed to [`crate::augment`]:
/// `(nodes, edges, out_adj, in_adj)`.
pub(crate) type ClonedStorage = (
    Vec<SummaryNode>,
    Vec<SummaryEdge>,
    Vec<Vec<SummaryEdgeId>>,
    Vec<Vec<SummaryEdgeId>>,
);

/// The schema-level summary of a data graph.
///
/// A pure function of the graph: snapshots do not store it, and a load
/// derives it with [`Self::build`]. Two summaries are `==` exactly when
/// they have the same nodes, edges, adjacency order, class lookup and
/// totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryGraph {
    nodes: Vec<SummaryNode>,
    edges: Vec<SummaryEdge>,
    class_nodes: HashMap<VertexId, SummaryNodeId>,
    thing_node: Option<SummaryNodeId>,
    out_adj: Vec<Vec<SummaryEdgeId>>,
    in_adj: Vec<Vec<SummaryEdgeId>>,
    /// Totals of the underlying data graph used for popularity costs.
    total_entities: usize,
    total_relation_edges: usize,
    /// Time (not wall-clock; set by [`SummaryGraph::build`]) is measured by
    /// the benchmark harness, so nothing is stored here.
    _private: (),
}

impl SummaryGraph {
    /// Builds the summary graph of `graph` by applying the aggregation
    /// rules of Definition 4.
    pub fn build(graph: &DataGraph) -> Self {
        let mut summary = SummaryGraph::default();

        // One node per class, aggregating its direct instances.
        for class in graph.vertices_of_kind(kwsearch_rdf::VertexKind::Class) {
            let aggregated = graph.instances_of(class).len();
            summary.push_class_node(class, aggregated);
        }

        // The Thing node aggregates untyped entities. It is created even when
        // empty so that augmentation always has an attachment point.
        let untyped = graph
            .vertices_of_kind(kwsearch_rdf::VertexKind::Entity)
            .filter(|&v| graph.is_untyped_entity(v))
            .count();
        summary.push_thing_node(untyped);

        summary.total_entities = graph.vertex_count_of_kind(kwsearch_rdf::VertexKind::Entity);

        // Project every data edge onto the schema level.
        let mut edge_index: HashMap<
            (SummaryNodeId, SummaryEdgeKind, SummaryNodeId),
            SummaryEdgeId,
        > = HashMap::new();
        for e in graph.edges() {
            let edge = graph.edge(e);
            match graph.edge_label(edge.label) {
                EdgeLabel::Relation(_) => {
                    summary.total_relation_edges += 1;
                    let from_nodes = summary.schema_nodes_of_entity(graph, edge.from);
                    let to_nodes = summary.schema_nodes_of_entity(graph, edge.to);
                    for &f in &from_nodes {
                        for &t in &to_nodes {
                            summary.bump_edge(
                                &mut edge_index,
                                SummaryEdgeKind::Relation { label: edge.label },
                                f,
                                t,
                            );
                        }
                    }
                }
                EdgeLabel::SubClass => {
                    let f = summary.class_nodes[&edge.from];
                    let t = summary.class_nodes[&edge.to];
                    summary.bump_edge(&mut edge_index, SummaryEdgeKind::SubClass, f, t);
                }
                // A-edges and V-vertices are not part of the summary graph;
                // they are added per query during augmentation (Definition 5).
                EdgeLabel::Attribute(_) | EdgeLabel::Type => {}
            }
        }

        summary
    }

    /// Applies an add-only write batch incrementally: `graph` is the
    /// *merged* (post-write) data graph, and all vertices with index `>=
    /// first_new_vertex` / edges with index `>= first_new_edge` are the
    /// batch's additions.
    ///
    /// Returns the updated summary, or `None` when the batch cannot be
    /// applied incrementally and the caller must rebuild from scratch:
    ///
    /// * a **new class vertex** — a rebuild would renumber the summary
    ///   nodes (classes come before `Thing` in node order), and
    /// * a **new `type` edge on an entity with pre-existing R-edges** —
    ///   those R-edges would project onto different summary edges in a
    ///   rebuild, changing summary-edge ids mid-sequence.
    ///
    /// Outside those two cases the result is equal (`==`) to
    /// `SummaryGraph::build(graph)`: new data edges sit at the end of the
    /// edge-id order, so the summary edges they introduce are appended
    /// exactly where a rebuild would create them, and all aggregates are
    /// recomputed from the merged graph.
    pub fn apply_adds(
        &self,
        graph: &DataGraph,
        first_new_vertex: usize,
        first_new_edge: usize,
    ) -> Option<SummaryGraph> {
        // Rule 1: no new classes.
        for i in first_new_vertex..graph.vertex_count() {
            let v = VertexId::from_index(i as u32);
            if graph.vertex(v).kind == kwsearch_rdf::VertexKind::Class {
                return None;
            }
        }
        // Rule 2: no new `type` edge on an entity that already had R-edges
        // (in either direction) before the batch.
        for i in first_new_edge..graph.edge_count() {
            let edge = graph.edge(kwsearch_rdf::EdgeId::from_index(i as u32));
            if graph.edge_label(edge.label) != EdgeLabel::Type {
                continue;
            }
            let had_base_relation = graph
                .out_edges(edge.from)
                .iter()
                .chain(graph.in_edges(edge.from))
                .any(|&e| {
                    e.index() < first_new_edge
                        && matches!(
                            graph.edge_label(graph.edge(e).label),
                            EdgeLabel::Relation(_)
                        )
                });
            if had_base_relation {
                return None;
            }
        }

        let mut summary = self.clone();
        // Recover the build-time dedup map from the existing edges.
        let mut edge_index: HashMap<
            (SummaryNodeId, SummaryEdgeKind, SummaryNodeId),
            SummaryEdgeId,
        > = summary
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.from, e.kind, e.to), SummaryEdgeId(i as u32)))
            .collect();

        // Project the new data edges in edge-id order — the order a rebuild
        // over the merged graph would visit them in.
        for i in first_new_edge..graph.edge_count() {
            let edge = graph.edge(kwsearch_rdf::EdgeId::from_index(i as u32));
            match graph.edge_label(edge.label) {
                EdgeLabel::Relation(_) => {
                    summary.total_relation_edges += 1;
                    let from_nodes = summary.schema_nodes_of_entity(graph, edge.from);
                    let to_nodes = summary.schema_nodes_of_entity(graph, edge.to);
                    for &f in &from_nodes {
                        for &t in &to_nodes {
                            summary.bump_edge(
                                &mut edge_index,
                                SummaryEdgeKind::Relation { label: edge.label },
                                f,
                                t,
                            );
                        }
                    }
                }
                EdgeLabel::SubClass => {
                    // Both endpoints are pre-existing classes (rule 1).
                    let f = summary.class_nodes[&edge.from];
                    let t = summary.class_nodes[&edge.to];
                    summary.bump_edge(&mut edge_index, SummaryEdgeKind::SubClass, f, t);
                }
                EdgeLabel::Attribute(_) | EdgeLabel::Type => {}
            }
        }

        // Recompute the aggregates from the merged graph — exactly the
        // values a rebuild would record.
        for node in &mut summary.nodes {
            node.aggregated = match node.kind {
                SummaryNodeKind::Class { class } => graph.instances_of(class).len(),
                SummaryNodeKind::Thing => graph
                    .vertices_of_kind(kwsearch_rdf::VertexKind::Entity)
                    .filter(|&v| graph.is_untyped_entity(v))
                    .count(),
                // The base summary holds no value nodes; they only appear
                // in per-query augmented copies.
                SummaryNodeKind::Value { .. } | SummaryNodeKind::ArtificialValue => node.aggregated,
            };
        }
        summary.total_entities = graph.vertex_count_of_kind(kwsearch_rdf::VertexKind::Entity);
        Some(summary)
    }

    fn push_class_node(&mut self, class: VertexId, aggregated: usize) -> SummaryNodeId {
        let id = SummaryNodeId(self.nodes.len() as u32);
        self.nodes.push(SummaryNode {
            kind: SummaryNodeKind::Class { class },
            aggregated,
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.class_nodes.insert(class, id);
        id
    }

    fn push_thing_node(&mut self, aggregated: usize) -> SummaryNodeId {
        let id = SummaryNodeId(self.nodes.len() as u32);
        self.nodes.push(SummaryNode {
            kind: SummaryNodeKind::Thing,
            aggregated,
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.thing_node = Some(id);
        id
    }

    /// The summary nodes an entity belongs to: its classes, or `Thing` when
    /// untyped.
    #[expect(
        clippy::expect_used,
        reason = "build() creates the Thing node unconditionally before any entity is summarized"
    )]
    fn schema_nodes_of_entity(&self, graph: &DataGraph, entity: VertexId) -> Vec<SummaryNodeId> {
        let classes = graph.classes_of(entity);
        if classes.is_empty() {
            vec![self.thing_node.expect("Thing node always exists")]
        } else {
            classes.into_iter().map(|c| self.class_nodes[&c]).collect()
        }
    }

    fn bump_edge(
        &mut self,
        index: &mut HashMap<(SummaryNodeId, SummaryEdgeKind, SummaryNodeId), SummaryEdgeId>,
        kind: SummaryEdgeKind,
        from: SummaryNodeId,
        to: SummaryNodeId,
    ) -> SummaryEdgeId {
        if let Some(&existing) = index.get(&(from, kind, to)) {
            self.edges[existing.index()].aggregated += 1;
            return existing;
        }
        let id = SummaryEdgeId(self.edges.len() as u32);
        self.edges.push(SummaryEdge {
            kind,
            from,
            to,
            aggregated: 1,
        });
        self.out_adj[from.index()].push(id);
        self.in_adj[to.index()].push(id);
        index.insert((from, kind, to), id);
        id
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of summary nodes (classes + `Thing`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of summary edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node record.
    pub fn node(&self, id: SummaryNodeId) -> SummaryNode {
        self.nodes[id.index()]
    }

    /// The edge record.
    pub fn edge(&self, id: SummaryEdgeId) -> SummaryEdge {
        self.edges[id.index()]
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = SummaryNodeId> + '_ {
        (0..self.nodes.len() as u32).map(SummaryNodeId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = SummaryEdgeId> + '_ {
        (0..self.edges.len() as u32).map(SummaryEdgeId)
    }

    /// The summary node of a class vertex.
    pub fn node_of_class(&self, class: VertexId) -> Option<SummaryNodeId> {
        self.class_nodes.get(&class).copied()
    }

    /// The `Thing` node.
    #[expect(
        clippy::expect_used,
        reason = "build() creates the Thing node unconditionally, and it is the only constructor"
    )]
    pub fn thing_node(&self) -> SummaryNodeId {
        self.thing_node.expect("Thing node always exists")
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, node: SummaryNodeId) -> &[SummaryEdgeId] {
        &self.out_adj[node.index()]
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, node: SummaryNodeId) -> &[SummaryEdgeId] {
        &self.in_adj[node.index()]
    }

    /// Total number of E-vertices in the underlying data graph (denominator
    /// of the node popularity cost).
    pub fn total_entities(&self) -> usize {
        self.total_entities
    }

    /// Total number of R-edges in the underlying data graph (denominator of
    /// the edge popularity cost).
    pub fn total_relation_edges(&self) -> usize {
        self.total_relation_edges
    }

    /// A human-readable label for a node.
    pub fn node_label<'g>(&self, graph: &'g DataGraph, id: SummaryNodeId) -> &'g str {
        match self.nodes[id.index()].kind {
            SummaryNodeKind::Class { class } => graph.vertex_label(class),
            SummaryNodeKind::Thing => kwsearch_rdf::vocab::THING,
            SummaryNodeKind::Value { value } => graph.vertex_label(value),
            SummaryNodeKind::ArtificialValue => kwsearch_rdf::vocab::VALUE,
        }
    }

    /// A human-readable label for an edge.
    pub fn edge_label_name<'g>(&self, graph: &'g DataGraph, id: SummaryEdgeId) -> &'g str {
        match self.edges[id.index()].kind {
            SummaryEdgeKind::Relation { label } | SummaryEdgeKind::Attribute { label } => {
                graph.edge_label_name(label)
            }
            SummaryEdgeKind::SubClass => kwsearch_rdf::vocab::SUBCLASS,
        }
    }

    /// Finds the summary edges carrying a given relation label.
    pub fn edges_with_relation(&self, label: EdgeLabelId) -> Vec<SummaryEdgeId> {
        self.edges()
            .filter(|&e| matches!(self.edge(e).kind, SummaryEdgeKind::Relation { label: l } if l == label))
            .collect()
    }

    /// Approximate heap size in bytes (Fig. 6b graph-index size).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<SummaryNode>()
            + self.edges.len() * std::mem::size_of::<SummaryEdge>()
            + self.class_nodes.len()
                * (std::mem::size_of::<VertexId>() + std::mem::size_of::<SummaryNodeId>())
            + (self.out_adj.iter().map(Vec::len).sum::<usize>()
                + self.in_adj.iter().map(Vec::len).sum::<usize>())
                * std::mem::size_of::<SummaryEdgeId>()
    }

    /// Internal helper for [`crate::augment`]: clones node/edge/adjacency
    /// storage so the augmented graph can extend it without mutating the
    /// shared base summary.
    pub(crate) fn clone_storage(&self) -> ClonedStorage {
        (
            self.nodes.clone(),
            self.edges.clone(),
            self.out_adj.clone(),
            self.in_adj.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_rdf::fixtures::figure1_graph;
    use kwsearch_rdf::Triple;

    #[test]
    fn one_node_per_class_plus_thing() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        // 7 classes + Thing
        assert_eq!(s.node_count(), 8);
        let thing = s.node(s.thing_node());
        assert_eq!(thing.kind, SummaryNodeKind::Thing);
        assert_eq!(thing.aggregated, 0, "every fixture entity has a type");
    }

    #[test]
    fn class_nodes_aggregate_their_instances() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        let publication = s.node_of_class(g.class("Publication").unwrap()).unwrap();
        assert_eq!(s.node(publication).aggregated, 2);
        let project = s.node_of_class(g.class("Project").unwrap()).unwrap();
        assert_eq!(s.node(project).aggregated, 2);
        let agent = s.node_of_class(g.class("Agent").unwrap()).unwrap();
        assert_eq!(s.node(agent).aggregated, 0, "Agent has no direct instances");
    }

    #[test]
    fn relation_edges_are_projected_and_aggregated() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        // author: Publication -> Researcher (3 data edges aggregate into 1).
        let publication = s.node_of_class(g.class("Publication").unwrap()).unwrap();
        let researcher = s.node_of_class(g.class("Researcher").unwrap()).unwrap();
        let author_edges: Vec<_> = s
            .out_edges(publication)
            .iter()
            .filter(|&&e| s.edge_label_name(&g, e) == "author")
            .collect();
        assert_eq!(author_edges.len(), 1);
        let edge = s.edge(*author_edges[0]);
        assert_eq!(edge.to, researcher);
        assert_eq!(edge.aggregated, 3);
    }

    #[test]
    fn subclass_edges_are_preserved() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        let subclass_count = s
            .edges()
            .filter(|&e| s.edge(e).kind == SummaryEdgeKind::SubClass)
            .count();
        assert_eq!(subclass_count, 4);
    }

    #[test]
    fn attribute_edges_and_values_are_excluded() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        assert!(s
            .edges()
            .all(|e| !matches!(s.edge(e).kind, SummaryEdgeKind::Attribute { .. })));
        assert!(s.nodes().all(|n| !matches!(
            s.node(n).kind,
            SummaryNodeKind::Value { .. } | SummaryNodeKind::ArtificialValue
        )));
    }

    #[test]
    fn summary_is_much_smaller_than_the_data_graph() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        assert!(s.node_count() < g.vertex_count());
        assert!(s.edge_count() < g.edge_count());
    }

    #[test]
    fn untyped_entities_aggregate_under_thing() {
        let mut g = figure1_graph();
        g.insert_triple(&Triple::relation("mystery1", "worksAt", "inst1URI"))
            .unwrap();
        g.insert_triple(&Triple::relation("mystery2", "knows", "mystery1"))
            .unwrap();
        let s = SummaryGraph::build(&g);
        let thing = s.node(s.thing_node());
        assert_eq!(thing.aggregated, 2);
        // worksAt now also connects Thing -> Institute.
        let thing_out: Vec<_> = s
            .out_edges(s.thing_node())
            .iter()
            .map(|&e| s.edge_label_name(&g, e).to_string())
            .collect();
        assert!(thing_out.contains(&"worksAt".to_string()));
        assert!(thing_out.contains(&"knows".to_string()));
    }

    #[test]
    fn multi_typed_entities_project_to_all_their_classes() {
        let mut g = kwsearch_rdf::DataGraph::new();
        g.insert_triple(&Triple::typed("a", "Student")).unwrap();
        g.insert_triple(&Triple::typed("a", "Employee")).unwrap();
        g.insert_triple(&Triple::typed("b", "Department")).unwrap();
        g.insert_triple(&Triple::relation("a", "memberOf", "b"))
            .unwrap();
        let s = SummaryGraph::build(&g);
        // memberOf must appear from both Student and Employee.
        let member_edges = s
            .edges()
            .filter(|&e| s.edge_label_name(&g, e) == "memberOf")
            .count();
        assert_eq!(member_edges, 2);
    }

    #[test]
    fn every_data_path_has_a_summary_path() {
        // Soundness of the aggregation: for the relation edge
        // pub1 --author--> re1 --worksAt--> inst1 there must be a schema path
        // Publication --author--> Researcher --worksAt--> Institute.
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        let publication = s.node_of_class(g.class("Publication").unwrap()).unwrap();
        let researcher = s.node_of_class(g.class("Researcher").unwrap()).unwrap();
        let institute = s.node_of_class(g.class("Institute").unwrap()).unwrap();
        let author = s
            .out_edges(publication)
            .iter()
            .any(|&e| s.edge(e).to == researcher && s.edge_label_name(&g, e) == "author");
        let works_at = s
            .out_edges(researcher)
            .iter()
            .any(|&e| s.edge(e).to == institute && s.edge_label_name(&g, e) == "worksAt");
        assert!(author && works_at);
    }

    #[test]
    fn totals_reflect_the_data_graph() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        assert_eq!(s.total_entities(), 8);
        assert_eq!(s.total_relation_edges(), 6);
        assert!(s.heap_bytes() > 0);
    }

    #[test]
    fn apply_adds_matches_a_rebuild_byte_for_byte() {
        let base = figure1_graph();
        let summary = SummaryGraph::build(&base);
        let (nv, ne) = (base.vertex_count(), base.edge_count());

        // An add-only batch: a new untyped entity with relations into the
        // base, a new relation between base entities, a new attribute, and
        // a new subclass edge between existing classes — everything the
        // incremental path supports.
        let mut merged = base.clone();
        for t in [
            Triple::relation("visitor1", "worksAt", "inst1URI"),
            Triple::relation("pub2URI", "cites", "pub1URI"),
            Triple::attribute("pub2URI", "note", "Revised"),
            Triple::subclass("Institute", "Agent"),
            Triple::relation("re1URI", "author", "pub2URI"),
        ] {
            merged.insert_triple(&t).unwrap();
        }

        let incremental = summary
            .apply_adds(&merged, nv, ne)
            .expect("batch is incrementally applicable");
        assert_eq!(
            incremental,
            SummaryGraph::build(&merged),
            "incremental summary must equal a rebuild"
        );
    }

    #[test]
    fn apply_adds_refuses_new_classes_and_retyped_entities() {
        let base = figure1_graph();
        let summary = SummaryGraph::build(&base);
        let (nv, ne) = (base.vertex_count(), base.edge_count());

        // A new class vertex forces a rebuild.
        let mut with_class = base.clone();
        with_class
            .insert_triple(&Triple::typed("poster1", "Poster"))
            .unwrap();
        assert!(summary.apply_adds(&with_class, nv, ne).is_none());

        // A type edge on an entity with pre-existing R-edges forces a
        // rebuild (its base edges would re-project).
        let mut retyped = base.clone();
        retyped
            .insert_triple(&Triple::typed("pub1URI", "Agent"))
            .unwrap();
        assert!(summary.apply_adds(&retyped, nv, ne).is_none());

        // But typing a *fresh* entity in the same batch is fine.
        let mut fresh = base.clone();
        fresh
            .insert_triple(&Triple::typed("pub3URI", "Publication"))
            .unwrap();
        fresh
            .insert_triple(&Triple::relation("pub3URI", "author", "re1URI"))
            .unwrap();
        let incremental = summary
            .apply_adds(&fresh, nv, ne)
            .expect("typing a new entity is incremental");
        assert_eq!(incremental, SummaryGraph::build(&fresh));
    }

    #[test]
    fn edges_with_relation_lookup() {
        let g = figure1_graph();
        let s = SummaryGraph::build(&g);
        let works_at = g
            .edge_label_id(&EdgeLabel::Relation(g.symbol("worksAt").unwrap()))
            .unwrap();
        assert_eq!(s.edges_with_relation(works_at).len(), 1);
    }
}
