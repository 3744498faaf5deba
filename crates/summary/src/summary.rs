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
//!
//! A-edges are not edges of the summary, but the same projection records,
//! per attribute label, the nodes of the entities carrying it
//! ([`SummaryGraph::attribute_sources`]): the classes an augmentation
//! (Definition 5) attaches a keyword-matching A-edge to.

use std::collections::HashMap;

use kwsearch_rdf::{DataGraph, EdgeId, EdgeLabel, EdgeLabelId, VertexId, VertexKind};

use crate::element::{
    SummaryEdge, SummaryEdgeId, SummaryEdgeKind, SummaryNode, SummaryNodeId, SummaryNodeKind,
};

/// The summary edge of each `(from, kind, to)`: how a projection finds the
/// edge a data edge bumps.
type EdgeIndex = HashMap<(SummaryNodeId, SummaryEdgeKind, SummaryNodeId), SummaryEdgeId>;

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
/// they have the same nodes, edges, adjacency order, class lookup,
/// attribute sources and totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryGraph {
    nodes: Vec<SummaryNode>,
    edges: Vec<SummaryEdge>,
    class_nodes: HashMap<VertexId, SummaryNodeId>,
    thing_node: Option<SummaryNodeId>,
    out_adj: Vec<Vec<SummaryEdgeId>>,
    in_adj: Vec<Vec<SummaryEdgeId>>,
    /// Per edge label (by index), the nodes of the entities carrying it as
    /// an attribute — sorted and distinct; empty for other labels.
    attribute_sources: Vec<Vec<SummaryNodeId>>,
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
    ///
    /// One pass over the edges after one [`DataGraph::entity_classes`]
    /// table: the table gives every class its instance count and the
    /// `Thing` node its untyped count, and a dense class → node array
    /// projects each relation and attribute edge onto its entities' nodes.
    pub fn build(graph: &DataGraph) -> Self {
        let entity_classes = graph.entity_classes();
        let mut summary = SummaryGraph::default();

        // One node per class, aggregating its direct instances, and the
        // Thing node aggregating the untyped entities. Thing is created
        // even when empty so that augmentation always has an attachment
        // point.
        let mut node_of = vec![SummaryNodeId(u32::MAX); graph.vertex_count()];
        for class in graph.vertices_of_kind(VertexKind::Class) {
            node_of[class.index()] = summary.push_class_node(class, 0);
        }
        let mut untyped = 0;
        for entity in graph.vertices_of_kind(VertexKind::Entity) {
            let classes = entity_classes.of(entity);
            untyped += usize::from(classes.is_empty());
            for class in classes {
                summary.nodes[node_of[class.index()].index()].aggregated += 1;
            }
        }
        summary.push_thing_node(untyped);

        summary.total_entities = graph.vertex_count_of_kind(VertexKind::Entity);
        summary.attribute_sources = vec![Vec::new(); graph.edge_label_count()];

        let mut edge_index = HashMap::new();
        let classes_of = |entity| entity_classes.of(entity).iter().copied();
        for e in graph.edges() {
            summary.project(graph, &mut edge_index, e, classes_of, |class| {
                node_of[class.index()]
            });
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
    /// * a **new `type` edge on an entity with pre-existing R-edges or
    ///   A-edges** — those R-edges would project onto different summary
    ///   edges in a rebuild, changing summary-edge ids mid-sequence, and
    ///   those A-edges' labels could lose `Thing` from their sources, which
    ///   only a scan of every edge with the label would tell.
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
            if graph.vertex(v).kind == VertexKind::Class {
                return None;
            }
        }
        // Rule 2: no new `type` edge on an entity that already had R-edges
        // (in either direction) or A-edges before the batch.
        for i in first_new_edge..graph.edge_count() {
            let edge = graph.edge(EdgeId::from_index(i as u32));
            if graph.edge_label(edge.label) != EdgeLabel::Type {
                continue;
            }
            let had_base_projection = graph
                .out_edges(edge.from)
                .iter()
                .chain(graph.in_edges(edge.from))
                .any(|&e| {
                    e.index() < first_new_edge
                        && matches!(
                            graph.edge_label(graph.edge(e).label),
                            EdgeLabel::Relation(_) | EdgeLabel::Attribute(_)
                        )
                });
            if had_base_projection {
                return None;
            }
        }

        let mut summary = self.clone();
        summary
            .attribute_sources
            .resize(graph.edge_label_count(), Vec::new());
        // Recover the build-time dedup map from the existing edges.
        let mut edge_index = summary
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.from, e.kind, e.to), SummaryEdgeId(i as u32)))
            .collect();

        // Project the new data edges in edge-id order — the order a rebuild
        // over the merged graph would visit them in. No whole-graph table:
        // the classes of the few entities a batch reaches are read off their
        // out-edges, and every class is pre-existing (rule 1).
        let class_nodes = &self.class_nodes;
        for i in first_new_edge..graph.edge_count() {
            summary.project(
                graph,
                &mut edge_index,
                EdgeId::from_index(i as u32),
                |entity| graph.classes_iter(entity),
                |class| class_nodes[&class],
            );
        }

        // Move the aggregates by the batch alone — to exactly the values a
        // rebuild would record. Each new `type` edge adds an instance to its
        // class; an entity typed for the first time leaves `Thing`, and a
        // new entity without a `type` edge joins it.
        let thing = summary.thing_node().index();
        let mut untyped = summary.nodes[thing].aggregated;
        for i in first_new_edge..graph.edge_count() {
            let e = EdgeId::from_index(i as u32);
            let edge = graph.edge(e);
            if graph.edge_label(edge.label) != EdgeLabel::Type {
                continue;
            }
            summary.nodes[class_nodes[&edge.to].index()].aggregated += 1;
            let first_type_edge = graph
                .out_edges(edge.from)
                .iter()
                .copied()
                .find(|&t| graph.edge_label(graph.edge(t).label) == EdgeLabel::Type);
            if edge.from.index() < first_new_vertex && first_type_edge == Some(e) {
                untyped -= 1;
            }
        }
        untyped += (first_new_vertex..graph.vertex_count())
            .map(|i| VertexId::from_index(i as u32))
            .filter(|&v| graph.is_untyped_entity(v))
            .count();
        summary.nodes[thing].aggregated = untyped;
        summary.total_entities = graph.vertex_count_of_kind(VertexKind::Entity);
        Some(summary)
    }

    /// Projects data edge `e` onto the schema level (Definition 4): a
    /// relation edge bumps the summary edge between every node of its
    /// source and every node of its target, a subclass edge the one
    /// between its two classes, and an attribute edge adds its source's
    /// nodes to its label's [`Self::attribute_sources`]. `classes_of`
    /// yields an entity's classes and `node_of` a class's node: the build's
    /// tables, or the graph and the class lookup on the write path — one
    /// projection for both.
    fn project<I: Iterator<Item = VertexId>>(
        &mut self,
        graph: &DataGraph,
        edge_index: &mut EdgeIndex,
        e: EdgeId,
        classes_of: impl Fn(VertexId) -> I,
        node_of: impl Fn(VertexId) -> SummaryNodeId,
    ) {
        let edge = graph.edge(e);
        let thing = self.thing_node();
        // An entity's nodes: its classes' nodes, or `Thing` when it is
        // untyped.
        let nodes_of = |entity| {
            let mut nodes = classes_of(entity).map(&node_of).peekable();
            let untyped = nodes.peek().is_none();
            nodes.chain(untyped.then_some(thing))
        };
        match graph.edge_label(edge.label) {
            EdgeLabel::Relation(_) => {
                self.total_relation_edges += 1;
                let kind = SummaryEdgeKind::Relation { label: edge.label };
                for f in nodes_of(edge.from) {
                    for t in nodes_of(edge.to) {
                        self.bump_edge(edge_index, kind, f, t);
                    }
                }
            }
            EdgeLabel::SubClass => {
                let (f, t) = (node_of(edge.from), node_of(edge.to));
                self.bump_edge(edge_index, SummaryEdgeKind::SubClass, f, t);
            }
            // A-edges and V-vertices are not part of the summary graph;
            // augmentation (Definition 5) adds them per query, from the
            // sources recorded here.
            EdgeLabel::Attribute(_) => {
                let sources = &mut self.attribute_sources[edge.label.index()];
                for node in nodes_of(edge.from) {
                    if let Err(at) = sources.binary_search(&node) {
                        sources.insert(at, node);
                    }
                }
            }
            EdgeLabel::Type => {}
        }
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

    fn bump_edge(
        &mut self,
        index: &mut EdgeIndex,
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

    /// A human-readable label for an edge.
    pub fn edge_label_name<'g>(&self, graph: &'g DataGraph, id: SummaryEdgeId) -> &'g str {
        match self.edges[id.index()].kind {
            SummaryEdgeKind::Relation { label } | SummaryEdgeKind::Attribute { label } => {
                graph.edge_label_name(label)
            }
            SummaryEdgeKind::SubClass => kwsearch_rdf::vocab::SUBCLASS,
        }
    }

    /// The nodes of the entities that carry attribute `label`, ascending:
    /// the nodes of their classes, and `Thing` (the last node) when one of
    /// them is untyped. Empty for a label no entity carries as an
    /// attribute.
    pub fn attribute_sources(&self, label: EdgeLabelId) -> &[SummaryNodeId] {
        self.attribute_sources
            .get(label.index())
            .map_or(&[], Vec::as_slice)
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
            + self.attribute_sources.iter().map(Vec::len).sum::<usize>()
                * std::mem::size_of::<SummaryNodeId>()
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

    /// The build before the entity → classes table: `instances_of` and
    /// `is_untyped_entity` per vertex, a `classes_of` `Vec` plus a
    /// `class_nodes` probe per endpoint of every relation edge, and the
    /// sources of each attribute label from a scan of that label's edges.
    /// [`SummaryGraph::build`] must be `==` to it.
    fn reference_build(graph: &DataGraph) -> SummaryGraph {
        let mut summary = SummaryGraph::default();
        for class in graph.vertices_of_kind(VertexKind::Class) {
            summary.push_class_node(class, graph.instances_of(class).len());
        }
        let untyped = graph
            .vertices_of_kind(VertexKind::Entity)
            .filter(|&v| graph.is_untyped_entity(v))
            .count();
        summary.push_thing_node(untyped);
        summary.total_entities = graph.vertex_count_of_kind(VertexKind::Entity);
        let nodes_of = |summary: &SummaryGraph, entity| -> Vec<SummaryNodeId> {
            let classes = graph.classes_of(entity);
            if classes.is_empty() {
                vec![summary.thing_node()]
            } else {
                classes
                    .into_iter()
                    .map(|c| summary.class_nodes[&c])
                    .collect()
            }
        };
        let mut edge_index = HashMap::new();
        for e in graph.edges() {
            let edge = graph.edge(e);
            match graph.edge_label(edge.label) {
                EdgeLabel::Relation(_) => {
                    summary.total_relation_edges += 1;
                    let kind = SummaryEdgeKind::Relation { label: edge.label };
                    for f in nodes_of(&summary, edge.from) {
                        for t in nodes_of(&summary, edge.to) {
                            summary.bump_edge(&mut edge_index, kind, f, t);
                        }
                    }
                }
                EdgeLabel::SubClass => {
                    let f = summary.class_nodes[&edge.from];
                    let t = summary.class_nodes[&edge.to];
                    summary.bump_edge(&mut edge_index, SummaryEdgeKind::SubClass, f, t);
                }
                EdgeLabel::Attribute(_) | EdgeLabel::Type => {}
            }
        }
        summary.attribute_sources = vec![Vec::new(); graph.edge_label_count()];
        for (label, _) in graph.edge_labels() {
            let mut sources = Vec::new();
            for e in graph.edges() {
                let edge = graph.edge(e);
                if edge.label == label && matches!(graph.edge_label(label), EdgeLabel::Attribute(_))
                {
                    sources.extend(nodes_of(&summary, edge.from));
                }
            }
            sources.sort();
            sources.dedup();
            summary.attribute_sources[label.index()] = sources;
        }
        summary
    }

    #[test]
    fn the_build_equals_the_reference_on_the_running_example_and_dblp() {
        let g = figure1_graph();
        assert_eq!(SummaryGraph::build(&g), reference_build(&g));
        let g = kwsearch_rdf::DataGraph::new();
        assert_eq!(SummaryGraph::build(&g), reference_build(&g));
        let g = kwsearch_datagen::DblpDataset::scaled(2_000).graph;
        assert_eq!(SummaryGraph::build(&g), reference_build(&g));
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// A `type`, relation, attribute or subclass triple over a few
        /// entities and classes: entities may carry several classes or
        /// none, and relations may loop.
        fn mixed_row() -> impl Strategy<Value = Triple> {
            (0usize..4, 0usize..10, 0usize..10, 0usize..4).prop_map(|(kind, s, o, c)| {
                let (subject, object) = (format!("e{s}"), format!("e{o}"));
                match kind {
                    0 => Triple::typed(subject, format!("C{c}")),
                    1 => Triple::relation(subject, ["author", "cites", "knows"][c % 3], object),
                    2 => Triple::attribute(
                        subject,
                        ["name", "title", "year"][c % 3],
                        format!("v{o}"),
                    ),
                    _ => Triple::subclass(format!("C{c}"), format!("C{}", o % 4)),
                }
            })
        }

        /// A `type` or an attribute triple over a few entities, classes and
        /// attribute labels, so that entities carrying only A-edges are
        /// typed for the first time, or typed again.
        fn typing_row() -> impl Strategy<Value = Triple> {
            (0usize..10, 0usize..3, 0usize..4, 0usize..4).prop_map(|(e, kind, c, a)| {
                let entity = format!("e{e}");
                if kind == 0 {
                    Triple::typed(entity, format!("C{c}"))
                } else {
                    Triple::attribute(
                        entity,
                        ["name", "title", "year", "note"][a],
                        format!("v{c}"),
                    )
                }
            })
        }

        fn triple() -> impl Strategy<Value = Triple> {
            prop_oneof![mixed_row(), typing_row()]
        }

        fn graph_of(triples: &[Triple]) -> DataGraph {
            let mut g = DataGraph::new();
            for t in triples {
                g.insert_triple(t).unwrap();
            }
            g
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The table-driven build is `==` to the per-edge reference.
            #[test]
            fn the_build_equals_the_reference_build(
                triples in proptest::collection::vec(triple(), 0..40),
            ) {
                let g = graph_of(&triples);
                prop_assert_eq!(SummaryGraph::build(&g), reference_build(&g));
            }

            /// Whenever `apply_adds` takes a batch, its aggregates, moved
            /// by the batch alone, and its edges equal a rebuild's.
            #[test]
            fn apply_adds_equals_a_rebuild(
                base in proptest::collection::vec(triple(), 0..30),
                batch in proptest::collection::vec(triple(), 1..10),
            ) {
                let mut g = graph_of(&base);
                let summary = SummaryGraph::build(&g);
                let (nv, ne) = (g.vertex_count(), g.edge_count());
                for t in &batch {
                    g.insert_triple(t).unwrap();
                }
                if let Some(incremental) = summary.apply_adds(&g, nv, ne) {
                    prop_assert_eq!(incremental, reference_build(&g));
                }
            }
        }
    }

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
    fn attribute_sources_are_the_carriers_nodes_with_thing_last() {
        let mut g = figure1_graph();
        let label = |g: &DataGraph, name| g.edge_labels_named(name)[0];
        let s = SummaryGraph::build(&g);
        let publication = s.node_of_class(g.class("Publication").unwrap()).unwrap();
        assert_eq!(s.attribute_sources(label(&g, "year")), [publication]);
        assert!(s.attribute_sources(label(&g, "author")).is_empty());

        g.insert_triple(&Triple::attribute("draftURI", "year", "2009"))
            .unwrap();
        let s = SummaryGraph::build(&g);
        assert_eq!(
            s.attribute_sources(label(&g, "year")),
            [publication, s.thing_node()]
        );
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

        // So does a type edge on an entity with only A-edges (a label's
        // `Thing` source could go, which only a rescan would tell).
        let mut attributed = base.clone();
        attributed
            .insert_triple(&Triple::attribute("draftURI", "year", "2009"))
            .unwrap();
        let attributed_summary = SummaryGraph::build(&attributed);
        let (nv, ne) = (attributed.vertex_count(), attributed.edge_count());
        attributed
            .insert_triple(&Triple::typed("draftURI", "Publication"))
            .unwrap();
        assert!(attributed_summary.apply_adds(&attributed, nv, ne).is_none());
        let (nv, ne) = (base.vertex_count(), base.edge_count());

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
