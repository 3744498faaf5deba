//! Ergonomic construction of data graphs.
//!
//! [`GraphBuilder`] is a thin, infallible-feeling layer over
//! [`DataGraph`]: the dataset generators, examples and tests describe data
//! in terms of classes, typed entities, attributes and relations instead of
//! raw triples. Structural mistakes (which cannot occur through this API)
//! still surface as panics with a clear message rather than silent
//! corruption.

use crate::graph::{DataGraph, EdgeLabel, VertexId};
use crate::triple::Triple;
use crate::Result;

/// Builder for [`DataGraph`]s.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    graph: DataGraph,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class and returns its vertex.
    pub fn class(&mut self, name: &str) -> VertexId {
        self.graph.add_class(name)
    }

    /// Declares that `sub` is a subclass of `sup` (creating both classes if
    /// necessary).
    pub fn subclass(&mut self, sub: &str, sup: &str) -> &mut Self {
        let s = self.graph.add_class(sub);
        let o = self.graph.add_class(sup);
        #[expect(
            clippy::expect_used,
            reason = "both endpoints were just created as class vertices, which add_edge accepts for SubClass"
        )]
        self.graph
            .add_edge(s, EdgeLabel::SubClass, o)
            .expect("class-to-class subclass edge is always valid");
        self
    }

    /// Declares an entity of the given class and returns its vertex.
    pub fn entity(&mut self, iri: &str, class: &str) -> VertexId {
        let e = self.graph.add_entity(iri);
        let c = self.graph.add_class(class);
        #[expect(
            clippy::expect_used,
            reason = "the endpoints were just created as entity and class vertices, which add_edge accepts for Type"
        )]
        self.graph
            .add_edge(e, EdgeLabel::Type, c)
            .expect("entity-to-class type edge is always valid");
        e
    }

    /// Adds an additional `type` edge to an existing or new entity.
    pub fn add_type(&mut self, iri: &str, class: &str) -> &mut Self {
        self.entity(iri, class);
        self
    }

    /// Adds an attribute assignment `attr(entity, value)`.
    pub fn attribute(&mut self, entity: &str, attr: &str, value: &str) -> &mut Self {
        let e = self.graph.add_entity(entity);
        let v = self.graph.add_value(value);
        let label = EdgeLabel::Attribute(self.graph.intern(attr));
        #[expect(
            clippy::expect_used,
            reason = "the endpoints were just created as entity and value vertices, which add_edge accepts for attributes"
        )]
        self.graph
            .add_edge(e, label, v)
            .expect("entity-to-value attribute edge is always valid");
        self
    }

    /// Adds a relation `pred(subject, object)` between two entities.
    pub fn relation(&mut self, subject: &str, pred: &str, object: &str) -> &mut Self {
        let s = self.graph.add_entity(subject);
        let o = self.graph.add_entity(object);
        let label = EdgeLabel::Relation(self.graph.intern(pred));
        #[expect(
            clippy::expect_used,
            reason = "both endpoints were just created as entity vertices, which add_edge accepts for relations"
        )]
        self.graph
            .add_edge(s, label, o)
            .expect("entity-to-entity relation edge is always valid");
        self
    }

    /// Inserts a raw triple (classification as in
    /// [`DataGraph::insert_triple`]).
    pub fn triple(&mut self, triple: &Triple) -> Result<&mut Self> {
        self.graph.insert_triple(triple)?;
        Ok(self)
    }

    /// Inserts many raw triples.
    pub fn triples<'a>(
        &mut self,
        triples: impl IntoIterator<Item = &'a Triple>,
    ) -> Result<&mut Self> {
        for t in triples {
            self.graph.insert_triple(t)?;
        }
        Ok(self)
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// Finalises the builder.
    pub fn finish(self) -> DataGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;
    use crate::stats::GraphStats;

    #[test]
    fn fluent_construction_produces_expected_graph() {
        let mut b = GraphBuilder::new();
        b.subclass("Researcher", "Person");
        b.entity("re1", "Researcher");
        b.attribute("re1", "name", "Thanh Tran");
        b.entity("inst1", "Institute");
        b.relation("re1", "worksAt", "inst1");
        let g = b.finish();

        let stats = GraphStats::compute(&g);
        assert_eq!(stats.entities, 2);
        assert_eq!(stats.classes, 3);
        assert_eq!(stats.values, 1);
        assert_eq!(stats.relation_edges, 1);
        assert_eq!(stats.attribute_edges, 1);
        assert_eq!(stats.type_edges, 2);
        assert_eq!(stats.subclass_edges, 1);
    }

    #[test]
    fn entity_declaration_is_idempotent() {
        let mut b = GraphBuilder::new();
        let a = b.entity("e", "C");
        let a2 = b.entity("e", "C");
        assert_eq!(a, a2);
        assert_eq!(b.graph().edge_count(), 1);
    }

    #[test]
    fn multiple_types_per_entity() {
        let mut b = GraphBuilder::new();
        b.entity("e", "Student");
        b.add_type("e", "Employee");
        let g = b.finish();
        let e = g.entity("e").unwrap();
        assert_eq!(g.classes_of(e).len(), 2);
    }

    #[test]
    fn raw_triples_can_be_mixed_in() {
        let mut b = GraphBuilder::new();
        b.entity("p", "Publication");
        b.triples(&[
            Triple::attribute("p", "year", "2006"),
            Triple::relation("p", "author", "a"),
        ])
        .unwrap();
        let g = b.finish();
        assert_eq!(g.vertex_count_of_kind(VertexKind::Value), 1);
        assert!(g.entity("a").is_some());
    }

    #[test]
    fn builder_graph_accessor_reflects_progress() {
        let mut b = GraphBuilder::new();
        assert_eq!(b.graph().vertex_count(), 0);
        b.entity("x", "C");
        assert_eq!(b.graph().vertex_count(), 2);
    }
}
