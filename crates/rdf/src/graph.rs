//! The typed RDF data graph of Definition 1.
//!
//! A [`DataGraph`] keeps three disjoint vertex partitions — entities
//! (E-vertices), classes (C-vertices) and values (V-vertices) — and four
//! kinds of labelled, directed edges (relations, attributes, `type`,
//! `subclass`). Each is kept once: a vertex per partition and label, found
//! through one table indexed by the label's [`Symbol`]; an edge per
//! `(source, label, target)`, found by scanning the shorter of the source's
//! out-edges and the target's in-edges. An insert thus costs
//! `O(min(out-degree of the subject, in-degree of the object))`, and all
//! inserts `O(n²)` only for `n` distinct predicates between one
//! subject–object pair.
//!
//! The graph offers the adjacency and classification queries needed by
//! the summary-graph construction, the keyword index, the baselines and the
//! conjunctive-query evaluator.

use std::collections::HashMap;

use crate::error::RdfError;
use crate::interner::{Interner, Symbol};
use crate::snapshot::{SectionDecoder, SectionEncoder, SnapshotError};
use crate::term::TermRef;
use crate::triple::{EdgeKind, Triple, TripleRef};
use crate::vocab;
use crate::Result;

/// Index of a vertex inside a [`DataGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// Dense numeric index of this vertex.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a vertex id from its dense index (snapshot loading).
    /// The caller is responsible for the index being in range for the
    /// graph the id is used with.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        Self(index)
    }
}

/// Index of an edge inside a [`DataGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Dense numeric index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an edge id from its dense index. The caller is
    /// responsible for the index being in range for the graph the id is
    /// used with.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        Self(index)
    }
}

/// Index of a distinct edge label inside a [`DataGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeLabelId(pub(crate) u32);

impl EdgeLabelId {
    /// Dense numeric index of this edge label.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an edge-label id from its dense index (snapshot
    /// loading). The caller is responsible for the index being in range.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        Self(index)
    }
}

/// The partition a vertex belongs to. The discriminant is the kind's tag in
/// a snapshot and its slot in the graph's label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VertexKind {
    /// An E-vertex: an entity identified by an IRI.
    Entity = 0,
    /// A C-vertex: a class.
    Class = 1,
    /// A V-vertex: a data value.
    Value = 2,
}

/// Every [`VertexKind`], indexed by its discriminant.
const VERTEX_KINDS: [VertexKind; 3] = [VertexKind::Entity, VertexKind::Class, VertexKind::Value];

/// An empty slot of the label table: no vertex of that kind has the label.
const NO_VERTEX: u32 = u32::MAX;

/// Whether Definition 1 lets an edge of `kind` run from a `from` vertex to a
/// `to` vertex: the one kind rule of inserts and snapshot loads.
fn kinds_fit(kind: EdgeKind, from: VertexKind, to: VertexKind) -> bool {
    use VertexKind::{Class, Entity, Value};
    matches!(
        (kind, from, to),
        (EdgeKind::Relation, Entity, Entity)
            | (EdgeKind::Attribute, Entity, Value)
            | (EdgeKind::Type, Entity, Class)
            | (EdgeKind::SubClass, Class, Class)
    )
}

impl VertexKind {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            VertexKind::Entity => "entity",
            VertexKind::Class => "class",
            VertexKind::Value => "value",
        }
    }
}

/// A vertex of the data graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vertex {
    /// Partition of the vertex.
    pub kind: VertexKind,
    /// Interned label (IRI, class name or literal value).
    pub label: Symbol,
}

/// A distinct edge label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeLabel {
    /// An inter-entity relation label (`L_R`).
    Relation(Symbol),
    /// An entity-to-value attribute label (`L_A`).
    Attribute(Symbol),
    /// The predefined `type` label.
    Type,
    /// The predefined `subclass` label.
    SubClass,
}

impl EdgeLabel {
    /// The [`EdgeKind`] this label belongs to.
    pub fn kind(self) -> EdgeKind {
        match self {
            EdgeLabel::Relation(_) => EdgeKind::Relation,
            EdgeLabel::Attribute(_) => EdgeKind::Attribute,
            EdgeLabel::Type => EdgeKind::Type,
            EdgeLabel::SubClass => EdgeKind::SubClass,
        }
    }

    /// The label symbol for relation/attribute labels.
    pub fn symbol(self) -> Option<Symbol> {
        match self {
            EdgeLabel::Relation(s) | EdgeLabel::Attribute(s) => Some(s),
            EdgeLabel::Type | EdgeLabel::SubClass => None,
        }
    }
}

/// A directed, labelled edge of the data graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Identifier of the edge label.
    pub label: EdgeLabelId,
    /// Source vertex.
    pub from: VertexId,
    /// Target vertex.
    pub to: VertexId,
}

/// The edges of one vertex: its slice of the derived base, then the edges
/// appended after the base was derived.
///
/// Both parts are in ascending edge id and every base edge predates every
/// appended one, so iteration yields the edges in insertion order however
/// the graph was built.
#[derive(Clone, Copy)]
pub struct EdgesRef<'a> {
    base: &'a [EdgeId],
    appended: &'a [EdgeId],
}

impl<'a> EdgesRef<'a> {
    /// Total number of edges (base + appended).
    pub fn len(&self) -> usize {
        self.base.len() + self.appended.len()
    }

    /// Whether the vertex has no edges in this direction.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.appended.is_empty()
    }

    /// Iterates over all edges, base before appended.
    pub fn iter(
        &self,
    ) -> std::iter::Chain<std::slice::Iter<'a, EdgeId>, std::slice::Iter<'a, EdgeId>> {
        self.base.iter().chain(self.appended.iter())
    }
}

impl<'a> IntoIterator for EdgesRef<'a> {
    type Item = &'a EdgeId;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, EdgeId>, std::slice::Iter<'a, EdgeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.base.iter().chain(self.appended.iter())
    }
}

impl PartialEq for EdgesRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for EdgesRef<'_> {}

impl std::fmt::Debug for EdgesRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The per-vertex edge lists of one direction: an immutable base derived
/// from the edge columns, plus per-vertex lists of the edges appended after
/// it.
///
/// The edges of vertex `v` are `flat[offsets[v]..offsets[v + 1]]`, then
/// `appended[v]`. A graph built by inserts has an empty base and appends
/// every edge. A graph loaded from a snapshot or cut by
/// [`DataGraph::edge_subset`] derives its base in two flat columns, with no
/// per-vertex allocation, and a later write appends only its own edges:
/// O(delta), not O(graph). A vertex added after the base has an empty base
/// slice, and `appended` grows on demand.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    offsets: Vec<u32>,
    flat: Vec<EdgeId>,
    appended: Vec<Vec<EdgeId>>,
}

const NO_EDGES: &[EdgeId] = &[];

impl Adjacency {
    /// Derives the base for `n_vertices` vertices from the edge columns: the
    /// edges of each vertex (the `endpoint` of the edge), in ascending edge
    /// id. Every `endpoint` must be below `n_vertices`.
    fn derive(n_vertices: usize, edges: &[Edge], endpoint: fn(&Edge) -> VertexId) -> Self {
        let mut flat = vec![EdgeId(0); edges.len()];
        let offsets = counting_sort(
            edges,
            &mut flat,
            n_vertices,
            |edge| endpoint(edge).index(),
            |i, _| EdgeId(i as u32),
        );
        Self {
            offsets,
            flat,
            appended: Vec::new(),
        }
    }

    /// The edges of vertex `v`.
    #[inline]
    fn edges(&self, v: usize) -> EdgesRef<'_> {
        EdgesRef {
            base: self.offsets.get(v..v + 2).map_or(NO_EDGES, |range| {
                &self.flat[range[0] as usize..range[1] as usize]
            }),
            appended: self.appended.get(v).map_or(NO_EDGES, Vec::as_slice),
        }
    }

    /// Appends an edge to the list of vertex `v`.
    fn push_edge(&mut self, v: usize, e: EdgeId) {
        if self.appended.len() <= v {
            self.appended.resize_with(v + 1, Vec::new);
        }
        self.appended[v].push(e);
    }
}

/// A stable counting sort: writes `emit(i, &src[i])` for every element into
/// `dst` (of `src`'s length), ordered by `bucket`, with equal buckets in
/// index order. Counts per bucket, prefix-sums the counts into range ends,
/// then scatters from the last element down, each into the highest free
/// slot of its bucket. Returns the bucket starts: `buckets + 1` offsets, the
/// last equal to `src.len()`, so bucket `b` is `dst[offsets[b]..offsets[b +
/// 1]]`. Every bucket must be below `buckets`, and `src.len()` must fit a
/// `u32`.
///
/// `O(src.len() + buckets)`: the one sort behind the adjacency, the
/// [`EntityClasses`], the triple store's permutations and the keyword
/// index's posting lists.
pub fn counting_sort<S, T>(
    src: &[S],
    dst: &mut [T],
    buckets: usize,
    bucket: impl Fn(&S) -> usize,
    emit: impl Fn(usize, &S) -> T,
) -> Vec<u32> {
    let mut offsets = vec![0u32; buckets + 1];
    for item in src {
        offsets[bucket(item)] += 1;
    }
    let mut end = 0;
    for offset in &mut offsets {
        end += *offset;
        *offset = end;
    }
    for (i, item) in src.iter().enumerate().rev() {
        let slot = &mut offsets[bucket(item)];
        *slot -= 1;
        dst[*slot as usize] = emit(i, item);
    }
    offsets
}

/// The classes of every vertex, as [`DataGraph::entity_classes`] derives
/// them: the targets of each vertex's `type` edges in edge-id order, so
/// [`Self::of`] equals [`DataGraph::classes_of`] vertex for vertex.
///
/// Two flat columns bucketed by a [`counting_sort`] of the `type` edges on
/// their source; only entities have `type` edges, so every other vertex
/// has an empty slice.
#[derive(Debug, Clone)]
pub struct EntityClasses {
    offsets: Vec<u32>,
    classes: Vec<VertexId>,
}

impl EntityClasses {
    /// The classes of `entity`, in the order of its `type` edges.
    #[inline]
    pub fn of(&self, entity: VertexId) -> &[VertexId] {
        let v = entity.index();
        &self.classes[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The in-memory typed RDF data graph.
#[derive(Debug, Default, Clone)]
pub struct DataGraph {
    interner: Interner,
    vertices: Vec<Vertex>,
    /// The vertex each label names, indexed by the label's symbol, one slot
    /// per [`VertexKind`] ([`NO_VERTEX`] when none). It may end before the
    /// interner's last symbol.
    vertex_of: Vec<[u32; 3]>,
    edges: Vec<Edge>,
    edge_labels: Vec<EdgeLabel>,
    edge_label_ids: HashMap<EdgeLabel, EdgeLabelId>,
    out_adj: Adjacency,
    in_adj: Adjacency,
}

impl DataGraph {
    /// Creates an empty data graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Labels
    // ------------------------------------------------------------------

    /// Interns a label string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves an interned label back to text.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Looks up an already interned label.
    pub fn symbol(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    /// Shared access to the interner (for size accounting).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    // ------------------------------------------------------------------
    // Vertices
    // ------------------------------------------------------------------

    /// Returns the vertex of `kind` labelled `label`, creating it if
    /// necessary.
    fn add_vertex(&mut self, kind: VertexKind, label: &str) -> VertexId {
        let label = self.interner.intern(label);
        if self.vertex_of.len() <= label.index() {
            self.vertex_of.resize(label.index() + 1, [NO_VERTEX; 3]);
        }
        let slot = &mut self.vertex_of[label.index()][kind as usize];
        if *slot == NO_VERTEX {
            *slot = self.vertices.len() as u32;
            self.vertices.push(Vertex { kind, label });
        }
        VertexId(*slot)
    }

    /// The vertex of `kind` labelled `label`, if there is one.
    fn vertex_labelled(&self, kind: VertexKind, label: &str) -> Option<VertexId> {
        let v = self.vertex_of.get(self.interner.get(label)?.index())?[kind as usize];
        (v != NO_VERTEX).then_some(VertexId(v))
    }

    /// Returns the E-vertex with the given IRI, creating it if necessary.
    pub fn add_entity(&mut self, iri: &str) -> VertexId {
        self.add_vertex(VertexKind::Entity, iri)
    }

    /// Returns the C-vertex with the given class name, creating it if necessary.
    pub fn add_class(&mut self, name: &str) -> VertexId {
        self.add_vertex(VertexKind::Class, name)
    }

    /// Returns the V-vertex with the given literal value, creating it if necessary.
    pub fn add_value(&mut self, value: &str) -> VertexId {
        self.add_vertex(VertexKind::Value, value)
    }

    /// The vertex record for `v`.
    pub fn vertex(&self, v: VertexId) -> Vertex {
        self.vertices[v.index()]
    }

    /// The partition `v` belongs to.
    pub fn vertex_kind(&self, v: VertexId) -> VertexKind {
        self.vertices[v.index()].kind
    }

    /// The label text of `v`.
    pub fn vertex_label(&self, v: VertexId) -> &str {
        self.interner.resolve(self.vertices[v.index()].label)
    }

    /// Looks up an entity vertex by IRI.
    pub fn entity(&self, iri: &str) -> Option<VertexId> {
        self.vertex_labelled(VertexKind::Entity, iri)
    }

    /// Looks up a class vertex by name.
    pub fn class(&self, name: &str) -> Option<VertexId> {
        self.vertex_labelled(VertexKind::Class, name)
    }

    /// Looks up a value vertex by literal text.
    pub fn value(&self, value: &str) -> Option<VertexId> {
        self.vertex_labelled(VertexKind::Value, value)
    }

    /// Looks up a vertex by label in all three partitions (entity, class,
    /// value — in that order).
    pub fn vertex_by_label(&self, label: &str) -> Option<VertexId> {
        self.entity(label)
            .or_else(|| self.class(label))
            .or_else(|| self.value(label))
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of vertices of the given kind (a scan of the vertices).
    pub fn vertex_count_of_kind(&self, kind: VertexKind) -> usize {
        self.vertices.iter().filter(|v| v.kind == kind).count()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterates over vertices of a given kind.
    pub fn vertices_of_kind(&self, kind: VertexKind) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices()
            .filter(move |&v| self.vertex_kind(v) == kind)
    }

    // ------------------------------------------------------------------
    // Edge labels
    // ------------------------------------------------------------------

    /// Returns the id of `label`, registering it if necessary.
    pub fn ensure_edge_label(&mut self, label: EdgeLabel) -> EdgeLabelId {
        if let Some(&id) = self.edge_label_ids.get(&label) {
            return id;
        }
        let id = EdgeLabelId(self.edge_labels.len() as u32);
        self.edge_labels.push(label);
        self.edge_label_ids.insert(label, id);
        id
    }

    /// Looks up a registered edge label.
    pub fn edge_label_id(&self, label: &EdgeLabel) -> Option<EdgeLabelId> {
        self.edge_label_ids.get(label).copied()
    }

    /// The edge label for an id.
    pub fn edge_label(&self, id: EdgeLabelId) -> EdgeLabel {
        self.edge_labels[id.index()]
    }

    /// The textual name of an edge label (`type`, `subclass` or the
    /// relation/attribute name).
    pub fn edge_label_name(&self, id: EdgeLabelId) -> &str {
        match self.edge_labels[id.index()] {
            EdgeLabel::Relation(s) | EdgeLabel::Attribute(s) => self.interner.resolve(s),
            EdgeLabel::Type => vocab::TYPE,
            EdgeLabel::SubClass => vocab::SUBCLASS,
        }
    }

    /// Number of distinct edge labels.
    pub fn edge_label_count(&self) -> usize {
        self.edge_labels.len()
    }

    /// Iterates over all registered edge labels.
    pub fn edge_labels(&self) -> impl Iterator<Item = (EdgeLabelId, EdgeLabel)> + '_ {
        self.edge_labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (EdgeLabelId(i as u32), l))
    }

    /// Finds the relation and/or attribute labels with the given name.
    pub fn edge_labels_named(&self, name: &str) -> Vec<EdgeLabelId> {
        if name == vocab::TYPE {
            return self.edge_label_id(&EdgeLabel::Type).into_iter().collect();
        }
        if name == vocab::SUBCLASS {
            return self
                .edge_label_id(&EdgeLabel::SubClass)
                .into_iter()
                .collect();
        }
        let Some(sym) = self.interner.get(name) else {
            return Vec::new();
        };
        [EdgeLabel::Relation(sym), EdgeLabel::Attribute(sym)]
            .into_iter()
            .filter_map(|l| self.edge_label_id(&l))
            .collect()
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    fn validate_edge(&self, label: EdgeLabel, from: VertexId, to: VertexId) -> Result<()> {
        // A relation or attribute spelled `type` or `subclass` would read
        // back as a reserved edge (see `triple_ref`).
        if let EdgeLabel::Relation(s) | EdgeLabel::Attribute(s) = label {
            let name = self.interner.resolve(s);
            if vocab::is_reserved_predicate(name) {
                return Err(RdfError::InvalidEdge {
                    reason: format!("{} label `{name}` is reserved", label.kind()),
                });
            }
        }
        let from_kind = self.vertex_kind(from);
        let to_kind = self.vertex_kind(to);
        if kinds_fit(label.kind(), from_kind, to_kind) {
            Ok(())
        } else {
            Err(RdfError::InvalidEdge {
                reason: format!(
                    "{} edge from {} vertex `{}` to {} vertex `{}` violates Definition 1",
                    label.kind(),
                    from_kind.name(),
                    self.vertex_label(from),
                    to_kind.name(),
                    self.vertex_label(to)
                ),
            })
        }
    }

    /// Adds an edge, validating the vertex kinds against Definition 1. A
    /// relation or attribute label named `type` or `subclass` is refused.
    ///
    /// A `(from, label, to)` already present is not added again: its id is
    /// returned, found by scanning the shorter of `from`'s out-edges and
    /// `to`'s in-edges in `O(min(out-degree of from, in-degree of to))`.
    /// All inserts cost `O(n²)` only for `n` distinct predicates between one
    /// subject–object pair.
    pub fn add_edge(&mut self, from: VertexId, label: EdgeLabel, to: VertexId) -> Result<EdgeId> {
        self.validate_edge(label, from, to)?;
        let edge = Edge {
            label: self.ensure_edge_label(label),
            from,
            to,
        };
        let (out, into) = (self.out_edges(from), self.in_edges(to));
        let shorter = if out.len() <= into.len() { out } else { into };
        if let Some(&e) = shorter.iter().find(|e| self.edges[e.index()] == edge) {
            return Ok(e);
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(edge);
        self.out_adj.push_edge(from.index(), id);
        self.in_adj.push_edge(to.index(), id);
        Ok(id)
    }

    /// The edge that spells `triple`, if the graph holds it: the out-edge
    /// of the entity or the class its subject names whose
    /// [`Self::triple_ref`] equals it. `Some` exactly when [`Self::triples`]
    /// contains `triple`.
    pub fn find_triple(&self, triple: &Triple) -> Option<EdgeId> {
        if !triple.subject.is_iri() {
            return None;
        }
        let t = triple.as_ref();
        let subjects = [self.entity(t.subject), self.class(t.subject)];
        let mut out = subjects
            .into_iter()
            .flatten()
            .flat_map(|s| self.out_edges(s));
        out.find(|&&e| self.triple_ref(e) == t).copied()
    }

    /// Inserts a triple, creating the vertices it refers to.
    pub fn insert_triple(&mut self, triple: &Triple) -> Result<EdgeId> {
        self.insert_triple_ref(&triple.as_ref())
    }

    /// Builds the malformed-schema-triple error off the hot ingest path —
    /// the allocation only ever happens on invalid input.
    #[cold]
    fn literal_object_error(kind: &str, value: &str) -> RdfError {
        RdfError::InvalidEdge {
            reason: format!("`{kind}` triple with literal object \"{value}\""),
        }
    }

    /// Inserts a borrowed triple, creating the vertices it refers to.
    ///
    /// This is the one insertion path: [`Self::insert_triple`] borrows its
    /// owned [`Triple`] and calls it, so a graph ingested from a stream is
    /// bit-identical to one built from owned triples, and the streamed
    /// ingest never allocates an intermediate `String`.
    pub fn insert_triple_ref(&mut self, triple: &TripleRef<'_>) -> Result<EdgeId> {
        match triple.edge_kind() {
            EdgeKind::Type => {
                if !triple.object.is_iri() {
                    return Err(Self::literal_object_error("type", triple.object.value()));
                }
                let s = self.add_entity(triple.subject);
                let o = self.add_class(triple.object.value());
                self.add_edge(s, EdgeLabel::Type, o)
            }
            EdgeKind::SubClass => {
                if !triple.object.is_iri() {
                    return Err(Self::literal_object_error(
                        "subclass",
                        triple.object.value(),
                    ));
                }
                let s = self.add_class(triple.subject);
                let o = self.add_class(triple.object.value());
                self.add_edge(s, EdgeLabel::SubClass, o)
            }
            EdgeKind::Relation => {
                let s = self.add_entity(triple.subject);
                let o = self.add_entity(triple.object.value());
                let p = self.interner.intern(triple.predicate);
                self.add_edge(s, EdgeLabel::Relation(p), o)
            }
            EdgeKind::Attribute => {
                let s = self.add_entity(triple.subject);
                let o = self.add_value(triple.object.value());
                let p = self.interner.intern(triple.predicate);
                self.add_edge(s, EdgeLabel::Attribute(p), o)
            }
        }
    }

    /// The edge record for `e`.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> EdgesRef<'_> {
        self.out_adj.edges(v.index())
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> EdgesRef<'_> {
        self.in_adj.edges(v.index())
    }

    /// Undirected degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_adj.edges(v.index()).len() + self.in_adj.edges(v.index()).len()
    }

    /// All vertices adjacent to `v` (through incoming or outgoing edges),
    /// together with the connecting edge. Used by the baseline algorithms
    /// that explore the full data graph.
    pub fn neighbors(&self, v: VertexId) -> Vec<(EdgeId, VertexId)> {
        let mut out = Vec::with_capacity(self.degree(v));
        for &e in self.out_adj.edges(v.index()) {
            out.push((e, self.edges[e.index()].to));
        }
        for &e in self.in_adj.edges(v.index()) {
            out.push((e, self.edges[e.index()].from));
        }
        out
    }

    // ------------------------------------------------------------------
    // Class structure helpers
    // ------------------------------------------------------------------

    /// The classes an entity is a direct instance of (targets of its `type`
    /// edges).
    pub fn classes_of(&self, entity: VertexId) -> Vec<VertexId> {
        self.classes_iter(entity).collect()
    }

    /// [`Self::classes_of`] without the `Vec`: the targets of `entity`'s
    /// `type` edges, in edge-id order, read off its out-edges.
    pub fn classes_iter(&self, entity: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_adj
            .edges(entity.index())
            .into_iter()
            .map(|&e| self.edges[e.index()])
            .filter(|edge| self.edge_label(edge.label) == EdgeLabel::Type)
            .map(|edge| edge.to)
    }

    /// [`Self::classes_of`] for every vertex at once, derived in one pass
    /// over the `type` edges: the table an off-line build reads instead of
    /// walking each entity's out-edges.
    pub fn entity_classes(&self) -> EntityClasses {
        let typed: Vec<Edge> = match self.edge_label_id(&EdgeLabel::Type) {
            Some(type_label) => self
                .edges
                .iter()
                .filter(|edge| edge.label == type_label)
                .copied()
                .collect(),
            None => Vec::new(),
        };
        let mut classes = vec![VertexId(0); typed.len()];
        let offsets = counting_sort(
            &typed,
            &mut classes,
            self.vertices.len(),
            |edge| edge.from.index(),
            |_, edge| edge.to,
        );
        EntityClasses { offsets, classes }
    }

    /// The direct instances of a class (sources of its incoming `type` edges).
    pub fn instances_of(&self, class: VertexId) -> Vec<VertexId> {
        let mut instances = Vec::new();
        for &e in self.in_adj.edges(class.index()) {
            let edge = self.edges[e.index()];
            if self.edge_label(edge.label) == EdgeLabel::Type {
                instances.push(edge.from);
            }
        }
        instances
    }

    /// Direct super-classes of a class.
    pub fn superclasses_of(&self, class: VertexId) -> Vec<VertexId> {
        let mut supers = Vec::new();
        for &e in self.out_adj.edges(class.index()) {
            let edge = self.edges[e.index()];
            if self.edge_label(edge.label) == EdgeLabel::SubClass {
                supers.push(edge.to);
            }
        }
        supers
    }

    /// Direct sub-classes of a class.
    pub fn subclasses_of(&self, class: VertexId) -> Vec<VertexId> {
        let mut subs = Vec::new();
        for &e in self.in_adj.edges(class.index()) {
            let edge = self.edges[e.index()];
            if self.edge_label(edge.label) == EdgeLabel::SubClass {
                subs.push(edge.from);
            }
        }
        subs
    }

    /// Whether an entity has no `type` edge (it is aggregated under `Thing`
    /// in the summary graph).
    pub fn is_untyped_entity(&self, v: VertexId) -> bool {
        self.vertex_kind(v) == VertexKind::Entity && self.classes_iter(v).next().is_none()
    }

    // ------------------------------------------------------------------
    // Edge-subset views (sharding)
    // ------------------------------------------------------------------

    /// Builds a new graph over the **same id space** as `self` — identical
    /// interner, vertex table, label table and edge-label table —
    /// containing exactly the edges selected by `keep`.
    ///
    /// This is the construction primitive of graph sharding: every
    /// [`VertexId`], [`Symbol`] and [`EdgeLabelId`] of the original graph
    /// remains valid (and means the same thing) in every subset, so results
    /// computed against different subsets are directly comparable — and
    /// mergeable — without any id translation. Edge ids are re-densified;
    /// kept edges preserve their relative insertion order, which keeps the
    /// per-vertex adjacency order identical to a graph into which only the
    /// kept triples had been inserted.
    ///
    /// Vertices that lose all their edges stay present (as isolated
    /// vertices): dropping them would shift the id space and break
    /// cross-subset comparability.
    pub fn edge_subset(&self, mut keep: impl FnMut(EdgeId, &Edge) -> bool) -> DataGraph {
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .enumerate()
            .filter(|&(i, edge)| keep(EdgeId(i as u32), edge))
            .map(|(_, &edge)| edge)
            .collect();
        let n = self.vertices.len();
        DataGraph {
            interner: self.interner.clone(),
            vertices: self.vertices.clone(),
            vertex_of: self.vertex_of.clone(),
            out_adj: Adjacency::derive(n, &edges, |e| e.from),
            in_adj: Adjacency::derive(n, &edges, |e| e.to),
            edges,
            edge_labels: self.edge_labels.clone(),
            edge_label_ids: self.edge_label_ids.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Export
    // ------------------------------------------------------------------

    /// Edge `e` spelled as a triple, borrowing the graph's labels: the one
    /// place an edge becomes a triple. An attribute's object is a literal,
    /// every other object an IRI.
    pub fn triple_ref(&self, e: EdgeId) -> TripleRef<'_> {
        let edge = self.edges[e.index()];
        let object = self.vertex_label(edge.to);
        TripleRef {
            subject: self.vertex_label(edge.from),
            predicate: self.edge_label_name(edge.label),
            object: match self.edge_label(edge.label) {
                EdgeLabel::Attribute(_) => TermRef::Literal(object),
                _ => TermRef::Iri(object),
            },
        }
    }

    /// Reconstructs the triples of the graph, in edge order.
    pub fn triples(&self) -> Vec<Triple> {
        self.edges()
            .map(|e| self.triple_ref(e).to_triple())
            .collect()
    }

    // ------------------------------------------------------------------
    // Snapshot
    // ------------------------------------------------------------------

    /// Serialises the graph into a snapshot section as flat buffers:
    /// interner, vertex kind/label columns, edge label table and edge
    /// columns. Adjacency is not stored: it is a function of the edge
    /// columns, so the bytes do not depend on how the graph was built.
    pub fn write_snapshot(&self, enc: &mut SectionEncoder) {
        self.interner.write_snapshot(enc);

        let kinds: Vec<u32> = self.vertices.iter().map(|v| v.kind as u32).collect();
        let labels: Vec<u32> = self.vertices.iter().map(|v| v.label.0).collect();
        enc.put_u32_slice(&kinds);
        enc.put_u32_slice(&labels);

        let mut label_tags = Vec::with_capacity(self.edge_labels.len());
        let mut label_syms = Vec::with_capacity(self.edge_labels.len());
        for label in &self.edge_labels {
            let (tag, sym) = match *label {
                EdgeLabel::Relation(s) => (0, s.0),
                EdgeLabel::Attribute(s) => (1, s.0),
                EdgeLabel::Type => (2, u32::MAX),
                EdgeLabel::SubClass => (3, u32::MAX),
            };
            label_tags.push(tag);
            label_syms.push(sym);
        }
        enc.put_u32_slice(&label_tags);
        enc.put_u32_slice(&label_syms);

        let edge_labels: Vec<u32> = self.edges.iter().map(|e| e.label.0).collect();
        let edge_from: Vec<u32> = self.edges.iter().map(|e| e.from.0).collect();
        let edge_to: Vec<u32> = self.edges.iter().map(|e| e.to.0).collect();
        enc.put_u32_slice(&edge_labels);
        enc.put_u32_slice(&edge_from);
        enc.put_u32_slice(&edge_to);
    }

    /// Rebuilds a graph from [`Self::write_snapshot`] output.
    ///
    /// Flat columns are bulk-loaded, and the label table and the edge label
    /// lookup map are re-derived in the same pass. Both adjacency
    /// directions are derived from the validated edge columns by one
    /// counting sort each, into two flat columns per direction.
    ///
    /// The load checks what insertion enforces on vertices and edges alone:
    /// each vertex label once per partition, no relation or attribute label
    /// named `type` or `subclass`, and each edge within the kind rule of
    /// Definition 1. A breach is [`SnapshotError::Corrupt`]. A
    /// repeated `(from, label, to)` is left to the loader that derives the
    /// SPO order, where it sits next to its twin
    /// ([`TripleStore::repeated_row`](crate::TripleStore::repeated_row)).
    pub fn read_snapshot(dec: &mut SectionDecoder<'_>) -> std::result::Result<Self, SnapshotError> {
        let interner = Interner::read_snapshot(dec)?;

        let kinds = dec.get_u32_column()?;
        let labels = dec.get_u32_column()?;
        if kinds.len() != labels.len() {
            return Err(dec.corrupt("vertex kind and label columns differ in length"));
        }
        let n_syms = interner.len() as u32;
        let mut vertices = Vec::with_capacity(kinds.len());
        let mut vertex_of = vec![[NO_VERTEX; 3]; interner.len()];
        for (i, (kind, label)) in kinds.iter().zip(labels.iter()).enumerate() {
            if label >= n_syms {
                return Err(dec.corrupt(format!("vertex {i} label out of interner range")));
            }
            let Some(&kind) = VERTEX_KINDS.get(kind as usize) else {
                return Err(dec.corrupt(format!("vertex {i} has bad kind tag {kind}")));
            };
            let slot = &mut vertex_of[label as usize][kind as usize];
            if *slot != NO_VERTEX {
                return Err(dec.corrupt(format!("duplicate vertex label in partition at {i}")));
            }
            *slot = i as u32;
            vertices.push(Vertex {
                kind,
                label: Symbol(label),
            });
        }

        let label_tags = dec.get_u32_vec()?;
        let label_syms = dec.get_u32_vec()?;
        if label_tags.len() != label_syms.len() {
            return Err(dec.corrupt("edge label tag and symbol columns differ in length"));
        }
        let mut edge_labels = Vec::with_capacity(label_tags.len());
        let mut edge_label_ids = HashMap::new();
        for (i, (&tag, &sym)) in label_tags.iter().zip(&label_syms).enumerate() {
            let label = match tag {
                0 | 1 => {
                    if sym >= n_syms {
                        return Err(
                            dec.corrupt(format!("edge label {i} symbol out of interner range"))
                        );
                    }
                    if vocab::is_reserved_predicate(interner.resolve(Symbol(sym))) {
                        return Err(dec.corrupt(format!("edge label {i} has a reserved name")));
                    }
                    if tag == 0 {
                        EdgeLabel::Relation(Symbol(sym))
                    } else {
                        EdgeLabel::Attribute(Symbol(sym))
                    }
                }
                2 => EdgeLabel::Type,
                3 => EdgeLabel::SubClass,
                other => return Err(dec.corrupt(format!("edge label {i} has bad tag {other}"))),
            };
            if edge_label_ids
                .insert(label, EdgeLabelId(i as u32))
                .is_some()
            {
                return Err(dec.corrupt(format!("duplicate edge label at {i}")));
            }
            edge_labels.push(label);
        }

        let e_labels = dec.get_u32_column()?;
        let e_from = dec.get_u32_column()?;
        let e_to = dec.get_u32_column()?;
        if e_labels.len() != e_from.len() || e_labels.len() != e_to.len() {
            return Err(dec.corrupt("edge columns differ in length"));
        }
        let n_vertices = vertices.len() as u32;
        let n_labels = edge_labels.len() as u32;
        let mut edges = Vec::with_capacity(e_labels.len());
        for (i, ((label, from), to)) in e_labels
            .iter()
            .zip(e_from.iter())
            .zip(e_to.iter())
            .enumerate()
        {
            if label >= n_labels || from >= n_vertices || to >= n_vertices {
                return Err(dec.corrupt(format!("edge {i} refers past the tables")));
            }
            let kind = edge_labels[label as usize].kind();
            if !kinds_fit(
                kind,
                vertices[from as usize].kind,
                vertices[to as usize].kind,
            ) {
                return Err(dec.corrupt(format!("{kind} edge {i} violates Definition 1")));
            }
            edges.push(Edge {
                label: EdgeLabelId(label),
                from: VertexId(from),
                to: VertexId(to),
            });
        }

        Ok(Self {
            interner,
            out_adj: Adjacency::derive(vertices.len(), &edges, |e| e.from),
            in_adj: Adjacency::derive(vertices.len(), &edges, |e| e.to),
            vertices,
            vertex_of,
            edges,
            edge_labels,
            edge_label_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    /// Builds the running-example graph of Fig. 1a in the paper.
    pub(crate) fn example_graph() -> DataGraph {
        let mut g = DataGraph::new();
        let triples = vec![
            Triple::typed("pro2URI", "Project"),
            Triple::typed("pro1URI", "Project"),
            Triple::attribute("pro1URI", "name", "X-Media"),
            Triple::typed("pub1URI", "Publication"),
            Triple::relation("pub1URI", "author", "re1URI"),
            Triple::relation("pub1URI", "author", "re2URI"),
            Triple::attribute("pub1URI", "year", "2006"),
            Triple::typed("pub2URI", "Publication"),
            Triple::typed("re1URI", "Researcher"),
            Triple::attribute("re1URI", "name", "Thanh Tran"),
            Triple::relation("re1URI", "worksAt", "inst1URI"),
            Triple::typed("re2URI", "Researcher"),
            Triple::attribute("re2URI", "name", "P. Cimiano"),
            Triple::relation("re2URI", "worksAt", "inst1URI"),
            Triple::typed("inst1URI", "Institute"),
            Triple::attribute("inst1URI", "name", "AIFB"),
            Triple::typed("inst2URI", "Institute"),
            Triple::subclass("Institute", "Agent"),
            Triple::subclass("Researcher", "Person"),
            Triple::subclass("Person", "Agent"),
            Triple::subclass("Agent", "Thing"),
        ];
        for t in &triples {
            g.insert_triple(t).unwrap();
        }
        g
    }

    #[test]
    fn vertices_are_partitioned_and_deduplicated() {
        let g = example_graph();
        assert_eq!(g.vertex_count_of_kind(VertexKind::Entity), 8);
        // Project, Publication, Researcher, Institute, Agent, Person, Thing
        assert_eq!(g.vertex_count_of_kind(VertexKind::Class), 7);
        // X-Media, 2006, Thanh Tran, P. Cimiano, AIFB
        assert_eq!(g.vertex_count_of_kind(VertexKind::Value), 5);
        assert_eq!(
            g.vertex_count(),
            g.vertex_count_of_kind(VertexKind::Entity)
                + g.vertex_count_of_kind(VertexKind::Class)
                + g.vertex_count_of_kind(VertexKind::Value)
        );
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut g = DataGraph::new();
        let t = Triple::relation("a", "knows", "b");
        let e1 = g.insert_triple(&t).unwrap();
        let e2 = g.insert_triple(&t).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn lookup_by_label_and_kind() {
        let g = example_graph();
        assert!(g.entity("pub1URI").is_some());
        assert!(g.class("Publication").is_some());
        assert!(g.value("2006").is_some());
        assert!(g.entity("Publication").is_none());
        assert!(g.class("pub1URI").is_none());
        assert_eq!(
            g.vertex_by_label("AIFB"),
            g.value("AIFB"),
            "vertex_by_label falls back to values"
        );
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = example_graph();
        let pub1 = g.entity("pub1URI").unwrap();
        // type Publication, author re1, author re2, year 2006
        assert_eq!(g.out_edges(pub1).len(), 4);
        assert_eq!(g.in_edges(pub1).len(), 0);
        let re1 = g.entity("re1URI").unwrap();
        // incoming author edge from pub1
        assert_eq!(g.in_edges(re1).len(), 1);
        assert_eq!(g.degree(re1), 1 + g.out_edges(re1).len());
        let neighbors = g.neighbors(re1);
        assert_eq!(neighbors.len(), g.degree(re1));
    }

    #[test]
    fn class_structure_queries() {
        let g = example_graph();
        let re1 = g.entity("re1URI").unwrap();
        let researcher = g.class("Researcher").unwrap();
        let person = g.class("Person").unwrap();
        assert_eq!(g.classes_of(re1), vec![researcher]);
        assert!(g.instances_of(researcher).contains(&re1));
        assert_eq!(g.superclasses_of(researcher), vec![person]);
        assert!(g.subclasses_of(person).contains(&researcher));
        assert!(!g.is_untyped_entity(re1));
    }

    /// The one-pass table equals `classes_of` on every vertex — of a graph
    /// built by inserts, of a derived cut, and after appends to the cut.
    #[test]
    fn entity_classes_equal_classes_of() {
        let mut g = example_graph();
        g.insert_triple(&Triple::typed("pub1URI", "Agent")).unwrap();
        g.insert_triple(&Triple::relation("loner", "knows", "re1URI"))
            .unwrap();
        let mut cut = g.edge_subset(|e, _| e.index() % 3 != 1);
        cut.insert_triple(&Triple::typed("re1URI", "Publication"))
            .unwrap();
        for graph in [&g, &cut, &DataGraph::new()] {
            let table = graph.entity_classes();
            for v in graph.vertices() {
                assert_eq!(table.of(v), graph.classes_of(v).as_slice(), "{v:?}");
                assert!(graph.classes_iter(v).eq(graph.classes_of(v)));
            }
        }
        let pub1 = g.entity("pub1URI").unwrap();
        let (publication, agent) = (g.class("Publication").unwrap(), g.class("Agent").unwrap());
        assert_eq!(g.entity_classes().of(pub1), [publication, agent]);
    }

    #[test]
    fn untyped_entities_are_detected() {
        let mut g = DataGraph::new();
        g.insert_triple(&Triple::relation("a", "knows", "b"))
            .unwrap();
        let a = g.entity("a").unwrap();
        assert!(g.is_untyped_entity(a));
    }

    #[test]
    fn edge_kind_restrictions_are_enforced() {
        let mut g = DataGraph::new();
        let e = g.add_entity("e");
        let c = g.add_class("C");
        let v = g.add_value("42");
        let rel = EdgeLabel::Relation(g.intern("knows"));
        let attr = EdgeLabel::Attribute(g.intern("age"));

        // Valid edges.
        assert!(g.add_edge(e, EdgeLabel::Type, c).is_ok());
        assert!(g.add_edge(e, attr, v).is_ok());
        assert!(g.add_edge(c, EdgeLabel::SubClass, c).is_ok());

        // Invalid edges.
        assert!(g.add_edge(e, rel, v).is_err());
        assert!(g.add_edge(c, rel, e).is_err());
        assert!(g.add_edge(v, EdgeLabel::Type, c).is_err());
        assert!(g.add_edge(e, EdgeLabel::SubClass, c).is_err());
    }

    /// A relation or attribute named like a reserved predicate would come
    /// back from [`DataGraph::triple_ref`] as a `type` or `subclass` edge.
    #[test]
    fn relation_and_attribute_labels_with_reserved_names_are_refused() {
        let mut g = DataGraph::new();
        let (a, b) = (g.add_entity("a"), g.add_entity("b"));
        let v = g.add_value("42");
        for name in [vocab::TYPE, vocab::SUBCLASS] {
            let sym = g.intern(name);
            for (label, to) in [
                (EdgeLabel::Relation(sym), b),
                (EdgeLabel::Attribute(sym), v),
            ] {
                let err = g.add_edge(a, label, to).unwrap_err();
                assert!(matches!(err, RdfError::InvalidEdge { .. }), "{err}");
            }
        }
        assert_eq!(g.edge_count(), 0);
        assert!(g.edge_labels_named(vocab::TYPE).is_empty());
    }

    #[test]
    fn malformed_reserved_triples_are_rejected() {
        let mut g = DataGraph::new();
        let bad_type = Triple::new(Term::iri("x"), vocab::TYPE, Term::literal("C"));
        assert!(g.insert_triple(&bad_type).is_err());
        let bad_subclass = Triple::new(Term::iri("C"), vocab::SUBCLASS, Term::literal("D"));
        assert!(g.insert_triple(&bad_subclass).is_err());
    }

    #[test]
    fn edge_labels_named_distinguishes_reserved_labels() {
        let g = example_graph();
        assert_eq!(g.edge_labels_named("type").len(), 1);
        assert_eq!(g.edge_labels_named("subclass").len(), 1);
        assert_eq!(g.edge_labels_named("author").len(), 1);
        assert_eq!(g.edge_labels_named("name").len(), 1);
        assert!(g.edge_labels_named("unknown-label").is_empty());
    }

    #[test]
    fn triples_round_trip_through_export() {
        let g = example_graph();
        let triples = g.triples();
        assert_eq!(triples.len(), g.edge_count());
        let mut g2 = DataGraph::new();
        for t in &triples {
            g2.insert_triple(t).unwrap();
        }
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        let mut a = g.triples();
        let mut b = g2.triples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn find_triple_resolves_exactly_the_exported_triples() {
        let g = example_graph();
        for (e, t) in g.edges().zip(g.triples()) {
            assert_eq!(g.find_triple(&t), Some(e), "{t}");
        }
        for absent in [
            Triple::new(Term::literal("pub1URI"), "year", Term::literal("2006")),
            Triple::new(Term::iri("pub1URI"), "year", Term::iri("2006")),
            Triple::new(
                Term::iri("pub1URI"),
                vocab::TYPE,
                Term::literal("Publication"),
            ),
            Triple::relation("pub1URI", "author", "pub2URI"),
            Triple::subclass("pub1URI", "Publication"),
        ] {
            assert_eq!(g.find_triple(&absent), None, "{absent}");
        }
    }

    fn try_snapshot_round_trip(g: &DataGraph) -> std::result::Result<DataGraph, SnapshotError> {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};
        let mut enc = SectionEncoder::new();
        g.write_snapshot(&mut enc);
        let mut writer = SnapshotWriter::new();
        writer.add_section(7, enc);
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        let reader = SnapshotReader::read_from(bytes.as_slice()).unwrap();
        let mut dec = reader.section(7).unwrap();
        let loaded = DataGraph::read_snapshot(&mut dec)?;
        dec.finish()?;
        Ok(loaded)
    }

    fn snapshot_round_trip(g: &DataGraph) -> DataGraph {
        try_snapshot_round_trip(g).unwrap()
    }

    #[test]
    fn snapshot_preserves_structure_and_lookups() {
        let g = example_graph();
        let loaded = snapshot_round_trip(&g);
        assert_eq!(loaded.vertex_count(), g.vertex_count());
        assert_eq!(loaded.edge_count(), g.edge_count());
        assert_eq!(loaded.edge_label_count(), g.edge_label_count());
        for v in g.vertices() {
            assert_eq!(loaded.vertex(v), g.vertex(v));
            assert_eq!(loaded.vertex_label(v), g.vertex_label(v));
            assert_eq!(loaded.out_edges(v), g.out_edges(v));
            assert_eq!(loaded.in_edges(v), g.in_edges(v));
        }
        for e in g.edges() {
            assert_eq!(loaded.edge(e), g.edge(e));
        }
        assert_eq!(loaded.entity("pub1URI"), g.entity("pub1URI"));
        assert_eq!(loaded.class("Researcher"), g.class("Researcher"));
        assert_eq!(loaded.value("2006"), g.value("2006"));
        let mut a = g.triples();
        let mut b = loaded.triples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn loaded_graph_still_deduplicates_edges() {
        let g = example_graph();
        let mut loaded = snapshot_round_trip(&g);
        let before = loaded.edge_count();
        loaded
            .insert_triple(&Triple::relation("pub1URI", "author", "re1URI"))
            .unwrap();
        assert_eq!(loaded.edge_count(), before);
        loaded
            .insert_triple(&Triple::relation("pub1URI", "cites", "pub2URI"))
            .unwrap();
        assert_eq!(loaded.edge_count(), before + 1);
    }

    #[test]
    fn edge_columns_that_refer_past_the_tables_are_corrupt() {
        // The checksums are recomputed by the writer, so only the structural
        // check can refuse these; adjacency derivation indexes by endpoint
        // and relies on it.
        let g = example_graph();
        let past_vertices = VertexId(g.vertex_count() as u32);
        let past_labels = EdgeLabelId(g.edge_label_count() as u32);
        let last = g.edge_count() - 1;
        let mut from = g.clone();
        from.edges[0].from = past_vertices;
        let mut to = g.clone();
        to.edges[last].to = past_vertices;
        let mut label = g.clone();
        label.edges[last].label = past_labels;
        for crafted in [from, to, label] {
            assert!(matches!(
                try_snapshot_round_trip(&crafted),
                Err(SnapshotError::Corrupt { .. })
            ));
        }
        assert!(try_snapshot_round_trip(&g).is_ok());
    }

    fn corrupt_detail(crafted: &DataGraph) -> String {
        match try_snapshot_round_trip(crafted) {
            Err(SnapshotError::Corrupt { detail, .. }) => detail,
            other => panic!(
                "loaded a crafted graph: {:?}",
                other.map(|g| g.edge_count())
            ),
        }
    }

    #[test]
    fn edge_columns_that_break_the_kind_rule_are_corrupt() {
        // Checksum-valid sections that insertion could never have written:
        // a `type` edge into a value, and a relation from a class.
        let g = example_graph();
        let type_edge = g
            .edges()
            .find(|&e| g.edge_label(g.edge(e).label) == EdgeLabel::Type);
        let type_edge = type_edge.unwrap().index();
        let mut into_value = g.clone();
        into_value.edges[type_edge].to = g.value("2006").unwrap();
        let author = g.edge_labels_named("author")[0];
        let relation = g
            .edges()
            .find(|&e| g.edge(e).label == author)
            .unwrap()
            .index();
        let mut from_class = g.clone();
        from_class.edges[relation].from = g.class("Publication").unwrap();
        for crafted in [into_value, from_class] {
            assert!(corrupt_detail(&crafted).contains("violates Definition 1"));
        }
    }

    #[test]
    fn a_relation_label_with_a_reserved_name_is_corrupt() {
        // A checksum-valid section whose `author` relation is spelled `type`.
        let mut crafted = example_graph();
        let author = crafted.edge_labels_named("author")[0];
        let reserved = crafted.intern(vocab::TYPE);
        crafted.edge_labels[author.index()] = EdgeLabel::Relation(reserved);
        assert!(corrupt_detail(&crafted).contains("reserved name"));
    }

    /// Deduplication scans the shorter of the two endpoint lists, so a hub
    /// of either direction costs each insert O(1), not O(hub degree). The
    /// time bound is generous: the inserts take well under a second in a
    /// debug build, while a scan of the hub's whole list costs ≈5·10⁹ edge
    /// comparisons, minutes.
    #[test]
    fn hubs_ingest_in_linear_time() {
        const N: usize = 100_000;
        let start = std::time::Instant::now();
        let mut g = DataGraph::new();
        for i in 0..N {
            g.insert_triple_ref(&TripleRef {
                subject: "hub",
                predicate: "p",
                object: TermRef::Literal(&i.to_string()),
            })
            .unwrap();
            g.insert_triple_ref(&TripleRef {
                subject: &i.to_string(),
                predicate: "p",
                object: TermRef::Literal("sink"),
            })
            .unwrap();
        }
        assert_eq!(g.edge_count(), 2 * N);
        let hub = g.entity("hub").unwrap();
        let sink = g.value("sink").unwrap();
        assert_eq!((g.out_edges(hub).len(), g.in_edges(sink).len()), (N, N));
        assert!(start.elapsed().as_secs() < 20, "{:?}", start.elapsed());
    }

    #[test]
    fn mutating_a_loaded_graph_overlays_instead_of_inflating() {
        let g = example_graph();
        let mut loaded = snapshot_round_trip(&g);
        assert!(loaded.out_adj.appended.is_empty() && loaded.in_adj.appended.is_empty());
        // New edge between existing vertices, a brand-new entity, and a new
        // value — all after the base was derived.
        loaded
            .insert_triple(&Triple::relation("pub1URI", "cites", "pub2URI"))
            .unwrap();
        loaded
            .insert_triple(&Triple::relation("pub3URI", "author", "re1URI"))
            .unwrap();
        loaded
            .insert_triple(&Triple::attribute("pub3URI", "year", "2009"))
            .unwrap();
        // Live inserts are appended; the derived base is not re-derived.
        for adj in [&loaded.out_adj, &loaded.in_adj] {
            assert_eq!(adj.flat.len(), g.edge_count());
            assert_eq!(adj.appended.iter().map(Vec::len).sum::<usize>(), 3);
        }

        // The merged view must equal a graph that saw every triple through
        // the plain insert path.
        let mut flat = DataGraph::new();
        for t in loaded.triples() {
            flat.insert_triple(&t).unwrap();
        }
        assert_eq!(flat.vertex_count(), loaded.vertex_count());
        assert_eq!(flat.edge_count(), loaded.edge_count());
        for v in loaded.vertices() {
            assert_eq!(loaded.out_edges(v), flat.out_edges(v));
            assert_eq!(loaded.in_edges(v), flat.in_edges(v));
            assert_eq!(loaded.degree(v), flat.degree(v));
            assert_eq!(loaded.neighbors(v), flat.neighbors(v));
        }

        // Snapshot bytes must not betray how the graph was built.
        let overlaid_bytes = {
            let mut enc = SectionEncoder::new();
            loaded.write_snapshot(&mut enc);
            enc.into_bytes()
        };
        let flat_bytes = {
            let mut enc = SectionEncoder::new();
            flat.write_snapshot(&mut enc);
            enc.into_bytes()
        };
        assert_eq!(overlaid_bytes, flat_bytes);
    }

    #[test]
    fn insert_triple_ref_matches_insert_triple() {
        use crate::term::TermRef;
        use crate::triple::TripleRef;
        let owned = example_graph();
        let mut streamed = DataGraph::new();
        for t in owned.triples() {
            let object = match &t.object {
                Term::Iri(v) => TermRef::Iri(v),
                Term::Literal(v) => TermRef::Literal(v),
            };
            streamed
                .insert_triple_ref(&TripleRef {
                    subject: t.subject.value(),
                    predicate: &t.predicate,
                    object,
                })
                .unwrap();
        }
        assert_eq!(streamed.vertex_count(), owned.vertex_count());
        assert_eq!(streamed.edge_count(), owned.edge_count());
        for v in owned.vertices() {
            assert_eq!(streamed.vertex(v), owned.vertex(v));
        }
        for e in owned.edges() {
            assert_eq!(streamed.edge(e), owned.edge(e));
        }
    }

    #[test]
    fn edge_subset_preserves_the_id_space() {
        let g = example_graph();
        // Keep every second edge: ids, labels and lookups must keep working.
        let sub = g.edge_subset(|e, _| e.index() % 2 == 0);
        assert_eq!(sub.vertex_count(), g.vertex_count());
        assert_eq!(sub.edge_label_count(), g.edge_label_count());
        assert_eq!(sub.edge_count(), g.edge_count().div_ceil(2));
        for v in g.vertices() {
            assert_eq!(sub.vertex(v), g.vertex(v));
            assert_eq!(sub.vertex_label(v), g.vertex_label(v));
        }
        assert_eq!(sub.entity("pub1URI"), g.entity("pub1URI"));
        assert_eq!(sub.class("Researcher"), g.class("Researcher"));
        assert_eq!(sub.value("2006"), g.value("2006"));
        // Every kept edge carries the original endpoints and label id.
        let kept: Vec<Edge> = g
            .edges()
            .filter(|e| e.index() % 2 == 0)
            .map(|e| g.edge(e))
            .collect();
        let got: Vec<Edge> = sub.edges().map(|e| sub.edge(e)).collect();
        assert_eq!(got, kept, "kept edges preserve order and contents");
    }

    #[test]
    fn edge_subset_matches_a_graph_built_from_the_kept_triples() {
        // Adjacency order of a subset must equal the order of a graph into
        // which only the kept triples were inserted (per-vertex edge lists
        // filtered in place) — sharding depends on this for determinism.
        let g = example_graph();
        let sub = g.edge_subset(|_, edge| g.edge_label(edge.label) != EdgeLabel::SubClass);
        for v in g.vertices() {
            let want_out: Vec<Edge> = g
                .out_edges(v)
                .iter()
                .filter(|&&e| g.edge_label(g.edge(e).label) != EdgeLabel::SubClass)
                .map(|&e| g.edge(e))
                .collect();
            let got_out: Vec<Edge> = sub.out_edges(v).iter().map(|&e| sub.edge(e)).collect();
            assert_eq!(got_out, want_out);
            let want_in: Vec<Edge> = g
                .in_edges(v)
                .iter()
                .filter(|&&e| g.edge_label(g.edge(e).label) != EdgeLabel::SubClass)
                .map(|&e| g.edge(e))
                .collect();
            let got_in: Vec<Edge> = sub.in_edges(v).iter().map(|&e| sub.edge(e)).collect();
            assert_eq!(got_in, want_in);
        }
        // Class-structure queries keep working on the subset.
        let re1 = sub.entity("re1URI").unwrap();
        assert_eq!(sub.classes_of(re1), g.classes_of(re1));
        let researcher = sub.class("Researcher").unwrap();
        assert!(sub.superclasses_of(researcher).is_empty());
    }

    #[test]
    fn keeping_every_edge_flattens_an_insert_built_graph() {
        let g = example_graph();
        for adj in [&g.out_adj, &g.in_adj] {
            assert!(adj.flat.is_empty());
            assert_eq!(
                adj.appended.iter().map(Vec::len).sum::<usize>(),
                g.edge_count()
            );
        }

        let flat = g.edge_subset(|_, _| true);
        for adj in [&flat.out_adj, &flat.in_adj] {
            assert!(adj.appended.is_empty());
            assert_eq!(adj.flat.len(), g.edge_count());
        }
        for v in g.vertices() {
            assert_eq!(flat.out_edges(v), g.out_edges(v));
            assert_eq!(flat.in_edges(v), g.in_edges(v));
        }
    }

    #[test]
    fn edge_subset_still_deduplicates_on_mutation() {
        let g = example_graph();
        let mut sub = g.edge_subset(|_, _| true);
        let before = sub.edge_count();
        sub.insert_triple(&Triple::relation("pub1URI", "author", "re1URI"))
            .unwrap();
        assert_eq!(sub.edge_count(), before, "subset still deduplicates");
    }

    #[test]
    fn shared_value_vertices_have_multiple_incoming_edges() {
        let mut g = DataGraph::new();
        g.insert_triple(&Triple::attribute("pub1", "year", "2006"))
            .unwrap();
        g.insert_triple(&Triple::attribute("pub2", "year", "2006"))
            .unwrap();
        let v = g.value("2006").unwrap();
        assert_eq!(g.in_edges(v).len(), 2);
    }
}
