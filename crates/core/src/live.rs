//! Live updates: a mutable facade over the immutable read path.
//!
//! Every structure the on-line phases read — the [`DataGraph`], the
//! [`KeywordIndex`](kwsearch_keyword_index::KeywordIndex), the
//! [`SummaryGraph`] and the [`TripleStore`](kwsearch_rdf::TripleStore) — is
//! frozen inside a
//! [`PreparedGraph`]. [`LiveGraph`] absorbs writes without giving that up:
//! each [`apply`](LiveGraph::apply) produces a **new** prepared snapshot in
//! which the base structures are `Arc`-shared and only a small delta overlay
//! differs:
//!
//! * the triple store keeps its three frozen sorted permutations and merges
//!   a sorted delta into every scan
//!   ([`TripleStore::add_rows`](kwsearch_rdf::TripleStore::add_rows)),
//! * the data graph layers new adjacency on a per-vertex overlay instead of
//!   inflating the frozen CSR
//!   ([`DataGraph::has_adjacency_overlay`]),
//! * the keyword index unions frozen posting lists with a small sorted
//!   delta vocabulary
//!   ([`KeywordIndex::apply_delta`](kwsearch_keyword_index::KeywordIndex::apply_delta)),
//!   and
//! * the summary graph is maintained incrementally by class-level
//!   adjustments ([`SummaryGraph::apply_adds`]) whenever the batch permits,
//!   falling back to a rebuild when it does not.
//!
//! Each layer's delta'd reads are pinned **bit-identical** to a from-scratch
//! build over the merged data by its own tests, and the end-to-end property
//! — `LiveGraph` query results equal to a fresh [`PreparedGraph`] over
//! base+delta across all three scorings — is pinned by the
//! `live_equivalence` proptest suite.
//!
//! # Visibility, the write epoch and the cache
//!
//! Readers obtain an immutable [`Arc<PreparedGraph>`] from
//! [`snapshot`](LiveGraph::snapshot) and keep a consistent view for as long
//! as they hold it; [`apply`](LiveGraph::apply) swaps the current snapshot
//! atomically, so a snapshot taken after `apply` returns always sees the
//! write (*read-your-writes*). Writers never block readers: a write builds
//! its successor snapshot while holding only the writer lock, and the lock
//! `snapshot` takes is held for a pointer load or store, nothing else.
//! Every snapshot carries a monotone **write epoch**
//! ([`PreparedGraph::write_epoch`]).
//!
//! Each snapshot owns its [`AugmentationCache`], so the whole invalidation
//! rule is the snapshot's lifetime: a write starts its successor with an
//! empty cache of the same capacity, while a reader still holding an older
//! snapshot keeps hitting that snapshot's entries, which are freed with it.
//!
//! # Compaction
//!
//! Deltas accumulate per write; [`compact`](LiveGraph::compact) folds them
//! back into frozen base structures through the snapshot path of
//! [`crate::persist`] — it writes the merged state, **proves the bytes
//! bit-identical to a from-scratch preparation** of the same graph, reloads
//! the snapshot (bulk, flat, `Arc`-fresh) and installs it at the *same*
//! epoch with the *same* cache: compaction is invisible to readers and to
//! the cache. Retractions
//! ride the same machinery as an inline mini-compaction: the batch is
//! applied to a rebuilt base (no overlay can "hide" a frozen triple), at a
//! bumped epoch.

use std::fmt;
use std::time::{Duration, Instant};

use kwsearch_keyword_index::ElementRef;
use kwsearch_rdf::{
    DataGraph, EdgeId, EdgeLabel, RdfError, SnapshotError, SpoRow, Triple, VertexId, VertexKind,
};
use kwsearch_summary::SummaryGraph;

use crate::cache::AugmentationCache;
use crate::prepared::PreparedGraph;
use crate::sync::{lock_unpoisoned, Arc, Mutex};

/// A batch of triple-level writes applied atomically by
/// [`LiveGraph::apply`]: all additions and retractions become visible in one
/// new snapshot, or — on error — none of them do.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    additions: Vec<Triple>,
    retractions: Vec<Triple>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a triple to insert. Duplicates of already-present triples are
    /// collapsed silently (the data graph is a set of edges).
    #[allow(clippy::should_implement_trait)] // builder verb, not arithmetic
    pub fn add(mut self, triple: Triple) -> Self {
        self.additions.push(triple);
        self
    }

    /// Adds a triple to retract. Retracting an absent triple fails the
    /// whole batch with [`WriteError::MissingRetraction`].
    pub fn retract(mut self, triple: Triple) -> Self {
        self.retractions.push(triple);
        self
    }

    /// Number of triples to insert.
    pub fn addition_count(&self) -> usize {
        self.additions.len()
    }

    /// Number of triples to retract.
    pub fn retraction_count(&self) -> usize {
        self.retractions.len()
    }

    /// Whether the batch contains no writes at all.
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty() && self.retractions.is_empty()
    }
}

/// Why a [`LiveGraph::apply`] refused a batch. The live state is unchanged
/// after any error — batches are all-or-nothing.
#[derive(Debug)]
pub enum WriteError {
    /// A triple violated the data-graph typing rules (Definition 1), e.g. a
    /// literal object on a `type` triple or a vertex used in two kinds.
    Rdf(RdfError),
    /// A retraction named a triple that is not in the graph.
    MissingRetraction(Box<Triple>),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::Rdf(e) => write!(f, "invalid triple in write batch: {e}"),
            WriteError::MissingRetraction(t) => {
                write!(f, "retraction of absent triple {t:?}")
            }
        }
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteError::Rdf(e) => Some(e),
            WriteError::MissingRetraction(_) => None,
        }
    }
}

impl From<RdfError> for WriteError {
    fn from(e: RdfError) -> Self {
        WriteError::Rdf(e)
    }
}

/// The acknowledgement of one applied write batch.
///
/// When [`LiveGraph::apply`] returns this ticket the write is durable in
/// the live lineage and visible to every subsequently taken
/// [`snapshot`](LiveGraph::snapshot) — the ticket's epoch is the first
/// epoch whose readers see the batch.
#[derive(Debug, Clone, Copy)]
pub struct WriteTicket {
    epoch: u64,
    added_vertices: usize,
    added_edges: usize,
    collapsed_duplicates: usize,
    retracted: usize,
    summary_rebuilt: bool,
}

impl WriteTicket {
    /// The write epoch at which this batch became visible. Snapshots taken
    /// after [`LiveGraph::apply`] returned have
    /// [`PreparedGraph::write_epoch`] `>=` this value.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Vertices the batch created.
    pub fn added_vertices(&self) -> usize {
        self.added_vertices
    }

    /// Edges the batch created.
    pub fn added_edges(&self) -> usize {
        self.added_edges
    }

    /// Additions that were already present (edge-set dedup collapsed them).
    pub fn collapsed_duplicates(&self) -> usize {
        self.collapsed_duplicates
    }

    /// Edges the batch retracted.
    pub fn retracted(&self) -> usize {
        self.retracted
    }

    /// Whether the summary graph had to be rebuilt from scratch (the batch
    /// hit one of [`SummaryGraph::apply_adds`]' exclusions, or contained
    /// retractions) instead of being maintained incrementally.
    pub fn summary_rebuilt(&self) -> bool {
        self.summary_rebuilt
    }
}

/// Why [`LiveGraph::compact`] failed.
#[derive(Debug)]
pub enum CompactError {
    /// Writing or reloading the compacted snapshot failed.
    Snapshot(SnapshotError),
    /// The compacted snapshot is **not** byte-identical to a from-scratch
    /// preparation of the same merged graph — an invariant violation in one
    /// of the delta layers. The live state is left unchanged.
    NotBitIdentical {
        /// Byte length of the compacted snapshot.
        compacted_len: usize,
        /// Byte length of the from-scratch snapshot.
        rebuilt_len: usize,
        /// Offset of the first differing byte (equal-length prefixes only).
        first_difference: Option<usize>,
    },
}

impl fmt::Display for CompactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactError::Snapshot(e) => write!(f, "compaction snapshot failed: {e}"),
            CompactError::NotBitIdentical {
                compacted_len,
                rebuilt_len,
                first_difference,
            } => write!(
                f,
                "compacted snapshot diverges from a from-scratch build \
                 ({compacted_len} vs {rebuilt_len} bytes, first difference at {first_difference:?})"
            ),
        }
    }
}

impl std::error::Error for CompactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompactError::Snapshot(e) => Some(e),
            CompactError::NotBitIdentical { .. } => None,
        }
    }
}

impl From<SnapshotError> for CompactError {
    fn from(e: SnapshotError) -> Self {
        CompactError::Snapshot(e)
    }
}

/// What one [`LiveGraph::compact`] did.
#[derive(Debug, Clone, Copy)]
pub struct CompactionReport {
    /// Wall-clock duration of the whole compaction (rebuild, proof, reload).
    pub duration: Duration,
    /// Size of the compacted snapshot in bytes.
    pub snapshot_bytes: usize,
    /// Delta rows of the triple store that were folded into the base.
    pub folded_rows: usize,
    /// The (unchanged) write epoch the compacted snapshot serves.
    pub epoch: u64,
    /// Whether there was anything to fold (`false` for a no-op compaction
    /// of an already-flat lineage — nothing was rebuilt or swapped).
    pub compacted: bool,
}

/// A mutable, thread-safe facade over a lineage of immutable
/// [`PreparedGraph`] snapshots.
///
/// ```
/// use std::sync::Arc;
/// use kwsearch_core::live::{DeltaBatch, LiveGraph};
/// use kwsearch_core::SearchConfig;
/// use kwsearch_rdf::fixtures::figure1_graph;
/// use kwsearch_rdf::Triple;
///
/// let live = LiveGraph::new(kwsearch_core::PreparedGraph::index(figure1_graph()));
///
/// // Readers hold consistent snapshots …
/// let before = live.snapshot();
///
/// // … while writers apply batches.
/// let ticket = live
///     .apply(&DeltaBatch::new().add(Triple::attribute("pub4URI", "title", "Streaming Joins")))
///     .unwrap();
///
/// // Read-your-writes: a snapshot taken after `apply` sees the new triple.
/// let after = live.snapshot();
/// assert!(after.write_epoch() >= ticket.epoch());
/// let outcome = after
///     .session(&["streaming"], SearchConfig::default())
///     .unwrap()
///     .into_outcome();
/// assert!(!outcome.queries.is_empty());
///
/// // The old snapshot still serves the old view.
/// assert!(before
///     .session(&["streaming"], SearchConfig::default())
///     .is_err());
/// ```
///
/// All synchronization goes through the `crate::sync` facade, so reader
/// progress during a write is model-checked (see `tests/model_live.rs`).
#[derive(Debug)]
pub struct LiveGraph {
    /// Serialises writers ([`Self::apply`], [`Self::compact`]) for the whole
    /// of a write; readers never take it.
    writer: Mutex<()>,
    /// The snapshot readers see. Held only to clone or replace the `Arc`,
    /// so a reader waits for a pointer store at most, never for a write.
    current: Mutex<Arc<PreparedGraph>>,
}

impl LiveGraph {
    /// Wraps a prepared graph (typically a frozen preparation at epoch 0)
    /// as the first snapshot of a live lineage.
    pub fn new(prepared: PreparedGraph) -> Self {
        Self {
            writer: Mutex::new(()),
            current: Mutex::new(Arc::new(prepared)),
        }
    }

    /// The current snapshot. The returned preparation is immutable and
    /// remains fully consistent (graph, indexes, cache epoch) for as long
    /// as the caller holds it, regardless of concurrent writes.
    pub fn snapshot(&self) -> Arc<PreparedGraph> {
        Arc::clone(&lock_unpoisoned(&self.current))
    }

    /// The current write epoch — the epoch of the snapshot
    /// [`Self::snapshot`] would return right now.
    pub fn write_epoch(&self) -> u64 {
        lock_unpoisoned(&self.current).write_epoch()
    }

    /// Runs one write. Writers queue on `writer`; `build` gets the current
    /// snapshot — which no other writer can replace meanwhile — and returns
    /// its successor (`None`: nothing to install) without holding the lock
    /// readers use. An `Err` from `build` installs nothing. (Crate-visible
    /// for the `live_reader_progress_during_write` model scenario.)
    pub(crate) fn write<T, E>(
        &self,
        build: impl FnOnce(&PreparedGraph) -> Result<(Option<PreparedGraph>, T), E>,
    ) -> Result<T, E> {
        let _writer = lock_unpoisoned(&self.writer);
        let prepared = self.snapshot();
        let (next, done) = build(&prepared)?;
        if let Some(next) = next {
            let next = Arc::new(next);
            // `prepared` keeps the replaced snapshot alive past the store, so
            // nothing is freed under the lock.
            // lint: allow(lock-discipline, reason = "the one nested order: writer before current; readers take only current, for a pointer load, so the nesting cannot deadlock or stall them")
            *lock_unpoisoned(&self.current) = next;
        }
        Ok(done)
    }

    /// Applies a write batch atomically and returns once the new snapshot
    /// is installed — every snapshot taken afterwards sees the batch
    /// (read-your-writes). Concurrent readers holding older snapshots are
    /// unaffected.
    ///
    /// Additions extend the delta overlays in `O(delta)`; retractions
    /// trigger an inline mini-compaction (full rebuild of the merged base
    /// without the retracted triples). On any error the live state is
    /// unchanged.
    pub fn apply(&self, batch: &DeltaBatch) -> Result<WriteTicket, WriteError> {
        self.write(|prepared| {
            if batch.is_empty() {
                let ticket = WriteTicket {
                    epoch: prepared.write_epoch(),
                    added_vertices: 0,
                    added_edges: 0,
                    collapsed_duplicates: 0,
                    retracted: 0,
                    summary_rebuilt: false,
                };
                Ok((None, ticket))
            } else if batch.retractions.is_empty() {
                Self::apply_adds(prepared, batch)
            } else {
                Self::apply_with_retractions(prepared, batch)
            }
        })
    }

    /// The add-only fast path: clone the snapshot's structures (`O(delta)`
    /// for the Arc-shared store/keyword-index, `O(base)` for the graph —
    /// amortized by compaction) and extend every delta overlay. Returns
    /// `None` as the successor for an effect-free batch (every addition was
    /// a duplicate): the epoch does not move and the snapshot, cache
    /// included, stays current.
    #[allow(clippy::type_complexity)]
    fn apply_adds(
        prepared: &PreparedGraph,
        batch: &DeltaBatch,
    ) -> Result<(Option<PreparedGraph>, WriteTicket), WriteError> {
        let old_epoch = prepared.write_epoch();
        let old_vertices = prepared.graph().vertex_count();
        let old_edges = prepared.graph().edge_count();
        let old_labels = prepared.graph().edge_label_count();

        let mut graph = prepared.graph().clone();
        let mut collapsed = 0usize;
        for triple in &batch.additions {
            let before = graph.edge_count();
            graph.insert_triple(triple)?;
            if graph.edge_count() == before {
                collapsed += 1;
            }
        }
        let added_vertices = graph.vertex_count() - old_vertices;
        let added_edges = graph.edge_count() - old_edges;
        if added_edges == 0 && added_vertices == 0 {
            // Every addition was already present: nothing changed, no new
            // epoch.
            return Ok((
                None,
                WriteTicket {
                    epoch: old_epoch,
                    added_vertices: 0,
                    added_edges: 0,
                    collapsed_duplicates: collapsed,
                    retracted: 0,
                    summary_rebuilt: false,
                },
            ));
        }

        let impact = WriteImpact::classify(&graph, old_vertices, old_edges, old_labels);

        // Triple store: append the new rows to the sorted delta.
        let new_rows: Vec<SpoRow> = (old_edges..graph.edge_count())
            .map(|i| {
                let edge = graph.edge(EdgeId::from_index(i as u32));
                SpoRow {
                    subject: edge.from,
                    predicate: edge.label,
                    object: edge.to,
                }
            })
            .collect();
        let mut store = prepared.store().clone();
        store.add_rows(&new_rows);

        // Keyword index: index the new vocabulary, recompute the enrichment
        // of every touched pre-existing element.
        let mut keyword_index = prepared.keyword_index().clone();
        keyword_index.apply_delta(&graph, &impact.new_elements, &impact.touched);

        // Summary graph: incremental class-level adjustment when the batch
        // qualifies, from-scratch rebuild otherwise (both byte-identical to
        // a rebuild — `apply_adds_matches_a_rebuild_byte_for_byte`).
        let (summary, summary_rebuilt) =
            match prepared
                .summary()
                .apply_adds(&graph, old_vertices, old_edges)
            {
                Some(summary) => (summary, false),
                None => (SummaryGraph::build(&graph), true),
            };

        let next = Self::successor(prepared, graph, keyword_index, summary, store);
        Ok((
            Some(next),
            WriteTicket {
                epoch: old_epoch + 1,
                added_vertices,
                added_edges,
                collapsed_duplicates: collapsed,
                retracted: 0,
                summary_rebuilt,
            },
        ))
    }

    /// The snapshot one write after `prepared`, assembled from the written
    /// structures around a fresh, empty cache of the predecessor's
    /// capacity: entries computed on `prepared` describe its data, not the
    /// successor's, and stay with it for readers that still hold it.
    fn successor(
        prepared: &PreparedGraph,
        graph: DataGraph,
        keyword_index: kwsearch_keyword_index::KeywordIndex,
        summary: SummaryGraph,
        store: kwsearch_rdf::TripleStore,
    ) -> PreparedGraph {
        let capacity = prepared.augmentation_cache().capacity();
        PreparedGraph::from_shared_parts(
            graph,
            keyword_index,
            summary,
            store,
            Arc::new(AugmentationCache::new(capacity)),
            prepared.write_epoch() + 1,
            prepared.index_build_time(),
        )
    }

    /// The retraction path: an inline mini-compaction. The merged triple
    /// set minus the retractions (plus the additions) is rebuilt into a
    /// fresh base — overlays cannot "hide" a frozen triple, so removal
    /// means rebuilding. The new snapshot gets a bumped epoch.
    #[allow(clippy::type_complexity)]
    fn apply_with_retractions(
        prepared: &PreparedGraph,
        batch: &DeltaBatch,
    ) -> Result<(Option<PreparedGraph>, WriteTicket), WriteError> {
        let mut triples = prepared.graph().triples();
        let mut retracted = 0usize;
        for gone in &batch.retractions {
            match triples.iter().position(|t| t == gone) {
                Some(at) => {
                    triples.remove(at);
                    retracted += 1;
                }
                None => {
                    return Err(WriteError::MissingRetraction(Box::new(gone.clone())));
                }
            }
        }

        // Rebuild the graph in the surviving original edge order, then
        // append the additions — the same order a streamed re-ingest of the
        // merged data would use.
        let mut graph = DataGraph::default();
        for triple in &triples {
            graph.insert_triple(triple)?;
        }
        let before_adds = graph.edge_count();
        let vertices_before_adds = graph.vertex_count();
        let mut collapsed = 0usize;
        for triple in &batch.additions {
            let before = graph.edge_count();
            graph.insert_triple(triple)?;
            if graph.edge_count() == before {
                collapsed += 1;
            }
        }
        let added_edges = graph.edge_count() - before_adds;
        let added_vertices = graph.vertex_count() - vertices_before_adds;

        let keyword_index = prepared.keyword_index().rebuilt(&graph);
        let summary = SummaryGraph::build(&graph);
        let store = kwsearch_rdf::TripleStore::build(&graph);

        let next = Self::successor(prepared, graph, keyword_index, summary, store);
        Ok((
            Some(next),
            WriteTicket {
                epoch: prepared.write_epoch() + 1,
                added_vertices,
                added_edges,
                collapsed_duplicates: collapsed,
                retracted,
                summary_rebuilt: true,
            },
        ))
    }

    /// Folds every delta overlay back into frozen base structures and
    /// **proves** the result correct: the compacted state is serialized via
    /// [`PreparedGraph::save`], the bytes are compared against a
    /// from-scratch preparation of the same merged graph (same keyword
    /// configuration, same recorded build time), and only on bit-identity
    /// is the snapshot reloaded (flat CSR, fresh `Arc` bases) and installed
    /// — at the *unchanged* epoch and with the replaced snapshot's cache, so
    /// compaction is invisible to readers and cached entries keep hitting.
    ///
    /// Returns with `compacted: false` (and no state change) when the
    /// lineage is already flat.
    pub fn compact(&self) -> Result<CompactionReport, CompactError> {
        let start = Instant::now();
        self.write(|prepared| Self::compacted(prepared, start))
    }

    /// The compaction proper: the flat successor of `prepared` (`None` when
    /// it is already flat) and the report, timed from `start`.
    #[allow(clippy::type_complexity)]
    fn compacted(
        prepared: &PreparedGraph,
        start: Instant,
    ) -> Result<(Option<PreparedGraph>, CompactionReport), CompactError> {
        let epoch = prepared.write_epoch();
        let folded_rows = prepared.store().delta_len();
        if !prepared.store().has_delta()
            && !prepared.keyword_index().has_delta()
            && !prepared.graph().has_adjacency_overlay()
        {
            let report = CompactionReport {
                duration: start.elapsed(),
                snapshot_bytes: 0,
                folded_rows: 0,
                epoch,
                compacted: false,
            };
            return Ok((None, report));
        }

        // Fold: the graph flattens on snapshot write; the store merges its
        // permutations; the keyword index (whose delta vocabulary has no
        // frozen form) is rebuilt; the summary is already byte-identical to
        // a rebuild by the `apply` invariants.
        let graph = prepared.graph().clone();
        let compacted = PreparedGraph::from_parts(
            graph.clone(),
            prepared.keyword_index().rebuilt(&graph),
            prepared.summary().clone(),
            prepared.store().flattened(),
            0,
            prepared.index_build_time(),
        );
        let mut compacted_bytes = Vec::new();
        compacted.save(&mut compacted_bytes)?;

        // Prove: a from-scratch preparation of the merged graph must
        // serialize to exactly the same bytes (the recorded build time is
        // part of the snapshot META, so it is threaded through).
        let scratch = PreparedGraph::from_parts(
            graph.clone(),
            prepared.keyword_index().rebuilt(&graph),
            SummaryGraph::build(&graph),
            kwsearch_rdf::TripleStore::build(&graph),
            0,
            prepared.index_build_time(),
        );
        let mut scratch_bytes = Vec::new();
        scratch.save(&mut scratch_bytes)?;
        if compacted_bytes != scratch_bytes {
            return Err(CompactError::NotBitIdentical {
                compacted_len: compacted_bytes.len(),
                rebuilt_len: scratch_bytes.len(),
                first_difference: compacted_bytes
                    .iter()
                    .zip(&scratch_bytes)
                    .position(|(a, b)| a != b),
            });
        }

        // Reload through the persist path — the loaded parts are flat (no
        // CSR overlay, empty store deltas) — and re-wrap them around the
        // replaced snapshot's cache at the unchanged epoch: same data, so
        // its entries stay valid.
        let loaded = PreparedGraph::load_with(&compacted_bytes[..], 0)?;
        let (graph, keyword_index, summary, store) = loaded.into_parts();
        let next = PreparedGraph::from_shared_parts(
            graph,
            keyword_index,
            summary,
            store,
            prepared.shared_cache(),
            epoch,
            prepared.index_build_time(),
        );

        let report = CompactionReport {
            duration: start.elapsed(),
            snapshot_bytes: compacted_bytes.len(),
            folded_rows,
            epoch,
            compacted: true,
        };
        Ok((Some(next), report))
    }
}

/// What an add-only batch did to the element universe, classified once per
/// write for keyword-index maintenance.
struct WriteImpact {
    /// Elements that did not exist before the batch (new classes, new
    /// values, new relation/attribute labels): they extend the match
    /// vocabulary.
    new_elements: Vec<ElementRef>,
    /// Pre-existing elements whose match data (enrichment) the batch
    /// changed: values gaining connections, attribute labels gaining
    /// classes, and both for entities that gained a `type` edge. Sorted and
    /// deduplicated.
    touched: Vec<ElementRef>,
}

impl WriteImpact {
    fn classify(
        graph: &DataGraph,
        old_vertices: usize,
        old_edges: usize,
        old_labels: usize,
    ) -> Self {
        let mut new_elements = Vec::new();
        for i in old_vertices..graph.vertex_count() {
            let v = VertexId::from_index(i as u32);
            match graph.vertex_kind(v) {
                VertexKind::Class => new_elements.push(ElementRef::Class(v)),
                VertexKind::Value => new_elements.push(ElementRef::Value(v)),
                VertexKind::Entity => {}
            }
        }
        for i in old_labels..graph.edge_label_count() {
            let id = kwsearch_rdf::EdgeLabelId::from_index(i as u32);
            match graph.edge_label(id) {
                EdgeLabel::Relation(_) => new_elements.push(ElementRef::Relation(id)),
                EdgeLabel::Attribute(_) => new_elements.push(ElementRef::Attribute(id)),
                EdgeLabel::Type | EdgeLabel::SubClass => {}
            }
        }

        let mut touched = Vec::new();
        for i in old_edges..graph.edge_count() {
            let edge = graph.edge(EdgeId::from_index(i as u32));
            match graph.edge_label(edge.label) {
                EdgeLabel::Attribute(_) => {
                    // The value gains a connection; the label gains the
                    // subject's classes (or its untyped flag).
                    if edge.to.index() < old_vertices {
                        touched.push(ElementRef::Value(edge.to));
                    }
                    if edge.label.index() < old_labels {
                        touched.push(ElementRef::Attribute(edge.label));
                    }
                }
                EdgeLabel::Type => {
                    if edge.from.index() < old_vertices {
                        // A re-typed entity changes the class lists inside
                        // the enrichment of every value and attribute label
                        // it reaches.
                        for &e in graph.out_edges(edge.from) {
                            let out = graph.edge(e);
                            if !matches!(graph.edge_label(out.label), EdgeLabel::Attribute(_)) {
                                continue;
                            }
                            if out.to.index() < old_vertices {
                                touched.push(ElementRef::Value(out.to));
                            }
                            if out.label.index() < old_labels {
                                touched.push(ElementRef::Attribute(out.label));
                            }
                        }
                    }
                }
                // Neither relations nor classes carry enrichment.
                EdgeLabel::Relation(_) | EdgeLabel::SubClass => {}
            }
        }
        touched.sort_unstable();
        touched.dedup();

        Self {
            new_elements,
            touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::result::SearchOutcome;
    use crate::scoring::ScoringFunction;
    use kwsearch_rdf::fixtures::{figure1_graph, figure1_triples};

    fn outcome(prepared: &PreparedGraph, keywords: &[&str], config: SearchConfig) -> SearchOutcome {
        prepared
            .session(keywords, config)
            .expect("query matches")
            .into_outcome()
    }

    fn assert_outcomes_bit_identical(got: &SearchOutcome, want: &SearchOutcome, context: &str) {
        assert_eq!(got.queries.len(), want.queries.len(), "{context}: count");
        for (g, w) in got.queries.iter().zip(&want.queries) {
            assert_eq!(
                g.cost.to_bits(),
                w.cost.to_bits(),
                "{context}: cost of rank {}",
                w.rank
            );
            assert_eq!(
                g.query.canonicalized(),
                w.query.canonicalized(),
                "{context}: query of rank {}",
                w.rank
            );
        }
    }

    /// A mixed batch exercising every overlay: a brand-new entity with a
    /// new attribute label, a new relation edge under an existing label, a
    /// new value on an existing entity, and a `type` edge on the formerly
    /// untyped `inst2URI`.
    fn mixed_batch() -> DeltaBatch {
        DeltaBatch::new()
            .add(Triple::typed("pub3URI", "Publication"))
            .add(Triple::attribute("pub3URI", "title", "Streaming RDF Joins"))
            .add(Triple::attribute("pub3URI", "venue", "ICDE"))
            .add(Triple::relation("pub3URI", "author", "re2URI"))
            .add(Triple::attribute("inst2URI", "name", "IPE"))
            .add(Triple::typed("inst2URI", "Institute"))
    }

    #[test]
    fn live_queries_are_bit_identical_to_a_fresh_preparation() {
        let batch = mixed_batch();
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let ticket = live.apply(&batch).unwrap();
        assert_eq!(ticket.epoch(), 1);
        assert!(ticket.added_edges() > 0);

        // The reference: the same triples inserted into the base graph in
        // the same order, indexed entirely from scratch.
        let mut merged = figure1_graph();
        for t in &batch.additions {
            merged.insert_triple(t).unwrap();
        }
        let fresh = PreparedGraph::index(merged);

        let snapshot = live.snapshot();
        for scoring in ScoringFunction::all() {
            for keywords in [
                &["streaming", "cimiano"][..],
                &["icde", "publication"][..],
                &["ipe"][..],
                &["2006", "cimiano", "aifb"][..],
            ] {
                let config = SearchConfig::with_k(5).scoring(scoring);
                let got = outcome(&snapshot, keywords, config.clone());
                let want = outcome(&fresh, keywords, config);
                assert_outcomes_bit_identical(&got, &want, &format!("{scoring:?} {keywords:?}"));
            }
        }
    }

    #[test]
    fn duplicate_only_batches_do_not_advance_the_epoch() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let batch = DeltaBatch::new().add(figure1_triples()[0].clone());
        let ticket = live.apply(&batch).unwrap();
        assert_eq!(ticket.epoch(), 0);
        assert_eq!(ticket.added_edges(), 0);
        assert_eq!(ticket.collapsed_duplicates(), 1);
        assert_eq!(live.write_epoch(), 0);
    }

    #[test]
    fn invalid_batches_leave_the_state_unchanged() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let bad = DeltaBatch::new()
            .add(Triple::attribute("pub3URI", "title", "Visible?"))
            .add(Triple::new(
                kwsearch_rdf::Term::iri("pub3URI"),
                "type",
                kwsearch_rdf::Term::literal("not-a-class"),
            ));
        let err = live.apply(&bad).unwrap_err();
        assert!(matches!(err, WriteError::Rdf(_)), "{err}");
        assert_eq!(live.write_epoch(), 0);
        // Not even the valid prefix of the batch landed.
        assert!(live
            .snapshot()
            .session(&["visible"], SearchConfig::default())
            .is_err());
    }

    #[test]
    fn retractions_remove_matches_and_bump_the_epoch() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        assert!(live
            .snapshot()
            .session(&["aifb"], SearchConfig::default())
            .is_ok());

        let gone = Triple::attribute("inst1URI", "name", "AIFB");
        let ticket = live
            .apply(&DeltaBatch::new().retract(gone.clone()))
            .unwrap();
        assert_eq!(ticket.epoch(), 1);
        assert_eq!(ticket.retracted(), 1);
        assert!(ticket.summary_rebuilt());
        assert!(live
            .snapshot()
            .session(&["aifb"], SearchConfig::default())
            .is_err());

        // Retracting it again now fails — the triple is gone.
        let err = live.apply(&DeltaBatch::new().retract(gone)).unwrap_err();
        assert!(matches!(err, WriteError::MissingRetraction(_)), "{err}");
        assert_eq!(live.write_epoch(), 1);
    }

    #[test]
    fn compaction_is_proven_and_invisible_to_readers() {
        // Round-trip the base through the snapshot path so the data graph
        // uses the frozen CSR adjacency — mutating it must go through the
        // per-vertex overlay instead of inflating the CSR.
        let mut bytes = Vec::new();
        PreparedGraph::index(figure1_graph())
            .save(&mut bytes)
            .unwrap();
        let live = LiveGraph::new(PreparedGraph::load(&bytes[..]).unwrap());
        live.apply(&mixed_batch()).unwrap();
        let snapshot = live.snapshot();
        assert!(snapshot.store().has_delta());
        assert!(snapshot.keyword_index().has_delta());
        assert!(snapshot.graph().has_adjacency_overlay());

        let config = SearchConfig::with_k(5);
        let before = outcome(&snapshot, &["streaming", "cimiano"], config.clone());

        let report = live.compact().unwrap();
        assert!(report.compacted);
        assert!(report.snapshot_bytes > 0);
        assert!(report.folded_rows > 0);
        assert_eq!(report.epoch, 1);

        let compacted = live.snapshot();
        assert!(!compacted.store().has_delta());
        assert!(!compacted.keyword_index().has_delta());
        assert!(!compacted.graph().has_adjacency_overlay());
        assert_eq!(compacted.write_epoch(), 1);

        let after = outcome(&compacted, &["streaming", "cimiano"], config);
        assert_outcomes_bit_identical(&after, &before, "compaction");
        assert_eq!(
            compacted.augmentation_cache().stats().hits,
            1,
            "the compacted snapshot inherits the entry drained before it"
        );

        // A second compaction finds nothing to fold.
        let report = live.compact().unwrap();
        assert!(!report.compacted);
    }

    #[test]
    fn a_write_starts_its_successor_with_an_empty_cache() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let config = SearchConfig::default();
        let held = live.snapshot();
        assert!(!outcome(&held, &["2008"], config.clone()).queries.is_empty());
        let hot_before = outcome(&held, &["cimiano", "aifb"], config.clone());
        assert_eq!(held.augmentation_cache().stats().len, 2);

        // `pub1URI` gains the existing `2008` value under the existing
        // `year` label: the smallest write there is.
        let year = Triple::attribute("pub1URI", "year", "2008");
        live.apply(&DeltaBatch::new().add(year.clone())).unwrap();

        let successor = live.snapshot();
        let fresh_cache = successor.augmentation_cache();
        assert_eq!(fresh_cache.stats().len, 0, "{:?}", fresh_cache.stats());
        assert_eq!(fresh_cache.capacity(), held.augmentation_cache().capacity());

        // The predecessor keeps its entries for the readers that hold it …
        let hits = held.augmentation_cache().stats().hits;
        let hot_after = outcome(&held, &["cimiano", "aifb"], config.clone());
        assert_eq!(held.augmentation_cache().stats().hits, hits + 1);
        assert_outcomes_bit_identical(&hot_after, &hot_before, "held snapshot");

        // … while the successor recomputes, bit-identically to a fresh
        // preparation of the merged graph.
        let recomputed = outcome(&successor, &["2008"], config.clone());
        let mut merged = figure1_graph();
        merged.insert_triple(&year).unwrap();
        let want = outcome(&PreparedGraph::index(merged), &["2008"], config);
        assert_outcomes_bit_identical(&recomputed, &want, "successor recompute");
    }

    #[test]
    fn old_snapshots_keep_their_cache_across_writes_and_compaction() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let config = SearchConfig::default();
        let keywords = ["2006", "cimiano", "aifb"];
        let held = live.snapshot();
        let before = outcome(&held, &keywords, config.clone());

        live.apply(&mixed_batch()).unwrap();
        assert!(live.compact().unwrap().compacted);

        let hits = held.augmentation_cache().stats().hits;
        let after = outcome(&held, &keywords, config);
        assert_eq!(
            held.augmentation_cache().stats().hits,
            hits + 1,
            "the epoch-0 entry must outlive the write and the compaction"
        );
        assert_eq!(after.exploration.queue_pops, 0, "a hit replays");
        assert_outcomes_bit_identical(&after, &before, "held snapshot");
    }

    #[test]
    fn old_snapshots_keep_serving_their_epoch_after_writes() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let config = SearchConfig::default();
        let old = live.snapshot();
        let before = outcome(&old, &["2006", "cimiano", "aifb"], config.clone());

        live.apply(&mixed_batch()).unwrap();
        live.apply(&DeltaBatch::new().add(Triple::attribute("pub2URI", "title", "Deltas")))
            .unwrap();

        // The pre-write snapshot is immutable: same results, bit for bit.
        let after = outcome(&old, &["2006", "cimiano", "aifb"], config);
        assert_outcomes_bit_identical(&after, &before, "pre-write snapshot");
        assert_eq!(old.write_epoch(), 0);
        assert_eq!(live.write_epoch(), 2);
    }

    /// Writers must not block readers. One long write (a batch large enough
    /// to take many milliseconds) is in flight while the reader takes its
    /// snapshots: every one of them must be served *during* the write, i.e.
    /// still at the pre-write epoch. With the lock `snapshot` takes held
    /// across the write, the reader's first contended snapshot waits for the
    /// write to finish and observes the new epoch instead.
    #[test]
    fn snapshots_are_served_while_a_write_is_in_flight() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const SNAPSHOTS: usize = 1_000;
        let batch = (0..1_000).fold(DeltaBatch::new(), |batch, i| {
            batch.add(Triple::attribute("pub1URI", "note", format!("note {i}")))
        });

        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let write_started = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                write_started.store(true, Ordering::SeqCst);
                live.apply(&batch).unwrap()
            });
            while !write_started.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            for taken in 0..SNAPSHOTS {
                assert_eq!(
                    live.snapshot().write_epoch(),
                    0,
                    "snapshot {taken} of {SNAPSHOTS} waited for the write to finish"
                );
            }
            let ticket = writer.join().unwrap();
            assert_eq!(ticket.epoch(), 1);
        });
        assert_eq!(live.snapshot().write_epoch(), 1, "read-your-writes");
    }
}
