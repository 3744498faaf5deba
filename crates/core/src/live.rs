//! Live updates: a mutable facade over the immutable read path.
//!
//! Every structure the on-line phases read — the [`DataGraph`], the
//! [`KeywordIndex`](kwsearch_keyword_index::KeywordIndex), the
//! [`SummaryGraph`] and the [`TripleStore`](kwsearch_rdf::TripleStore) —
//! is frozen inside a [`PreparedGraph`]. [`LiveGraph`] absorbs writes
//! without giving that up: each [`apply`](LiveGraph::apply) produces a
//! **new** prepared snapshot in which the base structures are `Arc`-shared
//! and only a small delta overlay differs:
//!
//! * the triple store keeps its two frozen sorted permutations and merges
//!   a sorted delta into every scan
//!   ([`TripleStore::add_rows`](kwsearch_rdf::TripleStore::add_rows)),
//! * the data graph appends new edges to per-vertex lists beside the
//!   adjacency base it derived from its edge columns, and never re-derives
//!   that base on a write,
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
//! back into frozen base structures in memory. It flattens the merged graph
//! (its adjacency base re-derived from the edge columns, nothing
//! appended), rebuilds the keyword index once, and derives the summary
//! graph and the triple store from the flat graph exactly as an index
//! build or a snapshot load does. Then it **proves the fold**: the derived
//! store's rows must equal the live store's, and the derived summary must
//! equal (`==`) the live one. Only then does it install the result at the
//! *same* epoch with the *same* cache, so compaction is invisible to
//! readers and to the cache. Retractions ride the same machinery as an
//! inline mini-compaction: each retracted triple is resolved to its edge, and
//! the surviving edges, borrowed from the old graph, are re-ingested into a
//! fresh one (no overlay can "hide" a frozen edge), flattened and derived the
//! same way, at a bumped epoch.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kwsearch_rdf::{DataGraph, EdgeId, RdfError, SpoRow, Triple};
use kwsearch_summary::SummaryGraph;

use crate::cache::AugmentationCache;
use crate::prepared::PreparedGraph;
use crate::sync::lock_unpoisoned;

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
    #[allow(
        clippy::should_implement_trait,
        reason = "a builder verb, not arithmetic"
    )]
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

    /// Additions that were already present (the graph's edges are a set).
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
    /// The compacted state is **not** identical to the live one — an
    /// invariant violation in one of the delta layers. The compared
    /// sequences are the live and the derived triple-store rows, then the
    /// live and the derived summary edges (the summaries are compared
    /// whole, so they can also differ in nodes or totals with equal edges).
    /// The live state is left unchanged.
    NotBitIdentical {
        /// Length of the live sequence (store rows or summary edges).
        compacted_len: usize,
        /// Length of the derived sequence.
        rebuilt_len: usize,
        /// Position of the first difference (within the common prefix
        /// only).
        first_difference: Option<usize>,
    },
}

impl fmt::Display for CompactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactError::NotBitIdentical {
                compacted_len,
                rebuilt_len,
                first_difference,
            } => write!(
                f,
                "compacted state diverges from a from-scratch build ({compacted_len} vs \
                 {rebuilt_len} store rows or summary edges, first difference at \
                 {first_difference:?})"
            ),
        }
    }
}

impl std::error::Error for CompactError {}

/// What one [`LiveGraph::compact`] did.
#[derive(Debug, Clone, Copy)]
pub struct CompactionReport {
    /// Wall-clock duration of the whole compaction (flattening, keyword
    /// index rebuild, derivation and proof).
    pub duration: Duration,
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
/// A write holds `writer` throughout and `current` only for the pointer
/// store, so readers progress during a write; the
/// `snapshots_are_served_while_a_write_is_in_flight` test forces a reader
/// inside the write section to prove it.
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
    /// readers use. An `Err` from `build` installs nothing.
    fn write<T, E>(
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
            // The one nested lock order: writer before current. Readers take
            // only current, for a pointer load, so the nesting cannot
            // deadlock or stall them
            // (`snapshots_are_served_while_a_write_is_in_flight`).
            *lock_unpoisoned(&self.current) = next;
        }
        Ok(done)
    }

    /// Applies a write batch atomically and returns once the new snapshot
    /// is installed — every snapshot taken afterwards sees the batch
    /// (read-your-writes). Concurrent readers holding older snapshots are
    /// unaffected.
    ///
    /// Additions cost `O(base)`: the data graph is cloned whole before the
    /// batch is inserted. Only the triple store and the keyword index share
    /// their frozen bases through `Arc` and extend a delta overlay in
    /// `O(delta)`. Retractions trigger an inline mini-compaction (the
    /// surviving edges re-ingested into a fresh graph). On any error the
    /// live state is unchanged.
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
    #[allow(
        clippy::type_complexity,
        reason = "a private (successor, report) pair, clearer spelled out than behind an alias"
    )]
    fn apply_adds(
        prepared: &PreparedGraph,
        batch: &DeltaBatch,
    ) -> Result<(Option<PreparedGraph>, WriteTicket), WriteError> {
        let old_epoch = prepared.write_epoch();
        let old_vertices = prepared.graph().vertex_count();
        let old_edges = prepared.graph().edge_count();
        let old_labels = prepared.graph().edge_label_count();

        let mut graph = prepared.graph().clone();
        let collapsed = insert_additions(&mut graph, batch)?;
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

        // Keyword index: index the new vocabulary, recompute the touched
        // values' connections and fold the new edges into the attributes'.
        let mut keyword_index = prepared.keyword_index().clone();
        keyword_index.apply_delta(&graph, old_vertices, old_labels, old_edges);

        // Summary graph: incremental class-level adjustment when the batch
        // qualifies, from-scratch rebuild otherwise (both equal to a
        // rebuild — `apply_adds_matches_a_rebuild_byte_for_byte`).
        let (summary, summary_rebuilt) =
            match prepared
                .summary()
                .apply_adds(&graph, old_vertices, old_edges)
            {
                Some(summary) => (summary, false),
                None => (SummaryGraph::build(&graph), true),
            };

        let next = PreparedGraph::from_shared_parts(
            graph,
            keyword_index,
            summary,
            store,
            Self::successor_cache(prepared),
            old_epoch + 1,
        );
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

    /// The cache of the snapshot one write after `prepared`: fresh and
    /// empty, of the predecessor's capacity. Entries computed on `prepared`
    /// describe its data, not the successor's, and stay with it for readers
    /// that still hold it.
    fn successor_cache(prepared: &PreparedGraph) -> Arc<AugmentationCache> {
        Arc::new(AugmentationCache::new(
            prepared.augmentation_cache().capacity(),
        ))
    }

    /// The retraction path: an inline mini-compaction. Each retraction is
    /// resolved to its edge ([`DataGraph::find_triple`]); an absent triple,
    /// or one the batch retracts twice, fails with
    /// [`WriteError::MissingRetraction`]. Overlays cannot "hide" a frozen
    /// edge, so the surviving edges are re-ingested in edge order
    /// ([`DataGraph::triple_ref`]) into a fresh graph, then the additions, as
    /// a streamed ingest of the merged data would; the result is flattened
    /// and derived as [`Self::compact`] does, at a bumped epoch.
    #[allow(
        clippy::type_complexity,
        reason = "a private (successor, report) pair, clearer spelled out than behind an alias"
    )]
    fn apply_with_retractions(
        prepared: &PreparedGraph,
        batch: &DeltaBatch,
    ) -> Result<(Option<PreparedGraph>, WriteTicket), WriteError> {
        let old = prepared.graph();
        let mut gone = vec![false; old.edge_count()];
        for triple in &batch.retractions {
            match old.find_triple(triple) {
                Some(e) if !gone[e.index()] => gone[e.index()] = true,
                _ => return Err(WriteError::MissingRetraction(Box::new(triple.clone()))),
            }
        }
        let retracted = batch.retractions.len();

        let mut graph = DataGraph::default();
        for e in old.edges().filter(|e| !gone[e.index()]) {
            graph.insert_triple_ref(&old.triple_ref(e))?;
        }
        let before_adds = graph.edge_count();
        let vertices_before_adds = graph.vertex_count();
        let collapsed = insert_additions(&mut graph, batch)?;
        let added_edges = graph.edge_count() - before_adds;
        let added_vertices = graph.vertex_count() - vertices_before_adds;

        // The inserts appended every edge: flatten the graph as compaction
        // does, so the lineage is flat again.
        let flat = graph.edge_subset(|_, _| true);
        drop(graph);
        let keyword_index = prepared.keyword_index().rebuilt(&flat);
        let next = PreparedGraph::derive(
            flat,
            keyword_index,
            Self::successor_cache(prepared),
            prepared.write_epoch() + 1,
        );
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

    /// Folds every delta overlay back into frozen base structures in memory
    /// and **proves** the result correct. The merged graph is flattened
    /// (its adjacency base re-derived from the edge columns), the keyword
    /// index is rebuilt once, and the summary graph and the triple store
    /// are derived from the flat graph as an index build derives them. The
    /// derived store's rows must equal the live store's, and the derived
    /// summary must equal the live one. Only when both agree is the result
    /// installed — at the *unchanged* epoch and with the replaced
    /// snapshot's cache, so compaction is invisible to readers and cached
    /// entries keep hitting.
    ///
    /// Returns with `compacted: false` (and no state change) when the
    /// lineage is already flat: neither the store nor the keyword index
    /// carries a delta.
    pub fn compact(&self) -> Result<CompactionReport, CompactError> {
        let start = Instant::now();
        self.write(|prepared| Self::compacted(prepared, start))
    }

    /// The compaction proper: the flat successor of `prepared` (`None` when
    /// it is already flat) and the report, timed from `start`.
    #[allow(
        clippy::type_complexity,
        reason = "a private (successor, report) pair, clearer spelled out than behind an alias"
    )]
    fn compacted(
        prepared: &PreparedGraph,
        start: Instant,
    ) -> Result<(Option<PreparedGraph>, CompactionReport), CompactError> {
        let epoch = prepared.write_epoch();
        let folded_rows = prepared.store().delta_len();
        // Every edge a write appends to the graph is also a store delta
        // row, so the store and the keyword index say whether there is
        // anything to fold.
        if !prepared.store().has_delta() && !prepared.keyword_index().has_delta() {
            let report = CompactionReport {
                duration: start.elapsed(),
                folded_rows: 0,
                epoch,
                compacted: false,
            };
            return Ok((None, report));
        }

        // Fold: the flat graph has nothing appended, the rebuilt keyword
        // index no delta vocabulary, and the derived store no delta rows.
        // The replaced snapshot's cache stays valid: same data, same epoch.
        let graph = prepared.graph().edge_subset(|_, _| true);
        let keyword_index = prepared.keyword_index().rebuilt(&graph);
        let next = PreparedGraph::derive(graph, keyword_index, prepared.shared_cache(), epoch);

        // Prove: the live store, base and delta merged, holds exactly the
        // derived rows, and the live summary (maintained by `apply`) is the
        // one the flat graph derives.
        prove_identical(&prepared.store().rows(), &next.store().rows())?;
        if prepared.summary() != next.summary() {
            let edges = |summary: &SummaryGraph| -> Vec<_> {
                summary.edges().map(|e| summary.edge(e)).collect()
            };
            return Err(disagreement(
                &edges(prepared.summary()),
                &edges(next.summary()),
            ));
        }

        let report = CompactionReport {
            duration: start.elapsed(),
            folded_rows,
            epoch,
            compacted: true,
        };
        Ok((Some(next), report))
    }
}

/// Inserts the batch's additions into `graph`; returns how many of them
/// were already present.
fn insert_additions(graph: &mut DataGraph, batch: &DeltaBatch) -> Result<usize, WriteError> {
    let mut collapsed = 0;
    for triple in &batch.additions {
        let before = graph.edge_count();
        graph.insert_triple(triple)?;
        collapsed += usize::from(graph.edge_count() == before);
    }
    Ok(collapsed)
}

/// [`CompactError::NotBitIdentical`] unless the live sequence equals the
/// derived one.
fn prove_identical<T: PartialEq>(compacted: &[T], rebuilt: &[T]) -> Result<(), CompactError> {
    if compacted == rebuilt {
        return Ok(());
    }
    Err(disagreement(compacted, rebuilt))
}

/// The [`CompactError::NotBitIdentical`] describing two sequences.
fn disagreement<T: PartialEq>(compacted: &[T], rebuilt: &[T]) -> CompactError {
    CompactError::NotBitIdentical {
        compacted_len: compacted.len(),
        rebuilt_len: rebuilt.len(),
        first_difference: compacted.iter().zip(rebuilt).position(|(a, b)| a != b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::result::SearchOutcome;
    use crate::scoring::ScoringFunction;
    use kwsearch_rdf::fixtures::{figure1_graph, figure1_triples};
    use kwsearch_rdf::TripleStore;

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

        // A retraction leaves its successor flat: nothing to compact.
        let report = live.compact().unwrap();
        assert!(!report.compacted);
        assert_eq!(report.epoch, 1);

        // Retracting it again now fails — the triple is gone.
        let err = live.apply(&DeltaBatch::new().retract(gone)).unwrap_err();
        assert!(matches!(err, WriteError::MissingRetraction(_)), "{err}");
        assert_eq!(live.write_epoch(), 1);

        // So does retracting a present triple twice in one batch, and the
        // whole batch is refused.
        let before = live.snapshot();
        let twice = Triple::attribute("re1URI", "name", "Thanh Tran");
        let batch = DeltaBatch::new().retract(twice.clone()).retract(twice);
        let err = live.apply(&batch).unwrap_err();
        assert!(matches!(err, WriteError::MissingRetraction(_)), "{err}");
        assert!(Arc::ptr_eq(&before, &live.snapshot()));
        assert_eq!(live.write_epoch(), 1);
    }

    #[test]
    fn retracting_a_subclass_edge_detaches_the_class() {
        // The subject of a `subclass` triple is a class, not an entity.
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let edge = Triple::subclass("Researcher", "Person");
        let ticket = live.apply(&DeltaBatch::new().retract(edge)).unwrap();
        assert_eq!(ticket.retracted(), 1);
        let snapshot = live.snapshot();
        let graph = snapshot.graph();
        assert_eq!(graph.edge_count(), figure1_graph().edge_count() - 1);
        let researcher = graph.class("Researcher").unwrap();
        assert!(graph.superclasses_of(researcher).is_empty());
    }

    /// Retracting a triple and adding it back in one batch moves it to the
    /// end of the edge order: the successor reads as a fresh preparation of
    /// the triples in that order.
    #[test]
    fn retracting_and_re_adding_reads_as_a_fresh_preparation() {
        let live = LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let moved = Triple::attribute("re2URI", "name", "P. Cimiano");
        let ticket = live
            .apply(&DeltaBatch::new().retract(moved.clone()).add(moved.clone()))
            .unwrap();
        assert_eq!((ticket.retracted(), ticket.added_edges()), (1, 1));

        let mut merged = DataGraph::new();
        for t in figure1_triples().iter().filter(|&t| *t != moved) {
            merged.insert_triple(t).unwrap();
        }
        merged.insert_triple(&moved).unwrap();
        let fresh = PreparedGraph::index(merged);
        let snapshot = live.snapshot();
        for scoring in ScoringFunction::all() {
            for keywords in [&["cimiano", "aifb"][..], &["2006", "cimiano", "aifb"][..]] {
                let config = SearchConfig::with_k(5).scoring(scoring);
                let got = outcome(&snapshot, keywords, config.clone());
                let want = outcome(&fresh, keywords, config);
                assert_outcomes_bit_identical(&got, &want, &format!("{scoring:?} {keywords:?}"));
            }
        }
    }

    #[test]
    fn compaction_is_proven_and_invisible_to_readers() {
        // Round-trip the base through the snapshot path so the data graph
        // derives its adjacency base from the edge columns, and the write
        // appends its edges beside that base.
        let mut bytes = Vec::new();
        PreparedGraph::index(figure1_graph())
            .save(&mut bytes)
            .unwrap();
        let live = LiveGraph::new(PreparedGraph::load(&bytes[..]).unwrap());
        live.apply(&mixed_batch()).unwrap();
        let snapshot = live.snapshot();
        assert!(snapshot.store().has_delta());
        assert!(snapshot.keyword_index().has_delta());

        let config = SearchConfig::with_k(5);
        let before = outcome(&snapshot, &["streaming", "cimiano"], config.clone());

        let report = live.compact().unwrap();
        assert!(report.compacted);
        assert!(report.folded_rows > 0);
        assert_eq!(report.epoch, 1);

        let compacted = live.snapshot();
        assert!(!compacted.store().has_delta());
        assert!(!compacted.keyword_index().has_delta());
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

    /// A live store missing one row of its graph must fail the proof, and
    /// the live state must stay as it was.
    #[test]
    fn compaction_refuses_a_store_that_disagrees_with_its_graph() {
        let graph = figure1_graph();
        let n = graph.edge_count();
        // A base of all but the last two edges, plus a delta of the last one:
        // the second-to-last row is missing.
        let mut store = TripleStore::build(&graph.edge_subset(|e, _| e.index() + 2 < n));
        let last = graph.edge(EdgeId::from_index(n as u32 - 1));
        store.add_rows(&[SpoRow {
            subject: last.from,
            predicate: last.label,
            object: last.to,
        }]);
        assert_eq!(store.len(), n - 1);
        let prepared = PreparedGraph::from_shared_parts(
            graph.clone(),
            kwsearch_keyword_index::KeywordIndex::build(&graph),
            SummaryGraph::build(&graph),
            store,
            Arc::new(AugmentationCache::new(0)),
            0,
        );
        let live = LiveGraph::new(prepared);
        let before = live.snapshot();

        let err = live.compact().unwrap_err();
        assert!(
            matches!(
                err,
                CompactError::NotBitIdentical { compacted_len, rebuilt_len, .. }
                    if compacted_len == n - 1 && rebuilt_len == n
            ),
            "{err}"
        );
        let after = live.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(after.write_epoch(), 0);
        assert_eq!(after.store().len(), n - 1);
    }

    /// A live summary that is not its graph's must fail the proof too, even
    /// though the store agrees, and the live state must stay as it was.
    #[test]
    fn compaction_refuses_a_summary_that_disagrees_with_its_graph() {
        let graph = figure1_graph();
        let n = graph.edge_count();
        // The store holds every row, the last one as a delta, so there is
        // something to fold; the summary misses the graph's last edges.
        let partial = graph.edge_subset(|e, _| e.index() + 1 < n);
        let mut store = TripleStore::build(&partial);
        let last = graph.edge(EdgeId::from_index(n as u32 - 1));
        store.add_rows(&[SpoRow {
            subject: last.from,
            predicate: last.label,
            object: last.to,
        }]);
        let stale = SummaryGraph::build(&graph.edge_subset(|e, _| e.index() < n / 2));
        assert_ne!(stale, SummaryGraph::build(&graph));
        let prepared = PreparedGraph::from_shared_parts(
            graph.clone(),
            kwsearch_keyword_index::KeywordIndex::build(&graph),
            stale,
            store,
            Arc::new(AugmentationCache::new(0)),
            0,
        );
        let live = LiveGraph::new(prepared);
        let before = live.snapshot();

        let err = live.compact().unwrap_err();
        assert!(matches!(err, CompactError::NotBitIdentical { .. }), "{err}");
        let after = live.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(after.write_epoch(), 0);
        assert!(after.store().has_delta());
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

    /// Writers must not block readers. A reader spawned from inside the
    /// write section — `writer` held, successor being built — must get its
    /// snapshot while the write waits on it, and that snapshot is the
    /// pre-write one. With the lock `snapshot` takes held across the build,
    /// the reader blocks on the writer, the writer on the reader, and the
    /// `recv_timeout` turns that deadlock into a failure instead of a hang.
    #[test]
    fn snapshots_are_served_while_a_write_is_in_flight() {
        let batch = DeltaBatch::new().add(Triple::attribute("pub1URI", "note", "in flight"));
        let live = &LiveGraph::new(PreparedGraph::index(figure1_graph()));
        let before = live.snapshot();
        let (ticket, seen) = std::thread::scope(|scope| {
            live.write(|current| {
                assert!(std::ptr::eq(current, &*before));
                let (tx, rx) = std::sync::mpsc::channel();
                scope.spawn(move || tx.send(live.snapshot()));
                let seen = rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("a reader blocked behind the write in flight");
                let (next, ticket) = LiveGraph::apply_adds(current, &batch)?;
                Ok::<_, WriteError>((next, (ticket, seen)))
            })
            .unwrap()
        });
        assert!(
            Arc::ptr_eq(&seen, &before),
            "a snapshot served during the write is the pre-write one"
        );
        let after = live.snapshot();
        assert!(
            !Arc::ptr_eq(&after, &before),
            "the successor is installed once the write returns"
        );
        assert_eq!(ticket.epoch(), 1);
        assert_eq!(after.write_epoch(), 1, "read-your-writes");
    }
}
