//! Disk-backed snapshots of a [`PreparedGraph`]: O(bytes) cold start.
//!
//! Rebuilding the keyword index, summary graph and triple store from source
//! triples is the dominant cold-start cost at the paper's evaluation scale
//! (10⁶–10⁷ triples). A snapshot sidesteps it: every index structure is
//! written as flat, length-prefixed little-endian buffers inside the
//! checksummed section container of [`kwsearch_rdf::snapshot`], and loading
//! is a sequence of bulk reads into the same dense-id structures the engine
//! searches — no re-parsing, no re-hashing of interned strings, no
//! re-sorting of triple permutations.
//!
//! The container layout (magic, format version, checksummed section table)
//! is documented in [`kwsearch_rdf::snapshot`]. This module assigns one
//! section per component:
//!
//! | id | section | content |
//! |----|---------|---------|
//! | 1  | meta    | original index-build time, sanity counts |
//! | 2  | graph   | interner, vertex/edge columns (adjacency is derived on load) |
//! | 3  | store   | the three sorted triple permutations |
//! | 4  | keyword | analyzer + config + thesaurus + frozen posting lists |
//! | 5  | summary | summary-graph node/edge columns + totals |
//!
//! Every load path validates checksums before parsing and structural
//! invariants during parsing; corrupt or version-mismatched input yields a
//! typed [`SnapshotError`], never a panic or a partially-initialised graph.
//! Search results over a loaded graph are bit-identical to results over the
//! originally built graph (pinned by `tests/snapshot_roundtrip.rs` and the
//! cross-thread determinism suite).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::time::Duration;

use kwsearch_keyword_index::KeywordIndex;
use kwsearch_rdf::snapshot::{
    parallel_load, SectionEncoder, SnapshotError, SnapshotReader, SnapshotWriter,
};
use kwsearch_rdf::{DataGraph, TripleStore};
use kwsearch_summary::SummaryGraph;

use crate::cache::AugmentationCache;
use crate::prepared::PreparedGraph;

/// Joins a section-decoding thread, propagating its typed error and
/// re-raising its panic (decoders are panic-free on arbitrary input; a
/// panic here is a bug worth surfacing, not swallowing).
fn join_section<T>(
    handle: std::thread::ScopedJoinHandle<'_, Result<T, SnapshotError>>,
) -> Result<T, SnapshotError> {
    match handle.join() {
        Ok(result) => result,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Section id of the metadata section (build time + sanity counts).
pub const SECTION_META: u32 = 1;
/// Section id of the data graph.
pub const SECTION_GRAPH: u32 = 2;
/// Section id of the triple store.
pub const SECTION_STORE: u32 = 3;
/// Section id of the keyword index.
pub const SECTION_KEYWORD: u32 = 4;
/// Section id of the summary graph.
pub const SECTION_SUMMARY: u32 = 5;

impl PreparedGraph {
    /// Serialises the complete prepared graph into `writer`.
    ///
    /// Equal prepared graphs produce byte-identical snapshots (all hash-map
    /// iteration is sorted or avoided on the write path), so snapshots can
    /// be diffed and content-addressed.
    pub fn save<W: Write>(&self, writer: &mut W) -> Result<(), SnapshotError> {
        // Live-update deltas of the graph and the store flatten on write
        // (their snapshots merge base and overlay), but the keyword index's
        // delta vocabulary has no frozen representation — refuse with a
        // typed error before its snapshot writer asserts.
        if self.keyword_index().has_delta() {
            return Err(SnapshotError::Corrupt {
                section: SECTION_KEYWORD,
                detail: "keyword index carries a live-update delta; \
                         compact the LiveGraph before saving"
                    .into(),
            });
        }
        let mut snapshot = SnapshotWriter::new();

        let mut meta = SectionEncoder::new();
        meta.put_u64(self.index_build_time().as_nanos() as u64);
        meta.put_u64(self.graph().vertex_count() as u64);
        meta.put_u64(self.graph().edge_count() as u64);
        snapshot.add_section(SECTION_META, meta);

        let mut graph = SectionEncoder::new();
        self.graph().write_snapshot(&mut graph);
        snapshot.add_section(SECTION_GRAPH, graph);

        let mut store = SectionEncoder::new();
        self.store().write_snapshot(&mut store);
        snapshot.add_section(SECTION_STORE, store);

        let mut keyword = SectionEncoder::new();
        self.keyword_index().write_snapshot(&mut keyword);
        snapshot.add_section(SECTION_KEYWORD, keyword);

        let mut summary = SectionEncoder::new();
        self.summary().write_snapshot(&mut summary);
        snapshot.add_section(SECTION_SUMMARY, summary);

        snapshot.write_to(writer)
    }

    /// [`Self::save`] into a buffered file at `path` (created or truncated).
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        self.save(&mut writer)?;
        writer.flush()?;
        Ok(())
    }

    /// Loads a prepared graph saved by [`Self::save`], with the default
    /// augmentation-cache capacity.
    pub fn load<R: Read>(reader: R) -> Result<Self, SnapshotError> {
        Self::load_with(reader, AugmentationCache::DEFAULT_CAPACITY)
    }

    /// Loads a prepared graph with an explicit augmentation-cache capacity
    /// (0 disables caching). The cache always starts empty — cache hits are
    /// proven bit-identical to misses, so this cannot change results.
    pub fn load_with<R: Read>(reader: R, cache_capacity: usize) -> Result<Self, SnapshotError> {
        let snapshot = SnapshotReader::read_from(reader)?;

        let mut meta = snapshot.section(SECTION_META)?;
        let index_build_time = Duration::from_nanos(meta.get_u64()?);
        let vertex_count = meta.get_u64()?;
        let edge_count = meta.get_u64()?;
        meta.finish()?;

        // The four component sections only read their own payload, so on a
        // multicore host they decode on parallel scoped threads — the
        // cold-start wall time is the *largest* section (the graph) instead
        // of the sum. On a single-core host the serial twin below is used
        // instead (see [`kwsearch_rdf::snapshot::parallel_load`]). Assembly
        // is unchanged either way, so both paths build identical graphs.
        let (graph, store, keyword_index, summary) = if parallel_load() {
            std::thread::scope(|scope| {
                let store_thread = scope.spawn(|| {
                    let mut dec = snapshot.section(SECTION_STORE)?;
                    let store = TripleStore::read_snapshot(&mut dec)?;
                    dec.finish()?;
                    Ok::<_, SnapshotError>(store)
                });
                let keyword_thread = scope.spawn(|| {
                    let mut dec = snapshot.section(SECTION_KEYWORD)?;
                    let keyword_index = KeywordIndex::read_snapshot(&mut dec)?;
                    dec.finish()?;
                    Ok::<_, SnapshotError>(keyword_index)
                });
                let summary_thread = scope.spawn(|| {
                    let mut dec = snapshot.section(SECTION_SUMMARY)?;
                    let summary = SummaryGraph::read_snapshot(&mut dec)?;
                    dec.finish()?;
                    Ok::<_, SnapshotError>(summary)
                });

                let mut dec = snapshot.section(SECTION_GRAPH)?;
                let graph = DataGraph::read_snapshot(&mut dec)?;
                dec.finish()?;

                Ok::<_, SnapshotError>((
                    graph,
                    join_section(store_thread)?,
                    join_section(keyword_thread)?,
                    join_section(summary_thread)?,
                ))
            })?
        } else {
            let mut dec = snapshot.section(SECTION_GRAPH)?;
            let graph = DataGraph::read_snapshot(&mut dec)?;
            dec.finish()?;
            let mut dec = snapshot.section(SECTION_STORE)?;
            let store = TripleStore::read_snapshot(&mut dec)?;
            dec.finish()?;
            let mut dec = snapshot.section(SECTION_KEYWORD)?;
            let keyword_index = KeywordIndex::read_snapshot(&mut dec)?;
            dec.finish()?;
            let mut dec = snapshot.section(SECTION_SUMMARY)?;
            let summary = SummaryGraph::read_snapshot(&mut dec)?;
            dec.finish()?;
            (graph, store, keyword_index, summary)
        };

        if graph.vertex_count() as u64 != vertex_count || graph.edge_count() as u64 != edge_count {
            return Err(SnapshotError::Corrupt {
                section: SECTION_META,
                detail: "graph counts disagree with the metadata section".to_string(),
            });
        }

        Ok(Self::from_parts(
            graph,
            keyword_index,
            summary,
            store,
            cache_capacity,
            index_build_time,
        ))
    }

    /// [`Self::load`] from a buffered file at `path`.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let file = File::open(path)?;
        Self::load(BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use kwsearch_rdf::fixtures::figure1_graph;

    fn saved_bytes(prepared: &PreparedGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        prepared.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn save_load_round_trip_preserves_search_results() {
        let prepared = PreparedGraph::index(figure1_graph());
        let bytes = saved_bytes(&prepared);
        let loaded = PreparedGraph::load(bytes.as_slice()).unwrap();

        assert_eq!(loaded.index_build_time(), prepared.index_build_time());
        assert_eq!(
            loaded.graph().vertex_count(),
            prepared.graph().vertex_count()
        );
        assert_eq!(loaded.graph().edge_count(), prepared.graph().edge_count());

        let reference = prepared
            .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome();
        let from_snapshot = loaded
            .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome();
        assert_eq!(from_snapshot.queries.len(), reference.queries.len());
        for (got, want) in from_snapshot.queries.iter().zip(reference.queries.iter()) {
            assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            assert_eq!(got.query.canonicalized(), want.query.canonicalized());
        }
    }

    #[test]
    fn snapshots_are_deterministic() {
        let prepared = PreparedGraph::index(figure1_graph());
        let bytes = saved_bytes(&prepared);
        let reloaded = PreparedGraph::load(bytes.as_slice()).unwrap();
        assert_eq!(saved_bytes(&reloaded), bytes);
    }

    #[test]
    fn save_to_path_and_load_from_path_round_trip() {
        let prepared = PreparedGraph::index(figure1_graph());
        let path =
            std::env::temp_dir().join(format!("kwsearch-persist-test-{}.snap", std::process::id()));
        prepared.save_to_path(&path).unwrap();
        let loaded = PreparedGraph::load_from_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.graph().edge_count(), prepared.graph().edge_count());
    }

    #[test]
    fn metadata_count_mismatch_is_rejected() {
        let prepared = PreparedGraph::index(figure1_graph());
        // Re-author the snapshot with a lying metadata section.
        let mut snapshot = SnapshotWriter::new();
        let mut meta = SectionEncoder::new();
        meta.put_u64(prepared.index_build_time().as_nanos() as u64);
        meta.put_u64(prepared.graph().vertex_count() as u64 + 1);
        meta.put_u64(prepared.graph().edge_count() as u64);
        snapshot.add_section(SECTION_META, meta);
        for (id, write) in [
            (SECTION_GRAPH, true),
            (SECTION_STORE, false),
            (SECTION_KEYWORD, false),
            (SECTION_SUMMARY, false),
        ] {
            let mut enc = SectionEncoder::new();
            if write {
                prepared.graph().write_snapshot(&mut enc);
            } else if id == SECTION_STORE {
                prepared.store().write_snapshot(&mut enc);
            } else if id == SECTION_KEYWORD {
                prepared.keyword_index().write_snapshot(&mut enc);
            } else {
                prepared.summary().write_snapshot(&mut enc);
            }
            snapshot.add_section(id, enc);
        }
        let mut bytes = Vec::new();
        snapshot.write_to(&mut bytes).unwrap();
        assert!(matches!(
            PreparedGraph::load(bytes.as_slice()),
            Err(SnapshotError::Corrupt { section, .. }) if section == SECTION_META
        ));
    }
}
