//! Disk-backed snapshots of a [`PreparedGraph`]: O(bytes) cold start.
//!
//! Re-parsing the source triples and rebuilding the keyword index is the
//! dominant cold-start cost at the paper's evaluation scale (10⁶–10⁷
//! triples). A snapshot sidesteps it: the data graph and the keyword index
//! are written as flat, length-prefixed little-endian buffers inside the
//! checksummed section container of [`kwsearch_rdf::snapshot`], and loading
//! is a sequence of bulk reads into the same dense-id structures the engine
//! searches — no re-parsing of triples. What is a pure function of the graph
//! is not stored: the interner rehashes its strings into its probe table,
//! the graph derives its adjacency, and the load derives the summary graph
//! ([`SummaryGraph::build`](kwsearch_summary::SummaryGraph::build), the
//! off-line projection of Definition 4) and the triple store
//! ([`TripleStore::build`](kwsearch_rdf::TripleStore::build), counting
//! sorts over the dense ids). A load pays for those derivations, and in
//! return the snapshot holds no copy that could disagree with the graph.
//!
//! The container layout (magic, format version, checksummed section table)
//! is documented in [`kwsearch_rdf::snapshot`]. This module assigns one
//! section per component:
//!
//! | id | section | content |
//! |----|---------|---------|
//! | 2  | graph   | interner strings and offsets, vertex/edge columns |
//! | 4  | keyword | analyzer + config + thesaurus + frozen posting lists + value connections |
//!
//! Id 1 held a metadata section (the build time and counts the graph section
//! repeats) up to format version 4, id 3 the triple store up to version 2,
//! and id 5 the summary graph up to version 3; none is reused.
//!
//! Every load path validates checksums before parsing and structural
//! invariants during parsing. The graph must hold what insertion enforces:
//! each interned string once, every edge within Definition 1's kind rule, no
//! edge twice (found in the derived SPO order). The keyword section is
//! decoded against the loaded graph, so each vertex or label id it holds
//! must name an element of the graph of the kind its tag says. Corrupt or
//! version-mismatched input yields a typed [`SnapshotError`], never a panic
//! or a partially-initialised graph. Search results over a loaded graph are
//! bit-identical to results over the originally built graph (pinned by
//! `tests/snapshot_roundtrip.rs` and the cross-thread determinism suite).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use kwsearch_keyword_index::KeywordIndex;
use kwsearch_rdf::snapshot::{SectionEncoder, SnapshotError, SnapshotReader, SnapshotWriter};
use kwsearch_rdf::DataGraph;

use crate::cache::AugmentationCache;
use crate::prepared::PreparedGraph;

/// Section id of the data graph.
pub const SECTION_GRAPH: u32 = 2;
/// Section id of the keyword index.
pub const SECTION_KEYWORD: u32 = 4;

impl PreparedGraph {
    /// Serialises the complete prepared graph into `writer`.
    ///
    /// Equal prepared graphs produce byte-identical snapshots (all hash-map
    /// iteration is sorted or avoided on the write path), so snapshots can
    /// be diffed and content-addressed.
    pub fn save<W: Write>(&self, writer: &mut W) -> Result<(), SnapshotError> {
        // The graph's appended edges flatten on write, and the summary and
        // the store are not written at all, but the keyword index's delta
        // vocabulary has no frozen representation — refuse with a typed
        // error before its snapshot writer asserts.
        if self.keyword_index().has_delta() {
            return Err(SnapshotError::Corrupt {
                section: SECTION_KEYWORD,
                detail: "keyword index carries a live-update delta; \
                         compact the LiveGraph before saving"
                    .into(),
            });
        }
        let mut snapshot = SnapshotWriter::new();

        let mut graph = SectionEncoder::new();
        self.graph().write_snapshot(&mut graph);
        snapshot.add_section(SECTION_GRAPH, graph);

        let mut keyword = SectionEncoder::new();
        self.keyword_index().write_snapshot(&mut keyword);
        snapshot.add_section(SECTION_KEYWORD, keyword);

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

        let mut dec = snapshot.section(SECTION_GRAPH)?;
        let graph = DataGraph::read_snapshot(&mut dec)?;
        dec.finish()?;

        // A small fraction of the graph's bytes, decoded after it and checked
        // against the graph it indexes.
        let mut dec = snapshot.section(SECTION_KEYWORD)?;
        let keyword_index = KeywordIndex::read_snapshot(&mut dec, &graph)?;
        dec.finish()?;

        let prepared = Self::derive(
            graph,
            keyword_index,
            Arc::new(AugmentationCache::new(cache_capacity)),
            0,
        );
        // Inserts keep the edges a set: a repeated edge is corrupt, and it
        // sits next to its twin in the SPO order just derived.
        if let Some(row) = prepared.store().repeated_row() {
            return Err(SnapshotError::Corrupt {
                section: SECTION_GRAPH,
                detail: format!("edge {row:?} is repeated"),
            });
        }
        Ok(prepared)
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
    use kwsearch_rdf::EdgeId;

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

    /// A checksum-valid graph section that repeats an edge loads as a graph
    /// (its decode checks edges one at a time), and the load refuses it.
    #[test]
    fn a_repeated_edge_is_corrupt() {
        let prepared = PreparedGraph::index(figure1_graph());
        let graph = prepared.graph();
        let mut section = SectionEncoder::new();
        graph.write_snapshot(&mut section);
        let mut section = section.into_bytes();
        // The section ends with the label, source and target columns of the
        // edges, each a u64 length and then one u32 per edge: copy edge 0
        // over edge 1 in all three.
        let m = graph.edge_count();
        let columns = section.len() - 3 * (8 + 4 * m);
        for c in 0..3 {
            let first = columns + c * (8 + 4 * m) + 8;
            section.copy_within(first..first + 4, first + 4);
        }
        let mut dec = kwsearch_rdf::SectionDecoder::new(SECTION_GRAPH, &section);
        let repeated = DataGraph::read_snapshot(&mut dec).unwrap();
        assert_eq!(
            repeated.edge(EdgeId::from_index(1)),
            graph.edge(EdgeId::from_index(0))
        );

        let mut snapshot = SnapshotWriter::new();
        let mut graph_section = SectionEncoder::new();
        repeated.write_snapshot(&mut graph_section);
        snapshot.add_section(SECTION_GRAPH, graph_section);
        let mut keyword = SectionEncoder::new();
        prepared.keyword_index().write_snapshot(&mut keyword);
        snapshot.add_section(SECTION_KEYWORD, keyword);
        let mut bytes = Vec::new();
        snapshot.write_to(&mut bytes).unwrap();
        let err = PreparedGraph::load(bytes.as_slice()).err();
        assert!(
            matches!(&err, Some(SnapshotError::Corrupt { section, detail })
                if *section == SECTION_GRAPH && detail.contains("is repeated")),
            "{err:?}"
        );
    }

    /// Two labels between one pair are two edges, not a repeat.
    #[test]
    fn parallel_edges_load() {
        let mut graph = figure1_graph();
        graph
            .insert_triple(&kwsearch_rdf::Triple::relation(
                "pub1URI", "editor", "re1URI",
            ))
            .unwrap();
        let prepared = PreparedGraph::index(graph);
        let loaded = PreparedGraph::load(saved_bytes(&prepared).as_slice()).unwrap();
        assert_eq!(loaded.graph().edge_count(), prepared.graph().edge_count());
    }
}
