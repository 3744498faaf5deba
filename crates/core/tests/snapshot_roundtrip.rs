//! Snapshot round-trip suite: a loaded [`PreparedGraph`] must be
//! *bit-identical* to the one it was saved from — same cost bits, canonical
//! query strings, element sets and answer rows, for all three scoring
//! functions — on the paper's Figure 1 graph and on randomly generated
//! graphs. Corrupt input (truncation, bit flips, foreign files, future
//! format versions, seeded mutations behind a valid checksum) must yield a
//! typed [`SnapshotError`], never a panic or a partially-initialised graph.

use proptest::prelude::*;

use kwsearch_core::persist::{SECTION_GRAPH, SECTION_KEYWORD};
use kwsearch_core::{PreparedGraph, ScoringFunction, SearchConfig};
use kwsearch_rdf::fixtures::figure1_graph;
use kwsearch_rdf::snapshot::{checksum64, SnapshotError, FORMAT_VERSION};
use kwsearch_rdf::{DataGraph, Triple};

/// One emitted query's identity: cost bits, canonical conjunctive query and
/// sorted element labels.
type QueryKey = (u64, String, Vec<String>);

/// A drained session's identity: queries in emission order plus the sorted
/// answer rows of an `answers_until` phase.
type SessionKey = (Vec<QueryKey>, Vec<String>);

/// The bit-identity fingerprint of draining one session: per emitted query
/// the cost bits, canonical conjunctive query and sorted element labels,
/// plus the sorted answer rows of an `answers_until` phase.
fn fingerprint(prepared: &PreparedGraph, keywords: &[String], config: SearchConfig) -> SessionKey {
    let mut session = match prepared.session(keywords, config) {
        Ok(session) => session,
        Err(_) => return (Vec::new(), Vec::new()),
    };
    let phase = session.answers_until(2);
    let mut answers: Vec<String> = phase
        .answers
        .iter()
        .flat_map(|set| set.rows().iter().map(|row| format!("{row:?}")))
        .collect();
    answers.sort_unstable();
    let mut queries: Vec<QueryKey> = session
        .queries()
        .iter()
        .map(|ranked| {
            let mut elements: Vec<String> = ranked
                .subgraph
                .elements()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            elements.sort_unstable();
            (
                ranked.cost.to_bits(),
                ranked.query.canonicalized().to_string(),
                elements,
            )
        })
        .collect();
    while let Some(ranked) = session.next_query() {
        let mut elements: Vec<String> = ranked
            .subgraph
            .elements()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        elements.sort_unstable();
        queries.push((
            ranked.cost.to_bits(),
            ranked.query.canonicalized().to_string(),
            elements,
        ));
    }
    (queries, answers)
}

fn saved_bytes(prepared: &PreparedGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    prepared.save(&mut bytes).expect("in-memory save");
    bytes
}

/// Asserts save → load is invisible to searches: every scoring function,
/// on the given workload, produces bit-identical streams on both sides.
fn assert_roundtrip_invisible(graph: DataGraph, workload: &[Vec<String>]) {
    let built = PreparedGraph::index(graph);
    let loaded = PreparedGraph::load(saved_bytes(&built).as_slice()).expect("load own snapshot");
    assert_eq!(loaded.graph().vertex_count(), built.graph().vertex_count());
    assert_eq!(loaded.graph().edge_count(), built.graph().edge_count());
    assert_eq!(
        loaded.summary(),
        built.summary(),
        "the summary derived on load differs from the built one"
    );
    for keywords in workload {
        for scoring in ScoringFunction::all() {
            let config = SearchConfig::with_k(5).scoring(scoring);
            assert_eq!(
                fingerprint(&loaded, keywords, config.clone()),
                fingerprint(&built, keywords, config),
                "snapshot round trip changed results for {keywords:?} under {scoring}"
            );
        }
    }
}

#[test]
fn figure1_roundtrip_is_bit_identical() {
    let workload = vec![
        vec![
            "2006".to_string(),
            "cimiano".to_string(),
            "aifb".to_string(),
        ],
        vec!["cimiano".to_string(), "publication".to_string()],
        vec!["publications".to_string()],
    ];
    assert_roundtrip_invisible(figure1_graph(), &workload);
}

#[test]
fn loaded_graphs_accept_further_mutation() {
    // A loaded graph derives its adjacency base from the edge columns; a
    // mutation appends beside it and leaves the graph fully editable — and
    // a re-saved snapshot of the *unmutated* load must be byte-identical to
    // the original.
    let built = PreparedGraph::index(figure1_graph());
    let bytes = saved_bytes(&built);
    let loaded = PreparedGraph::load(bytes.as_slice()).expect("load");
    assert_eq!(saved_bytes(&loaded), bytes, "re-save must be byte-stable");

    let mut graph = loaded.graph().clone();
    let before = graph.edge_count();
    graph
        .insert_triple(&Triple::attribute("pub1URI", "note", "post-load edit"))
        .expect("mutating a loaded graph");
    assert_eq!(graph.edge_count(), before + 1);
    let reindexed = PreparedGraph::index(graph);
    assert_eq!(reindexed.graph().edge_count(), before + 1);
}

// ---------------------------------------------------------------------------
// Corruption robustness: typed errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn truncated_snapshots_are_rejected_at_every_length() {
    let bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    // Sampling every prefix would be slow (the snapshot is tens of KiB);
    // a stride plus the boundary cases covers header, table and payloads.
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(257).collect();
    cuts.extend([0, 1, 7, 8, 15, 16, bytes.len() - 1]);
    for cut in cuts {
        match PreparedGraph::load(&bytes[..cut]) {
            Err(
                SnapshotError::Truncated | SnapshotError::BadMagic | SnapshotError::Corrupt { .. },
            ) => {}
            other => panic!("prefix of {cut} bytes must be rejected, got {other:?}"),
        }
    }
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    // The last byte belongs to the last section's payload.
    let mut flipped = bytes.clone();
    *flipped.last_mut().expect("non-empty snapshot") ^= 0x01;
    assert!(matches!(
        PreparedGraph::load(flipped.as_slice()),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn foreign_files_are_rejected_by_magic() {
    let mut bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    bytes[0] ^= 0xFF;
    assert!(matches!(
        PreparedGraph::load(bytes.as_slice()),
        Err(SnapshotError::BadMagic)
    ));
    assert!(matches!(
        PreparedGraph::load(&b"PK\x03\x04 definitely a zip file"[..]),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn future_format_versions_are_rejected_with_the_found_version() {
    let bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    // The version field is the little-endian u32 right after the magic. An
    // older file is refused as firmly as a newer one: version 5 carried
    // attribute classes in the keyword section, version 4 a metadata
    // section and the interner's probe table, version 3 a summary section,
    // and version 1 adjacency columns in the graph section, which this
    // build must never read.
    for other in [FORMAT_VERSION + 1, 5, 4, 3, 1] {
        let mut bytes = bytes.clone();
        bytes[8..12].copy_from_slice(&other.to_le_bytes());
        assert!(matches!(
            PreparedGraph::load(bytes.as_slice()),
            Err(SnapshotError::UnsupportedVersion { found }) if found == other
        ));
    }
}

/// The section table of a snapshot, in file order: per section its id, the
/// byte range of its payload and its checksum. The table follows the 16-byte
/// header (magic, version, section count) at 20 bytes per section (id, payload
/// length, checksum), and the payloads follow the table in the same order.
fn section_table(bytes: &[u8]) -> Vec<(u32, std::ops::Range<usize>, u64)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let count = u32_at(12) as usize;
    let mut start = 16 + 20 * count;
    (0..count)
        .map(|i| {
            let entry = 16 + 20 * i;
            let len = u64_at(entry + 4) as usize;
            start += len;
            (u32_at(entry), start - len..start, u64_at(entry + 12))
        })
        .collect()
}

/// `bytes` with the payload of section `id` replaced by `payload`, and the
/// section table's length and checksum for it rewritten to match, so the
/// container accepts the section and its decoder sees the new bytes.
fn with_section(bytes: &[u8], id: u32, payload: &[u8]) -> Vec<u8> {
    let table = section_table(bytes);
    let mut out = bytes[..table[0].1.start].to_vec();
    for (i, (sid, range, _)) in table.into_iter().enumerate() {
        let payload = if sid == id { payload } else { &bytes[range] };
        let entry = 16 + 20 * i;
        out[entry + 4..entry + 12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out[entry + 12..entry + 20].copy_from_slice(&checksum64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// The payload of section `id` of a snapshot.
fn section(bytes: &[u8], id: u32) -> Vec<u8> {
    section_table(bytes)
        .into_iter()
        .find(|(sid, ..)| *sid == id)
        .map(|(_, range, _)| bytes[range].to_vec())
        .expect("the section is present")
}

#[test]
fn a_posting_past_the_vertex_table_is_corrupt() {
    // A keyword section indexed over a graph with one more value vertex
    // ("Zebra", the last id), spliced into the snapshot of the graph
    // without it: its postings name a vertex past the vertex table.
    let mut wider = figure1_graph();
    wider
        .insert_triple(&Triple::attribute("inst1URI", "name", "Zebra"))
        .expect("a well-formed triple");
    let keyword = section(&saved_bytes(&PreparedGraph::index(wider)), SECTION_KEYWORD);

    let bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    let spliced = with_section(&bytes, SECTION_KEYWORD, &keyword);
    match PreparedGraph::load(spliced.as_slice()) {
        Err(SnapshotError::Corrupt { section, detail }) => {
            assert_eq!(section, SECTION_KEYWORD);
            assert!(detail.contains("Value"), "{detail}");
        }
        other => panic!("a posting past the vertex table must be corrupt, got {other:?}"),
    }
}

/// A graph section whose interner holds one string twice: two vertices
/// would share a label, and `entity` could find at most one of them. The
/// load refuses it.
#[test]
fn a_repeated_interned_string_is_corrupt() {
    let mut graph = figure1_graph();
    graph
        .insert_triple(&Triple::relation("twinA", "knows", "twinB"))
        .expect("a well-formed triple");
    let bytes = saved_bytes(&PreparedGraph::index(graph));
    // The graph section opens with the interner's blob: rename `twinB` to
    // `twinA` in place, leaving every offset and column as it was.
    let mut graph_section = section(&bytes, SECTION_GRAPH);
    let at = graph_section
        .windows(5)
        .position(|w| w == b"twinB")
        .expect("the label is in the blob");
    graph_section[at + 4] = b'A';
    match PreparedGraph::load(with_section(&bytes, SECTION_GRAPH, &graph_section).as_slice()) {
        Err(SnapshotError::Corrupt { section, detail }) => {
            assert_eq!(section, SECTION_GRAPH);
            assert!(detail.contains("repeats"), "{detail}");
        }
        other => panic!(
            "a repeated interned string must be corrupt, got {:?}",
            other.map(|_| ())
        ),
    }
}

/// SplitMix64: a seeded, std-only source of mutations.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), up to a negligible modulo bias.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte biased toward the values that make ids and lengths
    /// interesting: 0, 1, 0xFF, or any.
    fn byte(&mut self) -> u8 {
        match self.below(4) {
            0 => 0,
            1 => 1,
            2 => 0xFF,
            _ => self.next() as u8,
        }
    }
}

/// Seeded mutations inside one section's payload: each round overwrites,
/// inserts or deletes a few bytes of the graph or the keyword section and
/// re-seals it with a matching length and checksum, so the decoder, not the
/// checksum, meets the damage. Every load returns `Ok` or a typed
/// [`SnapshotError`]; a panic fails the test and names the mutation.
#[test]
fn mutated_sections_load_or_fail_typed() {
    const ROUNDS: usize = 8_000;
    let bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    let ids = [SECTION_GRAPH, SECTION_KEYWORD];
    let mut rng = SplitMix64(2009);
    let mut rejected = 0;
    for round in 0..ROUNDS {
        let id = ids[rng.below(ids.len())];
        let mut payload = section(&bytes, id);
        let at = rng.below(payload.len());
        let n = 1 + rng.below(8);
        let mutation = match rng.below(3) {
            0 => {
                let end = (at + n).min(payload.len());
                for byte in &mut payload[at..end] {
                    *byte = rng.byte();
                }
                "overwrite"
            }
            1 => {
                let inserted: Vec<u8> = (0..n).map(|_| rng.byte()).collect();
                payload.splice(at..at, inserted);
                "insert"
            }
            _ => {
                payload.drain(at..(at + n).min(payload.len()));
                "delete"
            }
        };
        let mutated = with_section(&bytes, id, &payload);
        let loaded = std::panic::catch_unwind(|| PreparedGraph::load(mutated.as_slice()).is_ok())
            .unwrap_or_else(|_| {
                panic!("round {round}: {mutation} of {n} bytes at {at} in section {id} panicked")
            });
        if !loaded {
            rejected += 1;
        }
    }
    // Most mutations break a structural invariant; the test must not pass
    // by never reaching the decoder.
    assert!(
        rejected > ROUNDS / 2,
        "only {rejected} of {ROUNDS} rejected"
    );
}

/// The snapshot layout, pinned to its version: [`FORMAT_VERSION`] and, per
/// section in file order, its id and the checksum of its Figure-1 payload.
/// When these checksums move, the bytes a snapshot holds have changed. If
/// the layout changed, bump `FORMAT_VERSION` in the same change and re-pin
/// both; if only the content did (a new thesaurus entry, say), re-pin the
/// checksums alone.
const FIGURE1_LAYOUT: (u32, [(u32, u64); 2]) = (
    6,
    [
        (SECTION_GRAPH, 0x892007239f21f7a1),
        (SECTION_KEYWORD, 0xe6ec538198afd266),
    ],
);

#[test]
fn the_figure1_layout_is_pinned_to_the_format_version() {
    let bytes = saved_bytes(&PreparedGraph::index(figure1_graph()));
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let sections: Vec<(u32, u64)> = section_table(&bytes)
        .into_iter()
        .map(|(id, _, checksum)| (id, checksum))
        .collect();
    assert_eq!(version, FORMAT_VERSION);
    assert_eq!(
        (version, sections.as_slice()),
        (FIGURE1_LAYOUT.0, &FIGURE1_LAYOUT.1[..]),
        "the Figure-1 snapshot bytes changed: a layout change needs a FORMAT_VERSION bump"
    );
}

// ---------------------------------------------------------------------------
// Property: round trips are invisible on random graphs too.
// ---------------------------------------------------------------------------

/// A compact random data graph, mirroring the generator of the core
/// proptest suite: a handful of classes, entities with attributes drawn
/// from a small label pool, and random relations.
#[derive(Debug, Clone)]
struct RandomGraph {
    triples: Vec<Triple>,
    value_labels: Vec<String>,
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    let classes = ["Alpha", "Beta", "Gamma"];
    let values = ["red", "green", "blue", "cyan", "amber"];
    let relations = ["linksTo", "near", "uses"];

    (
        proptest::collection::vec((0usize..12, 0usize..classes.len()), 3..12),
        proptest::collection::vec((0usize..12, 0usize..values.len()), 2..12),
        proptest::collection::vec((0usize..12, 0usize..relations.len(), 0usize..12), 0..16),
    )
        .prop_map(move |(types, attrs, rels)| {
            let mut triples = Vec::new();
            let mut used_values = Vec::new();
            for (e, c) in &types {
                triples.push(Triple::typed(format!("e{e}"), classes[*c]));
            }
            for (e, v) in &attrs {
                triples.push(Triple::attribute(format!("e{e}"), "label", values[*v]));
                if !used_values.contains(&values[*v].to_string()) {
                    used_values.push(values[*v].to_string());
                }
            }
            for (s, r, o) in &rels {
                triples.push(Triple::relation(
                    format!("e{s}"),
                    relations[*r],
                    format!("e{o}"),
                ));
            }
            RandomGraph {
                triples,
                value_labels: used_values,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save → load is invisible on random graphs: all three scoring
    /// functions produce bit-identical query streams and answer rows on
    /// the loaded preparation, and re-saving it is byte-stable.
    #[test]
    fn random_graph_roundtrip_is_bit_identical(spec in random_graph()) {
        prop_assume!(spec.value_labels.len() >= 2);
        let mut graph = DataGraph::new();
        for t in &spec.triples {
            graph.insert_triple(t).expect("generated triples are well-formed");
        }
        let keywords: Vec<String> = spec.value_labels.iter().take(2).cloned().collect();

        let built = PreparedGraph::index(graph);
        let bytes = saved_bytes(&built);
        let loaded = PreparedGraph::load(bytes.as_slice()).expect("load own snapshot");
        prop_assert_eq!(saved_bytes(&loaded), bytes);

        for scoring in ScoringFunction::all() {
            let config = SearchConfig::with_k(5).scoring(scoring);
            prop_assert_eq!(
                fingerprint(&loaded, &keywords, config.clone()),
                fingerprint(&built, &keywords, config),
                "snapshot round trip changed results under {}",
                scoring
            );
        }
    }
}
