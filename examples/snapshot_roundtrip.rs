//! Snapshot round trip: persist a prepared graph, load it back, prove the
//! loaded copy answers identically.
//!
//! The full cold-start pipeline at example scale:
//!
//! 1. write a generated bibliographic dataset to disk as N-Triples,
//! 2. stream-ingest the file back into a [`DataGraph`],
//! 3. index it (keyword index + summary graph + triple store),
//! 4. save the prepared graph as a checksummed binary snapshot,
//! 5. load the snapshot and run the same keyword query on both copies,
//!    asserting bit-identical costs and canonical queries.
//!
//! At evaluation scale (10⁶–10⁷ triples) step 5's load replaces step 2 and
//! the keyword indexing of step 3 on every warm start (it derives the
//! summary graph and the triple store from the loaded graph) — the
//! benchmark's `data_bound` workload measures the ratio
//! (`persist.load_vs_build_ratio`); this example shows the API.
//!
//! Run with: `cargo run --example snapshot_roundtrip`

use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use searchwebdb::core::{PreparedGraph, SearchConfig};
use searchwebdb::datagen::{write_ntriples_file, DblpConfig, DblpDataset};
use searchwebdb::rdf::{ingest_ntriples, DataGraph};

fn main() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let nt_path = dir.join(format!("searchwebdb-example-{pid}.nt"));
    let snap_path = dir.join(format!("searchwebdb-example-{pid}.snap"));

    // 1. A small bibliographic dataset, serialised as N-Triples.
    let dataset = DblpDataset::generate(DblpConfig::with_scale(500));
    let nt_bytes = write_ntriples_file(&dataset.graph, &nt_path).expect("write N-Triples");
    println!(
        "wrote {} triples ({} KiB of N-Triples)",
        dataset.graph.edge_count(),
        nt_bytes / 1024
    );

    // 2. Streamed ingest: the file is never materialised in memory.
    let mut graph = DataGraph::new();
    let reader = BufReader::new(File::open(&nt_path).expect("reopen N-Triples"));
    let stats = ingest_ntriples(reader, &mut graph).expect("streamed ingest");
    println!(
        "ingested {} triples from {} lines",
        stats.triples, stats.lines
    );

    // 3. Off-line preprocessing, then 4. persist the result.
    let built = PreparedGraph::index(graph);
    built.save_to_path(&snap_path).expect("save snapshot");
    let snap_bytes = std::fs::metadata(&snap_path).expect("stat snapshot").len();
    println!("saved snapshot: {} KiB", snap_bytes / 1024);

    // 5. Load it back — this is the whole warm start.
    let start = Instant::now();
    let loaded = PreparedGraph::load_from_path(&snap_path).expect("load snapshot");
    println!("loaded snapshot in {:?}", start.elapsed());

    // Same keyword query on both copies: identical down to the cost bits.
    let keywords: Vec<String> = searchwebdb::datagen::workload::dblp_performance_queries(&dataset)
        .into_iter()
        .next()
        .expect("generated workload")
        .keywords;
    println!("\nkeyword query: {keywords:?}");
    let reference = built
        .session(&keywords, SearchConfig::default())
        .expect("keywords match")
        .into_outcome();
    let roundtripped = loaded
        .session(&keywords, SearchConfig::default())
        .expect("keywords match")
        .into_outcome();
    assert_eq!(reference.queries.len(), roundtripped.queries.len());
    for (got, want) in roundtripped.queries.iter().zip(reference.queries.iter()) {
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        assert_eq!(got.query.canonicalized(), want.query.canonicalized());
    }
    println!(
        "loaded copy reproduces all {} ranked queries bit-for-bit:",
        reference.queries.len()
    );
    for ranked in roundtripped.queries.iter().take(3) {
        println!(
            "  rank {} (cost {:.3}): {}",
            ranked.rank,
            ranked.cost,
            ranked.description()
        );
    }

    std::fs::remove_file(&nt_path).ok();
    std::fs::remove_file(&snap_path).ok();
}
