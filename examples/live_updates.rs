//! Live updates: mutate a serving [`LiveGraph`] without rebuilding it.
//!
//! The offline pipeline (index → save → load) produces an immutable
//! `PreparedGraph`. A `LiveGraph` wraps such a snapshot in a lineage of
//! delta overlays so a serving process can absorb writes while answering
//! queries:
//!
//! 1. build and persist the Fig. 1a graph, then load it — the production
//!    cold-start shape, whose adjacency base is derived from the edge
//!    columns and extended by appended edges,
//! 2. apply a delta batch (a new publication, its author edge, a title)
//!    and read the [`WriteTicket`] acknowledging it,
//! 3. read-your-writes: the very next snapshot — which starts with an
//!    empty result cache of its own — answers a keyword query over the
//!    just-written title,
//! 4. `compact()`: fold every overlay back into a flat snapshot in memory —
//!    the fold's triple store and summary are proven equal to the live
//!    ones before the lineage swaps, and it keeps the snapshot's cache —
//!    and show queries are unchanged across it,
//! 5. retract the title again and watch the keyword stop matching; a
//!    retraction is an inline mini-compaction (overlays cannot hide a
//!    frozen triple), so a follow-up `compact()` is a no-op.
//!
//! Run with: `cargo run --example live_updates`
//!
//! See the README "Live updates & freshness" section for the cache and
//! compaction rules, and the benchmark's `live_mixed` workload
//! (`benchmark/README.md`) for the measured write-to-visibility latency.

use searchwebdb::core::{DeltaBatch, LiveGraph, PreparedGraph, SearchConfig};
use searchwebdb::rdf::Triple;

fn main() {
    // 1. Cold start: index Fig. 1a, persist, load. The loaded snapshot is
    //    what a serving process holds; wrapping it costs nothing.
    let mut bytes = Vec::new();
    PreparedGraph::index(searchwebdb::rdf::fixtures::figure1_graph())
        .save(&mut bytes)
        .expect("save snapshot");
    let live = LiveGraph::new(PreparedGraph::load(bytes.as_slice()).expect("load snapshot"));
    println!(
        "serving the figure-1 snapshot ({} KiB) at write epoch {}",
        bytes.len() / 1024,
        live.write_epoch()
    );

    // Before the write, the new publication's title keyword matches
    // nothing.
    let config = SearchConfig::default();
    assert!(
        live.snapshot().session(&["joins"], config.clone()).is_err(),
        "the keyword must not exist before the write"
    );

    // 2. A delta batch: one new publication by Cimiano, typed, titled,
    //    with its author edge. The ticket acknowledges the write and
    //    reports what it changed.
    let batch = DeltaBatch::new()
        .add(Triple::typed("pub3URI", "Publication"))
        .add(Triple::attribute("pub3URI", "title", "Streaming RDF Joins"))
        .add(Triple::attribute("pub3URI", "year", "2009"))
        .add(Triple::relation("pub3URI", "author", "re2URI"));
    let ticket = live.apply(&batch).expect("the batch is well-formed");
    println!(
        "\napplied batch at epoch {}: +{} vertices, +{} edges (summary rebuilt: {})",
        ticket.epoch(),
        ticket.added_vertices(),
        ticket.added_edges(),
        ticket.summary_rebuilt()
    );

    // 3. Read-your-writes: a snapshot taken after `apply` returned sees
    //    the publication — connected to the base graph, so a multi-keyword
    //    query joins old and new data.
    let snapshot = live.snapshot();
    let mut session = snapshot
        .session(&["joins", "cimiano"], config.clone())
        .expect("the written keyword is visible");
    let best = session.next_query().expect("the join certifies a query");
    println!("\nrank 1 for \"joins cimiano\" (cost {:.3}):", best.cost);
    println!("{}", best.description());

    // 4. Compaction folds the overlays into a flat snapshot and proves the
    //    fold equal to the live state before swapping it in.
    //    Queries are unchanged across the swap — compare the paper's
    //    running example bit-for-bit.
    let keywords = ["2006", "cimiano", "aifb"];
    let before = live
        .snapshot()
        .session(&keywords, config.clone())
        .expect("the running example matches")
        .into_outcome();
    let report = live.compact().expect("compaction proves itself");
    println!(
        "\ncompacted in {:?}: folded {} delta rows, proven equal (epoch {})",
        report.duration, report.folded_rows, report.epoch
    );
    assert!(report.compacted, "the write stream left overlays to fold");
    let after = live
        .snapshot()
        .session(&keywords, config.clone())
        .expect("the running example still matches")
        .into_outcome();
    assert_eq!(before.queries.len(), after.queries.len());
    for (b, a) in before.queries.iter().zip(after.queries.iter()) {
        assert_eq!(b.cost.to_bits(), a.cost.to_bits());
        assert_eq!(b.query.canonicalized(), a.query.canonicalized());
    }
    println!(
        "all {} ranked queries for {:?} identical across compaction",
        after.queries.len(),
        keywords
    );

    // 5. Retraction: take the title back. Overlays cannot hide a frozen
    //    triple, so a retraction rebuilds inline — the keyword stops
    //    matching on the next snapshot and the lineage is already flat.
    let retraction =
        DeltaBatch::new().retract(Triple::attribute("pub3URI", "title", "Streaming RDF Joins"));
    let ticket = live.apply(&retraction).expect("the triple exists");
    println!(
        "\nretracted the title at epoch {}: {} triple(s) removed",
        ticket.epoch(),
        ticket.retracted()
    );
    assert!(
        live.snapshot().session(&["joins"], config).is_err(),
        "the retracted keyword must stop matching"
    );
    let noop = live.compact().expect("a flat lineage compacts trivially");
    assert!(!noop.compacted, "a retraction leaves the lineage flat");
    println!("follow-up compact(): no-op — the retraction already flattened the lineage");
}
