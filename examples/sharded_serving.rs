//! Sharded serving: partitioned preparations behind one exploration.
//!
//! Demonstrates sharded serving on the generated bibliographic dataset: the
//! data graph is partitioned into edge-disjoint shards, each shard is
//! prepared and persisted as its own snapshot, the snapshots are loaded
//! back into the same [`SearchService`] that serves an unsharded
//! preparation, and a keyword workload is served over them — keyword
//! lookups scattered over every shard, one exploration over the merged matches (bit-identical to an
//! unsharded session, at the same cursor count), answers scattered over
//! the shard-local stores. A deadline demo shows the typed failure path.
//!
//! Run with `cargo run --release --example sharded_serving`.

use std::time::Duration;

use searchwebdb::core::shard::{load_shards, partition, persist_shards};
use searchwebdb::datagen::DblpDataset;
use searchwebdb::prelude::*;

const SHARDS: usize = 3;

fn main() {
    // Off-line: partition the data graph into edge-disjoint shards.
    let dataset = DblpDataset::small();
    let graph = &dataset.graph;
    let plan = partition(graph, SHARDS);
    println!(
        "partitioned {} edges into {} shards {:?} ({} connectivity components, {} replicated schema edges)",
        graph.edge_count(),
        plan.shard_count(),
        plan.shard_edge_counts(),
        plan.component_count(),
        plan.replicated_edge_count(),
    );

    // Prepare one index per shard and persist each as its own snapshot —
    // shards deploy (and restart) independently. `persist_shards` commits
    // the set with a `shards.manifest` written last; `load_shards` refuses
    // a directory whose manifest is missing or disagrees with the
    // snapshots, so a partially-persisted set fails loudly instead of
    // silently serving a subset of the data.
    let shards = plan.prepare_shards(graph, Default::default());
    let dir = std::env::temp_dir().join("searchwebdb-sharded-serving");
    std::fs::create_dir_all(&dir).expect("creating the snapshot directory");
    let files = persist_shards(&shards, &dir).expect("persisting shard snapshots");
    println!(
        "persisted {} shard snapshots under {}",
        files.len(),
        dir.display()
    );

    // On-line: load the snapshots back and start the service.
    let loaded = load_shards(&dir).expect("loading shard snapshots");
    let config = SearchConfig::with_k(5);
    let service = SearchService::new(loaded, config.clone());

    // The same workload shape serving traffic would see.
    let author = dataset.author_names[0].clone();
    let venue = dataset.venue_names[0].clone();
    let workload: Vec<Vec<String>> = vec![
        vec![author.clone(), "publications".to_string()],
        vec![venue.clone()],
        vec![author.clone(), venue],
    ];

    // Reference: an unsharded session on a fresh preparation. The sharded
    // service must reproduce it bit for bit.
    let reference = PreparedGraph::index(graph.clone());
    for keywords in &workload {
        let outcome = service
            .search(SearchRequest::new(keywords.iter()))
            .expect("the workload keywords always match")
            .outcome;
        let mut session = reference
            .session(keywords, config.clone())
            .expect("the workload keywords always match");
        let mut identical = true;
        for merged in &outcome.queries {
            let unsharded = session.next_query().expect("streams have equal length");
            identical &= merged.cost.to_bits() == unsharded.cost.to_bits()
                && merged.query.canonicalized().to_string()
                    == unsharded.query.canonicalized().to_string();
        }
        println!(
            "{keywords:?}: {} queries over {} shards, lookups {:?} + exploration {:?} \
             ({} cursor pops), bit-identical: {identical}",
            outcome.queries.len(),
            service.shards().len(),
            outcome.keyword_mapping_time,
            outcome.exploration_time,
            outcome.exploration.queue_pops,
            identical = identical,
        );
        assert!(
            identical,
            "the sharded service must match the unsharded stream"
        );
    }

    // The Fig. 5 interaction also scatters: the answer phase evaluates each
    // ranked query against the shard-local triple stores.
    let reply = service
        .search(SearchRequest::new(["publications"]).with_min_answers(3))
        .expect("the workload keywords always match");
    if let Some(phase) = &reply.answer_phase {
        println!(
            "min_answers(3): {} answers from {} of {} queries (best: {})",
            phase.total_answers(),
            phase.queries_processed,
            reply.outcome.queries.len(),
            reply
                .outcome
                .best()
                .map(|q| q.query.canonicalized().to_string())
                .unwrap_or_default(),
        );
    }

    // Tail-latency control: an impossible deadline fails fast with the
    // typed error instead of serving a stale, uncertified prefix.
    match service.search(SearchRequest::new([venue_word(&dataset)]).with_deadline(Duration::ZERO)) {
        Err(ServeError::DeadlineExceeded { deadline }) => {
            println!("deadline {deadline:?}: rejected with DeadlineExceeded, nothing leaked")
        }
        other => println!("unexpected deadline outcome: {other:?}"),
    }

    let stats = service.stats();
    println!(
        "service counters: {} admitted, {} rejected, {} deadline-exceeded; \
         {} queries returned",
        stats.admitted, stats.rejected, stats.deadline_exceeded, stats.queries_returned,
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A keyword that matches broadly enough for the deadline demo to have
/// real work to abort.
fn venue_word(dataset: &DblpDataset) -> String {
    dataset.venue_names[0].clone()
}
