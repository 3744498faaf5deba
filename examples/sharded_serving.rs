//! Sharded serving: partitioned preparations behind one exploration.
//!
//! Demonstrates sharded serving on the generated bibliographic dataset: the
//! data graph is partitioned by predicate into edge-disjoint shards, each
//! shard is prepared in memory, the preparations go into the same
//! [`SearchService`] that serves an unsharded preparation, and a keyword
//! workload is served over them — one keyword lookup on the index every
//! shard shares, one exploration over its matches (bit-identical to an
//! unsharded session, at the same cursor count), and one answer phase over
//! the union of the shard-local stores (the unsharded answers, row for
//! row). A deadline demo shows the typed failure path.
//!
//! Run with `cargo run --release --example sharded_serving`.

use std::time::Duration;

use searchwebdb::core::shard::partition;
use searchwebdb::datagen::DblpDataset;
use searchwebdb::prelude::*;

const SHARDS: usize = 3;

fn main() {
    // Off-line: partition the data graph into edge-disjoint shards, each
    // edge label whole on one shard.
    let dataset = DblpDataset::small();
    let graph = &dataset.graph;
    let plan = partition(graph, SHARDS);
    println!(
        "partitioned {} edges of {} edge labels into {} shards {:?}",
        graph.edge_count(),
        graph.edge_label_count(),
        plan.shard_count(),
        plan.shard_edge_counts(),
    );

    // Prepare the shards, each carrying the one keyword index and summary
    // graph of the whole graph, and start the service over them.
    let shards = plan.prepare_shards(graph, Default::default());
    let config = SearchConfig::with_k(5);
    let service = SearchService::new(shards, config.clone());

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
        for sharded in &outcome.queries {
            let unsharded = session.next_query().expect("streams have equal length");
            identical &= sharded.cost.to_bits() == unsharded.cost.to_bits()
                && sharded.query.canonicalized().to_string()
                    == unsharded.query.canonicalized().to_string();
        }
        println!(
            "{keywords:?}: {} queries over {} shards, lookup {:?} + exploration {:?} \
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

    // The Fig. 5 interaction: the answer phase evaluates the ranked queries
    // once, over every shard's triple store read as one, and returns the
    // unsharded answers.
    let reply = service
        .search(SearchRequest::new(["publications"]).with_min_answers(3))
        .expect("the workload keywords always match");
    if let Some(phase) = &reply.answer_phase {
        let unsharded = reference.answer_queries(&reply.outcome.queries, 3);
        let identical = phase.answers == unsharded.answers
            && phase.queries_processed == unsharded.queries_processed;
        println!(
            "min_answers(3): {} answers from {} of {} queries (best: {}), identical: {identical}",
            phase.total_answers(),
            phase.queries_processed,
            reply.outcome.queries.len(),
            reply
                .outcome
                .best()
                .map(|q| q.query.canonicalized().to_string())
                .unwrap_or_default(),
        );
        assert!(
            identical,
            "the sharded answer phase must match the unsharded one"
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
}

/// A keyword that matches broadly enough for the deadline demo to have
/// real work to abort.
fn venue_word(dataset: &DblpDataset) -> String {
    dataset.venue_names[0].clone()
}
