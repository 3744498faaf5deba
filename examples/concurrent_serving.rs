//! Concurrent serving: one shared `PreparedGraph`, a worker pool, and the
//! augmentation cache.
//!
//! Demonstrates the serving architecture on the generated bibliographic
//! dataset: the immutable prepared graph is `Arc`-shared into a
//! [`SearchService`] worker pool, a repeated keyword workload is submitted,
//! and the shared cache turns the repeats into replay hits — bit-identical
//! to fresh runs, at a fraction of the cost.
//!
//! Run with `cargo run --release --example concurrent_serving`.

use std::sync::Arc;
use std::time::Instant;

use searchwebdb::core::serve::{SearchRequest, SearchService};
use searchwebdb::datagen::DblpDataset;
use searchwebdb::prelude::*;

fn main() {
    // Off-line: index the dataset once.
    let dataset = DblpDataset::small();
    let prepared = Arc::new(PreparedGraph::index(dataset.graph.clone()));
    println!(
        "indexed {} edges in {:?}",
        dataset.graph.edge_count(),
        prepared.index_build_time()
    );

    // A small workload with heavy repetition, as serving traffic would see.
    let author = dataset.author_names[0].clone();
    let venue = dataset.venue_names[0].clone();
    let workload: Vec<Vec<String>> = vec![
        vec![author.clone(), "publications".to_string()],
        vec![venue.clone()],
        vec![author, venue],
    ];
    const ROUNDS: usize = 40;

    // On-line: share the prepared graph into a 4-worker pool. The service
    // accepts submissions from any thread and replies through tickets.
    let service = SearchService::start(Arc::clone(&prepared), SearchConfig::with_k(5), 4);
    let started = Instant::now();
    // Batched submission: one queue-lock acquisition and one pool wakeup
    // for the whole workload, admitted all-or-nothing.
    let tickets = service
        .submit_batch((0..ROUNDS).flat_map(|_| {
            workload
                .iter()
                .map(|keywords| SearchRequest::new(keywords.iter()))
        }))
        .expect("the workload fits the admission bound");
    let submitted = tickets.len();

    let mut answered = 0usize;
    let mut results = 0usize;
    for ticket in tickets {
        let response = ticket.wait();
        if let Ok(outcome) = response.result {
            answered += 1;
            results += outcome.queries.len();
        }
    }
    let elapsed = started.elapsed();

    let stats = prepared.augmentation_cache().stats();
    println!(
        "{answered}/{submitted} requests served in {elapsed:?} \
         ({:.0} searches/s) across {} workers",
        submitted as f64 / elapsed.as_secs_f64(),
        service.worker_count(),
    );
    println!(
        "{results} ranked queries delivered; augmentation cache: {} hits / {} misses \
         ({:.0}% hit ratio, {} resident)",
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0,
        stats.len,
    );

    // A request can also ask for the paper's Fig. 5 interaction: interleave
    // query computation with evaluation until enough answers exist.
    let response = service
        .submit(SearchRequest::new(["publications"]).with_min_answers(3))
        .expect("the queue is idle")
        .wait();
    if let (Ok(outcome), Some(phase)) = (&response.result, &response.answer_phase) {
        println!(
            "answers_until(3): {} answers from {} queries (best: {})",
            phase.total_answers(),
            outcome.queries.len(),
            outcome
                .best()
                .map(|q| q.query.canonicalized().to_string())
                .unwrap_or_default(),
        );
    }

    service.shutdown();
}
