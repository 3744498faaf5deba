//! Concurrent serving: one thread-less `SearchService`, client threads of
//! the caller's own, and the shared result cache.
//!
//! Demonstrates the serving architecture on the generated bibliographic
//! dataset: a [`SearchService`] over one prepared graph is shared by four
//! scoped client threads, each calling `search` on its own thread; a
//! repeated keyword workload turns into replay hits on the shared cache —
//! bit-identical to fresh runs, at a fraction of the cost.
//!
//! Run with `cargo run --release --example concurrent_serving`.

use std::time::Instant;

use searchwebdb::datagen::DblpDataset;
use searchwebdb::prelude::*;

const CLIENTS: usize = 4;
const ROUNDS: usize = 10;

fn main() {
    // Off-line: index the dataset once.
    let dataset = DblpDataset::small();
    let prepared = PreparedGraph::index(dataset.graph.clone());
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

    // On-line: the service owns the preparation and spawns nothing. Each
    // client thread runs its requests start to finish by calling `search`;
    // admission control (at most `max_inflight` at once) is the only thing
    // the callers share besides the cache.
    let service = SearchService::new([prepared], SearchConfig::with_k(5));
    let started = Instant::now();
    let (answered, results) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut answered = 0usize;
                    let mut results = 0usize;
                    for keywords in workload.iter().cycle().take(ROUNDS * workload.len()) {
                        if let Ok(reply) = service.search(SearchRequest::new(keywords)) {
                            answered += 1;
                            results += reply.outcome.queries.len();
                        }
                    }
                    (answered, results)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .fold((0, 0), |sum, one| (sum.0 + one.0, sum.1 + one.1))
    });
    let elapsed = started.elapsed();
    let sent = CLIENTS * ROUNDS * workload.len();

    let serving = service.stats();
    println!(
        "{answered}/{sent} requests served in {elapsed:?} ({:.0} searches/s) from {CLIENTS} \
         client threads; at most {} in flight, {} rejected",
        sent as f64 / elapsed.as_secs_f64(),
        serving.peak_inflight,
        serving.rejected,
    );
    let stats = service.shards()[0].augmentation_cache().stats();
    println!(
        "{results} ranked queries delivered; result cache: {} hits / {} misses \
         ({:.0}% hit ratio, {} resident)",
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0,
        stats.len,
    );

    // A request can also ask for the paper's Fig. 5 interaction: the top-k,
    // then the queries evaluated in rank order until enough answers exist.
    let reply = service
        .search(SearchRequest::new(["publications"]).with_min_answers(3))
        .expect("the service is idle and the keyword matches");
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
}
