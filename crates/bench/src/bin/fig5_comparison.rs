//! Fig. 5 — query performance on DBLP data vs. the baselines.
//!
//! For every query Q1–Q10 (increasing keyword count) the total time is
//! measured per system:
//!
//! * **our solution** — top-10 query computation on the summary graph plus
//!   processing of the top queries until at least 10 answers are found,
//! * **bidirectional** — BLINKS-style bidirectional search on the full data
//!   graph until 10 answer trees are found,
//! * **BFS (full graph)** — plain breadth-first candidate search,
//! * **partitioned (fine / coarse)** — bidirectional search restricted to
//!   the blocks containing keyword matches, standing in for the
//!   1000-block / 300-block METIS indexes of the paper.
//!
//! Expected shape (paper): our solution is roughly an order of magnitude
//! faster than bidirectional search on most queries, and the advantage grows
//! with the number of keywords (Q7–Q10).

use std::time::Duration;

use kwsearch_baselines::{
    backward_search, bfs_search, bidirectional_search, match_keywords, partition_graph,
    partitioned_search,
};
use kwsearch_bench::{dblp_dataset, format_duration, time, ScaleProfile, Table};
use kwsearch_core::{PreparedGraph, SearchConfig};
use kwsearch_datagen::workload::dblp_performance_queries;

const K: usize = 10;
const MIN_ANSWERS: usize = 10;
const BASELINE_DMAX: usize = 6;

fn main() {
    let profile = ScaleProfile::from_env();
    let dataset = dblp_dataset(profile);
    let queries = dblp_performance_queries(&dataset);

    println!("== Fig. 5: total time (ms) per query and system on DBLP-like data ==");
    println!(
        "dataset: {} triples, {} vertices\n",
        dataset.graph.edge_count(),
        dataset.graph.vertex_count()
    );

    // Off-line phases (not charged to the per-query times, as in the paper).
    let (prepared, index_build) = time(|| PreparedGraph::index(dataset.graph.clone()));
    let vertex_count = dataset.graph.vertex_count();
    let (fine, fine_build) = time(|| partition_graph(&dataset.graph, (vertex_count / 40).max(4)));
    let (coarse, coarse_build) =
        time(|| partition_graph(&dataset.graph, (vertex_count / 150).max(2)));
    println!(
        "offline: our indexes {} ms, fine partitioning ({} blocks) {} ms, coarse partitioning ({} blocks) {} ms\n",
        format_duration(index_build),
        fine.block_count(),
        format_duration(fine_build),
        coarse.block_count(),
        format_duration(coarse_build),
    );

    let mut table = Table::new([
        "query",
        "#kw",
        "ours",
        "bidirect",
        "backward",
        "bfs",
        "part-fine",
        "part-coarse",
    ]);
    let mut totals = [Duration::ZERO; 6];

    for query in &queries {
        let keywords = &query.keywords;

        // The paper's metric: compute the top-k queries, then process them
        // in rank order until MIN_ANSWERS answers exist.
        let (_, ours) = time(|| {
            prepared
                .session(keywords, SearchConfig::with_k(K))
                .map(|session| {
                    prepared.answer_queries(&session.into_outcome().queries, MIN_ANSWERS)
                })
                .ok()
        });
        let (groups, _) = time(|| match_keywords(&dataset.graph, keywords));
        let (_, bidirect) =
            time(|| bidirectional_search(&dataset.graph, &groups, K, BASELINE_DMAX));
        let (_, backward) = time(|| backward_search(&dataset.graph, &groups, K, BASELINE_DMAX));
        let (_, bfs) = time(|| bfs_search(&dataset.graph, &groups, K, BASELINE_DMAX));
        let (_, part_fine) =
            time(|| partitioned_search(&dataset.graph, &fine, &groups, K, BASELINE_DMAX));
        let (_, part_coarse) =
            time(|| partitioned_search(&dataset.graph, &coarse, &groups, K, BASELINE_DMAX));

        for (total, duration) in
            totals
                .iter_mut()
                .zip([ours, bidirect, backward, bfs, part_fine, part_coarse])
        {
            *total += duration;
        }

        table.row([
            query.id.clone(),
            query.keywords.len().to_string(),
            format_duration(ours),
            format_duration(bidirect),
            format_duration(backward),
            format_duration(bfs),
            format_duration(part_fine),
            format_duration(part_coarse),
        ]);
    }

    table.row([
        "total".to_string(),
        String::new(),
        format_duration(totals[0]),
        format_duration(totals[1]),
        format_duration(totals[2]),
        format_duration(totals[3]),
        format_duration(totals[4]),
        format_duration(totals[5]),
    ]);
    table.print();

    let speedup = totals[1].as_secs_f64() / totals[0].as_secs_f64().max(1e-9);
    println!("\nspeed-up of our solution over bidirectional search (total): {speedup:.1}x");
}
