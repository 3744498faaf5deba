//! Fig. 6a — search time as a function of `k` and query length.
//!
//! The 30-query effectiveness workload (keyword counts 2–4) is run under the
//! C3 scoring for k ∈ {1, 5, 10, 20, 50}; the average query-computation time
//! is reported per query length and per k.
//!
//! Expected shape (paper): time grows roughly linearly with k; the impact of
//! the query length is small at k = 10 and becomes substantial for larger k.

use std::collections::BTreeMap;
use std::time::Duration;

use kwsearch_bench::{dblp_dataset, format_duration, time, ScaleProfile, Table};
use kwsearch_core::{PreparedGraph, ScoringFunction, SearchConfig};
use kwsearch_datagen::workload::dblp_effectiveness_workload;

const KS: [usize; 5] = [1, 5, 10, 20, 50];

fn main() {
    let profile = ScaleProfile::from_env();
    let dataset = dblp_dataset(profile);
    let workload = dblp_effectiveness_workload(&dataset, 30);
    let prepared = PreparedGraph::index(dataset.graph.clone());

    println!("== Fig. 6a: average query computation time (ms) vs k and query length ==\n");

    // Group query indices by keyword count.
    let mut by_length: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, q) in workload.iter().enumerate() {
        by_length.entry(q.keywords.len()).or_default().push(i);
    }

    let mut header: Vec<String> = vec!["k".to_string()];
    header.extend(by_length.keys().map(|len| format!("{len} keywords")));
    header.push("all queries".to_string());
    let mut table = Table::new(header);

    for k in KS {
        let config = SearchConfig::with_k(k).scoring(ScoringFunction::PopularityAndMatch);
        let mut per_query_time: Vec<Duration> = Vec::with_capacity(workload.len());
        for q in &workload {
            let (_, elapsed) = time(|| {
                prepared
                    .session(&q.keywords, config.clone())
                    .map(|session| session.into_outcome())
                    .ok()
            });
            per_query_time.push(elapsed);
        }
        let mut row: Vec<String> = vec![k.to_string()];
        for indices in by_length.values() {
            let total: Duration = indices.iter().map(|&i| per_query_time[i]).sum();
            row.push(format_duration(total / indices.len() as u32));
        }
        let overall: Duration = per_query_time.iter().sum();
        row.push(format_duration(overall / per_query_time.len() as u32));
        table.row(row);
    }
    table.print();

    println!("\nquery length distribution:");
    for (len, indices) in &by_length {
        println!("  {len} keywords: {} queries", indices.len());
    }
}
