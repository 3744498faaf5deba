//! Fig. 4 — MRR of the scoring functions C1, C2, C3.
//!
//! Reproduces the effectiveness study: for every keyword query of the
//! DBLP-like workload (30 queries with gold-standard interpretations) the
//! top-10 conjunctive queries are computed under each scoring function, the
//! Reciprocal Rank of the gold query is measured, and the Mean Reciprocal
//! Rank per scoring function is reported. A TAP-like workload (9 queries)
//! is evaluated as well, mirroring the paper's secondary study.
//!
//! Expected shape (paper): C2 is at least as good as C1 on every query and
//! C3 is superior overall, because it additionally exploits the keyword
//! matching scores when keywords are ambiguous.

use kwsearch_bench::{dblp_dataset, tap_dataset, ScaleProfile, Table};
use kwsearch_core::{PreparedGraph, ScoringFunction, SearchConfig};
use kwsearch_datagen::workload::{dblp_effectiveness_workload, tap_effectiveness_workload};
use kwsearch_datagen::EffectivenessQuery;

fn evaluate_workload(
    name: &str,
    prepared: &PreparedGraph,
    workload: &[EffectivenessQuery],
    k: usize,
) {
    println!("== Fig. 4 ({name}): Reciprocal Rank per query and scoring function ==\n");
    let mut table = Table::new(["query", "keywords", "RR(C1)", "RR(C2)", "RR(C3)"]);
    let mut totals = [0.0f64; 3];

    for query in workload {
        let mut rrs = [0.0f64; 3];
        for (i, scoring) in ScoringFunction::all().into_iter().enumerate() {
            let config = SearchConfig::with_k(k).scoring(scoring);
            let Ok(session) = prepared.session(&query.keywords, config) else {
                continue;
            };
            let outcome = session.into_outcome();
            let ranked: Vec<_> = outcome.queries.iter().map(|r| &r.query).collect();
            rrs[i] = query.reciprocal_rank(ranked);
            totals[i] += rrs[i];
        }
        table.row([
            query.id.clone(),
            query.keywords.join(" "),
            format!("{:.3}", rrs[0]),
            format!("{:.3}", rrs[1]),
            format!("{:.3}", rrs[2]),
        ]);
    }

    let n = workload.len() as f64;
    table.row([
        "MRR".to_string(),
        String::new(),
        format!("{:.3}", totals[0] / n),
        format!("{:.3}", totals[1] / n),
        format!("{:.3}", totals[2] / n),
    ]);
    table.print();
    println!(
        "\nMRR summary ({name}): C1={:.3}  C2={:.3}  C3={:.3}\n",
        totals[0] / n,
        totals[1] / n,
        totals[2] / n
    );
}

fn main() {
    let profile = ScaleProfile::from_env();
    let k = 10;

    let dblp = dblp_dataset(profile);
    let workload = dblp_effectiveness_workload(&dblp, 30);
    let prepared = PreparedGraph::index(dblp.graph.clone());
    evaluate_workload("DBLP", &prepared, &workload, k);

    let tap = tap_dataset(profile);
    let tap_workload = tap_effectiveness_workload(&tap);
    let tap_prepared = PreparedGraph::index(tap.graph.clone());
    evaluate_workload("TAP", &tap_prepared, &tap_workload, k);
}
