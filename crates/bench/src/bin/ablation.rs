//! Ablation study over the design choices of the paper's system.
//!
//! Runs the DBLP-like performance workload while toggling one design choice
//! at a time and reports total query-computation time and result quality
//! (MRR on the effectiveness workload):
//!
//! * scoring function C1 / C2 / C3 (ranking quality),
//! * fuzzy (Levenshtein) matching on/off,
//! * semantic (thesaurus) matching on/off,
//! * space-bounded exploration vs. exhaustive expansion of pruned paths,
//! * exploration depth `d_max`.
//!
//! This quantifies how much each ingredient of the paper's system
//! contributes to its speed and effectiveness.

use std::time::Duration;

use kwsearch_bench::{dblp_dataset, format_duration, time, ScaleProfile, Table};
use kwsearch_core::{AugmentationCache, PreparedGraph, ScoringFunction, SearchConfig};
use kwsearch_datagen::workload::{dblp_effectiveness_workload, dblp_performance_queries};
use kwsearch_datagen::{DblpDataset, EffectivenessQuery, PerformanceQuery};
use kwsearch_keyword_index::KeywordIndexConfig;

/// One ablation configuration.
struct Variant {
    name: &'static str,
    search: SearchConfig,
    keyword: KeywordIndexConfig,
}

fn variants() -> Vec<Variant> {
    let base_search = SearchConfig::with_k(10);
    let base_keyword = KeywordIndexConfig::default();
    vec![
        Variant {
            name: "full system (C3)",
            search: base_search.clone(),
            keyword: base_keyword.clone(),
        },
        Variant {
            name: "scoring C1 (path length)",
            search: base_search.clone().scoring(ScoringFunction::PathLength),
            keyword: base_keyword.clone(),
        },
        Variant {
            name: "scoring C2 (popularity)",
            search: base_search.clone().scoring(ScoringFunction::Popularity),
            keyword: base_keyword.clone(),
        },
        Variant {
            name: "no fuzzy matching",
            search: base_search.clone(),
            keyword: KeywordIndexConfig {
                fuzzy: false,
                ..base_keyword.clone()
            },
        },
        Variant {
            name: "no semantic matching",
            search: base_search.clone(),
            keyword: KeywordIndexConfig {
                semantic: false,
                ..base_keyword.clone()
            },
        },
        Variant {
            name: "exhaustive expansion",
            search: SearchConfig {
                expand_pruned_paths: true,
                dmax: 6,
                ..base_search.clone()
            },
            keyword: base_keyword.clone(),
        },
        Variant {
            name: "shallow exploration (dmax=4)",
            search: base_search.clone().dmax(4),
            keyword: base_keyword.clone(),
        },
        Variant {
            name: "deep exploration (dmax=12)",
            search: base_search.clone().dmax(12),
            keyword: base_keyword,
        },
    ]
}

fn measure(
    dataset: &DblpDataset,
    variant: &Variant,
    performance: &[PerformanceQuery],
    effectiveness: &[EffectivenessQuery],
) -> (Duration, f64, f64) {
    let prepared = PreparedGraph::index_with(
        dataset.graph.clone(),
        variant.keyword.clone(),
        AugmentationCache::DEFAULT_CAPACITY,
    );
    let search = |keywords: &[String]| {
        prepared
            .session(keywords, variant.search.clone())
            .map(|session| session.into_outcome())
    };

    // Performance: total computation time over Q1-Q10.
    let mut total = Duration::ZERO;
    for query in performance {
        let (_, elapsed) = time(|| search(&query.keywords).ok());
        total += elapsed;
    }

    // Effectiveness: MRR and answer coverage over the 30-query workload.
    let mut mrr = 0.0;
    let mut answered = 0usize;
    for query in effectiveness {
        let Ok(outcome) = search(&query.keywords) else {
            continue;
        };
        let ranked: Vec<_> = outcome.queries.iter().map(|r| &r.query).collect();
        mrr += query.reciprocal_rank(ranked);
        if let Some(best) = outcome.best() {
            if let Ok(answers) = prepared.answers(&best.query, Some(1)) {
                if !answers.is_empty() {
                    answered += 1;
                }
            }
        }
    }
    (
        total,
        mrr / effectiveness.len() as f64,
        answered as f64 / effectiveness.len() as f64,
    )
}

fn main() {
    let profile = ScaleProfile::from_env();
    let dataset = dblp_dataset(profile);
    let performance = dblp_performance_queries(&dataset);
    let effectiveness = dblp_effectiveness_workload(&dataset, 30);

    println!("== Ablation over design choices (DBLP-like, k = 10) ==\n");
    let mut table = Table::new([
        "variant",
        "Q1-Q10 computation (ms)",
        "MRR",
        "top-1 answerable",
    ]);
    for variant in variants() {
        let (total, mrr, answerable) = measure(&dataset, &variant, &performance, &effectiveness);
        table.row([
            variant.name.to_string(),
            format_duration(total),
            format!("{mrr:.3}"),
            format!("{:.0}%", answerable * 100.0),
        ]);
    }
    table.print();
    println!(
        "\nnotes: disabling fuzzy/semantic matching speeds up the keyword mapping but loses \
         interpretations for misspelled or paraphrased keywords; exhaustive expansion explores \
         every distinct path and is dramatically slower on dense summary graphs; very small dmax \
         misses long-range connections."
    );
}
