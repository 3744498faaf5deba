//! Keyword search over a LUBM-like university graph, comparing the three
//! scoring functions and the baseline algorithms.
//!
//! Run with: `cargo run --release --example university_search`

use searchwebdb::baselines::{bidirectional_search, match_keywords};
use searchwebdb::datagen::{LubmConfig, LubmDataset};
use searchwebdb::prelude::*;

fn main() {
    let dataset = LubmDataset::generate(LubmConfig::with_universities(3));
    let stats = searchwebdb::rdf::GraphStats::compute(&dataset.graph);
    println!(
        "generated LUBM-like graph: {} triples, {} classes, {} relation labels",
        stats.total_triples(),
        stats.classes,
        stats.relation_labels
    );

    let prepared = PreparedGraph::index(dataset.graph.clone());

    // A keyword query: a professor's name plus the kind of thing we want.
    let professor = dataset.professor_names[0].clone();
    let keywords = vec![professor.clone(), "course".to_string()];
    println!("\nkeyword query: {keywords:?} (courses taught by {professor})\n");

    // Compare the three scoring functions of Section V.
    for scoring in ScoringFunction::all() {
        let config = SearchConfig::with_k(3).scoring(scoring);
        let outcome = prepared
            .session(&keywords, config)
            .expect("the professor's name always matches")
            .into_outcome();
        println!("-- scoring {scoring} --");
        for ranked in &outcome.queries {
            println!(
                "  #{} (cost {:.3}): {}",
                ranked.rank, ranked.cost, ranked.query
            );
        }
        if let Some(best) = outcome.best() {
            let answers = prepared.answers(&best.query, Some(5)).unwrap();
            println!("  -> {} answers for the best query", answers.len());
        }
        println!();
    }

    // The same information need through a baseline: answer trees instead of
    // queries, computed directly on the data graph.
    let groups = match_keywords(&dataset.graph, &keywords);
    let trees = bidirectional_search(&dataset.graph, &groups, 3, 6);
    println!(
        "bidirectional baseline: {} answer trees, {} vertices visited",
        trees.trees.len(),
        trees.visited
    );
    if let Some(best) = trees.best() {
        println!("{}", best.describe(&dataset.graph));
    }
}
