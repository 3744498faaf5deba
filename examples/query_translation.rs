//! From keywords to SPARQL: the query-translation pipeline in isolation.
//!
//! Shows every intermediate artefact of Fig. 2 for one keyword query over
//! the TAP-like general-knowledge dataset: the keyword-to-element matches,
//! the augmented summary graph, the matching subgraphs, and the final
//! conjunctive query rendered as an abstract conjunctive query and as
//! SPARQL.
//!
//! Run with: `cargo run --release --example query_translation`

use searchwebdb::datagen::{TapConfig, TapDataset};
use searchwebdb::keyword_index::MatchedElement;
use searchwebdb::prelude::*;
use searchwebdb::query::sparql;

fn main() {
    let dataset = TapDataset::generate(TapConfig::default());
    let prepared = PreparedGraph::index(dataset.graph.clone());

    // "Which country is this city located in?"
    let city = dataset
        .instances
        .iter()
        .find(|(class, _)| class == "City")
        .map(|(_, labels)| labels[0].clone())
        .expect("the TAP generator always creates cities");
    let keywords = vec![city.clone(), "country".to_string()];
    println!("keyword query: {keywords:?}\n");

    // Step 1: keyword-to-element mapping.
    for keyword in &keywords {
        println!("matches for '{keyword}':");
        for m in prepared.keyword_index().lookup(keyword).into_iter().take(3) {
            let kind = match &m.element {
                MatchedElement::Class { .. } => "class",
                MatchedElement::Relation { .. } => "relation",
                MatchedElement::Attribute { .. } => "attribute",
                MatchedElement::Value { .. } => "value",
            };
            println!("  {kind:<9} score {:.2}", m.score);
        }
    }

    // Steps 2–5: augmentation, exploration, top-k, query mapping.
    let outcome = prepared
        .session(&keywords, SearchConfig::default())
        .expect("the city label always matches")
        .into_outcome();
    println!(
        "\nexplored {} summary elements, expanded {} cursors, produced {} queries\n",
        outcome.augmented_elements,
        outcome.exploration.cursors_expanded,
        outcome.queries.len()
    );

    for ranked in outcome.queries.iter().take(3) {
        println!("=== rank {} (cost {:.3}) ===", ranked.rank, ranked.cost);
        println!("matching subgraph:");
        println!(
            "  {} elements, connecting at one of them",
            ranked.subgraph.size()
        );
        println!("conjunctive query:\n  {}", ranked.query);
        println!("description:\n  {}", ranked.description());
        println!("SPARQL:\n{}\n", indent(&sparql::to_sparql(&ranked.query)));
    }

    if let Some(best) = outcome.best() {
        let answers = prepared.answers(&best.query, None).unwrap();
        println!("the best query returns {} answer(s)", answers.len());
        for row in answers.labelled_rows(prepared.graph()).into_iter().take(5) {
            let rendered: Vec<String> = row
                .iter()
                .map(|(var, label)| format!("?{var}={label}"))
                .collect();
            println!("  {}", rendered.join("  "));
        }
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
