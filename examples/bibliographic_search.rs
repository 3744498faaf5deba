//! Bibliographic search over a DBLP-like dataset.
//!
//! Generates a synthetic bibliographic graph (publications, authors, venues),
//! indexes it and answers several keyword queries of the kind the paper's
//! user study collected — including a query with a typo and one using a
//! synonym, to show the imprecise keyword matching at work. Each query runs
//! through `SearchSession::answers_until`, which interleaves query
//! computation with answer retrieval: exploration stops as soon as enough
//! answers exist.
//!
//! Run with: `cargo run --release --example bibliographic_search`

use searchwebdb::datagen::{DblpConfig, DblpDataset};
use searchwebdb::prelude::*;

fn main() {
    // A mid-sized bibliographic dataset.
    let dataset = DblpDataset::generate(DblpConfig::with_scale(1_000));
    let stats = searchwebdb::rdf::GraphStats::compute(&dataset.graph);
    println!(
        "generated DBLP-like graph: {} triples, {} entities, {} values",
        stats.total_triples(),
        stats.entities,
        stats.values
    );

    let prepared = PreparedGraph::index(dataset.graph.clone());
    println!("indexed in {:?}\n", prepared.index_build_time());

    // Keyword queries a user might type.
    let first_author = dataset.author_names[0].clone();
    let a_year = dataset.years[0].clone();
    let a_venue = dataset.venue_names[0].clone();
    let queries: Vec<(String, Vec<String>)> = vec![
        (
            "publications of an author in a year".into(),
            vec![first_author.clone(), a_year.clone()],
        ),
        (
            "author + venue".into(),
            vec![first_author.clone(), a_venue.clone()],
        ),
        (
            "keyword with a typo (fuzzy matching)".into(),
            vec!["pubication".into(), a_year.clone()],
        ),
        (
            "synonym of a class label (thesaurus matching)".into(),
            vec![
                "papers".into(),
                first_author.split_whitespace().last().unwrap().to_string(),
            ],
        ),
        ("relation keyword".into(), vec!["cites".into(), a_venue]),
    ];

    for (intent, keywords) in queries {
        println!("== {intent}: {keywords:?}");
        let mut session = match prepared.session(&keywords, SearchConfig::with_k(5)) {
            Ok(session) => session,
            Err(error) => {
                println!("   {error}\n");
                continue;
            }
        };
        // Interleaved answer phase: queries are evaluated the moment they
        // are certified, and exploration stops once 5 answers exist.
        let phase = session.answers_until(5);
        match session.queries().first() {
            Some(best) => {
                println!("   best query (cost {:.3}): {}", best.cost, best.query);
                println!(
                    "   processed {} queries, retrieved {} answers in {:?} ({} cursor pops)",
                    phase.queries_processed,
                    phase.total_answers(),
                    phase.answer_time,
                    session.stats().queue_pops
                );
            }
            None => println!("   no interpretation found"),
        }
        let unmatched: Vec<&str> = session
            .unmatched_keywords()
            .map(|m| m.keyword.as_str())
            .collect();
        if !unmatched.is_empty() {
            println!("   unmatched keywords: {unmatched:?}");
        }
        println!();
    }
}
