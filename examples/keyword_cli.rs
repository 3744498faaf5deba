//! A small command-line front end, in the spirit of the SearchWebDB demo.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example keyword_cli -- <dataset> <k> <keyword> [<keyword> ...]
//! ```
//!
//! where `<dataset>` is either a path to an N-Triples-like file (see
//! `kwsearch_rdf::ntriples`) or one of the built-in generators
//! `dblp`, `lubm`, `tap`, `example`. For every keyword query the tool prints
//! the top-k conjunctive queries as natural-language descriptions and SPARQL,
//! and evaluates the best one. The search runs through a `SearchSession`,
//! whose per-keyword match report drives the "keyword ignored" note and
//! whose typed `SearchError` turns an all-unmatched query into a proper
//! non-zero exit instead of an empty result list.
//!
//! Example:
//!
//! ```text
//! cargo run --release --example keyword_cli -- example 5 2006 cimiano aifb
//! cargo run --release --example keyword_cli -- dblp 5 "Anna Mueller" 2003
//! ```

use std::process::ExitCode;

use searchwebdb::datagen::{DblpDataset, LubmDataset, TapDataset};
use searchwebdb::prelude::*;
use searchwebdb::rdf::{fixtures, ntriples, DataGraph};

fn load_dataset(spec: &str) -> Result<DataGraph, String> {
    match spec {
        "example" => Ok(fixtures::figure1_graph()),
        "dblp" => Ok(DblpDataset::scaled(1_000).graph),
        "lubm" => Ok(LubmDataset::small().graph),
        "tap" => Ok(TapDataset::small().graph),
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read dataset file `{path}`: {e}"))?;
            ntriples::parse_graph(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!(
            "usage: keyword_cli <dataset: example|dblp|lubm|tap|path.nt> <k> <keyword> [<keyword> ...]"
        );
        return ExitCode::FAILURE;
    }
    let dataset_spec = &args[0];
    let Ok(k) = args[1].parse::<usize>() else {
        eprintln!("error: k must be a positive integer, got `{}`", args[1]);
        return ExitCode::FAILURE;
    };
    let keywords: Vec<String> = args[2..].to_vec();

    let graph = match load_dataset(dataset_spec) {
        Ok(graph) => graph,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "loaded dataset `{dataset_spec}`: {} triples, {} vertices",
        graph.edge_count(),
        graph.vertex_count()
    );

    let prepared = PreparedGraph::index(graph);
    println!("indexed in {:?}\n", prepared.index_build_time());

    let session = match prepared.session(&keywords, SearchConfig::with_k(k)) {
        Ok(session) => session,
        Err(error) => {
            // Every keyword failed to match: a typed error instead of an
            // empty result list that looks like "no connection exists".
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let unmatched: Vec<&str> = session
        .unmatched_keywords()
        .map(|m| m.keyword.as_str())
        .collect();
    if !unmatched.is_empty() {
        println!("note: no graph element matches {unmatched:?}; those keywords were ignored\n");
    }

    let outcome = session.into_outcome();
    if outcome.queries.is_empty() {
        println!("no interpretation found for {keywords:?}");
        return ExitCode::SUCCESS;
    }

    println!(
        "top-{} interpretations (computed in {:?}):\n",
        outcome.queries.len(),
        outcome.computation_time()
    );
    for ranked in &outcome.queries {
        println!("[{}] cost {:.3}", ranked.rank, ranked.cost);
        println!("    {}", ranked.description());
        for line in ranked.sparql().lines() {
            println!("    {line}");
        }
        println!();
    }

    let best = outcome.best().expect("non-empty result list");
    match prepared.answers(&best.query, Some(25)) {
        Ok(answers) => {
            println!("answers of interpretation [1] ({} shown):", answers.len());
            for row in answers.labelled_rows(prepared.graph()) {
                let rendered: Vec<String> = row
                    .iter()
                    .map(|(var, label)| format!("?{var}={label}"))
                    .collect();
                println!("  {}", rendered.join("  "));
            }
        }
        Err(e) => println!("could not evaluate the best interpretation: {e}"),
    }
    ExitCode::SUCCESS
}
