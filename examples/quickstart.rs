//! Quickstart: keyword search over the paper's running example.
//!
//! Builds the RDF graph of Fig. 1a, indexes it, runs the keyword query
//! `2006 cimiano aifb` from the paper through a streaming `SearchSession`,
//! prints the top-k conjunctive queries (as SPARQL and as a
//! natural-language-like description) and evaluates the best one.
//!
//! Run with: `cargo run --example quickstart`

use searchwebdb::prelude::*;

fn main() {
    // 1. The data graph of Fig. 1a (publications, researchers, institutes).
    let graph = searchwebdb::rdf::fixtures::figure1_graph();
    println!(
        "data graph: {}",
        searchwebdb::rdf::GraphStats::compute(&graph)
    );

    // 2. Off-line preprocessing: keyword index + summary graph + triple store.
    let prepared = PreparedGraph::index(graph);
    println!(
        "\nsummary graph: {} nodes, {} edges (built in {:?})",
        prepared.summary().node_count(),
        prepared.summary().edge_count(),
        prepared.index_build_time()
    );

    // 3. The keyword query of the running example, as a streaming session:
    //    the exploration is an anytime algorithm, so the rank-1 query is
    //    certified after a fraction of the work the full top-k needs.
    let keywords = ["2006", "cimiano", "aifb"];
    println!("\nkeyword query: {:?}\n", keywords);
    let mut session = prepared
        .session(&keywords, SearchConfig::with_k(10))
        .expect("keywords match");

    let best = session
        .next_query()
        .expect("the running example produces queries");
    println!(
        "rank 1 certified after {} cursor pops:",
        session.stats().queue_pops
    );
    println!("{}", best.description());
    println!("{}\n", best.sparql());

    // 4. Evaluate the best query while the rest of the top-k is still
    //    uncomputed.
    let answers = prepared
        .answers(&best.query, None)
        .expect("query evaluates");
    println!("answers of the top-ranked query:");
    for row in answers.labelled_rows(prepared.graph()) {
        let rendered: Vec<String> = row
            .iter()
            .map(|(var, label)| format!("?{var} = {label}"))
            .collect();
        println!("  {}", rendered.join(", "));
    }

    // 5. Drain the session into the familiar batch outcome.
    let outcome = session.into_outcome();
    println!(
        "\ncomputed {} queries in {:?} (exploration expanded {} cursors on {} summary elements)\n",
        outcome.queries.len(),
        outcome.computation_time(),
        outcome.exploration.cursors_expanded,
        outcome.augmented_elements
    );
    for ranked in &outcome.queries {
        println!("--- rank {} (cost {:.3}) ---", ranked.rank, ranked.cost);
        println!("{}", ranked.description());
        println!("{}\n", ranked.sparql());
    }
}
