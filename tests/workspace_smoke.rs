//! Workspace smoke test.
//!
//! This exists to catch manifest regressions: if any crate's `Cargo.toml`
//! (or a dependency edge between the crates) breaks, this test — which pulls
//! every layer of the stack through the facade — stops compiling, so the
//! tier-1 command (`cargo build --release && cargo test -q`) fails loudly
//! rather than silently skipping the affected crate.
//!
//! It drives the complete pipeline of the paper's running example (Fig. 1):
//! graph construction → indexing (keyword index, summary graph, triple
//! store) → top-k exploration → query ranking → answer computation.

use searchwebdb::prelude::*;

#[test]
fn engine_answers_the_running_example_end_to_end() {
    // Fig. 1a data graph from the kwsearch-rdf fixture.
    let graph = searchwebdb::rdf::fixtures::figure1_graph();
    assert!(graph.vertex_count() > 0, "fixture graph must not be empty");

    // Off-line preprocessing across kwsearch-keyword-index and
    // kwsearch-summary, wired together by kwsearch-core.
    let prepared = PreparedGraph::index(graph);
    assert!(prepared.summary().node_count() > 0);

    // The paper's keyword query: the 2006 publication by Cimiano at AIFB.
    let outcome = prepared
        .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
        .unwrap()
        .into_outcome();
    assert!(
        !outcome.queries.is_empty(),
        "the running example must produce at least one query interpretation"
    );

    // Queries come back ranked by non-decreasing cost.
    for pair in outcome.queries.windows(2) {
        assert!(
            pair[0].cost <= pair[1].cost,
            "queries must be sorted by cost: {} > {}",
            pair[0].cost,
            pair[1].cost
        );
    }

    // The best interpretation renders to SPARQL (kwsearch-query) and yields
    // at least one answer over the data graph.
    let best = outcome.best().expect("non-empty outcome has a best query");
    let sparql = best.sparql();
    assert!(
        sparql.contains("SELECT"),
        "SPARQL rendering broken: {sparql}"
    );

    let answers = prepared
        .answers(&best.query, None)
        .expect("the best query must evaluate");
    assert!(
        !answers.is_empty(),
        "the running example's best query must have answers"
    );
}

#[test]
fn facade_reexports_every_subcrate() {
    // Touch one symbol from each re-exported sub-crate so a dropped manifest
    // dependency in the facade is a compile error here.
    let _graph: searchwebdb::rdf::DataGraph = searchwebdb::rdf::DataGraph::new();
    let _builder = searchwebdb::query::QueryBuilder::new();
    let _analyzer = searchwebdb::keyword_index::Analyzer::new();
    let _summary = searchwebdb::summary::SummaryGraph::default();
    let _config = searchwebdb::core::SearchConfig::default();
    let _ = searchwebdb::baselines::keyword_match::match_keywords::<&str>;
    let _ = searchwebdb::datagen::DblpConfig::default();
}
