//! Workspace-level integration tests: the full pipeline from RDF triples to
//! answered conjunctive queries, across all crates.

use searchwebdb::datagen::{DblpDataset, LubmConfig, LubmDataset, TapDataset};
use searchwebdb::prelude::*;
use searchwebdb::rdf::{fixtures, ntriples};

/// A drained session under `config`: the batch shape of one keyword search.
fn search_with<S: AsRef<str>>(
    prepared: &PreparedGraph,
    keywords: &[S],
    config: SearchConfig,
) -> SearchOutcome {
    prepared.session(keywords, config).unwrap().into_outcome()
}

fn search<S: AsRef<str>>(prepared: &PreparedGraph, keywords: &[S]) -> SearchOutcome {
    search_with(prepared, keywords, SearchConfig::default())
}

#[test]
fn running_example_from_ntriples_to_answers() {
    // Serialise the running example to the N-Triples-like format, parse it
    // back, index it and run the paper's keyword query.
    let document = ntriples::write_graph(&fixtures::figure1_graph());
    let graph = ntriples::parse_graph(&document).expect("round-trip parses");
    let prepared = PreparedGraph::index(graph);

    let outcome = search(&prepared, &["2006", "cimiano", "aifb"]);
    assert!(!outcome.queries.is_empty());
    let best = outcome.best().unwrap();

    // The generated query exhibits the structure of Fig. 1c.
    let predicates = best.query.predicates();
    for expected in ["type", "year", "author", "name", "worksAt"] {
        assert!(
            predicates.contains(expected),
            "missing predicate {expected}"
        );
    }

    // And processing it retrieves pub1URI.
    let answers = prepared.answers(&best.query, None).unwrap();
    let pub1 = prepared.graph().entity("pub1URI").unwrap();
    assert!(answers.rows().iter().any(|row| row.contains(&pub1)));
}

#[test]
fn generated_bibliographic_dataset_supports_the_full_pipeline() {
    let dataset = DblpDataset::small();
    let prepared = PreparedGraph::index(dataset.graph.clone());

    // Author + year: the classic information need of the paper's user study.
    let author = dataset.author_names[dataset.authorship[0][0]].clone();
    let year = dataset.years[0].clone();
    let outcome = search_with(&prepared, &[author.clone(), year], SearchConfig::with_k(5));
    let phase = prepared.answer_queries(&outcome.queries, 5);

    assert!(!outcome.queries.is_empty(), "queries must be generated");
    assert!(phase.queries_processed >= 1);
    let best = outcome.best().unwrap();
    assert!(best.query.constants().contains(&author));
    // At least publication 0 satisfies the intended interpretation, so the
    // processed queries must return something.
    assert!(phase.total_answers() >= 1, "expected answers for {author}");
}

#[test]
fn scoring_functions_rank_differently_but_all_terminate() {
    let dataset = DblpDataset::small();
    let prepared = PreparedGraph::index(dataset.graph.clone());
    let keywords = vec![dataset.venue_names[0].clone(), dataset.years[3].clone()];
    for scoring in ScoringFunction::all() {
        let config = SearchConfig::with_k(10).scoring(scoring);
        let outcome = search_with(&prepared, &keywords, config);
        assert!(
            !outcome.queries.is_empty(),
            "no queries under scoring {scoring}"
        );
        for pair in outcome.queries.windows(2) {
            assert!(pair[0].cost <= pair[1].cost + 1e-9);
        }
    }
}

#[test]
fn lubm_and_tap_datasets_are_searchable() {
    let lubm = LubmDataset::generate(LubmConfig::with_universities(1));
    let prepared = PreparedGraph::index(lubm.graph.clone());
    let professor = lubm.professor_names[0].clone();
    let outcome = search(&prepared, &[professor, "department".to_string()]);
    assert!(!outcome.queries.is_empty());
    let best = outcome.best().unwrap();
    let answers = prepared.answers(&best.query, Some(10)).unwrap();
    assert!(
        !answers.is_empty(),
        "best query should be answerable:\n{}",
        best.query
    );

    let tap = TapDataset::small();
    let prepared = PreparedGraph::index(tap.graph.clone());
    let city = tap
        .instances
        .iter()
        .find(|(c, _)| c == "City")
        .map(|(_, l)| l[0].clone())
        .unwrap();
    let outcome = search(&prepared, &[city, "country".to_string()]);
    assert!(!outcome.queries.is_empty());
}

#[test]
fn unmatched_and_empty_keyword_queries_are_handled_gracefully() {
    let prepared = PreparedGraph::index(fixtures::figure1_graph());
    let error = prepared
        .session(&["zzz-no-such-keyword"], SearchConfig::default())
        .unwrap_err();
    let report = error.keywords();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].position, 0);
    assert_eq!(report[0].keyword, "zzz-no-such-keyword");
    assert!(!report[0].is_matched());

    let outcome = search::<&str>(&prepared, &[]);
    assert!(outcome.queries.is_empty());
    assert!(outcome.keywords.is_empty());
}

#[test]
fn sparql_and_sql_renderings_are_produced_for_every_result() {
    let prepared = PreparedGraph::index(fixtures::figure1_graph());
    let outcome = search(&prepared, &["cimiano", "publication"]);
    for ranked in &outcome.queries {
        let sparql = ranked.sparql();
        assert!(sparql.starts_with("SELECT"));
        assert!(sparql.contains("WHERE"));
        let sql = searchwebdb::query::sql::to_sql(&ranked.query);
        assert!(sql.contains("FROM"));
        assert!(!ranked.description().is_empty());
    }
}

#[test]
fn increasing_k_only_appends_results() {
    let dataset = DblpDataset::small();
    let prepared = PreparedGraph::index(dataset.graph.clone());
    let keywords = vec![dataset.author_names[0].clone(), "publications".to_string()];

    let small = search_with(&prepared, &keywords, SearchConfig::with_k(2));
    let large = search_with(&prepared, &keywords, SearchConfig::with_k(8));
    assert!(large.queries.len() >= small.queries.len());
    // The top results and costs agree (top-k guarantee): the cheaper list is
    // a prefix of the larger one in terms of cost.
    for (a, b) in small.queries.iter().zip(large.queries.iter()) {
        assert!((a.cost - b.cost).abs() < 1e-9);
    }
}
