//! Cross-crate comparison tests: the summary-graph search and the
//! data-graph baselines must agree on whether keywords are connectable, and
//! the search must explore far fewer elements than the baselines visit.

use searchwebdb::baselines::{
    bidirectional_search, match_keywords, partition_graph, partitioned_search,
};
use searchwebdb::datagen::DblpDataset;
use searchwebdb::prelude::*;
use searchwebdb::rdf::fixtures;

#[test]
fn both_approaches_interpret_the_running_example() {
    let graph = fixtures::figure1_graph();
    let prepared = PreparedGraph::index(graph.clone());
    let keywords = ["2006", "Cimiano", "AIFB"];

    let outcome = prepared
        .session(&keywords, SearchConfig::default())
        .unwrap()
        .into_outcome();
    assert!(!outcome.queries.is_empty(), "our approach finds queries");

    let groups = match_keywords(&graph, &keywords);
    let result = bidirectional_search(&graph, &groups, 10, 8);
    assert!(
        !result.is_empty(),
        "bidirectional search finds answer trees"
    );
    let best = result.best().unwrap();
    assert_eq!(best.paths.len(), 3, "one path per keyword");
}

#[test]
fn summary_exploration_touches_fewer_elements_than_data_graph_search() {
    // The core efficiency claim of the paper: exploration runs on the
    // summary graph, which is orders of magnitude smaller than the data
    // graph the baselines have to search.
    let dataset = DblpDataset::small();
    let prepared = PreparedGraph::index(dataset.graph.clone());
    let keywords = vec![dataset.author_names[0].clone(), dataset.years[0].clone()];

    let outcome = prepared
        .session(&keywords, SearchConfig::default())
        .unwrap()
        .into_outcome();
    assert!(!outcome.queries.is_empty());

    let groups = match_keywords(&dataset.graph, &keywords);
    let baseline = bidirectional_search(&dataset.graph, &groups, 10, 6);

    assert!(
        outcome.augmented_elements * 10 < dataset.graph.vertex_count() + dataset.graph.edge_count(),
        "the augmented summary graph must be much smaller than the data graph"
    );
    assert!(
        outcome.exploration.elements_visited < baseline.visited.max(1) * 2,
        "summary exploration should not visit more elements than the baseline visits vertices \
         (ours: {}, baseline: {})",
        outcome.exploration.elements_visited,
        baseline.visited
    );
}

#[test]
fn partitioned_baseline_matches_full_search_results_on_small_graphs() {
    let graph = fixtures::figure1_graph();
    let keywords = ["2006", "Cimiano"];
    let groups = match_keywords(&graph, &keywords);

    let full = bidirectional_search(&graph, &groups, 5, 8);
    let partitioning = partition_graph(&graph, 3);
    let partitioned = partitioned_search(&graph, &partitioning, &groups, 5, 8);

    assert!(!full.is_empty());
    assert!(!partitioned.is_empty());
    // The best tree weight cannot be better than the unrestricted search.
    assert!(partitioned.best().unwrap().weight >= full.best().unwrap().weight - 1e-9);
}

#[test]
fn answer_trees_and_query_answers_name_the_same_entities() {
    // The entities of the best baseline answer tree should appear among the
    // bindings of our generated query for the same keywords (the paper
    // argues queries retrieve *all* answers, a superset of the distinct
    // roots).
    let graph = fixtures::figure1_graph();
    let prepared = PreparedGraph::index(graph.clone());
    let keywords = ["2006", "Cimiano"];

    let groups = match_keywords(&graph, &keywords);
    let trees = bidirectional_search(&graph, &groups, 10, 8);
    let best_tree = trees.best().unwrap();
    // 2006 <- pub1 -author-> re2 -name-> P. Cimiano, rooted at re2.
    let pub1 = graph.entity("pub1URI").unwrap();
    let re2 = graph.entity("re2URI").unwrap();
    assert_eq!(best_tree.root, re2);
    assert!(best_tree.vertices().contains(&pub1));

    let outcome = prepared
        .session(&keywords, SearchConfig::default())
        .unwrap()
        .into_outcome();
    let best = outcome.best().unwrap();
    let answers = prepared.answers(&best.query, None).unwrap();
    for entity in [pub1, re2] {
        assert!(
            answers.rows().iter().any(|row| row.contains(&entity)),
            "query answers must include the baseline's answer entity {}",
            graph.vertex_label(entity)
        );
    }
}
