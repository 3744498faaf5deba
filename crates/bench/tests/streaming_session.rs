//! Acceptance test of the streaming `SearchSession` on the medium DBLP
//! workload: certifying the rank-1 query must require strictly fewer queue
//! pops than draining the full top-k — the anytime gap the session API
//! exposes. (The drained session itself is checked for result-equality with
//! a bare exploration run by the core crate's proptests and golden tests.)

use kwsearch_bench::{dblp_dataset, ScaleProfile};
use kwsearch_core::{PreparedGraph, SearchConfig};
use kwsearch_datagen::workload::dblp_performance_queries;

#[test]
fn first_query_explores_strictly_less_than_a_drained_session_on_medium_dblp() {
    let dataset = dblp_dataset(ScaleProfile::Medium);
    let prepared = PreparedGraph::index(dataset.graph.clone());
    let queries = dblp_performance_queries(&dataset);
    assert!(!queries.is_empty(), "the DBLP workload ships queries");

    let mut total_first_pops = 0usize;
    let mut total_drained_pops = 0usize;
    let mut produced = 0usize;
    for query in &queries {
        let mut session = prepared
            .session(&query.keywords, SearchConfig::default())
            .expect("workload keywords always match");
        let first = session.next_query();
        let first_pops = session.stats().queue_pops;

        let drained = prepared
            .session(&query.keywords, SearchConfig::default())
            .expect("workload keywords always match")
            .into_outcome();
        let drained_pops = drained.exploration.queue_pops;

        assert_eq!(
            first.is_some(),
            !drained.queries.is_empty(),
            "{}: streamed and drained sessions agree on emptiness",
            query.id
        );
        assert!(
            first_pops <= drained_pops,
            "{}: rank 1 took {first_pops} pops, more than the drained {drained_pops}",
            query.id
        );
        if first.is_some() {
            produced += 1;
            total_first_pops += first_pops;
            total_drained_pops += drained_pops;
        }
    }

    assert!(produced > 0, "the workload produces results");
    assert!(
        total_first_pops < total_drained_pops,
        "certifying rank 1 must be strictly cheaper than draining the top-k \
         across the workload: {total_first_pops} vs {total_drained_pops} pops"
    );
}
