//! Cross-thread determinism suite.
//!
//! One `Arc<PreparedGraph>` (with its shared augmentation cache) is hammered
//! by several threads running repeated, interleaved session scenarios —
//! plain drains and `answers_until` interleavings —
//! and every result must be **bit-identical** (cost bits, element sets,
//! canonical query strings, answer rows) to a single-threaded run on a
//! fresh, *cache-disabled* preparation. This is the proof obligation of the
//! concurrent serving architecture: sharing the read path and memoizing
//! augmentations may change timings, never results.
//!
//! CI runs this suite twice — with `--test-threads=1` and with the default
//! parallelism — so the scenarios are exercised both as the only load on the
//! process and racing against each other.

use std::sync::Arc;
use std::thread;

use searchwebdb::core::shard::partition;
use searchwebdb::core::{
    DeltaBatch, LiveGraph, PreparedGraph, SearchConfig, SearchRequest, SearchService, SearchSession,
};
use searchwebdb::datagen::workload::dblp_performance_queries;
use searchwebdb::datagen::DblpDataset;
use searchwebdb::rdf::fixtures::figure1_graph;
use searchwebdb::rdf::{DataGraph, Triple};

/// Worker threads sharing one preparation.
const THREADS: usize = 4;
/// Scenario repetitions per thread.
const REPEATS: usize = 3;

/// The bit-identity fingerprint of one emitted query.
type QueryKey = (u64, String, Vec<String>);

/// The full fingerprint of one scenario run: emitted queries in order, plus
/// the answer rows of an `answers_until` phase when the scenario ran one.
type ScenarioKey = (Vec<QueryKey>, Vec<String>);

fn query_key(ranked: &searchwebdb::core::RankedQuery) -> QueryKey {
    let mut elements: Vec<String> = ranked
        .subgraph
        .elements()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    elements.sort_unstable();
    (
        ranked.cost.to_bits(),
        ranked.query.canonicalized().to_string(),
        elements,
    )
}

/// The two interleaved session shapes the suite exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    /// Drain a session at the default k.
    Drain,
    /// Run `answers_until(3)`, then drain the remainder.
    AnswersUntil,
}

const SCENARIOS: [Scenario; 2] = [Scenario::Drain, Scenario::AnswersUntil];

fn run_scenario(prepared: &PreparedGraph, scenario: Scenario, keywords: &[String]) -> ScenarioKey {
    let full = SearchConfig::default();
    let collect = |session: &mut SearchSession<'_>| {
        let mut queries = Vec::new();
        while let Some(ranked) = session.next_query() {
            queries.push(query_key(&ranked));
        }
        queries
    };
    match scenario {
        Scenario::Drain => {
            let mut session = prepared.session(keywords, full).unwrap();
            (collect(&mut session), Vec::new())
        }
        Scenario::AnswersUntil => {
            let mut session = prepared.session(keywords, full).unwrap();
            let phase = session.answers_until(3);
            let mut answers: Vec<String> = phase
                .answers
                .iter()
                .flat_map(|set| set.rows().iter().map(|row| format!("{row:?}")))
                .collect();
            answers.sort_unstable();
            // The queries the answer phase consumed, then the drained rest.
            let mut queries: Vec<QueryKey> = session.queries().iter().map(query_key).collect();
            queries.extend(collect(&mut session));
            (queries, answers)
        }
    }
}

/// Single-threaded reference: every (scenario, keyword set) run on a fresh,
/// cache-disabled preparation — no sharing, no memoization, no concurrency.
fn reference_runs(graph: &DataGraph, workload: &[Vec<String>]) -> Vec<ScenarioKey> {
    // A disabled cache means the preparation holds no per-query state at
    // all, so one pristine instance serves every reference run.
    let pristine = PreparedGraph::index_with(graph.clone(), Default::default(), 0);
    let mut runs = Vec::new();
    for keywords in workload {
        for scenario in SCENARIOS {
            runs.push(run_scenario(&pristine, scenario, keywords));
        }
    }
    runs
}

/// The suite body: N threads × M repeats of all scenarios against one
/// shared, cache-enabled preparation, all compared bit-for-bit against the
/// single-threaded cache-disabled reference.
fn assert_concurrent_runs_match_reference(graph: DataGraph, workload: Vec<Vec<String>>) {
    let shared = Arc::new(PreparedGraph::index(graph.clone()));
    assert_shared_runs_match_reference(shared, &graph, workload);
}

/// The same proof obligation, for an arbitrary shared preparation (freshly
/// indexed or loaded from a snapshot) over `graph`.
fn assert_shared_runs_match_reference(
    shared: Arc<PreparedGraph>,
    graph: &DataGraph,
    workload: Vec<Vec<String>>,
) {
    let reference = reference_runs(graph, &workload);

    thread::scope(|scope| {
        for thread_id in 0..THREADS {
            let shared = Arc::clone(&shared);
            let workload = &workload;
            let reference = &reference;
            scope.spawn(move || {
                for repeat in 0..REPEATS {
                    // Stagger the starting offset per (thread, repeat) so
                    // cache hits, misses and racing inserts interleave
                    // differently on every pass.
                    let offset = (thread_id + repeat) % workload.len();
                    for step in 0..workload.len() {
                        let kw_index = (offset + step) % workload.len();
                        let keywords = &workload[kw_index];
                        for (s, scenario) in SCENARIOS.into_iter().enumerate() {
                            let got = run_scenario(&shared, scenario, keywords);
                            let want = &reference[kw_index * SCENARIOS.len() + s];
                            assert_eq!(
                                &got, want,
                                "thread {thread_id}, repeat {repeat}: {scenario:?} over \
                                 {keywords:?} diverged from the single-threaded reference"
                            );
                        }
                    }
                }
            });
        }
    });

    let stats = shared.augmentation_cache().stats();
    assert!(
        stats.hits > 0,
        "the repeated workload must exercise cache hits: {stats:?}"
    );
}

#[test]
fn figure1_scenarios_are_bit_identical_across_threads() {
    let workload = vec![
        vec!["2006".into(), "cimiano".into(), "aifb".into()],
        vec!["cimiano".into(), "publication".into()],
        vec!["publications".into()],
    ];
    assert_concurrent_runs_match_reference(figure1_graph(), workload);
}

#[test]
fn snapshot_loaded_scenarios_are_bit_identical_across_threads() {
    // The concurrency contract must hold for a preparation *loaded from a
    // snapshot* exactly as for a freshly indexed one: the loaded graph
    // derives its adjacency from the edge columns, and its augmentation
    // cache starts empty, so this also races cache fills on the loaded
    // read path against each other.
    let graph = figure1_graph();
    let workload = vec![
        vec!["2006".into(), "cimiano".into(), "aifb".into()],
        vec!["cimiano".into(), "publication".into()],
        vec!["publications".into()],
    ];
    let built = PreparedGraph::index(graph.clone());
    let mut bytes = Vec::new();
    built.save(&mut bytes).expect("in-memory save");
    let loaded = PreparedGraph::load(bytes.as_slice()).expect("load own snapshot");
    assert_shared_runs_match_reference(Arc::new(loaded), &graph, workload);
}

/// The serving analogue of the suite's proof obligation: N threads calling
/// `search` on one shared [`SearchService`] (admission, cache probe, one
/// lookup on the shards' shared index, one exploration — all on the
/// caller's thread) must
/// get streams bit-identical to single-threaded unsharded sessions on a
/// fresh, cache-disabled preparation over `graph`.
fn assert_service_matches_reference(service: &SearchService, graph: &DataGraph) {
    let workload: Vec<Vec<String>> = vec![
        vec!["2006".into(), "cimiano".into(), "aifb".into()],
        vec!["cimiano".into(), "publication".into()],
        vec!["publications".into()],
    ];

    let pristine = PreparedGraph::index_with(graph.clone(), Default::default(), 0);
    let reference: Vec<Vec<QueryKey>> = workload
        .iter()
        .map(|keywords| run_scenario(&pristine, Scenario::Drain, keywords).0)
        .collect();

    thread::scope(|scope| {
        for thread_id in 0..THREADS {
            let workload = &workload;
            let reference = &reference;
            scope.spawn(move || {
                for repeat in 0..REPEATS {
                    let offset = (thread_id + repeat) % workload.len();
                    for step in 0..workload.len() {
                        let kw_index = (offset + step) % workload.len();
                        let keywords = &workload[kw_index];
                        let outcome = service
                            .search(SearchRequest::new(keywords.iter()))
                            .expect("workload keywords always match")
                            .outcome;
                        let got: Vec<QueryKey> = outcome.queries.iter().map(query_key).collect();
                        assert_eq!(
                            &got, &reference[kw_index],
                            "thread {thread_id}, repeat {repeat}: the served stream \
                             over {keywords:?} diverged from the unsharded reference"
                        );
                        let ranks: Vec<usize> = outcome.queries.iter().map(|q| q.rank).collect();
                        assert_eq!(
                            ranks,
                            (1..=outcome.queries.len()).collect::<Vec<_>>(),
                            "ranks must stay dense"
                        );
                    }
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.admitted, (THREADS * REPEATS * workload.len()) as u64);
    assert_eq!((stats.rejected, stats.deadline_exceeded), (0, 0));
}

/// Three shards, shard caches off: every request looks up once, on the
/// index the shards share, and explores once.
#[test]
fn sharded_scatter_gather_is_bit_identical_across_threads() {
    let graph = figure1_graph();
    let shards = partition(&graph, 3).prepare_shards(&graph, Default::default());
    let service = SearchService::new(shards, SearchConfig::default());
    assert_service_matches_reference(&service, &graph);
}

/// One shard, cache on: racing misses, inserts and replays behind `search`.
#[test]
fn one_shard_cached_service_is_bit_identical_across_threads() {
    let graph = figure1_graph();
    let service = SearchService::new(
        [PreparedGraph::index(graph.clone())],
        SearchConfig::default(),
    );
    assert_service_matches_reference(&service, &graph);
    let stats = service.shards()[0].augmentation_cache().stats();
    assert!(
        stats.hits > 0,
        "repeats must be served by replay: {stats:?}"
    );
}

/// Read-during-write determinism: reader threads hammer a [`LiveGraph`]
/// while a writer thread applies a stream of delta batches. Every snapshot
/// a reader takes is pinned to some write epoch, and its results must be
/// **bit-identical** to a single-threaded, cache-disabled preparation
/// indexed from scratch over exactly that epoch's merged triples — the
/// overlay read path, each snapshot's own result cache (shared by every
/// reader of that snapshot), and concurrent writes may change timings,
/// never results.
#[test]
fn reads_during_writes_are_bit_identical_per_epoch() {
    let graph = figure1_graph();
    // Round-trip the base through the snapshot path so the live overlays
    // ride on a derived adjacency base, as in production.
    let mut bytes = Vec::new();
    PreparedGraph::index(graph.clone())
        .save(&mut bytes)
        .expect("in-memory save");
    let live = Arc::new(LiveGraph::new(
        PreparedGraph::load(bytes.as_slice()).expect("load own snapshot"),
    ));

    // The write stream: each batch introduces at least one new edge, so
    // each apply advances the epoch by exactly one. The first batch is the
    // smallest write there is (an existing value under an existing label);
    // like every other batch it starts its snapshot with an empty cache.
    let addition_stream: Vec<Vec<Triple>> = vec![
        vec![Triple::attribute("pub1URI", "year", "2008")],
        vec![
            Triple::typed("pub3URI", "Publication"),
            Triple::attribute("pub3URI", "title", "Streaming RDF Joins"),
        ],
        vec![Triple::relation("pub3URI", "author", "re2URI")],
        vec![Triple::attribute("inst2URI", "name", "IPE")],
    ];
    let final_epoch = addition_stream.len() as u64;

    // Keywords that match at every epoch, so every snapshot can run the
    // full scenario set no matter which write it observed.
    let workload: Vec<Vec<String>> = vec![
        vec!["2006".into(), "cimiano".into(), "aifb".into()],
        vec!["cimiano".into(), "publication".into()],
    ];

    // One single-threaded reference per epoch, each indexed from scratch
    // over the base plus the prefix of the write stream visible there.
    let mut references = Vec::new();
    let mut merged = graph.clone();
    references.push(reference_runs(&merged, &workload));
    for additions in &addition_stream {
        for t in additions {
            merged
                .insert_triple(t)
                .expect("write stream is well-formed");
        }
        references.push(reference_runs(&merged, &workload));
    }

    thread::scope(|scope| {
        {
            let live = Arc::clone(&live);
            scope.spawn(move || {
                for additions in addition_stream {
                    let mut batch = DeltaBatch::new();
                    for t in additions {
                        batch = batch.add(t);
                    }
                    live.apply(&batch).expect("write stream is well-formed");
                    // Give the readers a chance to observe this epoch
                    // before the next write lands.
                    thread::yield_now();
                }
            });
        }
        for thread_id in 0..THREADS {
            let live = Arc::clone(&live);
            let workload = &workload;
            let references = &references;
            scope.spawn(move || {
                let mut loops = 0usize;
                loop {
                    let snapshot = live.snapshot();
                    let epoch = snapshot.write_epoch();
                    for (kw_index, keywords) in workload.iter().enumerate() {
                        for (s, scenario) in SCENARIOS.into_iter().enumerate() {
                            let got = run_scenario(&snapshot, scenario, keywords);
                            let want = &references[epoch as usize][kw_index * SCENARIOS.len() + s];
                            assert_eq!(
                                &got, want,
                                "thread {thread_id}: {scenario:?} over {keywords:?} at \
                                 epoch {epoch} diverged from its single-threaded reference"
                            );
                        }
                    }
                    loops += 1;
                    if epoch == final_epoch {
                        break;
                    }
                    assert!(
                        loops < 10_000,
                        "writer never reached epoch {final_epoch} (stuck at {epoch})"
                    );
                }
            });
        }
    });

    // Read-your-writes: the final snapshot sees every batch, including the
    // keywords the write stream introduced.
    let settled = live.snapshot();
    assert_eq!(settled.write_epoch(), final_epoch);
    let fresh = PreparedGraph::index_with(merged, Default::default(), 0);
    for keywords in [
        vec!["streaming".to_string(), "cimiano".to_string()],
        vec!["ipe".to_string()],
    ] {
        for scenario in SCENARIOS {
            let got = run_scenario(&settled, scenario, &keywords);
            let want = run_scenario(&fresh, scenario, &keywords);
            assert_eq!(
                got, want,
                "{scenario:?} over the write-introduced {keywords:?} diverged"
            );
        }
    }
    let stats = settled.augmentation_cache().stats();
    assert!(
        stats.hits > 0,
        "the repeated per-epoch workload must exercise cache hits: {stats:?}"
    );
}

#[test]
fn dblp_scenarios_are_bit_identical_across_threads() {
    let dataset = DblpDataset::small();
    let workload: Vec<Vec<String>> = dblp_performance_queries(&dataset)
        .into_iter()
        .take(3)
        .map(|q| q.keywords)
        .collect();
    assert!(!workload.is_empty());
    assert_concurrent_runs_match_reference(dataset.graph.clone(), workload);
}
