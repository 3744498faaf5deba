//! `cold_explore` and `data_bound`: one closed-loop client, cache off, every
//! request a full session (first query → answer phase → drain).
//!
//! The two differ in what dominates. `cold_explore` mixes 2–5 keywords on
//! the mid-size dataset: exploration does most of the work and the top-k
//! threshold rarely fires beyond two keywords. `data_bound` sends only
//! 2-keyword requests to the large dataset: the threshold fires every time,
//! so keyword lookup and the answer join over the big store carry the
//! request, and set-up round-trips an N-Triples file and a snapshot.

// lint: allow-file(no-unwrap, reason = "benchmark harness: a failed set-up step aborts the run with a clear message and a non-zero exit, which is the desired failure mode")

use std::io::BufReader;
use std::time::Instant;

use kwsearch_core::{PreparedGraph, SearchConfig};
use kwsearch_keyword_index::KeywordIndexConfig;
use kwsearch_rdf::DataGraph;

use crate::common::{drive, layer_builds, on_fresh_thread, repeat_setup, set_end_to_end, Ctx};
use crate::digest::FirstPass;
use crate::gen::{self, Pools, Stream};
use crate::pipeline::{self, session_request, traced_request, RequestResult};
use crate::report::Report;
use crate::stats::{ratio, supports, Paired, Samples};
use crate::trace::Tracer;
use crate::workloads;

/// What distinguishes the two single-client workloads.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub publications: usize,
    /// Keywords of request `i` are `keyword_cycle[i % len]`.
    pub keyword_cycle: &'static [usize],
    pub sequence_len: usize,
    /// Whether set-up round-trips an N-Triples file and a snapshot, and the
    /// requests are served from the loaded snapshot.
    pub roundtrip: bool,
}

/// 2–5 keywords at 30 / 40 / 15 / 15 %. Request latency clusters by keyword
/// count (≈6, 14, 28, 40 ms on the reference host) with gaps in between;
/// these weights put the median in the middle of the 3-keyword cluster and
/// p95 inside the 5-keyword cluster, where neither moves with the seed.
const MIXED_CYCLE: [usize; 20] = [3, 2, 4, 3, 5, 2, 3, 3, 2, 4, 3, 5, 2, 3, 3, 2, 4, 5, 3, 2];

pub const COLD_EXPLORE: Spec = Spec {
    publications: workloads::MID_PUBLICATIONS,
    keyword_cycle: &MIXED_CYCLE,
    sequence_len: 800,
    roundtrip: false,
};

pub const DATA_BOUND: Spec = Spec {
    publications: workloads::LARGE_PUBLICATIONS,
    keyword_cycle: &[2],
    sequence_len: 1_500,
    roundtrip: true,
};

/// The wall time of each set-up leg, in seconds (0 when the leg did not run).
#[derive(Debug, Default, Clone, Copy)]
struct Legs {
    ingest_s: f64,
    index_s: f64,
    save_s: f64,
    load_s: f64,
    triples: usize,
    snapshot_bytes: u64,
}

struct Served {
    prepared: PreparedGraph,
    pools: Pools,
    legs: Legs,
}

fn timed<T>(seconds: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *seconds = start.elapsed().as_secs_f64();
    value
}

fn setup(ctx: &Ctx, spec: &Spec, report: &mut Report) -> Served {
    let mut legs = Legs::default();
    let (mut graph, pools) = gen::dataset(ctx.publications(spec.publications), ctx.seed);
    legs.triples = graph.edge_count();

    if spec.roundtrip {
        let nt_path = ctx.scratch("nt");
        kwsearch_datagen::write_ntriples_file(&graph, &nt_path).expect("write the N-Triples file");
        drop(graph);
        graph = timed(&mut legs.ingest_s, || {
            let mut ingested = DataGraph::new();
            let file = std::fs::File::open(&nt_path).expect("reopen the N-Triples file");
            kwsearch_rdf::ingest_ntriples(BufReader::new(file), &mut ingested)
                .expect("ingest the generated N-Triples");
            ingested
        });
        std::fs::remove_file(&nt_path).ok();
        report.check(graph.edge_count() == legs.triples, || {
            format!(
                "streamed ingest produced {} triples, the generator {}",
                graph.edge_count(),
                legs.triples
            )
        });
    }

    let mut prepared = timed(&mut legs.index_s, || {
        PreparedGraph::index_with(graph, KeywordIndexConfig::default(), 0)
    });

    if spec.roundtrip {
        let snapshot_path = ctx.scratch("kws");
        timed(&mut legs.save_s, || {
            prepared
                .save_to_path(&snapshot_path)
                .expect("save the snapshot")
        });
        legs.snapshot_bytes = std::fs::metadata(&snapshot_path)
            .expect("stat the snapshot")
            .len();
        // Dropped before the load so the load's allocations reuse freed
        // pages instead of measuring first-touch page faults.
        drop(prepared);
        prepared = timed(&mut legs.load_s, || {
            let file = std::fs::File::open(&snapshot_path).expect("reopen the snapshot");
            PreparedGraph::load_with(BufReader::new(file), 0).expect("load the snapshot")
        });
        std::fs::remove_file(&snapshot_path).ok();
    }
    Served {
        prepared,
        pools,
        legs,
    }
}

/// The traced requests of the measured prefix.
#[derive(Default)]
struct Pass {
    latency_ms: Samples,
    results: Vec<RequestResult>,
}

pub fn run(ctx: &Ctx, spec: &Spec, report: &mut Report) {
    let (served, mut setup_s) = repeat_setup(ctx, || setup(ctx, spec, report));
    let Served {
        prepared,
        pools,
        legs,
    } = served;
    let sequence = pools.sequence(
        ctx.seed,
        Stream::Queries,
        spec.sequence_len,
        spec.keyword_cycle,
    );
    let config = SearchConfig::default();
    let budget = ctx.budget(sequence.len());
    let prefix = budget.min_requests.min(sequence.len());

    let mut first_pass = FirstPass::new(sequence.len());
    let start = Instant::now();
    let deadline = start + budget.ceiling;

    if !ctx.traced {
        // The session path, for as long as the budget says.
        let mut latency_ms = Samples::default();
        let mut first_query_ms = Samples::default();
        let tally = on_fresh_thread(|| {
            drive(budget, start, |i| {
                let slot = i % sequence.len();
                let Ok(result) = session_request(&prepared, &sequence[slot], &config, deadline)
                else {
                    return false;
                };
                latency_ms.push_ms(result.total);
                first_query_ms.push_ms(result.first_query);
                first_pass.check(report, i, slot, &result.queries);
                true
            })
        });
        let wall_s = start.elapsed().as_secs_f64();
        tally.add_to(report);
        report.result_digest = first_pass.digest(prefix);
        set_end_to_end(
            report,
            &mut setup_s,
            &mut latency_ms,
            Some(&mut first_query_ms),
            wall_s,
        );
        return;
    }

    // Traced: every request of the prefix twice, back to back — through the
    // session and as the traced decomposition (see `Paired` for why).
    let mut tracer = Tracer::new(start);
    let mut traced = Pass::default();
    let mut paired = Paired::default();
    let tally = on_fresh_thread(|| {
        drive(budget, start, |i| {
            let keywords = &sequence[i];
            let mut decomposed = || {
                traced_request(
                    &prepared,
                    keywords,
                    &config,
                    deadline,
                    &mut tracer,
                    i as u32,
                )
            };
            let early = Paired::traced_first(i).then(&mut decomposed);
            let session = session_request(&prepared, keywords, &config, deadline);
            let decomposed = early.unwrap_or_else(decomposed);
            report.attempted += 1;
            let (Ok(session), Some(decomposed)) = (session, decomposed) else {
                report.failed += 1;
                return false;
            };
            first_pass.check(report, i, i, &session.queries);
            first_pass.check_path(report, i, &decomposed.queries, "the traced decomposition");
            paired.push(i, session.total, decomposed.total);
            traced.latency_ms.push_ms(decomposed.total);
            traced.results.push(decomposed);
            true
        })
    });
    tally.add_to(report);
    report.result_digest = first_pass.digest(prefix);

    layer_builds(prepared.graph(), report);
    layer_metrics(&tracer, &mut traced, report);
    let n = traced.latency_ms.len();
    if supports(n, 0.99) {
        report.set(
            "client.request_ms_p99",
            traced.latency_ms.percentile(0.99),
            n,
        );
    }
    report.set("trace.overhead_frac", paired.overhead_frac(), paired.len());
    if spec.roundtrip {
        persist_metrics(&legs, report);
    }
    ctx.write_trace(&tracer);
}

/// Per-layer timings from the spans, counts from the same request results.
fn layer_metrics(tracer: &Tracer, pass: &mut Pass, report: &mut Report) {
    let n = pass.results.len();
    let request_ns = tracer.total_ns(pipeline::SPAN_REQUEST) as f64;
    eprintln!(
        "request self time (outside every layer span): {:.4} of the traced request time",
        ratio(tracer.self_ns(pipeline::SPAN_REQUEST) as f64, request_ns)
    );
    let share = |span: &str| ratio(tracer.total_ns(span) as f64, request_ns);

    let mut lookup = tracer.per_request_ms(pipeline::SPAN_LOOKUP);
    report.set("keyword_index.lookup_ms_p50", lookup.median(), n);
    report.set("keyword_index.lookup_ms_p95", lookup.tail(0.95), n);
    report.set(
        "keyword_index.lookup_share",
        share(pipeline::SPAN_LOOKUP),
        n,
    );

    let mut augment = tracer.per_request_ms(pipeline::SPAN_AUGMENT);
    report.set("summary.augment_ms_p50", augment.median(), n);
    report.set("summary.augment_share", share(pipeline::SPAN_AUGMENT), n);

    let mut explore = tracer.per_request_ms(pipeline::SPAN_EXPLORE);
    report.set("exploration.run_ms_p50", explore.median(), n);
    report.set("exploration.run_ms_p95", explore.tail(0.95), n);
    report.set("exploration.share", share(pipeline::SPAN_EXPLORE), n);

    let mut map = tracer.per_request_ms(pipeline::SPAN_MAP);
    report.set("query_map.map_ms_p50", map.median(), n);
    report.set("query_map.share", share(pipeline::SPAN_MAP), n);

    let mut answer = tracer.per_request_ms(pipeline::SPAN_ANSWER);
    report.set("query_eval.answer_ms_p50", answer.median(), answer.len());
    report.set("query_eval.answer_ms_p95", answer.tail(0.95), answer.len());
    report.set("query_eval.share", share(pipeline::SPAN_ANSWER), n);

    let sum = |f: &dyn Fn(&RequestResult) -> usize| -> f64 {
        pass.results.iter().map(f).sum::<usize>() as f64
    };
    let per_request = |total: f64| ratio(total, n as f64);
    let keywords = sum(&|r| r.keywords);
    let pops = sum(&|r| r.stats.queue_pops);
    let pushes = sum(&|r| r.stats.queue_pushes);
    report.set(
        "keyword_index.matches_per_keyword",
        ratio(sum(&|r| r.matches), keywords),
        keywords as usize,
    );
    report.set(
        "summary.augmented_elements_mean",
        per_request(sum(&|r| r.augmented_elements)),
        n,
    );
    report.set("exploration.pops_per_request", per_request(pops), n);
    report.set(
        "exploration.ns_per_pop",
        ratio(tracer.total_ns(pipeline::SPAN_EXPLORE) as f64, pops),
        pops as usize,
    );
    report.set(
        "exploration.cursors_created_per_request",
        per_request(sum(&|r| r.stats.cursors_created)),
        n,
    );
    report.set(
        "exploration.peak_queue_len_max",
        pass.results
            .iter()
            .map(|r| r.stats.peak_queue_len)
            .max()
            .unwrap_or(0) as f64,
        n,
    );
    report.set(
        "exploration.wasted_pop_ratio",
        ratio(pushes - pops, pushes),
        pushes as usize,
    );
    report.set(
        "exploration.threshold_terminated_frac",
        per_request(sum(&|r| usize::from(r.stats.terminated_by_threshold))),
        n,
    );
    report.set(
        "exploration.first_query_pops_ratio",
        ratio(sum(&|r| r.first_query_pops), pops),
        n,
    );
    report.set(
        "query_map.queries_mapped_per_request",
        per_request(sum(&|r| r.queries_mapped)),
        n,
    );
    report.set(
        "query_eval.answers_per_request",
        per_request(sum(&|r| r.answers)),
        n,
    );
    report.set(
        "query_eval.queries_processed_per_request",
        per_request(sum(&|r| r.queries_processed)),
        n,
    );
}

/// Ingest, save and load as measured by the set-up legs themselves.
fn persist_metrics(legs: &Legs, report: &mut Report) {
    report.set("persist.save_s", legs.save_s, 1);
    report.set("persist.load_s", legs.load_s, 1);
    report.set(
        "persist.snapshot_bytes_per_triple",
        ratio(legs.snapshot_bytes as f64, legs.triples as f64),
        legs.triples,
    );
    report.set(
        "persist.load_vs_build_ratio",
        ratio(legs.load_s, legs.ingest_s + legs.index_s),
        1,
    );
    report.set(
        "rdf.ingest_triples_per_s",
        ratio(legs.triples as f64, legs.ingest_s),
        legs.triples,
    );
}
