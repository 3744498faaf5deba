//! `sharded_scatter`: the first requests of `cold_explore`'s sequence sent
//! through the scatter-gather path — 4 shards, one worker each, one client,
//! `with_min_answers(10)`. The same queries as `cold_explore`, so the
//! difference between the two is the coordinator: scatter, the replicated
//! explorations sharing the cores, and the streaming merge.

use std::time::{Duration, Instant};

use kwsearch_core::shard::{partition, ShardedOutcome, ShardedServiceOptions};
use kwsearch_core::{PreparedGraph, SearchConfig, SearchRequest, ServeError, ShardedService};
use kwsearch_keyword_index::KeywordIndexConfig;
use kwsearch_rdf::DataGraph;

use crate::common::{drive, layer_builds, on_fresh_thread, repeat_setup, set_end_to_end, Ctx};
use crate::digest::FirstPass;
use crate::gen::{self, Pools, Stream};
use crate::pipeline::{session_request, MIN_ANSWERS, SPAN_REQUEST};
use crate::report::Report;
use crate::stats::{ratio, Paired, Samples};
use crate::trace::Tracer;
use crate::workloads;
use crate::workloads::cold::COLD_EXPLORE;

const SHARDS: usize = 4;
/// The first this-many requests of `cold_explore`'s sequence.
const SEQUENCE_LEN: usize = 250;

const SPAN_SEARCH: &str = "shard.search";

struct Served {
    service: ShardedService,
    graph: DataGraph,
    pools: Pools,
    prepare_s: f64,
    replicated_edge_frac: f64,
}

fn setup(ctx: &Ctx) -> Served {
    let (graph, pools) = gen::dataset(ctx.publications(workloads::MID_PUBLICATIONS), ctx.seed);
    let plan = partition(&graph, SHARDS);
    let replicated_edge_frac = ratio(
        plan.replicated_edge_count() as f64,
        graph.edge_count() as f64,
    );
    let start = Instant::now();
    let shards = plan.prepare_shards(&graph, KeywordIndexConfig::default());
    let prepare_s = start.elapsed().as_secs_f64();
    let service = ShardedService::start(
        shards,
        SearchConfig::default(),
        ShardedServiceOptions::default(),
    );
    Served {
        service,
        graph,
        pools,
        prepare_s,
        replicated_edge_frac,
    }
}

/// What the sharded requests of a run reported.
#[derive(Default)]
struct Pass {
    latency_ms: Samples,
    scatter_ms: Samples,
    merge_ms: Samples,
    early_emissions: usize,
    merged: usize,
}

impl Pass {
    fn record(&mut self, latency: Duration, outcome: &ShardedOutcome) {
        self.latency_ms.push_ms(latency);
        self.scatter_ms.push_ms(outcome.scatter_time);
        self.merge_ms.push_ms(outcome.merge_time);
        self.early_emissions += outcome.early_emissions;
        self.merged += outcome.queries.len();
    }
}

/// One scatter-gather request, inside spans when a tracer is given.
fn sharded_request(
    service: &ShardedService,
    keywords: &[String],
    deadline: Instant,
    tracer: Option<(&mut Tracer, u32)>,
) -> (Duration, Result<ShardedOutcome, ServeError>) {
    let request = SearchRequest::new(keywords)
        .with_min_answers(MIN_ANSWERS)
        .with_deadline(deadline.saturating_duration_since(Instant::now()));
    let sent = Instant::now();
    let outcome = match tracer {
        Some((tracer, id)) => {
            let root = tracer.begin(SPAN_REQUEST, id, None);
            let outcome = tracer.span(SPAN_SEARCH, id, Some(root), || service.search(request));
            tracer.end(root);
            outcome
        }
        None => service.search(request),
    };
    (sent.elapsed(), outcome)
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let (served, mut setup_s) = repeat_setup(ctx, || setup(ctx));
    let Served {
        service,
        graph,
        pools,
        prepare_s,
        replicated_edge_frac,
    } = served;
    // The unsharded reference of the same data: what the sharded replies
    // must equal, and the latency they are compared against.
    let reference = PreparedGraph::index_with(graph, KeywordIndexConfig::default(), 0);
    let mut sequence = pools.sequence(
        ctx.seed,
        Stream::Queries,
        COLD_EXPLORE.sequence_len,
        COLD_EXPLORE.keyword_cycle,
    );
    sequence.truncate(SEQUENCE_LEN);
    let config = SearchConfig::default();
    let budget = ctx.budget(sequence.len());
    let prefix = budget.min_requests.min(sequence.len());

    let mut first_pass = FirstPass::new(sequence.len());
    let mut sharded = Pass::default();
    let start = Instant::now();
    let deadline = start + budget.ceiling;
    // Runs request `slot` through an unsharded session; the sharded reply
    // must equal it.
    let check_unsharded =
        |report: &mut Report, first_pass: &FirstPass, slot: usize| -> Option<Duration> {
            report.attempted += 1;
            let Ok(result) = session_request(&reference, &sequence[slot], &config, deadline) else {
                report.failed += 1;
                return None;
            };
            first_pass.check_path(report, slot, &result.queries, "the unsharded session");
            Some(result.total)
        };

    if !ctx.traced {
        let (tally, wall_s) = on_fresh_thread(|| {
            let tally = drive(budget, start, |i| {
                let slot = i % sequence.len();
                let (latency, outcome) = sharded_request(&service, &sequence[slot], deadline, None);
                let Ok(outcome) = outcome else {
                    return false;
                };
                sharded.record(latency, &outcome);
                first_pass.check(report, i, slot, &outcome.queries);
                true
            });
            let wall_s = start.elapsed().as_secs_f64();
            for slot in 0..prefix {
                check_unsharded(report, &first_pass, slot);
            }
            (tally, wall_s)
        });
        tally.add_to(report);
        report.result_digest = first_pass.digest(prefix);
        set_end_to_end(report, &mut setup_s, &mut sharded.latency_ms, None, wall_s);
        return;
    }

    // Traced: every request of the prefix three times, back to back —
    // unsharded, sharded, sharded inside spans — so that all three see the
    // same minute of the host (see `Paired`).
    let mut tracer = Tracer::new(start);
    let mut paired = Paired::default();
    let mut unsharded_ms = Samples::default();
    let tally = on_fresh_thread(|| {
        drive(budget, start, |i| {
            let keywords = &sequence[i];
            let mut in_spans =
                || sharded_request(&service, keywords, deadline, Some((&mut tracer, i as u32)));
            let early = Paired::traced_first(i).then(&mut in_spans);
            let (latency, plain) = sharded_request(&service, keywords, deadline, None);
            let (traced_latency, traced) = early.unwrap_or_else(in_spans);
            report.attempted += 1;
            let (Ok(plain), Ok(traced)) = (plain, traced) else {
                report.failed += 1;
                return false;
            };
            sharded.record(latency, &plain);
            paired.push(i, latency, traced_latency);
            first_pass.check(report, i, i, &plain.queries);
            first_pass.check(report, i, i, &traced.queries);
            if let Some(unsharded) = check_unsharded(report, &first_pass, i) {
                unsharded_ms.push_ms(unsharded);
            }
            true
        })
    });
    tally.add_to(report);
    service.shutdown();
    report.result_digest = first_pass.digest(prefix);

    layer_builds(reference.graph(), report);
    let n = sharded.latency_ms.len();
    report.set("shard.scatter_ms_p50", sharded.scatter_ms.median(), n);
    report.set("shard.merge_ms_p50", sharded.merge_ms.median(), n);
    report.set(
        "shard.early_emit_ratio",
        ratio(sharded.early_emissions as f64, sharded.merged as f64),
        sharded.merged,
    );
    report.set(
        "shard.latency_vs_unsharded",
        ratio(sharded.latency_ms.median(), unsharded_ms.median()),
        unsharded_ms.len(),
    );
    report.set("shard.prepare_s", prepare_s, 1);
    report.set("shard.replicated_edge_frac", replicated_edge_frac, 1);
    report.set("trace.overhead_frac", paired.overhead_frac(), paired.len());
    ctx.write_trace(&tracer);
}
