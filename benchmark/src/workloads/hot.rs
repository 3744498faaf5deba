//! `hot_serve`: the working set fits the cache. A `SearchService` with
//! `min(nproc, 4)` workers serves as many closed-loop clients plain top-k
//! requests drawn Zipf(1.0) from a pool of 64 distinct queries, after one
//! warm-up pass. Exploration is bypassed: what is measured is cache replay,
//! admission and the queue hand-off.

// lint: allow-file(no-unwrap, reason = "benchmark harness: a failed set-up step aborts the run with a clear message and a non-zero exit, which is the desired failure mode")

use std::sync::Arc;
use std::time::Instant;

use kwsearch_core::{PreparedGraph, SearchConfig, SearchRequest, SearchService};

use crate::common::{
    drive, layer_builds, on_fresh_thread, repeat_setup, set_end_to_end, Budget, Ctx, Tally,
};
use crate::gen;
use crate::pipeline::SPAN_REQUEST;
use crate::report::Report;
use crate::stats::{ratio, supports, Samples};
use crate::trace::Tracer;
use crate::{digest, workloads};

/// Distinct queries in the pool: half the default cache capacity (128), so
/// nothing is ever evicted.
const POOL: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;
const SEQUENCE_LEN: usize = 400_000;
/// Besides each client's first sight of a pool query, every this-many-th
/// reply is canonicalized and compared in full; every reply's cost
/// fingerprint is compared. (Canonicalizing all replies would cost the
/// closed-loop clients about as much as the request itself.)
const FULL_CHECK_EVERY: usize = 64;
/// Direct cache-hit sessions per pool query for `cache.hit_session_us_p50`.
const HIT_SESSION_REPETITIONS: usize = 8;

const SPAN_SUBMIT: &str = "serve.submit";
const SPAN_WAIT: &str = "serve.wait";
const SPAN_HIT_SESSION: &str = "cache.hit_session";

/// A pool query's cold result, as two digests.
#[derive(Clone, Copy)]
struct Expected {
    full: u64,
    costs: u64,
}

struct Served {
    service: SearchService,
    prepared: Arc<PreparedGraph>,
    pool: Vec<Vec<String>>,
    expected: Vec<Expected>,
}

fn setup(ctx: &Ctx, report: &mut Report) -> Served {
    let publications = ctx.publications(workloads::MID_PUBLICATIONS);
    let (graph, pools) = gen::dataset(publications, ctx.seed);
    let pool = pools.distinct_pool(ctx.seed, POOL, &[2, 3, 4, 5]);
    let prepared = Arc::new(PreparedGraph::index(graph));
    let service = SearchService::start(
        Arc::clone(&prepared),
        SearchConfig::default(),
        ctx.clients(),
    );
    // The warm-up pass: every pool query once, each a cold session on a
    // worker (a cache miss that leaves its replay log behind).
    let expected = pool
        .iter()
        .map(|keywords| {
            let response = service
                .submit(SearchRequest::new(keywords))
                .expect("the warm-up fits the queue")
                .wait();
            let queries = response.result.expect("pool keywords always match").queries;
            report.check(digest::well_ranked(&queries), || {
                format!("warm-up {keywords:?}: costs decrease down the ranking")
            });
            Expected {
                full: digest::of_queries(&queries),
                costs: digest::of_costs(&queries),
            }
        })
        .collect();
    Served {
        service,
        prepared,
        pool,
        expected,
    }
}

/// One client's observations.
#[derive(Default)]
struct Client {
    /// Requests sent plainly …
    latency_ms: Samples,
    /// … and, in the traced run, every other request, sent inside spans.
    traced_latency_ms: Samples,
    service_us: Samples,
    queue_wait_us: Samples,
    tally: Tally,
    problems: Vec<String>,
}

/// Runs the closed-loop clients until the per-client budget ends; returns
/// the clients' observations and the phase's wall seconds. In the traced run
/// every other request goes out inside spans, so that traced and plain
/// requests share the same seconds of a host whose speed drifts.
fn clients_phase(
    ctx: &Ctx,
    served: &Served,
    draws: &[u32],
    budget: Budget,
    traced: bool,
) -> (Vec<(Client, Tracer)>, f64) {
    let clients = ctx.clients();
    let per_client = Budget {
        min_requests: budget.min_requests.div_ceil(clients),
        ..budget
    };
    let start = Instant::now();
    let observed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut seen = [false; POOL];
                    // Sized for the whole sequence up front: a sample vector
                    // that doubles mid-run shows up in `peak_rss_mb`.
                    let mut out = Client {
                        latency_ms: Samples::with_capacity(SEQUENCE_LEN),
                        service_us: Samples::with_capacity(SEQUENCE_LEN),
                        queue_wait_us: Samples::with_capacity(SEQUENCE_LEN),
                        ..Client::default()
                    };
                    let mut tracer = Tracer::new(start);
                    out.tally = drive(per_client, start, |i| {
                        let draw = draws[(client + i * clients) % draws.len()] as usize;
                        let request = (client + i * clients) as u32;
                        let in_spans = traced && i % 2 == 1;
                        let sent = Instant::now();
                        let response = if in_spans {
                            let root = tracer.begin(SPAN_REQUEST, request, None);
                            let ticket = tracer.span(SPAN_SUBMIT, request, Some(root), || {
                                served
                                    .service
                                    .submit(SearchRequest::new(&served.pool[draw]))
                            });
                            let response = ticket.map(|ticket| {
                                tracer.span(SPAN_WAIT, request, Some(root), || ticket.wait())
                            });
                            tracer.end(root);
                            response
                        } else {
                            served
                                .service
                                .submit(SearchRequest::new(&served.pool[draw]))
                                .map(|ticket| ticket.wait())
                        };
                        let latency = sent.elapsed();
                        let Ok(response) = response else {
                            return false;
                        };
                        let Ok(outcome) = response.result else {
                            return false;
                        };
                        if in_spans {
                            out.traced_latency_ms.push_ms(latency);
                        } else {
                            out.latency_ms.push_ms(latency);
                        }
                        out.service_us
                            .push(response.service_time.as_secs_f64() * 1e6);
                        out.queue_wait_us.push(
                            latency.saturating_sub(response.service_time).as_secs_f64() * 1e6,
                        );
                        let expected = served.expected[draw];
                        let full_check = !seen[draw] || i % FULL_CHECK_EVERY == 0;
                        seen[draw] = true;
                        if digest::of_costs(&outcome.queries) != expected.costs
                            || (full_check && digest::of_queries(&outcome.queries) != expected.full)
                        {
                            out.problems.push(format!(
                                "request {request}: the hot reply for pool query {draw} \
                                 differs from its cold session"
                            ));
                        }
                        true
                    });
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (observed, start.elapsed().as_secs_f64())
}

/// Merges the clients' observations into one, recording their failures.
fn merge(observed: Vec<(Client, Tracer)>, tracer: &mut Tracer, report: &mut Report) -> Client {
    let mut all = Client::default();
    for (mut client, client_tracer) in observed {
        client.tally.add_to(report);
        report.problems.append(&mut client.problems);
        all.latency_ms.extend(&client.latency_ms);
        all.traced_latency_ms.extend(&client.traced_latency_ms);
        all.service_us.extend(&client.service_us);
        all.queue_wait_us.extend(&client.queue_wait_us);
        tracer.merge(client_tracer);
    }
    all
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let (served, mut setup_s) = repeat_setup(ctx, || setup(ctx, report));
    let draws = gen::zipf_draws(ctx.seed, POOL, ZIPF_EXPONENT, SEQUENCE_LEN);
    let budget = ctx.budget(SEQUENCE_LEN);
    let full: Vec<u64> = served.expected.iter().map(|e| e.full).collect();
    report.result_digest = digest::of_digests(&full);
    let cache = served.prepared.augmentation_cache();
    let warm = cache.stats();

    let mut tracer = Tracer::new(Instant::now());
    let (observed, wall_s) = clients_phase(ctx, &served, &draws, budget, ctx.traced);
    let mut clients = merge(observed, &mut tracer, report);

    if !ctx.traced {
        set_end_to_end(report, &mut setup_s, &mut clients.latency_ms, None, wall_s);
        return;
    }
    let hot = cache.stats();
    let n = clients.service_us.len();

    // A cache-hit session timed without the service.
    let config = SearchConfig::default();
    on_fresh_thread(|| {
        for repetition in 0..HIT_SESSION_REPETITIONS {
            for (slot, keywords) in served.pool.iter().enumerate() {
                let request = (repetition * POOL + slot) as u32;
                let outcome = tracer.span(SPAN_HIT_SESSION, request, None, || {
                    served
                        .prepared
                        .session(keywords, config.clone())
                        .map(|session| session.into_outcome())
                });
                report.check(
                    outcome
                        .is_ok_and(|o| digest::of_costs(&o.queries) == served.expected[slot].costs),
                    || format!("direct hit session {slot} differs from its cold session"),
                );
            }
        }
    });
    let mut hit_session = tracer.per_request_ms(SPAN_HIT_SESSION);

    layer_builds(served.prepared.graph(), report);
    let lookups = (hot.hits - warm.hits) + (hot.misses - warm.misses);
    report.set(
        "cache.hit_ratio",
        ratio((hot.hits - warm.hits) as f64, lookups as f64),
        lookups as usize,
    );
    report.set("cache.evictions", hot.evictions as f64, 1);
    report.set("cache.invalidations", hot.invalidations as f64, 1);
    report.set("cache.heap_mb", hot.heap_bytes as f64 / 1e6, 1);
    report.set(
        "cache.hit_session_us_p50",
        hit_session.median() * 1e3,
        hit_session.len(),
    );
    report.set("serve.queue_wait_us_p50", clients.queue_wait_us.median(), n);
    report.set(
        "serve.queue_wait_us_p95",
        clients.queue_wait_us.tail(0.95),
        n,
    );
    report.set("serve.service_us_p50", clients.service_us.median(), n);
    let stats = served.service.stats();
    report.set("serve.peak_queue_depth", stats.peak_queue_depth as f64, 1);
    report.set("serve.rejected", stats.jobs_rejected as f64, 1);
    let plain = clients.latency_ms.len();
    if supports(plain, 0.99) {
        report.set(
            "client.request_ms_p99",
            clients.latency_ms.percentile(0.99),
            plain,
        );
    }
    report.set(
        "trace.overhead_frac",
        ratio(
            clients.traced_latency_ms.median(),
            clients.latency_ms.median(),
        ) - 1.0,
        clients.traced_latency_ms.len(),
    );
    ctx.write_trace(&tracer);
}
