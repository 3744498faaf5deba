//! `live_mixed`: writes beside reads on a `LiveGraph`.
//!
//! The mixed phase runs one **open-loop** writer at a fixed rate — each
//! write timed from when it was *due*, so a stall shows up in every write
//! queued behind it — beside closed-loop readers on fresh snapshots. Adds,
//! compaction and retractions are separate phases: one retraction rebuilds
//! the whole preparation and would swamp every other number.

// lint: allow-file(no-unwrap, reason = "benchmark harness: a failed set-up step aborts the run with a clear message and a non-zero exit, which is the desired failure mode")

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use kwsearch_core::{DeltaBatch, LiveGraph, PreparedGraph, SearchConfig};
use kwsearch_rdf::Triple;

use crate::common::{
    layer_builds, on_fresh_thread, repeat_setup, set_end_to_end, Ctx, Tally, WALL_CEILING,
};
use crate::gen::{self, Stream};
use crate::pipeline::{session_request, SPAN_REQUEST};
use crate::report::Report;
use crate::stats::{ratio, supports, Samples};
use crate::trace::Tracer;
use crate::{digest, workloads};

/// The open-loop writer's rate in the mixed phase.
pub const WRITE_RATE_HZ: f64 = 20.0;
/// Writes of the full mixed sequence (15 s at [`WRITE_RATE_HZ`]).
const MIXED_WRITES: usize = 300;
/// Retractions after the mixed phase, no readers running.
const RETRACTIONS: usize = 6;
/// The readers' request sequence, cycled: 2–3 keywords at 1 : 2, which
/// puts the median inside the 3-keyword latency cluster (see
/// `cold::MIXED_CYCLE` for why the mix is fixed).
const READER_SEQUENCE: usize = 512;
const READER_CYCLE: [usize; 3] = [3, 2, 3];

const SPAN_WRITE: &str = "live.write";
const SPAN_APPLY: &str = "live.apply";
const SPAN_SNAPSHOT: &str = "live.snapshot";
const SPAN_VISIBLE: &str = "live.visible_probe";
const SPAN_SESSION: &str = "session.request";
const SPAN_COMPACT: &str = "live.compact";
const SPAN_RETRACT: &str = "live.retract";

/// Request ids of reader `r` start here, clear of the writer's `0..`.
const READER_ID_BASE: u32 = 100_000_000;

/// The `i`-th written triple: a fresh annotation on an existing publication,
/// and the keyword that finds it.
fn written(i: usize, publications: usize) -> (Triple, String) {
    let keyword = format!("freshkw{i}");
    let subject = format!("pub{}", (i * 7_919 + 13) % publications);
    (
        Triple::attribute(subject, "benchNote", keyword.clone()),
        keyword,
    )
}

/// Timings of a sequence of single-triple writes.
#[derive(Default)]
struct Writes {
    /// Due → `apply` returned.
    ack_ms: Samples,
    /// Due → a session on a fresh snapshot certified a query for the
    /// written keyword.
    visible_ms: Samples,
    /// How late the writer started relative to the due time.
    late_ms: Samples,
    /// Digest of each visibility probe's first query, in write order.
    probe_digests: Vec<u64>,
    tally: Tally,
}

/// Applies write `i` and probes its visibility; all times run from `due`.
#[allow(clippy::too_many_arguments)]
fn write_one(
    live: &LiveGraph,
    i: usize,
    publications: usize,
    due: Instant,
    config: &SearchConfig,
    writes: &mut Writes,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let (triple, keyword) = written(i, publications);
    let batch = DeltaBatch::new().add(triple);
    writes.tally.attempted += 1;
    writes.late_ms.push_ms(due.elapsed());
    let request = i as u32;
    let root = tracer.begin(SPAN_WRITE, request, None);
    let applied = tracer.span(SPAN_APPLY, request, Some(root), || live.apply(&batch));
    writes.ack_ms.push_ms(due.elapsed());

    // No span of its own for this `snapshot()`: `live.snapshot` spans are
    // the readers', who contend with the writer for the lock.
    let probe = tracer.begin(SPAN_VISIBLE, request, Some(root));
    let first = live
        .snapshot()
        .session(&[keyword.as_str()], config.clone())
        .ok()
        .and_then(|mut session| session.next_query());
    tracer.end(probe);
    writes.visible_ms.push_ms(due.elapsed());
    tracer.end(root);

    let landed = applied.is_ok_and(|ticket| ticket.added_edges() == 1);
    if !landed {
        writes.tally.failed += 1;
    }
    report.check(first.is_some() || !landed, || {
        format!("write {i}: keyword {keyword} is not visible to its probe")
    });
    writes
        .probe_digests
        .push(first.map_or(0, |q| digest::of_queries(&[q])));
}

/// Retracts the first `count` written triples, one batch each.
fn retract(
    live: &LiveGraph,
    count: usize,
    publications: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Samples {
    let mut ack_ms = Samples::default();
    for i in 0..count {
        let batch = DeltaBatch::new().retract(written(i, publications).0);
        report.attempted += 1;
        let start = Instant::now();
        let ticket = tracer.span(SPAN_RETRACT, i as u32, None, || live.apply(&batch));
        ack_ms.push_ms(start.elapsed());
        if !ticket.is_ok_and(|t| t.retracted() == 1) {
            report.failed += 1;
        }
    }
    ack_ms
}

/// One reader's observations.
#[derive(Default)]
struct Reads {
    /// Seconds into the mixed phase at which each request started.
    started_s: Vec<f64>,
    latency_ms: Samples,
    first_query_ms: Samples,
    tally: Tally,
    problems: Vec<String>,
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let publications = ctx.publications(workloads::MID_PUBLICATIONS);
    let mut index_s = 0.0;
    let mut save_s = 0.0;
    let mut load_s = 0.0;
    let mut snapshot_bytes = 0u64;
    let ((live, pools), mut setup_s) = repeat_setup(ctx, || {
        let (graph, pools) = gen::dataset(publications, ctx.seed);
        let start = Instant::now();
        let built = PreparedGraph::index(graph);
        index_s = start.elapsed().as_secs_f64();
        let path = ctx.scratch("kws");
        let start = Instant::now();
        built.save_to_path(&path).expect("save the base snapshot");
        save_s = start.elapsed().as_secs_f64();
        snapshot_bytes = std::fs::metadata(&path).expect("stat the snapshot").len();
        drop(built);
        let start = Instant::now();
        let loaded = PreparedGraph::load_from_path(&path).expect("load the base snapshot");
        load_s = start.elapsed().as_secs_f64();
        std::fs::remove_file(&path).ok();
        (LiveGraph::new(loaded), pools)
    });
    let triples = live.snapshot().graph().edge_count();
    let sequence = pools.sequence(
        ctx.seed,
        Stream::ReaderQueries,
        READER_SEQUENCE,
        &READER_CYCLE,
    );
    let config = SearchConfig::default();

    // The traced run is as long as the untraced one: every write metric is
    // a per-layer metric, and a p95 wants 200 writes.
    let write_count = if ctx.smoke {
        MIXED_WRITES / 20
    } else {
        (ctx.seconds * WRITE_RATE_HZ).round().max(1.0) as usize
    };
    let readers = ctx.clients().saturating_sub(1).max(1);

    // The mixed phase: the writer on one fresh thread, the readers on others.
    let origin = Instant::now();
    let ceiling = origin + WALL_CEILING;
    let stop = AtomicBool::new(false);
    let mut writes = Writes::default();
    let mut tracer = Tracer::new(origin);
    let reads: Vec<(Reads, Tracer)> = on_fresh_thread(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|reader| {
                    let (live, sequence, config, stop) = (&live, &sequence, &config, &stop);
                    scope.spawn(move || {
                        let mut reads = Reads::default();
                        let mut tracer = Tracer::new(origin);
                        let mut step = reader;
                        while !stop.load(Ordering::Relaxed) && Instant::now() < ceiling {
                            let keywords = &sequence[step % sequence.len()];
                            let request = READER_ID_BASE * (reader as u32 + 1) + step as u32;
                            step += readers;
                            reads.tally.attempted += 1;
                            reads.started_s.push(origin.elapsed().as_secs_f64());
                            let start = Instant::now();
                            let root = tracer.begin(SPAN_REQUEST, request, None);
                            let snapshot =
                                tracer.span(SPAN_SNAPSHOT, request, Some(root), || live.snapshot());
                            let session_started = start.elapsed();
                            let result = tracer.span(SPAN_SESSION, request, Some(root), || {
                                session_request(&snapshot, keywords, config, ceiling)
                            });
                            tracer.end(root);
                            reads.latency_ms.push_ms(start.elapsed());
                            match result {
                                Ok(result) => {
                                    reads
                                        .first_query_ms
                                        .push_ms(session_started + result.first_query);
                                    if !digest::well_ranked(&result.queries) {
                                        reads.problems.push(format!(
                                            "read {request}: costs decrease down the ranking"
                                        ));
                                    }
                                }
                                Err(_) => reads.tally.failed += 1,
                            }
                        }
                        (reads, tracer)
                    })
                })
                .collect();

            for i in 0..write_count {
                let due = origin + Duration::from_secs_f64(i as f64 / WRITE_RATE_HZ);
                if due >= ceiling || Instant::now() >= ceiling {
                    let unfinished = write_count - i;
                    writes.tally.attempted += unfinished;
                    writes.tally.failed += unfinished;
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                write_one(
                    &live,
                    i,
                    publications,
                    due,
                    &config,
                    &mut writes,
                    &mut tracer,
                    report,
                );
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        })
    });
    let mixed_s = origin.elapsed().as_secs_f64();
    writes.tally.add_to(report);
    let prefix = writes.probe_digests.len().min(MIXED_WRITES / 4);
    report.result_digest = digest::of_digests(&writes.probe_digests[..prefix]);

    let mut latency_ms = Samples::default();
    let mut first_query_ms = Samples::default();
    let mut timeline: Vec<(f64, f64)> = Vec::new();
    for (mut reads, reader_tracer) in reads {
        reads.tally.add_to(report);
        report.problems.append(&mut reads.problems);
        timeline.extend(
            reads
                .started_s
                .iter()
                .copied()
                .zip(reads.latency_ms.raw().iter().copied()),
        );
        latency_ms.extend(&reads.latency_ms);
        first_query_ms.extend(&reads.first_query_ms);
        tracer.merge(reader_tracer);
    }
    let cache = live.snapshot().augmentation_cache().stats();

    // Compaction first: a retraction flattens every overlay itself, so
    // compacting after the retractions would fold nothing.
    let retractions = if ctx.smoke { 1 } else { RETRACTIONS };
    let (compaction, mut retract_ms) = on_fresh_thread(|| {
        let compaction = tracer.span(SPAN_COMPACT, 0, None, || live.compact());
        report.attempted += 1;
        let compaction = compaction.ok();
        if compaction.is_none() {
            report.failed += 1;
        }
        let retract_ms = retract(&live, retractions, publications, &mut tracer, report);
        (compaction, retract_ms)
    });

    let done = latency_ms.len();
    if !ctx.traced {
        set_end_to_end(
            report,
            &mut setup_s,
            &mut latency_ms,
            Some(&mut first_query_ms),
            mixed_s,
        );
        return;
    }

    layer_builds(live.snapshot().graph(), report);
    let n = writes.ack_ms.len();
    report.set("live.write_ack_ms_p50", writes.ack_ms.median(), n);
    report.set("live.write_ack_ms_p95", writes.ack_ms.tail(0.95), n);
    report.set("live.write_visible_ms_p50", writes.visible_ms.median(), n);
    let mut apply_ms = tracer.per_request_ms(SPAN_APPLY);
    report.set("live.apply_ms_p50", apply_ms.median(), apply_ms.len());
    report.set("live.apply_ms_p95", apply_ms.tail(0.95), apply_ms.len());
    // Readers take exactly one snapshot per request.
    let mut snapshot_ms = tracer.per_request_ms(SPAN_SNAPSHOT);
    let n = snapshot_ms.len();
    report.set("live.snapshot_us_p50", snapshot_ms.median() * 1e3, n);
    report.set("live.snapshot_us_p99", snapshot_ms.tail(0.99) * 1e3, n);
    report.set(
        "live.read_slowdown_late_vs_early",
        late_vs_early(&timeline, mixed_s),
        timeline.len(),
    );
    report.set(
        "live.writer_late_ms_p95",
        writes.late_ms.tail(0.95),
        writes.late_ms.len(),
    );
    report.set("live.retract_ms_p50", retract_ms.median(), retract_ms.len());
    report.set(
        "live.compact_ms",
        tracer.total_ns(SPAN_COMPACT) as f64 / 1e6,
        1,
    );
    report.set(
        "live.compact_folded_rows",
        compaction.map_or(0.0, |c| c.folded_rows as f64),
        1,
    );
    report.set(
        "cache.hit_ratio",
        cache.hit_ratio(),
        (cache.hits + cache.misses) as usize,
    );
    report.set("cache.evictions", cache.evictions as f64, 1);
    report.set("cache.invalidations", cache.invalidations as f64, 1);
    report.set("cache.heap_mb", cache.heap_bytes as f64 / 1e6, 1);
    report.set("persist.save_s", save_s, 1);
    report.set("persist.load_s", load_s, 1);
    report.set(
        "persist.snapshot_bytes_per_triple",
        ratio(snapshot_bytes as f64, triples as f64),
        triples,
    );
    report.set("persist.load_vs_build_ratio", ratio(load_s, index_s), 1);
    if supports(done, 0.99) {
        report.set("client.request_ms_p99", latency_ms.percentile(0.99), done);
    }
    ctx.write_trace(&tracer);
}

/// Reader p50 in the last third of the mixed phase over the first third:
/// above 1 when reads slow down as the overlays grow.
fn late_vs_early(timeline: &[(f64, f64)], phase_s: f64) -> f64 {
    let third = |from: f64, to: f64| {
        let mut samples = Samples::default();
        for &(started, latency) in timeline {
            if started >= from * phase_s && started < to * phase_s {
                samples.push(latency);
            }
        }
        samples.median()
    };
    ratio(third(2.0 / 3.0, 1.01), third(0.0, 1.0 / 3.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_vs_early_compares_the_outer_thirds() {
        let timeline: Vec<(f64, f64)> = (0..90)
            .map(|i| (f64::from(i) / 10.0, if i < 30 { 2.0 } else { 5.0 }))
            .collect();
        assert_eq!(late_vs_early(&timeline, 9.0), 2.5);
        assert_eq!(late_vs_early(&[], 9.0), 0.0);
    }

    #[test]
    fn written_triples_are_distinct_and_land_on_existing_subjects() {
        let (a, keyword_a) = written(0, 100);
        let (b, keyword_b) = written(1, 100);
        assert_ne!(keyword_a, keyword_b);
        assert_ne!(a, b);
        assert_eq!(a.subject.value(), "pub13");
    }
}
