//! What every workload shares: the run's options, the request loop with its
//! time budget and hard wall ceiling, repeated set-up, and process probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use kwsearch_keyword_index::{Analyzer, KeywordIndex, KeywordIndexConfig, Thesaurus};
use kwsearch_rdf::DataGraph;
use kwsearch_summary::SummaryGraph;

use crate::report::Report;
use crate::stats::{ratio, Samples};
use crate::trace::Tracer;

/// A request sequence is cut to 1/20 by `--smoke`; the digest and the exact
/// counts cover the first quarter of the sequence (the part every run
/// completes, however slow the host).
const SMOKE_DIVISOR: usize = 20;
const SMOKE_DATASET_DIVISOR: usize = 3;
const PREFIX_DIVISOR: usize = 4;

/// Hard wall ceiling of a run's measured phase. Requests not finished by
/// then count as failed; a regression may slow the benchmark, never hang it.
pub const WALL_CEILING: Duration = Duration::from_secs(100);

/// Set-up is repeated and its median reported, so that one slow page-fault
/// storm does not set `setup_s`: three times, or twice once set-up has
/// already taken [`SETUP_PATIENCE`] (a third 6 s set-up of `data_bound`
/// would push the run to 30 s for little steadiness).
const SETUP_REPETITIONS: usize = 3;
const SETUP_PATIENCE: Duration = Duration::from_secs(8);

/// The options of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// Overrides the workload's publication count (README scale notes).
    pub pubs: Option<usize>,
    pub nproc: usize,
}

impl Ctx {
    /// Client threads = service workers = `min(nproc, 4)`.
    pub fn clients(&self) -> usize {
        self.nproc.clamp(1, 4)
    }

    /// The dataset's publication count: the workload's own, unless `--pubs`
    /// overrides it; `--smoke` serves a third of it (the smoke suite checks
    /// that everything works, and has 30 s for all five workloads).
    pub fn publications(&self, workload_default: usize) -> usize {
        let publications = self.pubs.unwrap_or(workload_default);
        if self.smoke {
            (publications / SMOKE_DATASET_DIVISOR).max(100)
        } else {
            publications
        }
    }

    /// How the measured phase of a `sequence_len`-request workload ends.
    ///
    /// Untraced: after `--seconds`, but not before the prefix is complete.
    /// Traced: after exactly the prefix, so counts repeat exactly. Smoke:
    /// after exactly 1/20 of the sequence.
    pub fn budget(&self, sequence_len: usize) -> Budget {
        let prefix = (sequence_len / PREFIX_DIVISOR).max(1);
        let (measure, min_requests) = if self.smoke {
            (Duration::ZERO, (sequence_len / SMOKE_DIVISOR).max(1))
        } else if self.traced {
            (Duration::ZERO, prefix)
        } else {
            (Duration::from_secs_f64(self.seconds), prefix)
        };
        Budget {
            measure,
            min_requests,
            ceiling: WALL_CEILING,
        }
    }

    pub fn setup_repetitions(&self) -> usize {
        if self.traced || self.smoke {
            1
        } else {
            SETUP_REPETITIONS
        }
    }

    /// Writes the traced run's spans to `trace_<workload>.jsonl`.
    pub fn write_trace(&self, tracer: &Tracer) {
        let path = self.out_dir.join(format!("trace_{}.jsonl", self.workload));
        if let Err(error) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {error}", path.display());
        }
    }

    /// A scratch file under the run's output directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}.{}.{name}", self.workload, std::process::id()))
    }
}

/// When a request loop stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep issuing requests for this long …
    pub measure: Duration,
    /// … and at least until this many are done.
    pub min_requests: usize,
    /// Give up here, counting the unfinished part of `min_requests` failed.
    pub ceiling: Duration,
}

/// Requests a loop attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn add_to(self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
    }
}

/// The closed-loop client: issues request 0, 1, 2, … one after the other
/// until the budget says stop. `one(i)` runs request `i` and says whether it
/// succeeded; a request that ends past the ceiling counts as failed.
pub fn drive(budget: Budget, start: Instant, mut one: impl FnMut(usize) -> bool) -> Tally {
    let mut tally = Tally::default();
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= budget.ceiling {
            let unfinished = budget.min_requests.saturating_sub(i);
            tally.attempted += unfinished;
            tally.failed += unfinished;
            return tally;
        }
        if elapsed >= budget.measure && i >= budget.min_requests {
            return tally;
        }
        tally.attempted += 1;
        let ok = one(i);
        if !ok || start.elapsed() > budget.ceiling {
            tally.failed += 1;
        }
        i += 1;
    }
}

/// Runs `f` on a freshly spawned thread and returns its result.
///
/// Every measured phase runs this way. Set-up builds and drops large
/// structures on the main thread, which leaves the main thread's malloc
/// arena full of scattered free chunks; a client allocating its per-request
/// objects out of those runs ~2.5× slower than one whose allocations are
/// contiguous (measured on `data_bound`: 17 ms vs 9 ms per request). A new
/// thread allocates from its own arena, so what a request costs no longer
/// depends on what set-up happened to free before it — as in a server that
/// loads its snapshot in a fresh process.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| match scope.spawn(f).join() {
        Ok(value) => value,
        Err(panic) => std::panic::resume_unwind(panic),
    })
}

/// Runs `build` the configured number of times, dropping each result before
/// the next build (one copy resident at a time), and returns the last
/// result with every repetition's wall time in seconds.
pub fn repeat_setup<S>(ctx: &Ctx, mut build: impl FnMut() -> S) -> (S, Samples) {
    let mut times = Samples::default();
    let mut state = None;
    let began = Instant::now();
    for repetition in 0..ctx.setup_repetitions() {
        if repetition >= 2 && began.elapsed() > SETUP_PATIENCE {
            break;
        }
        drop(state.take());
        let start = Instant::now();
        state = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    match state {
        Some(state) => (state, times),
        None => unreachable!("set-up runs at least once"),
    }
}

/// The off-line layers built one by one (the traced run's `build_s` and
/// `heap_mb`): `PreparedGraph::index` builds the same parts in one call.
pub fn layer_builds(graph: &DataGraph, report: &mut Report) {
    let start = Instant::now();
    let index = KeywordIndex::build_with(
        graph,
        Analyzer::new(),
        Thesaurus::builtin(),
        KeywordIndexConfig::default(),
    );
    report.set("keyword_index.build_s", start.elapsed().as_secs_f64(), 1);
    report.set("keyword_index.heap_mb", index.heap_bytes() as f64 / 1e6, 1);
    drop(index);
    let start = Instant::now();
    let summary = SummaryGraph::build(graph);
    report.set("summary.build_s", start.elapsed().as_secs_f64(), 1);
    drop(summary);
}

/// The end-to-end metrics of an untraced run: `latency_ms` holds one sample
/// per completed read request, `wall_s` is how long the clients ran.
/// `first_query_ms` is `None` where a reply carries the whole ranking: the
/// first certified query is then in the caller's hands when the reply is.
pub fn set_end_to_end(
    report: &mut Report,
    setup_s: &mut Samples,
    latency_ms: &mut Samples,
    first_query_ms: Option<&mut Samples>,
    wall_s: f64,
) {
    let done = latency_ms.len();
    report.set("setup_s", setup_s.median(), setup_s.len());
    report.set("request_ms_p50", latency_ms.median(), done);
    report.set("request_ms_p95", latency_ms.tail(0.95), done);
    let first_query = first_query_ms.map_or_else(|| latency_ms.median(), Samples::median);
    report.set("first_query_ms_p50", first_query, done);
    report.set("throughput_rps", ratio(done as f64, wall_s), done);
    report.set("peak_rss_mb", peak_rss_mb(), 1);
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(measure_ms: u64, min_requests: usize, ceiling_ms: u64) -> Budget {
        Budget {
            measure: Duration::from_millis(measure_ms),
            min_requests,
            ceiling: Duration::from_millis(ceiling_ms),
        }
    }

    #[test]
    fn a_zero_ceiling_reports_every_request_failed_instead_of_hanging() {
        let mut ran = 0;
        let tally = drive(budget(60_000, 40, 0), Instant::now(), |_| {
            ran += 1;
            true
        });
        assert_eq!(ran, 0, "nothing may start past the ceiling");
        assert_eq!(
            tally,
            Tally {
                attempted: 40,
                failed: 40
            }
        );
    }

    #[test]
    fn the_loop_runs_the_prefix_even_with_no_time_budget() {
        let mut seen = Vec::new();
        let tally = drive(budget(0, 5, 60_000), Instant::now(), |i| {
            seen.push(i);
            i != 3
        });
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 1
            }
        );
    }

    #[test]
    fn a_request_that_ends_past_the_ceiling_counts_as_failed() {
        let tally = drive(budget(0, 3, 20), Instant::now(), |_| {
            std::thread::sleep(Duration::from_millis(30));
            true
        });
        // Request 0 overran the ceiling; requests 1 and 2 never started.
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 3
            }
        );
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
