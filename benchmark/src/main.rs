//! `kwsearch-benchmark` — runs one workload in one process and prints its
//! metrics. See `README.md` next to this package for the workloads, the
//! metric vocabulary and how to compare two commits; `run.sh` is the one
//! command that runs everything.
//!
//! ```text
//! kwsearch-benchmark --workload <name> [--seed 42] [--seconds 10]
//!                    [--trace 0|1] [--smoke] [--out benchmark/out]
//! ```
//!
//! Standard output carries two JSON lines: the full record of the run
//! (identification, `result_digest`, every metric of the run's mode with
//! unit and sample count), then — last — the driver's contract object with
//! exactly `correct`, `attempted`, `failed` and `metrics`. Exit code 0 means
//! every correctness check held.

mod common;
mod digest;
mod gen;
mod pipeline;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Ctx;
use report::{Report, RunInfo};

const USAGE: &str = "usage: kwsearch-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace 0|1] [--smoke] [--out <dir>] [--pubs <n>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        pubs: None,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{name}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => ctx.workload = value("--workload")?,
            "--seed" => ctx.seed = number("--seed", value("--seed")?)?,
            "--seconds" => ctx.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => ctx.traced = number::<u8>("--trace", value("--trace")?)? != 0,
            "--smoke" => ctx.smoke = true,
            "--out" => ctx.out_dir = PathBuf::from(value("--out")?),
            "--pubs" => ctx.pubs = Some(number("--pubs", value("--pubs")?)?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !workloads::NAMES.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}\n{USAGE}",
            workloads::NAMES
        ));
    }
    if !(ctx.seconds.is_finite() && ctx.seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let ctx = match parse_args(std::env::args().skip(1)) {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Numbers that silently include the debug-invariant sanitizer's work
    // are not perf numbers.
    if kwsearch_core::invariants::enabled() {
        eprintln!("the debug-invariant sanitizer is active: build with --release");
        return ExitCode::from(2);
    }
    if let Err(error) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("cannot create {}: {error}", ctx.out_dir.display());
        return ExitCode::from(2);
    }

    let mut report = Report::default();
    workloads::run(&ctx, &mut report);
    if ctx.traced {
        let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.set("client.failed_frac", failed_frac, report.attempted);
    } else {
        report.require_end_to_end();
    }
    report.check(report.attempted > 0, || "nothing was attempted".to_string());

    let git_sha = std::env::var("KWSEARCH_GIT_SHA").unwrap_or_else(|_| "unknown".to_string());
    let full = report.full_json(&RunInfo {
        workload: &ctx.workload,
        seed: ctx.seed,
        traced: ctx.traced,
        smoke: ctx.smoke,
        seconds: ctx.seconds,
        nproc: ctx.nproc,
        clients: ctx.clients(),
        git_sha: &git_sha,
    });
    let record = ctx.out_dir.join(format!(
        "report_{}_trace{}.json",
        ctx.workload,
        u8::from(ctx.traced)
    ));
    if let Err(error) = std::fs::write(&record, format!("{full}\n")) {
        eprintln!("cannot write {}: {error}", record.display());
    }
    for problem in &report.problems {
        eprintln!("INCORRECT: {problem}");
    }
    println!("{full}");
    println!("{}", report.contract_line(ctx.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Ctx, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let ctx = parse(&[
            "--workload",
            "hot_serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ctx.workload, "hot_serve");
        assert_eq!(ctx.seed, 7);
        assert!(ctx.traced && !ctx.smoke);
        assert!(
            !parse(&["--workload", "cold_explore", "--trace", "0"])
                .unwrap()
                .traced
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "hot_serve", "--seed"]).is_err());
        assert!(parse(&["--workload", "hot_serve", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "hot_serve", "--frobnicate"]).is_err());
    }
}
