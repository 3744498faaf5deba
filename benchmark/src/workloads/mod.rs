//! The five workloads. Each exists to load the layers differently; the
//! `why` strings here are the ones `BENCHMARK.json` records.

pub mod cold;
pub mod hot;
pub mod live;
pub mod sharded;

use crate::common::Ctx;
use crate::report::Report;

/// Publications of the mid-size dataset (≈264k triples).
pub const MID_PUBLICATIONS: usize = 30_000;
/// Publications of `data_bound`'s large dataset (≈1.06M triples).
pub const LARGE_PUBLICATIONS: usize = 120_000;

pub const NAMES: [&str; 5] = [
    "cold_explore",
    "data_bound",
    "hot_serve",
    "sharded_scatter",
    "live_mixed",
];

/// Runs workload `ctx.workload` (one of [`NAMES`]; `main` checked).
pub fn run(ctx: &Ctx, report: &mut Report) {
    match ctx.workload.as_str() {
        "cold_explore" => cold::run(ctx, &cold::COLD_EXPLORE, report),
        "data_bound" => cold::run(ctx, &cold::DATA_BOUND, report),
        "hot_serve" => hot::run(ctx, report),
        "sharded_scatter" => sharded::run(ctx, report),
        "live_mixed" => live::run(ctx, report),
        other => unreachable!("argument parsing admits only NAMES, not {other}"),
    }
}
