//! Metric names, units and the run's printed result.
//!
//! The two tables below are the benchmark's vocabulary; `BENCHMARK.json`
//! repeats them (a unit test keeps the two in step). Every workload prints
//! every name: a layer the workload does not exercise reports 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p95", "ms"),
    ("first_query_ms_p50", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Single layers, from the traced run; layer = module name.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("keyword_index.lookup_ms_p50", "ms"),
    ("keyword_index.lookup_ms_p95", "ms"),
    ("keyword_index.lookup_share", "ratio"),
    ("keyword_index.matches_per_keyword", "count"),
    ("keyword_index.build_s", "s"),
    ("keyword_index.heap_mb", "MB"),
    ("summary.augment_ms_p50", "ms"),
    ("summary.augment_share", "ratio"),
    ("summary.augmented_elements_mean", "count"),
    ("summary.build_s", "s"),
    ("exploration.run_ms_p50", "ms"),
    ("exploration.run_ms_p95", "ms"),
    ("exploration.share", "ratio"),
    ("exploration.pops_per_request", "count"),
    ("exploration.ns_per_pop", "ns"),
    ("exploration.cursors_created_per_request", "count"),
    ("exploration.peak_queue_len_max", "count"),
    ("exploration.wasted_pop_ratio", "ratio"),
    ("exploration.threshold_terminated_frac", "ratio"),
    ("exploration.first_query_pops_ratio", "ratio"),
    ("query_map.map_ms_p50", "ms"),
    ("query_map.share", "ratio"),
    ("query_map.queries_mapped_per_request", "count"),
    ("query_eval.answer_ms_p50", "ms"),
    ("query_eval.answer_ms_p95", "ms"),
    ("query_eval.share", "ratio"),
    ("query_eval.answers_per_request", "count"),
    ("query_eval.queries_processed_per_request", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.heap_mb", "MB"),
    ("cache.hit_session_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p95", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.peak_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("shard.scatter_ms_p50", "ms"),
    ("shard.merge_ms_p50", "ms"),
    ("shard.early_emit_ratio", "ratio"),
    ("shard.latency_vs_unsharded", "ratio"),
    ("shard.prepare_s", "s"),
    ("shard.replicated_edge_frac", "ratio"),
    ("live.write_ack_ms_p50", "ms"),
    ("live.write_ack_ms_p95", "ms"),
    ("live.write_visible_ms_p50", "ms"),
    ("live.apply_ms_p50", "ms"),
    ("live.apply_ms_p95", "ms"),
    ("live.snapshot_us_p50", "us"),
    ("live.snapshot_us_p99", "us"),
    ("live.read_slowdown_late_vs_early", "ratio"),
    ("live.writer_late_ms_p95", "ms"),
    ("live.retract_ms_p50", "ms"),
    ("live.compact_ms", "ms"),
    ("live.compact_folded_rows", "count"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.snapshot_bytes_per_triple", "B/triple"),
    ("persist.load_vs_build_ratio", "ratio"),
    ("rdf.ingest_triples_per_s", "1/s"),
    ("client.request_ms_p99", "ms"),
    ("client.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Operations attempted (requests, writes, probes) and how many of them
    /// failed, were refused, or did not finish under the wall ceiling.
    pub attempted: usize,
    pub failed: usize,
    /// Correctness violations; any entry makes the run exit non-zero.
    pub problems: Vec<String>,
    pub result_digest: u64,
}

impl Report {
    /// Records `name` (which must be declared above) with its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |(v, _)| *v)
    }

    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// An end-to-end metric left at 0 was not measured: that is a defect of
    /// the run, not a fast result.
    pub fn require_end_to_end(&mut self) {
        for (name, _) in END_TO_END {
            let value = self.get(name);
            if !(value.is_finite() && value > 0.0) {
                self.problems.push(format!(
                    "end-to-end metric {name} was not measured ({value})"
                ));
            }
        }
    }

    fn metrics_json(&self, table: &[(&str, &str)], with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\""
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {samples}");
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The driver's contract: the last line of standard output.
    pub fn contract_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(table, false)
        )
    }

    /// The full record of the run: identification, digest, and every metric
    /// of the run's mode with its sample count.
    pub fn full_json(&self, run: &RunInfo<'_>) -> String {
        let table = if run.traced { PER_LAYER } else { END_TO_END };
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"seconds\": {}, \
             \"nproc\": {}, \"clients\": {}, \"git_sha\": \"{}\", \"result_digest\": \"{:016x}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
             \"problems\": [{}], \"metrics\": {}}}",
            run.workload,
            run.seed,
            run.traced,
            run.smoke,
            run.seconds,
            run.nproc,
            run.clients,
            run.git_sha,
            self.result_digest,
            self.correct(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            problems.join(", "),
            self.metrics_json(table, true)
        )
    }
}

/// Identification printed with every run.
#[derive(Debug)]
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub seconds: f64,
    pub nproc: usize,
    pub clients: usize,
    pub git_sha: &'a str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = declared.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn contract_line_carries_the_mode_s_metrics_only() {
        let mut report = Report::default();
        report.set("setup_s", 1.25, 3);
        report.set("cache.hit_ratio", 1.0, 10);
        report.attempted = 7;
        let untraced = report.contract_line(false);
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0"));
        assert!(untraced.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!untraced.contains("cache.hit_ratio"));
        let traced = report.contract_line(true);
        assert!(traced.contains("\"cache.hit_ratio\": {\"value\": 1, \"unit\": \"ratio\"}"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_a_problem() {
        let mut report = Report::default();
        report.require_end_to_end();
        assert_eq!(report.problems.len(), END_TO_END.len());
        assert!(!report.correct());
    }
}
