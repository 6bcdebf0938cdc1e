//! The metric registry and the run's result: every metric the benchmark
//! prints, with its unit, its clock, and the end-to-end metric it should
//! move, plus the final one-line JSON summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock: the simulator's own speed. Varies run to run.
    Host,
    /// Simulated GPU time and counts derived from it. Deterministic for a
    /// given seed, so repeated passes must agree bit for bit.
    Sim,
}

impl Clock {
    fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// For end-to-end metrics the direction that is better; for per-layer
    /// metrics the end-to-end metric (and workloads) it should move.
    pub note: &'static str,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock, note: &'static str) -> Def {
    Def {
        name,
        unit,
        clock,
        note,
    }
}

use Clock::{Host, Sim};

/// End-to-end metrics, in the JSON of untraced runs (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def(
        "setup_s",
        "s",
        Host,
        "lower; median engine/cluster construction",
    ),
    def(
        "host_peak_rss_mb",
        "MB",
        Host,
        "lower; process high-water RSS",
    ),
    def("sim_p50_us", "us", Sim, "lower; nominal rate"),
    def("sim_p99_us", "us", Sim, "lower; nominal rate"),
    def(
        "sim_throughput_samples_per_us",
        "1/us",
        Sim,
        "higher; top ladder rate",
    ),
    def(
        "sim_slo_attainment",
        "fraction",
        Sim,
        "higher; nominal rate vs the limit",
    ),
    def(
        "sim_capacity_req_per_us",
        "1/us",
        Sim,
        "higher; ladder + bisection",
    ),
    def(
        "sim_mem_high_water_mb",
        "MB",
        Sim,
        "lower; simulated DRAM high water",
    ),
];

/// Per-layer metrics, in the JSON of traced runs (`--trace 1`). Layers a
/// workload bypasses read 0; their host cost is given as a share of the
/// traced wall time so that a bypassed layer never reports a zero time.
pub const PER_LAYER: &[Def] = &[
    // Host throughput: reported on every run but not gated, because on a
    // shared host its run-to-run spread exceeds any allowed bound.
    def(
        "host_samples_per_s",
        "1/s",
        Host,
        "median over passes (update segments offline); every host layer",
    ),
    // Host time per layer (traced pass).
    def("gpu_sim.measure_s", "s", Host, "setup_s, all workloads"),
    def(
        "rearrange.s",
        "s",
        Host,
        "setup_s, all workloads (+ update path on offline-higgs)",
    ),
    def(
        "format.build_s",
        "s",
        Host,
        "setup_s, all workloads (+ update path on offline-higgs)",
    ),
    def(
        "perfmodel.gather_s",
        "s",
        Host,
        "host_samples_per_s, serve-covtype (<1%)",
    ),
    def(
        "tune.s",
        "s",
        Host,
        "host_samples_per_s, serve-covtype (<1%)",
    ),
    def(
        "strategy.simulate_s",
        "s",
        Host,
        "host_samples_per_s, most on serve-covtype",
    ),
    def(
        "format.predict_s",
        "s",
        Host,
        "host_samples_per_s, most on offline-higgs",
    ),
    def(
        "execute.self_s",
        "s",
        Host,
        "host_samples_per_s: serving/cluster dispatch or Engine::infer self time",
    ),
    def("other_s", "s", Host, "traced wall time outside every span"),
    def(
        "engine.update_share",
        "fraction",
        Host,
        "host_samples_per_s, offline-higgs only",
    ),
    def(
        "forest.annotate_share",
        "fraction",
        Host,
        "host_samples_per_s, offline-higgs only",
    ),
    def(
        "cluster.replicate_share",
        "fraction",
        Host,
        "setup_s, cluster-letter-recorded only",
    ),
    def(
        "telemetry.record_share",
        "fraction",
        Host,
        "host_samples_per_s + host_peak_rss_mb, cluster-letter-recorded only",
    ),
    def(
        "telemetry.export_share",
        "fraction",
        Host,
        "host_samples_per_s + host_peak_rss_mb, cluster-letter-recorded only",
    ),
    def(
        "telemetry.export_mb",
        "MB",
        Host,
        "host_peak_rss_mb, cluster-letter-recorded only",
    ),
    def(
        "trace.coverage",
        "fraction",
        Host,
        "share of the traced wall time inside a layer span",
    ),
    def(
        "trace.overhead",
        "fraction",
        Host,
        "traced / untraced wall time - 1",
    ),
    def(
        "trace.replay_ratio",
        "fraction",
        Host,
        "replayed engine parts / the calls they split",
    ),
    // Block simulation.
    def(
        "strategy.sampled_blocks",
        "count",
        Sim,
        "host_samples_per_s, serve-covtype > offline-higgs",
    ),
    def(
        "strategy.host_ns_per_sampled_block",
        "ns",
        Host,
        "host_samples_per_s, serve-covtype > offline-higgs",
    ),
    def(
        "gpu_sim.memo_hit_ratio",
        "fraction",
        Sim,
        "host_samples_per_s, serve-covtype > offline-higgs",
    ),
    def(
        "tune.cache_hit_ratio",
        "fraction",
        Sim,
        "host_samples_per_s, serve-covtype (<1%)",
    ),
    // Simulated kernel breakdown.
    def(
        "kernel.traversal_share",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    def(
        "kernel.staging_share",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    def(
        "kernel.block_reduction_share",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    def(
        "kernel.global_reduction_share",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    def(
        "kernel.bandwidth_stall_share",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    def(
        "kernel.gmem_efficiency",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    def(
        "kernel.simt_efficiency",
        "fraction",
        Sim,
        "sim_throughput (offline) / sim_p50_us (serving)",
    ),
    // Model selection.
    def(
        "perfmodel.abs_rel_err_mean",
        "fraction",
        Sim,
        "every sim_* metric (selection change)",
    ),
    def(
        "strategy.share.shared_data",
        "fraction",
        Sim,
        "every sim_* metric (selection change)",
    ),
    def(
        "strategy.share.direct",
        "fraction",
        Sim,
        "every sim_* metric (selection change)",
    ),
    def(
        "strategy.share.shared_forest",
        "fraction",
        Sim,
        "every sim_* metric (selection change)",
    ),
    def(
        "strategy.share.splitting_shared_forest",
        "fraction",
        Sim,
        "every sim_* metric (selection change)",
    ),
    // Simulated serving.
    def(
        "serving.form_share",
        "fraction",
        Sim,
        "sim_p99_us, sim_capacity_req_per_us",
    ),
    def(
        "serving.queue_share",
        "fraction",
        Sim,
        "sim_p99_us, sim_capacity_req_per_us",
    ),
    def(
        "serving.execute_share",
        "fraction",
        Sim,
        "sim_p99_us, sim_capacity_req_per_us",
    ),
    def(
        "serving.mean_batch_size",
        "count",
        Sim,
        "sim_p99_us, sim_capacity_req_per_us",
    ),
    // Cluster balance.
    def(
        "cluster.busy_imbalance",
        "fraction",
        Sim,
        "sim_capacity_req_per_us, cluster-letter-recorded",
    ),
];

/// Looks a metric up by name in either list.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Correctness accounting: every checked operation and its outcome.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Share of checked operations that failed.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness accounting.
    pub checks: Checks,
    /// Context lines printed above the table (sizes, sample counts, caches).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; the name must be registered.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered name (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable table: one line per measured metric, end-to-end
    /// ones first, then the correctness line.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        let _ = writeln!(
            out,
            "{:<40} {:>18} {:<9} {:<5} note",
            "metric", "value", "unit", "clock"
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let Some(&v) = self.values.get(d.name) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<40} {:>18.6} {:<9} {:<5} {}",
                d.name,
                v,
                d.unit,
                d.clock.as_str(),
                d.note
            );
        }
        let _ = writeln!(
            out,
            "{:<40} {:>18.6} {:<9} {:<5} {} of {} checked operations failed",
            "failed_ratio",
            self.checks.failed_ratio(),
            "fraction",
            "host",
            self.checks.failed,
            self.checks.attempted
        );
        for m in &self.checks.messages {
            let _ = writeln!(out, "# FAILED: {m}");
        }
        out
    }

    /// The final one-line JSON summary over the metrics in `defs`.
    #[must_use]
    pub fn json_line(&self, defs: &[Def]) -> String {
        // Names and units are plain ASCII (checked by the registry test), so
        // no escaping is needed; `{}` prints an f64 with every digit.
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = match self.values.get(d.name) {
                    Some(v) if v.is_finite() => format!("{v}"),
                    _ => "null".to_string(),
                };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.is_correct(defs),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// True when something was checked, nothing failed, and every metric in
    /// `defs` is present and finite.
    #[must_use]
    pub fn is_correct(&self, defs: &[Def]) -> bool {
        self.checks.attempted > 0
            && self.checks.failed == 0
            && defs
                .iter()
                .all(|d| self.values.get(d.name).is_some_and(|v| v.is_finite()))
    }
}

/// Median of `xs` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        for d in END_TO_END {
            o.set(d.name, 1.0);
        }
        o.checks.check(true, String::new);
        assert!(o.is_correct(END_TO_END));
        o.checks.check(false, || "boom".into());
        assert!(!o.is_correct(END_TO_END));
        assert_eq!(o.checks.failed_ratio(), 0.5);
    }
}
