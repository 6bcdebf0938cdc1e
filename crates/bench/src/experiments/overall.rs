//! Fig. 7 (Tahoe vs FIL across 15 datasets × 3 GPUs × 2 batch regimes) and
//! Table 3 (A.C.V. thread imbalance) — both read the run matrix
//! ([`crate::experiments::matrix`]).

use serde::Serialize;

use tahoe::strategy::Strategy;
use tahoe_gpu_sim::metrics::geomean;

use crate::experiments::devices;
use crate::report::{f2, f3, pct, write_json, Table};

/// One (dataset, device, regime) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct OverallRow {
    /// Dataset name.
    pub dataset: String,
    /// Dataset id (x-axis of Fig. 7).
    pub dataset_id: usize,
    /// Device name.
    pub device: String,
    /// `true` for the 100 K high-parallelism batch, `false` for 100.
    pub high_parallelism: bool,
    /// FIL throughput (samples/µs).
    pub fil_throughput: f64,
    /// Tahoe throughput (samples/µs).
    pub tahoe_throughput: f64,
    /// Tahoe speedup over FIL.
    pub speedup: f64,
    /// Strategy Tahoe selected.
    pub tahoe_strategy: Strategy,
    /// FIL A.C.V. of per-thread busy time (Table 3).
    pub fil_acv: f64,
    /// Tahoe A.C.V. of per-thread busy time (Table 3).
    pub tahoe_acv: f64,
    /// FIL lane wait: the share of warp lane-steps in which a lane idles
    /// while its warp walks on (`1 − active_lane_steps / (steps × warp)`).
    /// The busy A.C.V. cannot see this lockstep waste.
    pub fil_lane_wait: f64,
    /// Tahoe lane wait, as `fil_lane_wait`.
    pub tahoe_lane_wait: f64,
}

/// Full Fig. 7 / Table 3 record.
#[derive(Clone, Debug, Default, Serialize)]
pub struct OverallResult {
    /// Every (dataset, device, regime) measurement.
    pub rows: Vec<OverallRow>,
}

impl OverallResult {
    /// Geometric-mean speedup for one device/regime slice.
    #[must_use]
    pub fn mean_speedup(&self, device: &str, high: bool) -> f64 {
        let s: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.device == device && r.high_parallelism == high)
            .map(|r| r.speedup)
            .collect();
        geomean(&s)
    }

    /// Max speedup for one device/regime slice.
    #[must_use]
    pub fn max_speedup(&self, device: &str, high: bool) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.device == device && r.high_parallelism == high)
            .map(|r| r.speedup)
            .fold(0.0, f64::max)
    }

    /// Mean A.C.V. for one device/regime slice, `(fil, tahoe)`.
    #[must_use]
    pub fn mean_acv(&self, device: &str, high: bool) -> (f64, f64) {
        self.mean_pair(device, high, |r| (r.fil_acv, r.tahoe_acv))
    }

    /// Mean lane wait for one device/regime slice, `(fil, tahoe)`.
    #[must_use]
    pub fn mean_lane_wait(&self, device: &str, high: bool) -> (f64, f64) {
        self.mean_pair(device, high, |r| (r.fil_lane_wait, r.tahoe_lane_wait))
    }

    /// Mean of a `(fil, tahoe)` row pair over one device/regime slice.
    fn mean_pair(
        &self,
        device: &str,
        high: bool,
        pair: impl Fn(&OverallRow) -> (f64, f64),
    ) -> (f64, f64) {
        let slice: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter(|r| r.device == device && r.high_parallelism == high)
            .map(pair)
            .collect();
        if slice.is_empty() {
            return (0.0, 0.0);
        }
        let n = slice.len() as f64;
        (
            slice.iter().map(|p| p.0).sum::<f64>() / n,
            slice.iter().map(|p| p.1).sum::<f64>() / n,
        )
    }
}

/// Prints the Fig. 7 tables and writes the record.
pub fn report_fig7(result: &OverallResult) {
    for high in [true, false] {
        let regime = if high { "high parallelism (100K)" } else { "low parallelism (100)" };
        let mut t = Table::new(
            format!("Fig 7 — Tahoe vs FIL, {regime}"),
            &["id", "dataset", "device", "FIL thpt", "Tahoe thpt", "speedup", "strategy"],
        );
        for r in result.rows.iter().filter(|r| r.high_parallelism == high) {
            t.row(vec![
                r.dataset_id.to_string(),
                r.dataset.clone(),
                r.device.clone(),
                f3(r.fil_throughput),
                f3(r.tahoe_throughput),
                f2(r.speedup),
                r.tahoe_strategy.name().to_string(),
            ]);
        }
        t.print();
    }
    let mut s = Table::new(
        "Fig 7 — speedup summary (geomean / max)",
        &["device", "high mean", "high max", "low mean", "low max"],
    );
    for d in devices() {
        s.row(vec![
            d.name.to_string(),
            f2(result.mean_speedup(d.name, true)),
            f2(result.max_speedup(d.name, true)),
            f2(result.mean_speedup(d.name, false)),
            f2(result.max_speedup(d.name, false)),
        ]);
    }
    s.print();
    println!(
        "paper means: high 5.31x/3.67x/4.05x, low 2.34x/1.52x/1.45x (K80/P100/V100);\n\
         paper maxes: high 9.58x/8.77x/10.14x, low 5.08x/3.82x/3.17x"
    );
    write_json("fig7_overall", result);
}

/// Prints Table 3 from the same runs; its record is `fig7_overall`'s.
///
/// Two imbalance measures: the paper's A.C.V. of per-thread busy time, and
/// the lane wait, the lockstep time a lane spends idle inside its warp.
pub fn report_table3(result: &OverallResult) {
    let mut t = Table::new(
        "Table 3 — average coefficient of variation of per-thread time, and lane wait",
        &[
            "device",
            "regime",
            "FIL A.C.V.",
            "Tahoe A.C.V.",
            "reduction",
            "FIL lane wait",
            "Tahoe lane wait",
        ],
    );
    for d in devices() {
        for high in [true, false] {
            let (fil, tahoe) = result.mean_acv(d.name, high);
            let reduction = if fil > 0.0 { 1.0 - tahoe / fil } else { 0.0 };
            let (fil_wait, tahoe_wait) = result.mean_lane_wait(d.name, high);
            t.row(vec![
                d.name.to_string(),
                if high { "high" } else { "low" }.to_string(),
                pct(fil),
                pct(tahoe),
                pct(reduction),
                pct(fil_wait),
                pct(tahoe_wait),
            ]);
        }
    }
    t.print();
    println!(
        "paper (high): FIL 47.2/51.3/54.6% vs Tahoe 13.1/16.2/15.9%;\n\
         paper (low): FIL 36.4/42.9/44.7% vs Tahoe 10.8/13.5/12.5%"
    );
}
