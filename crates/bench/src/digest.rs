//! `SUMMARY.md`: the digest of the paper's headline claims, written by the
//! `all` binary from the typed results of the same run — Fig. 2, Fig. 5,
//! Fig. 7 and Table 3, the §7.3 census and model accuracy, the §7.4
//! storage saving, the ablations and Fig. 9. Each section calls the
//! results' own helpers, so nothing is computed from a record read back.

use std::fmt::Write as _;
use std::fs;

use crate::experiments::ablations::AblationResult;
use crate::experiments::devices;
use crate::experiments::matrix::MatrixResult;
use crate::experiments::motivation::MotivationResult;
use crate::experiments::overall::OverallResult;
use crate::experiments::overhead::OverheadResult;
use crate::experiments::scaling::ScalingResult;
use crate::report::results_dir;

/// Writes the digest of one full suite run to `SUMMARY.md` in the results
/// directory.
///
/// # Panics
///
/// Panics on filesystem failure, as the JSON records do.
pub fn write(
    motivation: &MotivationResult,
    matrix: &MatrixResult,
    scaling: &ScalingResult,
    ablations: &AblationResult,
) {
    let mut out = String::from("# Results summary (machine-generated)\n");
    fig2(&mut out, motivation);
    let _ = writeln!(out, "\n## Fig. 5 — strategy winners (P100, 100K)");
    for r in &matrix.fig5.rows {
        // `Debug` prints the variant name, as the record serializes it.
        let _ = writeln!(out, "- {}: {:?}", r.dataset, r.winner);
    }
    fig7_table3(&mut out, &matrix.overall);
    let (rh, th) = matrix.census.removed(true);
    let (rl, tl) = matrix.census.removed(false);
    let _ = writeln!(out, "\n## §7.3 — reduction removal census");
    let _ = writeln!(out, "- high: {rh}/{th} (paper 27/45); low: {rl}/{tl} (paper 13/45)");
    let (correct, total) = matrix.accuracy.correct_count();
    let _ = writeln!(out, "\n## §7.3 — model accuracy");
    let _ = writeln!(
        out,
        "- correct top choice: {correct}/{total} (paper 87/90); geomean loss when wrong {:.3}x",
        matrix.accuracy.loss_when_wrong()
    );
    overhead(&mut out, &matrix.overhead);
    ablation_lines(&mut out, ablations);
    fig9(&mut out, scaling);
    let path = results_dir().join("SUMMARY.md");
    fs::write(&path, out).expect("write summary");
    println!("[results] wrote {}", path.display());
}

fn fig2(out: &mut String, v: &MotivationResult) {
    let _ = writeln!(out, "\n## Fig. 2 — motivation");
    let _ = writeln!(
        out,
        "- overall forest-read efficiency: {:.1}% (paper 27.2%); deepest levels {:.1}% (paper 13.7%)",
        100.0 * v.overall_efficiency,
        100.0 * v.deep_efficiency,
    );
    if let (Some(first), Some(last)) = (v.levels.get(1), v.levels.last()) {
        let _ = writeln!(
            out,
            "- adjacent-thread distance: {:.0} B (level 1) -> {:.0} B (deepest)",
            first.distance, last.distance,
        );
    }
    let shares: Vec<String> = v
        .reduction
        .iter()
        .map(|r| format!("{}:{:.0}%", r.n_trees, 100.0 * r.reduction_fraction))
        .collect();
    let _ = writeln!(out, "- reduction share by trees: {} (paper 35-72%)", shares.join(" "));
    let _ = writeln!(out, "- per-thread CV under FIL: {:.1}% (paper 49.1%)", 100.0 * v.thread_cv);
}

/// Fig. 7's speedups and Table 3's imbalance, one line per device/regime
/// slice that has rows; both come from the same runs.
fn fig7_table3(out: &mut String, result: &OverallResult) {
    let slices: Vec<(&str, bool)> = devices()
        .iter()
        .flat_map(|d| [(d.name, true), (d.name, false)])
        .filter(|&(device, high)| {
            result.rows.iter().any(|r| r.device == device && r.high_parallelism == high)
        })
        .collect();
    let regime = |high| if high { "high" } else { "low" };
    let _ = writeln!(out, "\n## Fig. 7 — Tahoe vs FIL speedups");
    for &(device, high) in &slices {
        let min = result
            .rows
            .iter()
            .filter(|r| r.device == device && r.high_parallelism == high)
            .map(|r| r.speedup)
            .fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "- {device} {}: geomean {:.2}x, max {:.2}x, min {min:.2}x",
            regime(high),
            result.mean_speedup(device, high),
            result.max_speedup(device, high),
        );
    }
    let _ = writeln!(out, "\n## Table 3 — A.C.V. and lane wait (FIL -> Tahoe)");
    for &(device, high) in &slices {
        let (fil_acv, tahoe_acv) = result.mean_acv(device, high);
        let (fil_wait, tahoe_wait) = result.mean_lane_wait(device, high);
        let _ = writeln!(
            out,
            "- {device} {}: A.C.V. {:.1}% -> {:.1}%, lane wait {:.1}% -> {:.1}%",
            regime(high),
            100.0 * fil_acv,
            100.0 * tahoe_acv,
            100.0 * fil_wait,
            100.0 * tahoe_wait,
        );
    }
}

/// The §7.4 section. It reads only the deterministic image sizes; the
/// host-clock costs are not recorded.
fn overhead(out: &mut String, result: &OverheadResult) {
    let max_saving = result
        .rows
        .iter()
        .map(|r| r.storage_saving())
        .fold(0.0f64, f64::max);
    let _ = writeln!(out, "\n## §7.4 — overheads");
    let _ = writeln!(out, "- storage saving: up to {:.1}% (paper up to 23.6%)", 100.0 * max_saving);
}

fn ablation_lines(out: &mut String, v: &AblationResult) {
    let _ = writeln!(out, "\n## Ablations");
    for (x, label) in [
        (v.weighted_order_score, "LSH ordering score (weighted)"),
        (v.unweighted_order_score, "LSH ordering score (unweighted)"),
        (v.exact_order_score, "exact pairwise ordering score"),
        (v.training_prob_speedup, "speedup w/ training probabilities"),
        (v.oracle_prob_speedup, "speedup w/ oracle probabilities"),
        (v.sampling_error, "sampled-vs-full timing error"),
        (v.infinite_sm_speedup, "speedup on infinite-SM device"),
        (v.varlen_speedup, "variable-length index speedup"),
    ] {
        // The record writes a non-finite value as null; the digest skips it.
        if x.is_finite() {
            let _ = writeln!(out, "- {label}: {x:.3}");
        }
    }
}

fn fig9(out: &mut String, result: &ScalingResult) {
    let _ = writeln!(out, "\n## Fig. 9 — multi-GPU scaling (V100s)");
    for r in &result.rows {
        // `speedup` is `None` for counts with empty partitions (more devices
        // than samples), so those never win `best`; on a tie the last
        // maximum wins.
        let best = r
            .strong
            .iter()
            .filter_map(|s| Some((s.n_gpus, s.speedup.filter(|x| x.is_finite())?)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let partitions: usize = r.strong.iter().map(|s| s.per_device.len()).sum();
        if let Some((n, s)) = best {
            let _ = writeln!(
                out,
                "- {}: best strong speedup {s:.2}x at {n} GPUs ({partitions} partitions simulated)",
                r.dataset,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::overall::OverallRow;
    use crate::experiments::overhead::OverheadRow;
    use tahoe::strategy::Strategy;

    fn digest(f: impl Fn(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn overhead_digest_reads_only_deterministic_fields() {
        let row = |dataset: &str, inference_ns, adaptive_bytes, traditional_bytes| OverheadRow {
            dataset: dataset.to_string(),
            inference_ns,
            adaptive_bytes,
            traditional_bytes,
        };
        let result = OverheadResult {
            rows: vec![row("higgs", 1500.5, 900, 1200), row("letter", 350.0, 800, 1000)],
        };
        // Savings 25.0% and 20.0%; the digest reports the max.
        assert_eq!(
            digest(|out| overhead(out, &result)),
            "\n## §7.4 — overheads\n- storage saving: up to 25.0% (paper up to 23.6%)\n"
        );
    }

    #[test]
    fn fig7_table3_digest_covers_only_devices_with_rows() {
        let row = |device: &str, high, speedup, fil_acv, tahoe_acv| OverallRow {
            dataset: "letter".to_string(),
            dataset_id: 15,
            device: device.to_string(),
            high_parallelism: high,
            fil_throughput: 1.0,
            tahoe_throughput: speedup,
            speedup,
            tahoe_strategy: Strategy::SharedForest,
            fil_acv,
            tahoe_acv,
            fil_lane_wait: 2.0 * fil_acv,
            tahoe_lane_wait: 2.0 * tahoe_acv,
        };
        let result = OverallResult {
            rows: vec![
                row("Tesla P100", true, 2.0, 0.4, 0.1),
                row("Tesla P100", true, 8.0, 0.2, 0.1),
                row("Tesla K80", false, 0.5, 0.3, 0.3),
            ],
        };
        // Device order is K80, P100, V100 whatever the row order; slices
        // without rows (K80 high, P100 low, V100) print nothing.
        assert_eq!(
            digest(|out| fig7_table3(out, &result)),
            "\n## Fig. 7 — Tahoe vs FIL speedups\n\
             - Tesla K80 low: geomean 0.50x, max 0.50x, min 0.50x\n\
             - Tesla P100 high: geomean 4.00x, max 8.00x, min 2.00x\n\
             \n## Table 3 — A.C.V. and lane wait (FIL -> Tahoe)\n\
             - Tesla K80 low: A.C.V. 30.0% -> 30.0%, lane wait 60.0% -> 60.0%\n\
             - Tesla P100 high: A.C.V. 30.0% -> 10.0%, lane wait 60.0% -> 20.0%\n"
        );
    }
}
