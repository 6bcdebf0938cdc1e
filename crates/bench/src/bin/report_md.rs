//! Builds `results/SUMMARY.md` from the JSON records the experiment binaries
//! write — a machine-generated digest of every reproduced table and figure,
//! ready to paste into `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p tahoe-bench --bin all        # produce results/*.json
//! cargo run --release -p tahoe-bench --bin report_md  # digest them
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use serde_json::Value;

fn main() {
    let dir = std::env::var("TAHOE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let dir = Path::new(&dir);
    let mut out = String::from("# Results summary (machine-generated)\n");
    let mut missing = Vec::new();
    let mut section = |name: &str, f: &dyn Fn(&Value, &mut String)| {
        let path = dir.join(format!("{name}.json"));
        match fs::read_to_string(&path)
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        {
            Some(v) => f(&v, &mut out),
            None => missing.push(name.to_string()),
        }
    };

    section("fig2_motivation", &|v, out| {
        let _ = writeln!(out, "\n## Fig. 2 — motivation");
        let _ = writeln!(
            out,
            "- overall forest-read efficiency: {:.1}% (paper 27.2%); deepest levels {:.1}% (paper 13.7%)",
            100.0 * v["overall_efficiency"].as_f64().unwrap_or(0.0),
            100.0 * v["deep_efficiency"].as_f64().unwrap_or(0.0),
        );
        if let Some(levels) = v["levels"].as_array() {
            if let (Some(first), Some(last)) = (levels.get(1), levels.last()) {
                let _ = writeln!(
                    out,
                    "- adjacent-thread distance: {:.0} B (level 1) -> {:.0} B (deepest)",
                    first["distance"].as_f64().unwrap_or(0.0),
                    last["distance"].as_f64().unwrap_or(0.0),
                );
            }
        }
        if let Some(red) = v["reduction"].as_array() {
            let shares: Vec<String> = red
                .iter()
                .map(|r| {
                    format!(
                        "{}:{:.0}%",
                        r["n_trees"],
                        100.0 * r["reduction_fraction"].as_f64().unwrap_or(0.0)
                    )
                })
                .collect();
            let _ = writeln!(out, "- reduction share by trees: {} (paper 35-72%)", shares.join(" "));
        }
        let _ = writeln!(
            out,
            "- per-thread CV under FIL: {:.1}% (paper 49.1%)",
            100.0 * v["thread_cv"].as_f64().unwrap_or(0.0)
        );
    });

    section("fig5_strategies", &|v, out| {
        let _ = writeln!(out, "\n## Fig. 5 — strategy winners (P100, 100K)");
        if let Some(rows) = v["rows"].as_array() {
            for r in rows {
                let _ = writeln!(
                    out,
                    "- {}: {}",
                    r["dataset"].as_str().unwrap_or("?"),
                    r["winner"].as_str().unwrap_or("?")
                );
            }
        }
    });

    section("fig7_overall", &|v, out| {
        let _ = writeln!(out, "\n## Fig. 7 — Tahoe vs FIL speedups");
        let rows = v["rows"].as_array().cloned().unwrap_or_default();
        for device in ["Tesla K80", "Tesla P100", "Tesla V100"] {
            for high in [true, false] {
                let s: Vec<f64> = rows
                    .iter()
                    .filter(|r| {
                        r["device"].as_str() == Some(device)
                            && r["high_parallelism"].as_bool() == Some(high)
                    })
                    .filter_map(|r| r["speedup"].as_f64())
                    .collect();
                if s.is_empty() {
                    continue;
                }
                let geomean =
                    (s.iter().map(|x| x.ln()).sum::<f64>() / s.len() as f64).exp();
                let max = s.iter().copied().fold(0.0f64, f64::max);
                let min = s.iter().copied().fold(f64::INFINITY, f64::min);
                let _ = writeln!(
                    out,
                    "- {device} {}: geomean {geomean:.2}x, max {max:.2}x, min {min:.2}x",
                    if high { "high" } else { "low" }
                );
            }
        }
    });

    section("table3_imbalance", &|v, out| {
        let _ = writeln!(out, "\n## Table 3 — A.C.V. (FIL -> Tahoe)");
        let rows = v["rows"].as_array().cloned().unwrap_or_default();
        for device in ["Tesla K80", "Tesla P100", "Tesla V100"] {
            for high in [true, false] {
                let s: Vec<&Value> = rows
                    .iter()
                    .filter(|r| {
                        r["device"].as_str() == Some(device)
                            && r["high_parallelism"].as_bool() == Some(high)
                    })
                    .collect();
                if s.is_empty() {
                    continue;
                }
                let mean = |key: &str| {
                    s.iter().filter_map(|r| r[key].as_f64()).sum::<f64>() / s.len() as f64
                };
                let _ = writeln!(
                    out,
                    "- {device} {}: {:.1}% -> {:.1}%",
                    if high { "high" } else { "low" },
                    100.0 * mean("fil_acv"),
                    100.0 * mean("tahoe_acv"),
                );
            }
        }
    });

    section("sec73_reduction", &|v, out| {
        let rows = v["rows"].as_array().cloned().unwrap_or_default();
        let count = |high: bool| {
            let s: Vec<&Value> = rows
                .iter()
                .filter(|r| r["high_parallelism"].as_bool() == Some(high))
                .collect();
            let removed = s
                .iter()
                .filter(|r| r["strategy"].as_str() != Some("SharedData"))
                .count();
            (removed, s.len())
        };
        let (rh, th) = count(true);
        let (rl, tl) = count(false);
        let _ = writeln!(out, "\n## §7.3 — reduction removal census");
        let _ = writeln!(out, "- high: {rh}/{th} (paper 27/45); low: {rl}/{tl} (paper 13/45)");
    });

    section("sec73_model_accuracy", &|v, out| {
        let rows = v["rows"].as_array().cloned().unwrap_or_default();
        let correct = rows
            .iter()
            .filter(|r| r["predicted_best"] == r["actual_best"])
            .count();
        let wrong: Vec<f64> = rows
            .iter()
            .filter(|r| r["predicted_best"] != r["actual_best"])
            .filter_map(|r| {
                Some(r["chosen_ns"].as_f64()? / r["optimal_ns"].as_f64()?)
            })
            .collect();
        let loss = if wrong.is_empty() {
            1.0
        } else {
            (wrong.iter().map(|x| x.ln()).sum::<f64>() / wrong.len() as f64).exp()
        };
        let _ = writeln!(out, "\n## §7.3 — model accuracy");
        let _ = writeln!(
            out,
            "- correct top choice: {correct}/{} (paper 87/90); geomean loss when wrong {loss:.3}x",
            rows.len()
        );
    });

    section("sec74_overhead", &|v, out| out.push_str(&overhead_section(v)));

    section("ablations", &|v, out| {
        let _ = writeln!(out, "\n## Ablations");
        for (key, label) in [
            ("weighted_order_score", "LSH ordering score (weighted)"),
            ("unweighted_order_score", "LSH ordering score (unweighted)"),
            ("exact_order_score", "exact pairwise ordering score"),
            ("training_prob_speedup", "speedup w/ training probabilities"),
            ("oracle_prob_speedup", "speedup w/ oracle probabilities"),
            ("sampling_error", "sampled-vs-full timing error"),
            ("infinite_sm_speedup", "speedup on infinite-SM device"),
            ("varlen_speedup", "variable-length index speedup"),
        ] {
            if let Some(x) = v[key].as_f64() {
                let _ = writeln!(out, "- {label}: {x:.3}");
            }
        }
    });

    section("fig9_scaling", &|v, out| {
        let _ = writeln!(out, "\n## Fig. 9 — multi-GPU scaling (V100s)");
        let rows = v["rows"].as_array().cloned().unwrap_or_default();
        let mut max_weak = 0.0f64;
        for r in &rows {
            let strong = r["strong"].as_array().cloned().unwrap_or_default();
            // `speedup` is null for counts with empty partitions (more
            // devices than samples), so those never win `best`.
            let best = strong
                .iter()
                .filter_map(|s| Some((s["n_gpus"].as_u64()?, s["speedup"].as_f64()?)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let devices: usize = strong
                .iter()
                .filter_map(|s| s["per_device"].as_array().map(Vec::len))
                .sum();
            let wv = r["weak_variance"].as_f64().unwrap_or(0.0);
            max_weak = max_weak.max(wv);
            if let Some((n, s)) = best {
                let _ = writeln!(
                    out,
                    "- {}: best strong speedup {s:.2}x at {n} GPUs ({devices} partitions simulated); weak variance {:.2}%",
                    r["dataset"].as_str().unwrap_or("?"),
                    100.0 * wv,
                );
            }
        }
        let _ = writeln!(out, "- max weak-scaling variance: {:.2}% (paper <5%)", 100.0 * max_weak);
    });

    // Telemetry is opt-in (`--telemetry <dir>`), so its views are digested
    // only when present rather than reported as missing.
    let view = |file: &str| {
        fs::read_to_string(dir.join(file))
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok())
    };
    let decisions = view("decisions.json");
    if let Some(v) = view("metrics.json") {
        let c = |name: &str| v["counters"][name].as_u64().unwrap_or(0);
        let _ = writeln!(out, "\n## Telemetry counters");
        let _ = writeln!(
            out,
            "- kernel launches: {} ({} blocks simulated); spans recorded: {}",
            c("kernel_launches"),
            c("simulated_blocks"),
            v["span_count"].as_u64().unwrap_or(0),
        );
        let fetched = c("gmem_fetched_bytes");
        if fetched > 0 {
            let _ = writeln!(
                out,
                "- global-load efficiency: {:.1}% ({} requested / {} fetched bytes, {} uncoalesced)",
                100.0 * c("gmem_requested_bytes") as f64 / fetched as f64,
                c("gmem_requested_bytes"),
                fetched,
                c("gmem_uncoalesced_bytes"),
            );
        }
        let _ = writeln!(
            out,
            "- reductions: {} block-level, {} global",
            c("block_reductions"),
            c("global_reductions"),
        );
        let acv_total = c("acv_blocks_counted") + c("acv_blocks_skipped");
        if acv_total > 0 {
            let _ = writeln!(
                out,
                "- A.C.V. coverage: {}/{acv_total} sampled blocks counted ({} skipped with <2 busy threads)",
                c("acv_blocks_counted"),
                c("acv_blocks_skipped"),
            );
        }
        let _ = writeln!(
            out,
            "- allocator: {} allocs / {} frees, high water {:.1} MiB, {} OOM retries",
            c("device_allocs"),
            c("device_frees"),
            c("alloc_high_water_bytes") as f64 / (1024.0 * 1024.0),
            c("device_oom_events"),
        );
    }

    if let Some(section) = view("profiles.json")
        .and_then(|v| kernel_profiles_section(&v, decisions.as_ref().unwrap_or(&Value::Null)))
    {
        out.push_str(&section);
    }
    if let Some(section) = view("timeseries.json").and_then(|v| serving_over_time_section(&v)) {
        out.push_str(&section);
    }
    if let Some(section) = decisions.and_then(|v| worst_p99_attribution_section(&v)) {
        out.push_str(&section);
    }

    if !missing.is_empty() {
        let _ = writeln!(out, "\n(missing records: {})", missing.join(", "));
    }
    let path = dir.join("SUMMARY.md");
    fs::write(&path, &out).expect("write summary");
    println!("wrote {}", path.display());
    print!("{out}");
}

/// Digests `sec74_overhead.json` into the "§7.4 — overheads" section. It
/// reads only the deterministic row fields (image sizes); host-clock costs
/// are not in the record.
fn overhead_section(v: &Value) -> String {
    let max_saving = v["rows"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|r| {
            Some(1.0 - r["adaptive_bytes"].as_f64()? / r["traditional_bytes"].as_f64()?)
        })
        .fold(0.0f64, f64::max);
    format!(
        "\n## §7.4 — overheads\n- storage saving: up to {:.1}% (paper up to 23.6%)\n",
        100.0 * max_saving
    )
}

/// Digests `profiles.json` (a serialized `ProfilesExport`) into the "Kernel
/// profiles" section: one table row per strategy label with mean occupancy,
/// coalescing efficiency, wall-time shares, and the mean absolute
/// model-vs-simulator error of the decisions (`decisions.json`) that chose
/// that strategy. Returns `None` when no launches were profiled.
fn kernel_profiles_section(v: &Value, decisions: &Value) -> Option<String> {
    let kernels = v["kernels"].as_array()?;
    if kernels.is_empty() {
        return None;
    }
    let mut labels: Vec<&str> = Vec::new();
    for k in kernels {
        let label = k["label"].as_str().unwrap_or("?");
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    let decisions = decisions["decisions"].as_array().map_or(&[][..], Vec::as_slice);
    let mut out = String::new();
    let _ = writeln!(out, "\n## Kernel profiles");
    let _ = writeln!(
        out,
        "| strategy | launches | occupancy | coalescing | traversal | staging | reduction | bw stall | model err |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for label in labels {
        let ks: Vec<&Value> = kernels
            .iter()
            .filter(|k| k["label"].as_str() == Some(label))
            .collect();
        let n = ks.len() as f64;
        let mean = |key: &str| {
            ks.iter().filter_map(|k| k[key].as_f64()).sum::<f64>() / n
        };
        let part = |key: &str| {
            ks.iter()
                .filter_map(|k| k["breakdown"][key].as_f64())
                .sum::<f64>()
        };
        let total: f64 = ks.iter().filter_map(|k| k["total_ns"].as_f64()).sum();
        let share = |ns: f64| 100.0 * ns / total.max(f64::MIN_POSITIVE);
        let errors: Vec<f64> = decisions
            .iter()
            .filter(|d| d["chosen_strategy"].as_str() == Some(label))
            .filter_map(|d| d["relative_error"].as_f64())
            .map(f64::abs)
            .collect();
        let model_err = if errors.is_empty() {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * errors.iter().sum::<f64>() / errors.len() as f64)
        };
        let _ = writeln!(
            out,
            "| {label} | {} | {:.0}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {model_err} |",
            ks.len(),
            100.0 * mean("achieved_occupancy"),
            100.0 * mean("gmem_coalescing_efficiency"),
            share(part("traversal_ns")),
            share(part("staging_ns")),
            share(part("block_reduction_ns") + part("global_reduction_ns")),
            share(part("bandwidth_stall_ns")),
        );
    }
    let durations = &v["kernel_durations"];
    let count = durations["count"].as_u64().unwrap_or(0);
    if count > 0 {
        let _ = writeln!(
            out,
            "- kernel durations: {count} launches, mean {:.1} us, max {:.1} us",
            durations["sum_ns"].as_u64().unwrap_or(0) as f64 / count as f64 / 1e3,
            durations["max_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
        );
    }
    let serving = &v["serving_latencies"];
    let count = serving["count"].as_u64().unwrap_or(0);
    if count > 0 {
        let _ = writeln!(
            out,
            "- serving latencies: {count} requests, mean {:.1} us, max {:.1} us",
            serving["sum_ns"].as_u64().unwrap_or(0) as f64 / count as f64 / 1e3,
            serving["max_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
        );
    }
    Some(out)
}

/// Digests `timeseries.json` (a serialized `TimeSeriesExport`) into the
/// "Serving over time" section: peak queue depth, per-device busy-fraction
/// utilization (mean and peak window), the worst windowed p99 latency, and
/// windowed SLO attainment. Returns `None` when no series were sampled.
fn serving_over_time_section(v: &Value) -> Option<String> {
    let window_ns = v["window_ns"].as_f64().filter(|&w| w > 0.0)?;
    let series = v["series"].as_array()?;
    if series.is_empty() {
        return None;
    }
    let points_of = |s: &Value| s["points"].as_array().cloned().unwrap_or_default();
    let mut out = String::new();
    let _ = writeln!(out, "\n## Serving over time ({:.3} ms windows)", window_ns / 1e6);

    let queue_peak = series
        .iter()
        .filter(|s| s["name"].as_str() == Some("queue_depth"))
        .flat_map(|s| points_of(s).into_iter().filter_map(|p| p["value"].as_f64()))
        .fold(f64::NEG_INFINITY, f64::max);
    if queue_peak.is_finite() {
        let _ = writeln!(out, "- peak queue depth: {queue_peak:.0} requests");
    }

    for s in series.iter().filter(|s| s["name"].as_str() == Some("busy_ns")) {
        let busy: Vec<f64> = points_of(s)
            .into_iter()
            .filter_map(|p| p["value"].as_f64())
            .collect();
        if busy.is_empty() {
            continue;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64 / window_ns;
        let peak = busy.iter().copied().fold(0.0f64, f64::max) / window_ns;
        let _ = writeln!(
            out,
            "- device {} utilization: mean {:.1}%, peak window {:.1}% over {} windows",
            s["device"],
            100.0 * mean,
            100.0 * peak,
            busy.len(),
        );
    }

    let latency = v["latency_windows"].as_array().cloned().unwrap_or_default();
    let worst = latency
        .iter()
        .filter_map(|w| Some((w["p99_ns"].as_f64()?, w["window"].as_u64()?)))
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    if let Some((p99, window)) = worst {
        let requests: u64 = latency.iter().filter_map(|w| w["count"].as_u64()).sum();
        let _ = writeln!(
            out,
            "- windowed latency: worst p99 <= {:.1} us (window {window}); {requests} requests over {} windows",
            p99 / 1e3,
            latency.len(),
        );
    }

    let slo = v["slo_windows"].as_array().cloned().unwrap_or_default();
    let (total, met) = slo.iter().fold((0u64, 0u64), |(t, m), w| {
        (
            t + w["total"].as_u64().unwrap_or(0),
            m + w["met"].as_u64().unwrap_or(0),
        )
    });
    if total > 0 {
        let floor = slo
            .iter()
            .filter_map(|w| w["attainment"].as_f64())
            .fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "- SLO attainment: {:.2}% overall, worst window {:.2}%",
            100.0 * met as f64 / total as f64,
            100.0 * floor,
        );
    }
    Some(out)
}

/// Digests `decisions.json` (a serialized `DecisionsExport`) into the
/// "Worst-p99 request attribution" section: where the slowest 1% of serving
/// requests spent their critical path (batch formation vs queueing vs kernel
/// vs reduction), plus a tuning-drift summary over the recorded decisions.
/// Returns `None` when no request paths were recorded.
fn worst_p99_attribution_section(v: &Value) -> Option<String> {
    let requests = v["requests"].as_array()?;
    let mut rows: Vec<(f64, f64, f64, f64, f64)> = requests
        .iter()
        .filter_map(|r| {
            Some((
                r["total_ns"].as_f64()?,
                r["form_ns"].as_f64()?,
                r["queue_ns"].as_f64()?,
                r["execute_ns"].as_f64()?,
                r["reduction_ns"].as_f64()?,
            ))
        })
        .collect();
    if rows.is_empty() {
        return None;
    }
    // `total_cmp`: a NaN latency must not scramble the sort (NaNs order last
    // in descending order rather than poisoning comparisons).
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    let slow = &rows[..rows.len().div_ceil(100)];
    let total: f64 = slow.iter().map(|r| r.0).sum();
    let sum = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| slow.iter().map(f).sum::<f64>();
    let share = |ns: f64| 100.0 * ns / total.max(f64::MIN_POSITIVE);
    let mut out = String::new();
    let _ = writeln!(out, "\n## Worst-p99 request attribution");
    let _ = writeln!(
        out,
        "- slowest 1% of requests: {}/{}, threshold >= {:.1} us, mean total {:.1} us",
        slow.len(),
        rows.len(),
        slow.last().map_or(0.0, |r| r.0) / 1e3,
        total / slow.len() as f64 / 1e3,
    );
    let _ = writeln!(
        out,
        "- breakdown: form {:.1}%, queue {:.1}%, kernel {:.1}%, reduction {:.1}%",
        share(sum(|r| r.1)),
        share(sum(|r| r.2)),
        share(sum(|r| r.3 - r.4)),
        share(sum(|r| r.4)),
    );
    let drift: Vec<f64> = v["decisions"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|d| d["relative_error"].as_f64())
        .map(f64::abs)
        .collect();
    if !drift.is_empty() {
        let _ = writeln!(
            out,
            "- tuning decisions: {} recorded, mean |drift| {:.1}%, max |drift| {:.1}%",
            drift.len(),
            100.0 * drift.iter().sum::<f64>() / drift.len() as f64,
            100.0 * drift.iter().copied().fold(0.0f64, f64::max),
        );
    }
    // Calibration digest (DESIGN.md §2.16), guarded on the generation field
    // being present, so exports written before the flight recorder carried
    // it simply omit the line.
    let decisions: Vec<&Value> = v["decisions"].as_array().into_iter().flatten().collect();
    let abs_err_where = |pred: &dyn Fn(u64) -> bool| -> Vec<f64> {
        decisions
            .iter()
            .filter(|d| d["calibration_generation"].as_u64().is_some_and(pred))
            .filter_map(|d| d["relative_error"].as_f64())
            .map(f64::abs)
            .collect()
    };
    let raw = abs_err_where(&|g| g == 0);
    let calibrated = abs_err_where(&|g| g > 0);
    if !raw.is_empty() && !calibrated.is_empty() {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let _ = writeln!(
            out,
            "- calibration: mean |drift| {:.2}% uncalibrated ({} gen-0 decisions) -> {:.2}% calibrated ({} decisions)",
            100.0 * mean(&raw),
            raw.len(),
            100.0 * mean(&calibrated),
            calibrated.len(),
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_digest_reads_only_deterministic_fields() {
        let v: Value = serde_json::from_str(
            r#"{"rows": [
              {"dataset": "higgs", "inference_ns": 1500.5,
               "adaptive_bytes": 900, "traditional_bytes": 1200},
              {"dataset": "letter", "inference_ns": 350.0,
               "adaptive_bytes": 800, "traditional_bytes": 1000}
            ]}"#,
        )
        .expect("fixture parses");
        // Savings 25.0% and 20.0%; the digest reports the max.
        assert_eq!(
            overhead_section(&v),
            "\n## §7.4 — overheads\n- storage saving: up to 25.0% (paper up to 23.6%)\n"
        );
    }

    #[test]
    fn digest_groups_by_strategy_and_joins_decision_drift() {
        let v: Value = serde_json::from_str(
            r#"{
              "kernels": [
                {"label": "direct", "total_ns": 100.0, "achieved_occupancy": 0.5,
                 "gmem_coalescing_efficiency": 0.25,
                 "breakdown": {"traversal_ns": 80.0, "staging_ns": 0.0,
                               "block_reduction_ns": 0.0, "global_reduction_ns": 20.0,
                               "bandwidth_stall_ns": 0.0}},
                {"label": "direct", "total_ns": 100.0, "achieved_occupancy": 1.0,
                 "gmem_coalescing_efficiency": 0.75,
                 "breakdown": {"traversal_ns": 100.0, "staging_ns": 0.0,
                               "block_reduction_ns": 0.0, "global_reduction_ns": 0.0,
                               "bandwidth_stall_ns": 0.0}},
                {"label": "shared data", "total_ns": 50.0, "achieved_occupancy": 1.0,
                 "gmem_coalescing_efficiency": 1.0,
                 "breakdown": {"traversal_ns": 50.0, "staging_ns": 0.0,
                               "block_reduction_ns": 0.0, "global_reduction_ns": 0.0,
                               "bandwidth_stall_ns": 0.0}}
              ],
              "kernel_durations": {"count": 3, "sum_ns": 250, "min_ns": 50,
                                   "max_ns": 100, "buckets": []},
              "serving_latencies": {"count": 0, "sum_ns": 0, "min_ns": 0,
                                    "max_ns": 0, "buckets": []}
            }"#,
        )
        .expect("fixture parses");
        let decisions: Value = serde_json::from_str(
            r#"{"decisions": [
                {"chosen_strategy": "direct", "relative_error": 0.1},
                {"chosen_strategy": "direct", "relative_error": -0.3}
              ], "requests": []}"#,
        )
        .expect("fixture parses");
        let section = kernel_profiles_section(&v, &decisions).expect("non-empty digest");
        // direct: mean occupancy 75%, coalescing 50%, traversal 90%,
        // reduction 10%, mean |err| 20%; no decision chose shared data.
        assert!(section.contains("## Kernel profiles"), "{section}");
        assert!(
            section
                .contains("| direct | 2 | 75% | 50.0% | 90.0% | 0.0% | 10.0% | 0.0% | 20.0% |"),
            "{section}"
        );
        assert!(
            section
                .contains("| shared data | 1 | 100% | 100.0% | 100.0% | 0.0% | 0.0% | 0.0% | - |"),
            "{section}"
        );
        assert!(section.contains("kernel durations: 3 launches"), "{section}");
        assert!(!section.contains("serving latencies:"), "{section}");
    }

    #[test]
    fn digest_is_none_without_kernels() {
        let v: Value = serde_json::from_str(r#"{"kernels": []}"#).expect("parses");
        assert!(kernel_profiles_section(&v, &Value::Null).is_none());
        let v: Value = serde_json::from_str(r"{}").expect("parses");
        assert!(kernel_profiles_section(&v, &Value::Null).is_none());
    }

    #[test]
    fn serving_over_time_digests_queue_utilization_and_slo() {
        let v: Value = serde_json::from_str(
            r#"{
              "window_ns": 1000000,
              "series": [
                {"device": 0, "name": "busy_ns", "kind": "sum", "points": [
                  {"window": 0, "start_ns": 0, "value": 250000.0},
                  {"window": 1, "start_ns": 1000000, "value": 750000.0}]},
                {"device": 0, "name": "queue_depth", "kind": "gauge", "points": [
                  {"window": 0, "start_ns": 0, "value": 3.0},
                  {"window": 1, "start_ns": 1000000, "value": 7.0}]}
              ],
              "latency_windows": [
                {"window": 0, "start_ns": 0, "count": 10, "mean_ns": 1000.0,
                 "p50_ns": 1024, "p95_ns": 2048, "p99_ns": 2048, "max_ns": 2000.0},
                {"window": 1, "start_ns": 1000000, "count": 30, "mean_ns": 2000.0,
                 "p50_ns": 2048, "p95_ns": 4096, "p99_ns": 8192, "max_ns": 8000.0}
              ],
              "slo_windows": [
                {"window": 0, "start_ns": 0, "total": 10, "met": 10, "attainment": 1.0},
                {"window": 1, "start_ns": 1000000, "total": 30, "met": 15, "attainment": 0.5}
              ]
            }"#,
        )
        .expect("fixture parses");
        let section = serving_over_time_section(&v).expect("non-empty digest");
        // busy: (0.25 + 0.75)/2 = 50% mean, 75% peak; queue peak 7;
        // worst p99 is window 1; SLO 25/40 = 62.5% overall, floor 50%.
        assert!(section.contains("## Serving over time (1.000 ms windows)"), "{section}");
        assert!(section.contains("peak queue depth: 7 requests"), "{section}");
        assert!(
            section.contains("device 0 utilization: mean 50.0%, peak window 75.0% over 2 windows"),
            "{section}"
        );
        assert!(
            section.contains("worst p99 <= 8.2 us (window 1); 40 requests over 2 windows"),
            "{section}"
        );
        assert!(
            section.contains("SLO attainment: 62.50% overall, worst window 50.00%"),
            "{section}"
        );
    }

    #[test]
    fn worst_p99_attribution_breaks_down_the_slowest_requests() {
        let v: Value = serde_json::from_str(
            r#"{
              "decisions": [
                {"device": 0, "batch": 0, "n_samples": 32, "forced": false,
                 "chosen_strategy": "direct", "chosen_block_threads": 128,
                 "predicted_ns": 110.0, "simulated_ns": 100.0,
                 "relative_error": 0.1, "candidates": []},
                {"device": 0, "batch": 1, "n_samples": 32, "forced": false,
                 "chosen_strategy": "direct", "chosen_block_threads": 128,
                 "predicted_ns": 80.0, "simulated_ns": 100.0,
                 "relative_error": -0.2, "candidates": []}
              ],
              "requests": [
                {"request": 0, "batch": 0, "device": 0, "arrival_ns": 0.0,
                 "form_ns": 10000.0, "queue_ns": 10000.0, "execute_ns": 40000.0,
                 "reduction_ns": 5000.0, "total_ns": 60000.0},
                {"request": 1, "batch": 1, "device": 0, "arrival_ns": 50.0,
                 "form_ns": 20000.0, "queue_ns": 30000.0, "execute_ns": 50000.0,
                 "reduction_ns": 10000.0, "total_ns": 100000.0},
                {"request": 2, "batch": 1, "device": 0, "arrival_ns": 100.0,
                 "form_ns": 10000.0, "queue_ns": 20000.0, "execute_ns": 50000.0,
                 "reduction_ns": 10000.0, "total_ns": 80000.0}
              ]
            }"#,
        )
        .expect("fixture parses");
        let section = worst_p99_attribution_section(&v).expect("non-empty digest");
        // ceil(3/100) = 1 slowest request: total 100 us with form 20, queue
        // 30, execute 50 (of which reduction 10 -> kernel 40); drift |0.1|
        // and |-0.2| -> mean 15%, max 20%.
        assert!(section.contains("## Worst-p99 request attribution"), "{section}");
        assert!(
            section.contains(
                "slowest 1% of requests: 1/3, threshold >= 100.0 us, mean total 100.0 us"
            ),
            "{section}"
        );
        assert!(
            section.contains("breakdown: form 20.0%, queue 30.0%, kernel 40.0%, reduction 10.0%"),
            "{section}"
        );
        assert!(
            section.contains("tuning decisions: 2 recorded, mean |drift| 15.0%, max |drift| 20.0%"),
            "{section}"
        );
        // Exports written before the flight recorder carried calibration
        // fields omit that digest line entirely.
        assert!(!section.contains("calibration:"), "{section}");
    }

    #[test]
    fn worst_p99_attribution_digests_calibration() {
        let v: Value = serde_json::from_str(
            r#"{
              "decisions": [
                {"device": 0, "batch": 0, "n_samples": 32, "forced": false,
                 "chosen_strategy": "direct", "chosen_block_threads": 128,
                 "predicted_ns": 110.0, "simulated_ns": 100.0,
                 "relative_error": 0.1, "calibration_generation": 0,
                 "candidates": []},
                {"device": 0, "batch": 1, "n_samples": 32, "forced": false,
                 "chosen_strategy": "direct", "chosen_block_threads": 128,
                 "predicted_ns": 80.0, "simulated_ns": 100.0,
                 "relative_error": -0.2, "calibration_generation": 0,
                 "candidates": []},
                {"device": 0, "batch": 2, "n_samples": 32, "forced": false,
                 "chosen_strategy": "direct", "chosen_block_threads": 128,
                 "predicted_ns": 99.0, "simulated_ns": 100.0,
                 "relative_error": -0.01, "calibration_generation": 1,
                 "candidates": []},
                {"device": 0, "batch": 3, "n_samples": 32, "forced": false,
                 "chosen_strategy": "direct", "chosen_block_threads": 128,
                 "predicted_ns": 103.0, "simulated_ns": 100.0,
                 "relative_error": 0.03, "calibration_generation": 1,
                 "candidates": []}
              ],
              "requests": [
                {"request": 0, "batch": 0, "device": 0, "arrival_ns": 0.0,
                 "form_ns": 10000.0, "queue_ns": 10000.0, "execute_ns": 40000.0,
                 "reduction_ns": 5000.0, "total_ns": 60000.0}
              ]
            }"#,
        )
        .expect("fixture parses");
        let section = worst_p99_attribution_section(&v).expect("non-empty digest");
        // Gen-0 mean |drift| = (10+20)/2 = 15%, gen-1 mean = (1+3)/2 = 2%.
        assert!(
            section.contains(
                "calibration: mean |drift| 15.00% uncalibrated (2 gen-0 decisions) -> 2.00% calibrated (2 decisions)"
            ),
            "{section}"
        );
    }

    #[test]
    fn worst_p99_attribution_is_none_without_requests() {
        let v: Value =
            serde_json::from_str(r#"{"decisions": [], "requests": []}"#).expect("parses");
        assert!(worst_p99_attribution_section(&v).is_none());
        let v: Value = serde_json::from_str(r"{}").expect("parses");
        assert!(worst_p99_attribution_section(&v).is_none());
    }

    #[test]
    fn serving_over_time_is_none_without_series() {
        let v: Value =
            serde_json::from_str(r#"{"window_ns": 1000000, "series": []}"#).expect("parses");
        assert!(serving_over_time_section(&v).is_none());
        let v: Value = serde_json::from_str(r"{}").expect("parses");
        assert!(serving_over_time_section(&v).is_none());
    }
}
