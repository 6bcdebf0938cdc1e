//! Evaluation metrics shared by the experiments (§3, §7.2, §7.3).

use tahoe_gpu_sim::kernel::KernelResult;
use tahoe_gpu_sim::metrics::coefficient_of_variation;

use crate::telemetry::{Counter, TelemetrySink};

/// Average coefficient of variation of per-thread busy time across the
/// sampled blocks (Table 3's "A.C.V.").
///
/// Threads that did no work (e.g. when there are fewer trees than threads)
/// are excluded: they are predictably idle rather than imbalanced, and the
/// paper's per-thread measurements (Fig. 2c) cover working threads.
#[must_use]
pub fn thread_acv(kernel: &KernelResult) -> f64 {
    thread_acv_with_sink(kernel, &TelemetrySink::Disabled)
}

/// As [`thread_acv`], reporting coverage into `sink`: blocks with at least
/// two busy threads bump [`Counter::AcvBlocksCounted`]; blocks the statistic
/// skips (fewer than two busy threads — previously dropped silently) bump
/// [`Counter::AcvBlocksSkipped`], so Table 3 can report how much of the
/// sample the A.C.V. actually covers.
#[must_use]
pub fn thread_acv_with_sink(kernel: &KernelResult, sink: &TelemetrySink) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    let mut skipped = 0u64;
    for block in &kernel.thread_busy_per_block {
        let busy: Vec<f64> = block.iter().copied().filter(|&b| b > 0.0).collect();
        if busy.len() < 2 {
            skipped += 1;
            continue;
        }
        sum += coefficient_of_variation(&busy);
        n += 1;
    }
    sink.add(Counter::AcvBlocksCounted, n as u64);
    sink.add(Counter::AcvBlocksSkipped, skipped);
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// One row of the Fig. 2a-style per-level report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelRow {
    /// Tree level (0 = root).
    pub level: u32,
    /// Mean adjacent-lane address distance at that level (bytes).
    pub mean_distance: f64,
    /// Global-load efficiency (requested / fetched) at that level.
    pub efficiency: f64,
}

/// Extracts the per-level coalescing profile from a kernel run.
#[must_use]
pub fn level_profile(kernel: &KernelResult) -> Vec<LevelRow> {
    kernel
        .levels
        .iter()
        .map(|(&level, stats)| LevelRow {
            level,
            mean_distance: stats.mean_distance(),
            efficiency: stats.access.efficiency(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use crate::strategy::{run, Strategy};
    use tahoe_gpu_sim::kernel::Detail;

    #[test]
    fn acv_is_positive_for_imbalanced_forests() {
        let fx = Fixture::trained("higgs");
        let r = run(Strategy::SharedData, &context(&fx, Detail::Sampled(2))).unwrap();
        let acv = thread_acv(&r.kernel);
        assert!(acv > 0.0, "depth-jittered forests must show imbalance");
        assert!(acv < 3.0, "CV {acv} looks corrupted");
    }

    #[test]
    fn acv_coverage_counters_split_counted_and_skipped() {
        let fx = Fixture::trained("higgs");
        let r = run(Strategy::SharedData, &context(&fx, Detail::Sampled(4))).unwrap();
        let sink = TelemetrySink::recording();
        let with_sink = thread_acv_with_sink(&r.kernel, &sink);
        assert_eq!(with_sink, thread_acv(&r.kernel), "sink must not change the statistic");
        let snap = sink.snapshot();
        let counted = snap.counters["acv_blocks_counted"];
        let skipped = snap.counters["acv_blocks_skipped"];
        assert_eq!(
            counted + skipped,
            r.kernel.thread_busy_per_block.len() as u64,
            "every sampled block is either counted or skipped"
        );
        assert!(counted > 0, "traversal blocks have busy threads");
    }

    #[test]
    fn level_profile_is_sorted_and_rooted() {
        let fx = Fixture::trained("letter");
        let r = run(Strategy::SharedData, &context(&fx, Detail::Sampled(2))).unwrap();
        let profile = level_profile(&r.kernel);
        assert!(!profile.is_empty());
        assert_eq!(profile[0].level, 0);
        for w in profile.windows(2) {
            assert!(w[0].level < w[1].level);
        }
        for row in &profile {
            assert!(row.efficiency > 0.0 && row.efficiency <= 1.0);
        }
    }
}
