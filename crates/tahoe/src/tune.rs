//! Launch tuning (Algorithm 1 line 14: "Set the maximum number of threads to
//! hide latency, and set the number of blocks to maximize the occupancy").
//!
//! Block size trades occupancy against per-block resources: bigger blocks
//! amortize staging and widen reductions; smaller blocks raise residency.
//! [`sweep`] evaluates the performance model over a candidate block-size
//! ladder for every strategy — the grid size follows from each strategy's
//! geometry (one wave target, occupancy-aware) — and [`Ladder::ranked`]
//! keeps each strategy's cheapest rung.

use tahoe_gpu_sim::MeasuredParams;

use crate::perfmodel::{predict, Calibrator, ModelInputs, Prediction};
use crate::strategy::{self, LaunchContext, Strategy};

/// Candidate block sizes (whole warps; clamped to the device limit).
pub const THREAD_CANDIDATES: [usize; 5] = [64, 128, 256, 512, 1024];

/// One rung of the tuning ladder: a `(strategy, block size)` candidate with
/// its *raw* (uncalibrated) prediction, or the reason the sweep rejected it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rung {
    /// Strategy the candidate belongs to.
    pub(crate) strategy: Strategy,
    /// Candidate threads per block.
    pub(crate) block_threads: usize,
    /// The raw model prediction, or a static rejection reason.
    pub(crate) outcome: Result<Prediction, &'static str>,
}

/// Every [`Strategy::ALL`] × [`THREAD_CANDIDATES`] candidate of one sweep,
/// in sweep order (strategy-major, ascending block size).
///
/// The ladder is the one record of a tuning decision (DESIGN.md §2.9):
/// selection ranks it ([`Ladder::ranked`]), the decision audit lists it, and
/// the drift observation of a launch is its rung at the launched
/// `(strategy, block size)` (`Ladder::raw`). Predictions are stored raw;
/// ranking applies the calibration.
#[derive(Clone, Debug)]
pub struct Ladder {
    rungs: Vec<Rung>,
}

impl Ladder {
    /// Every rung, in sweep order.
    #[must_use]
    pub(crate) fn rungs(&self) -> &[Rung] {
        &self.rungs
    }

    /// The raw prediction at `(strategy, block_threads)`; `None` when that
    /// candidate was rejected or is not a rung.
    #[must_use]
    pub(crate) fn raw(&self, strategy: Strategy, block_threads: usize) -> Option<Prediction> {
        self.rungs
            .iter()
            .find(|r| r.strategy == strategy && r.block_threads == block_threads)
            .and_then(|r| r.outcome.ok())
    }

    /// The selection: for each strategy with a feasible rung, the first
    /// rung with the minimum total under `cal`, as `(strategy, block size,
    /// calibrated prediction)` sorted cheapest-first.
    #[must_use]
    pub fn ranked(&self, cal: Option<&Calibrator>) -> Vec<(Strategy, usize, Prediction)> {
        let mut out: Vec<(Strategy, usize, Prediction)> = Vec::new();
        for rung in &self.rungs {
            let Ok(raw) = rung.outcome else { continue };
            let p = cal.map_or(raw, |c| c.apply(raw));
            match out.iter_mut().find(|(s, _, _)| *s == rung.strategy) {
                Some(best) if p.total() < best.2.total() => {
                    *best = (rung.strategy, rung.block_threads, p);
                }
                Some(_) => {}
                None => out.push((rung.strategy, rung.block_threads, p)),
            }
        }
        // `total_cmp` keeps the sort total even when a prediction goes
        // non-finite (a poisoned measured constant, a fitted scale gone
        // wrong): NaN sorts last instead of panicking the engine mid-batch.
        out.sort_by(|a, b| a.2.total().total_cmp(&b.2.total()));
        out
    }
}

/// Sweeps the performance model over every strategy crossed with
/// [`THREAD_CANDIDATES`] (Algorithm 1 lines 8–14): the grid size follows
/// from each strategy's geometry at the candidate block size.
#[must_use]
pub fn sweep(ctx: &LaunchContext<'_>, inputs: &ModelInputs, hw: &MeasuredParams) -> Ladder {
    let mut rungs = Vec::with_capacity(Strategy::ALL.len() * THREAD_CANDIDATES.len());
    for strategy in Strategy::ALL {
        for &threads in &THREAD_CANDIDATES {
            let outcome = if threads > ctx.device.max_threads_per_block as usize {
                Err("exceeds max threads per block")
            } else {
                let candidate = LaunchContext {
                    block_threads: threads,
                    ..*ctx
                };
                strategy::geometry(strategy, &candidate)
                    .map(|geometry| {
                        predict(strategy, inputs, ctx.forest.tree_depths(), hw, &geometry, ctx.device)
                    })
                    .ok_or("geometry infeasible")
            };
            rungs.push(Rung { strategy, block_threads: threads, outcome });
        }
    }
    Ladder { rungs }
}

/// [`sweep`] ranked under an optional calibrator: every feasible strategy's
/// tuned `(strategy, block size, prediction)`, cheapest first.
#[must_use]
pub fn tune_all_with(
    ctx: &LaunchContext<'_>,
    inputs: &ModelInputs,
    hw: &MeasuredParams,
    cal: Option<&Calibrator>,
) -> Vec<(Strategy, usize, Prediction)> {
    sweep(ctx, inputs, hw).ranked(cal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::kernel::Detail;
    use tahoe_gpu_sim::measure;

    fn setup() -> (Fixture, ModelInputs, MeasuredParams) {
        let fx = Fixture::trained("letter");
        let stats = fx.device_forest.forest_stats();
        let inputs = ModelInputs::gather(&fx.device_forest, stats, &fx.samples);
        let hw = measure(&fx.device);
        (fx, inputs, hw)
    }

    #[test]
    fn tuned_threads_are_valid_block_sizes() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        for (s, threads, _) in sweep(&ctx, &inputs, &hw).ranked(None) {
            assert!(THREAD_CANDIDATES.contains(&threads), "{s}: {threads}");
            assert!(threads <= fx.device.max_threads_per_block as usize);
        }
    }

    #[test]
    fn tuned_prediction_never_worse_than_default() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        for (s, _, tuned) in sweep(&ctx, &inputs, &hw).ranked(None) {
            let default_geo = strategy::geometry(s, &ctx).expect("feasible");
            let depths = fx.device_forest.tree_depths();
            let default = predict(s, &inputs, depths, &hw, &default_geo, ctx.device);
            assert!(
                tuned.total() <= default.total() * 1.000_001,
                "{s}: tuned {} > default {}",
                tuned.total(),
                default.total()
            );
        }
    }

    #[test]
    fn ranking_is_sorted_and_covers_feasible_strategies() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let tuned = sweep(&ctx, &inputs, &hw).ranked(None);
        assert!(tuned.len() >= 2, "shared data and direct are always feasible");
        for w in tuned.windows(2) {
            assert!(w[0].2.total() <= w[1].2.total());
        }
    }

    #[test]
    fn poisoned_candidate_does_not_panic_the_ranking() {
        // A NaN measured constant poisons every prediction that touches it.
        // Selection must survive: `total_cmp` sorts NaN totals last, so the
        // engine keeps running on whichever candidates stayed finite.
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let poisoned = MeasuredParams {
            lat_gmem: f64::NAN,
            ..hw
        };
        let tuned = sweep(&ctx, &inputs, &poisoned).ranked(None);
        assert!(!tuned.is_empty(), "the sweep itself must not panic");
        // NaN totals, if any, are ordered after every finite total.
        let first_nan = tuned
            .iter()
            .position(|(_, _, p)| p.total().is_nan())
            .unwrap_or(tuned.len());
        assert!(
            tuned[first_nan..].iter().all(|(_, _, p)| p.total().is_nan()),
            "NaN predictions sort last"
        );
    }

    #[test]
    fn calibrated_tuning_scales_predictions() {
        use crate::perfmodel::calibrate::RECALIBRATE_INTERVAL;
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let ladder = sweep(&ctx, &inputs, &hw);
        let mut cal = Calibrator::new();
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 100.0, 300.0);
        }
        assert!(cal.maybe_recalibrate());
        let calibrated = tune_all_with(&ctx, &inputs, &hw, Some(&cal));
        let (_, threads, scaled) = calibrated
            .iter()
            .find(|(s, _, _)| *s == Strategy::Direct)
            .copied()
            .expect("direct is always feasible");
        // The ladder keeps the raw rung; ranking applies the fitted scale.
        let raw = ladder.raw(Strategy::Direct, threads).expect("tuned rung");
        assert_eq!(
            scaled.total().to_bits(),
            cal.apply(raw).total().to_bits(),
            "the ranked prediction is the calibrated rung"
        );
        assert!(
            (scaled.total() - raw.total() * cal.scale(Strategy::Direct)).abs()
                <= raw.total() * 1e-9,
            "calibrated total is the raw total times the fitted scale"
        );
    }

    #[test]
    fn ranking_keeps_each_strategys_first_minimum_rung() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let ladder = sweep(&ctx, &inputs, &hw);
        assert_eq!(
            ladder.rungs().len(),
            Strategy::ALL.len() * THREAD_CANDIDATES.len()
        );
        let ranked = ladder.ranked(None);
        for s in Strategy::ALL {
            let best = ladder
                .rungs()
                .iter()
                .filter(|r| r.strategy == s)
                .filter_map(|r| r.outcome.ok().map(|p| (r.block_threads, p)))
                .min_by(|a, b| a.1.total().total_cmp(&b.1.total()));
            match ranked.iter().find(|(rs, _, _)| *rs == s) {
                Some(&(_, threads, p)) => {
                    let (bt, bp) = best.expect("ranked strategy must have feasible rungs");
                    assert_eq!(bt, threads, "{s}");
                    assert_eq!(bp.total().to_bits(), p.total().to_bits(), "{s}");
                }
                None => assert!(best.is_none(), "{s}"),
            }
        }
    }

    #[test]
    fn sweep_reports_rejection_reasons() {
        let (fx, inputs, hw) = setup();
        let mut ctx = context(&fx, Detail::Sampled(1));
        let mut tiny = ctx.device.clone();
        tiny.shared_mem_per_block = 64;
        tiny.shared_mem_per_sm = 64;
        tiny.max_threads_per_block = 512;
        ctx.device = &tiny;
        let ladder = sweep(&ctx, &inputs, &hw);
        assert!(ladder
            .rungs()
            .iter()
            .filter(|r| r.block_threads > 512)
            .all(|r| r.outcome.err() == Some("exceeds max threads per block")));
        assert!(ladder
            .rungs()
            .iter()
            .filter(|r| r.strategy == Strategy::SharedForest && r.block_threads <= 512)
            .all(|r| r.outcome.err() == Some("geometry infeasible")));
        // A rejected strategy has no raw rung and never enters the ranking.
        assert!(ladder.raw(Strategy::SharedForest, 256).is_none());
        assert!(ladder
            .ranked(None)
            .iter()
            .all(|(s, _, _)| *s != Strategy::SharedForest));
    }

    /// Rebuilds `fx` on its forest's trees cycled to `n_trees`, in the
    /// identity layout or the depth-grouped one.
    fn cycled(mut fx: Fixture, n_trees: usize, grouped: bool) -> Fixture {
        use crate::format::{DeviceForest, FormatConfig, LayoutPlan};
        use crate::rearrange::{tree_order_timed, SimilarityParams};
        use tahoe_gpu_sim::memory::DeviceMemory;

        let f = &fx.forest;
        let trees = f.trees().iter().cycle().take(n_trees).cloned().collect();
        let forest = tahoe_forest::Forest::new(
            trees,
            f.n_attributes(),
            f.kind(),
            f.task(),
            f.base_score(),
        );
        let mut mem = DeviceMemory::new();
        fx.sample_buf = mem.alloc((fx.samples.n_samples() * fx.samples.sample_bytes()) as u64);
        let mut plan = LayoutPlan::identity(&forest);
        if grouped {
            plan.tree_order = tree_order_timed(&forest, &SimilarityParams::default()).0;
        }
        fx.device_forest = DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
        fx.forest = forest;
        fx
    }

    /// Asserts that the ladder's shared-data rung simulates as fast as the
    /// fastest rung.
    fn assert_shared_data_pick_is_fastest(fx: &Fixture) {
        let stats = fx.device_forest.forest_stats();
        let inputs = ModelInputs::gather(&fx.device_forest, stats, &fx.samples);
        let hw = measure(&fx.device);
        let ctx = context(fx, Detail::Full);
        let (_, picked, _) = sweep(&ctx, &inputs, &hw)
            .ranked(None)
            .into_iter()
            .find(|(s, _, _)| *s == Strategy::SharedData)
            .expect("shared data is always feasible");
        let simulated_ns = |threads: usize| {
            let rung = LaunchContext { block_threads: threads, ..ctx };
            strategy::run(Strategy::SharedData, &rung).expect("feasible").kernel.total_ns
        };
        let fastest = THREAD_CANDIDATES
            .iter()
            .map(|&t| simulated_ns(t))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(
            simulated_ns(picked),
            fastest,
            "the ladder picked {picked} threads, which is not the simulated-fastest rung"
        );
    }

    #[test]
    fn shared_data_pick_is_the_simulated_fastest_rung() {
        // 150 trees: a 64-thread block walks them in three rounds, a
        // 256-thread block in one. Each warp round lasts as long as its
        // deepest lane, so charging rounds at the mean depth undercosts the
        // small blocks and ranks 64 threads first.
        let fx = cycled(Fixture::trained_with_batch("letter", 300), 150, false);
        assert!(fx.forest.n_trees() > 64);
        assert_shared_data_pick_is_fastest(&fx);
        // 400 trees in the depth-grouped layout: 13 warp groups, of depths
        // 5 6 5 8 8 6 7 4 7 4 5 7 2. At 256 threads, warps 0-4 each walk two
        // groups and the block waits for warp 3's 8 + 7 levels; at 128,
        // for warp 0's 5 + 8 + 7 + 2. Rounds at the mean group depth (5.84)
        // undercount the first and overcount the second, so they rank 256
        // threads first; the simulator runs 128 faster.
        let fx = cycled(Fixture::trained_with_batch("susy", 100), 400, true);
        let groups: Vec<u32> = fx
            .device_forest
            .tree_depths()
            .chunks(crate::perfmodel::WARP_LANES)
            .map(|g| g.iter().copied().max().unwrap_or(0))
            .collect();
        assert_eq!(groups, [5, 6, 5, 8, 8, 6, 7, 4, 7, 4, 5, 7, 2]);
        assert_shared_data_pick_is_fastest(&fx);
    }
}
