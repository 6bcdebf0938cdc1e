//! Launch tuning (Algorithm 1 line 14: "Set the maximum number of threads to
//! hide latency, and set the number of blocks to maximize the occupancy").
//!
//! Block size trades occupancy against per-block resources: bigger blocks
//! amortize staging and widen reductions; smaller blocks raise residency.
//! [`sweep`] evaluates the performance model over a candidate block-size
//! ladder for every strategy — the grid size follows from each strategy's
//! geometry (one wave target, occupancy-aware) — and [`Ladder::ranked`]
//! keeps each strategy's cheapest rung.
//!
//! Repeat-serving workloads re-tune the same shape over and over, so the
//! engine consults a [`TuningCache`] first (DESIGN.md §2.16): the ladder is
//! memoized under a [`cache_key`] covering
//! everything selection depends on — node encoding, batch shape, device
//! spec, simulation detail, and the calibration generation. The key follows
//! the false-sharing discipline of `gpu-sim/src/memo.rs`: exact bit
//! patterns, no lossy rounding, and a 128-bit fingerprint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;
use tahoe_gpu_sim::memo::{BlockKey, KeyHasher};
use tahoe_gpu_sim::MeasuredParams;

use crate::format::DeviceForest;
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
/// The ladder is the one record of a tuning decision (DESIGN.md §2.15):
/// selection ranks it ([`Ladder::ranked`]), the decision audit lists it, and
/// the drift observation of a launch is its rung at the launched
/// `(strategy, block size)` (`Ladder::raw`). Predictions are stored raw so
/// one cached ladder serves every calibration of the same generation.
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
                    .map(|geometry| predict(strategy, inputs, hw, &geometry, ctx.device))
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

/// Process-wide tuning-cache override: 0 = unset, 1 = forced off,
/// 2 = forced on (mirrors `gpu_sim::memo::set_sim_memo`).
static TUNE_CACHE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides whether engines consult the tuning-decision cache,
/// process-wide. `None` restores the default resolution
/// (`TAHOE_TUNE_CACHE`, then on). Used by the determinism tests to compare
/// cold and warm tuning in one process.
pub fn set_tune_cache(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    TUNE_CACHE_OVERRIDE.store(v, Ordering::SeqCst);
}

/// Whether engines consult the tuning-decision cache. Resolution order: the
/// [`set_tune_cache`] override, then `TAHOE_TUNE_CACHE`, then on. Turning
/// the cache off must never change selections — only the
/// `tuning_cache_hits`/`tuning_cache_misses` counters, the decision records'
/// `cache_hit` flags, and the wall-clock tune host span may differ.
#[must_use]
pub fn tune_cache_enabled() -> bool {
    match TUNE_CACHE_OVERRIDE.load(Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => env_tune_cache().unwrap_or(true),
    }
}

/// `TAHOE_TUNE_CACHE`, when set to a recognized value. Invalid values warn
/// once to stderr and fall through to the default (on).
fn env_tune_cache() -> Option<bool> {
    let raw = std::env::var("TAHOE_TUNE_CACHE").ok()?;
    match parse_cache_env(&raw) {
        Ok(v) => v,
        Err(()) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid TAHOE_TUNE_CACHE={raw:?}: \
                     expected 0/1, true/false, or on/off; the cache stays on"
                );
            });
            None
        }
    }
}

/// Parses a `TAHOE_TUNE_CACHE` value: `Ok(Some(_))` for a recognized on/off
/// spelling, `Ok(None)` for empty/whitespace (unset), `Err(())` otherwise.
fn parse_cache_env(raw: &str) -> Result<Option<bool>, ()> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    if t == "0" || t.eq_ignore_ascii_case("false") || t.eq_ignore_ascii_case("off") {
        return Ok(Some(false));
    }
    if t == "1" || t.eq_ignore_ascii_case("true") || t.eq_ignore_ascii_case("on") {
        return Ok(Some(true));
    }
    Err(())
}

/// Fingerprints everything [`sweep`] and its ranking depend on for one
/// engine batch.
///
/// Key material, in stream order:
///
/// - `DeviceForest::encoding_key` — node encoding marker, node bytes,
///   packed/child widths, every lane's entry width and base alignment. A
///   classic and a packed image of the same forest must never share an
///   entry.
/// - the eight [`ModelInputs`] fields by exact f64 bit pattern — batch
///   shape (`n_batch`, `s_sample`) and the forest statistics the model
///   consumes. A batch one sample larger is a different key.
/// - every [`DeviceSpec`] field selection reads: name bytes, structural
///   limits, and the timing constants by exact bit pattern.
/// - the simulation [`Detail`] (a variant marker plus the sample cap).
/// - the calibration generation — recalibration invalidates by key, never
///   by mutating cached values, which is what keeps warm and cold runs
///   bit-identical (DESIGN.md §2.16).
///
/// Per-tree layout beyond these statistics is *not* keyed: the engine clears
/// its cache whenever it rebuilds the device forest (`Engine::convert`), so
/// within one cache lifetime the forest image is fixed.
#[must_use]
pub fn cache_key(
    forest: &DeviceForest,
    device: &DeviceSpec,
    inputs: &ModelInputs,
    detail: Detail,
    calibration_generation: u64,
) -> BlockKey {
    let mut h = KeyHasher::new();
    h.write_u64(forest.encoding_key(device.transaction_bytes));
    for v in [
        inputs.s_sample,
        inputs.n_batch,
        inputs.d_tree,
        inputs.n_trees,
        inputs.s_node,
        inputs.s_att,
        inputs.n_nodes,
        inputs.s_forest,
    ] {
        h.write_u64(v.to_bits());
    }
    h.write_u64(device.name.len() as u64);
    for b in device.name.bytes() {
        h.write_u64(u64::from(b));
    }
    for v in [
        u64::from(device.num_sms),
        u64::from(device.warp_size),
        u64::from(device.max_threads_per_block),
        u64::from(device.max_threads_per_sm),
        u64::from(device.max_blocks_per_sm),
        device.shared_mem_per_block as u64,
        device.shared_mem_per_sm as u64,
        device.transaction_bytes,
        device.dram_bytes,
    ] {
        h.write_u64(v);
    }
    for v in [
        device.gmem_bytes_per_ns,
        device.smem_bytes_per_ns,
        device.gmem_latency_ns,
        device.mlp,
        device.smem_latency_ns,
        device.node_eval_ns,
        device.block_reduce_ns_per_thread,
        device.block_reduce_base_ns,
        device.global_reduce_ns_per_block,
        device.global_reduce_base_ns,
    ] {
        h.write_u64(v.to_bits());
    }
    match detail {
        Detail::Full => h.write_u64(0),
        Detail::Sampled(n) => {
            h.write_u64(1);
            h.write_u64(n as u64);
        }
    }
    h.write_u64(calibration_generation);
    h.finish()
}

/// Memoized [`sweep`] ladders, one entry per distinct [`cache_key`].
///
/// Owned per engine (never shared across devices — replicas get a fresh
/// cache because their downclocked specs differ), consulted and filled only
/// on the engine caller thread, and cleared whenever the device forest is
/// rebuilt or the calibration generation bumps.
#[derive(Clone, Debug, Default)]
pub struct TuningCache {
    entries: HashMap<BlockKey, Ladder>,
}

impl TuningCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached ladder for `key`, if present.
    #[must_use]
    pub fn get(&self, key: &BlockKey) -> Option<&Ladder> {
        self.entries.get(key)
    }

    /// Stores a ladder under `key`.
    pub fn insert(&mut self, key: BlockKey, ladder: Ladder) {
        self.entries.insert(key, ladder);
    }

    /// Drops every entry (forest rebuilt, or calibration generation bumped).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of distinct cached shapes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::measure;

    fn setup() -> (Fixture, ModelInputs, MeasuredParams) {
        let fx = Fixture::trained("letter");
        let inputs = ModelInputs::gather(&fx.device_forest, &fx.forest.stats(), &fx.samples);
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
            let default = predict(s, &inputs, &hw, &default_geo, ctx.device);
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

    #[test]
    fn cache_key_discriminates_its_material() {
        let (fx, inputs, _) = setup();
        let detail = Detail::Sampled(4);
        let base = cache_key(&fx.device_forest, &fx.device, &inputs, detail, 0);
        // Same material, same key — the cache can actually hit.
        assert_eq!(
            base,
            cache_key(&fx.device_forest, &fx.device, &inputs, detail, 0)
        );
        // A batch one sample larger must miss.
        let bigger = ModelInputs {
            n_batch: inputs.n_batch + 1.0,
            ..inputs
        };
        assert_ne!(
            base,
            cache_key(&fx.device_forest, &fx.device, &bigger, detail, 0)
        );
        // A different node encoding of the same forest must miss.
        let packed = Fixture::trained_packed("letter");
        let packed_inputs =
            ModelInputs::gather(&packed.device_forest, &packed.forest.stats(), &packed.samples);
        assert_ne!(
            base,
            cache_key(&packed.device_forest, &packed.device, &packed_inputs, detail, 0)
        );
        // A calibration-generation bump must miss (that is the invalidation).
        assert_ne!(
            base,
            cache_key(&fx.device_forest, &fx.device, &inputs, detail, 1)
        );
        // A different detail or device must miss.
        assert_ne!(
            base,
            cache_key(&fx.device_forest, &fx.device, &inputs, Detail::Full, 0)
        );
        assert_ne!(
            base,
            cache_key(
                &fx.device_forest,
                &DeviceSpec::tesla_v100(),
                &inputs,
                detail,
                0
            )
        );
    }

    #[test]
    fn tune_cache_env_parsing() {
        assert_eq!(parse_cache_env(""), Ok(None));
        assert_eq!(parse_cache_env("0"), Ok(Some(false)));
        assert_eq!(parse_cache_env("off"), Ok(Some(false)));
        assert_eq!(parse_cache_env("1"), Ok(Some(true)));
        assert_eq!(parse_cache_env(" ON "), Ok(Some(true)));
        assert_eq!(parse_cache_env("yes"), Err(()));
    }
}
