//! Online recalibration of the §6 performance model (DESIGN.md §2.16).
//!
//! The engine's drift records (predicted vs simulated ns per batch) are the
//! feedback signal the paper's offline microbenchmark calibration leaves on
//! the table. [`Calibrator`] folds that stream into one multiplicative scale
//! correction per strategy via online least-squares through the origin:
//! with raw (uncalibrated) predictions `p_i` and simulated times `s_i`,
//! the scale minimizing `Σ (k·p_i − s_i)²` is `k = Σ p_i·s_i / Σ p_i²`,
//! maintained incrementally as two running sums per strategy.
//!
//! Scaling every [`Prediction`] term by one positive factor scales
//! `Prediction::total()` by exactly that factor (the roofline `max` and the
//! additive reduction term are both homogeneous), so the correction preserves
//! the model's structure while absorbing systematic bias.
//!
//! Determinism: every observation derives from the simulated clock and the
//! analytic model — never wall-clock — so a calibrated engine's decisions
//! stay byte-identical at any worker count. Refits happen on a fixed
//! observation cadence and the generation counter bumps only when a scale
//! actually moves (relative change above [`CONVERGENCE_TOL`]).

use crate::perfmodel::Prediction;
use crate::strategy::Strategy;

/// Observations folded between refit attempts.
pub const RECALIBRATE_INTERVAL: u64 = 8;

/// Relative scale movement below which a refit is treated as converged and
/// the generation is left untouched.
pub const CONVERGENCE_TOL: f64 = 1e-3;

/// Fitted scales are clamped to this range: a correction outside it says the
/// model is structurally wrong for the workload, not merely biased, and
/// letting the scale run away would invert strategy rankings on noise.
pub const SCALE_CLAMP: (f64, f64) = (0.25, 4.0);

/// Running least-squares sums for one strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct StrategyFit {
    /// Σ predicted² over raw (uncalibrated) batch predictions.
    sum_pp: f64,
    /// Σ predicted · simulated.
    sum_ps: f64,
    /// Observations folded.
    n: u64,
}

impl StrategyFit {
    fn fitted_scale(&self) -> Option<f64> {
        (self.n > 0 && self.sum_pp > 0.0)
            .then(|| (self.sum_ps / self.sum_pp).clamp(SCALE_CLAMP.0, SCALE_CLAMP.1))
    }
}

/// Per-strategy scale corrections fitted online from drift observations.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibrator {
    fits: [StrategyFit; Strategy::ALL.len()],
    scales: [f64; Strategy::ALL.len()],
    generation: u64,
    since_refit: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A fresh calibrator: identity scales, generation 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            fits: [StrategyFit::default(); Strategy::ALL.len()],
            scales: [1.0; Strategy::ALL.len()],
            generation: 0,
            since_refit: 0,
        }
    }

    fn idx(strategy: Strategy) -> usize {
        Strategy::ALL
            .iter()
            .position(|s| *s == strategy)
            .expect("strategy is one of Strategy::ALL")
    }

    /// The correction currently applied to `strategy`'s predictions.
    #[must_use]
    pub fn scale(&self, strategy: Strategy) -> f64 {
        self.scales[Self::idx(strategy)]
    }

    /// Bumped each time a refit moves at least one scale; tags decision
    /// records.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total observations folded across all strategies.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.fits.iter().map(|f| f.n).sum()
    }

    /// Applies the strategy's scale to every term of a raw prediction.
    #[must_use]
    pub fn apply(&self, p: Prediction) -> Prediction {
        let k = self.scale(p.strategy);
        Prediction {
            strategy: p.strategy,
            t_smem: p.t_smem * k,
            t_gmem: p.t_gmem * k,
            t_serial: p.t_serial * k,
            t_b_redu: p.t_b_redu * k,
            t_g_redu: p.t_g_redu * k,
        }
    }

    /// Folds one drift observation: the *raw* (uncalibrated) predicted batch
    /// ns against the simulated batch ns. Non-finite or non-positive values
    /// are dropped — one poisoned observation must not wedge the fit.
    pub fn observe(&mut self, strategy: Strategy, raw_predicted_ns: f64, simulated_ns: f64) {
        if !(raw_predicted_ns.is_finite()
            && simulated_ns.is_finite()
            && raw_predicted_ns > 0.0
            && simulated_ns > 0.0)
        {
            return;
        }
        let fit = &mut self.fits[Self::idx(strategy)];
        fit.sum_pp += raw_predicted_ns * raw_predicted_ns;
        fit.sum_ps += raw_predicted_ns * simulated_ns;
        fit.n += 1;
        self.since_refit += 1;
    }

    /// Refits the scales once [`RECALIBRATE_INTERVAL`] observations have
    /// accumulated since the last attempt. Returns `true` — and bumps the
    /// generation — only when some scale moved more than [`CONVERGENCE_TOL`]
    /// relatively, so a converged refit keeps the generation.
    pub fn maybe_recalibrate(&mut self) -> bool {
        if self.since_refit < RECALIBRATE_INTERVAL {
            return false;
        }
        self.since_refit = 0;
        let mut next = self.scales;
        for (slot, fit) in next.iter_mut().zip(&self.fits) {
            if let Some(s) = fit.fitted_scale() {
                *slot = s;
            }
        }
        let moved = next
            .iter()
            .zip(&self.scales)
            .any(|(a, b)| (a - b).abs() > CONVERGENCE_TOL * b.abs());
        if moved {
            self.scales = next;
            self.generation += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prediction(strategy: Strategy) -> Prediction {
        Prediction {
            strategy,
            t_smem: 10.0,
            t_gmem: 20.0,
            t_serial: 5.0,
            t_b_redu: 1.0,
            t_g_redu: 2.0,
        }
    }

    #[test]
    fn fresh_calibrator_is_the_identity() {
        let cal = Calibrator::new();
        let p = prediction(Strategy::Direct);
        assert_eq!(cal.generation(), 0);
        assert_eq!(cal.apply(p).total().to_bits(), p.total().to_bits());
    }

    #[test]
    fn apply_scales_the_total_linearly() {
        let mut cal = Calibrator::new();
        // Consistent 2x underprediction: simulated = 2 * predicted.
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 100.0, 200.0);
        }
        assert!(cal.maybe_recalibrate());
        assert_eq!(cal.generation(), 1);
        let s = cal.scale(Strategy::Direct);
        assert!((s - 2.0).abs() < 1e-12, "exact fit on a consistent bias: {s}");
        let p = prediction(Strategy::Direct);
        let scaled = cal.apply(p);
        assert!((scaled.total() - p.total() * s).abs() < 1e-9);
        // Other strategies stay at identity.
        assert_eq!(cal.scale(Strategy::SharedData), 1.0);
    }

    #[test]
    fn no_refit_before_the_interval() {
        let mut cal = Calibrator::new();
        for _ in 0..RECALIBRATE_INTERVAL - 1 {
            cal.observe(Strategy::SharedData, 100.0, 150.0);
            assert!(!cal.maybe_recalibrate());
        }
        assert_eq!(cal.generation(), 0);
        assert_eq!(cal.scale(Strategy::SharedData), 1.0);
        cal.observe(Strategy::SharedData, 100.0, 150.0);
        assert!(cal.maybe_recalibrate());
        assert_eq!(cal.generation(), 1);
    }

    #[test]
    fn converged_refit_keeps_the_generation() {
        let mut cal = Calibrator::new();
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 100.0, 300.0);
        }
        assert!(cal.maybe_recalibrate());
        let gen = cal.generation();
        // Same consistent observations again: the fit lands on the same
        // scale, so the refit is converged and the generation must hold.
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 100.0, 300.0);
        }
        assert!(!cal.maybe_recalibrate());
        assert_eq!(cal.generation(), gen);
    }

    #[test]
    fn scales_are_clamped() {
        let mut cal = Calibrator::new();
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 1.0, 1_000_000.0);
        }
        cal.maybe_recalibrate();
        assert_eq!(cal.scale(Strategy::Direct), SCALE_CLAMP.1);
        let mut cal = Calibrator::new();
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 1_000_000.0, 1.0);
        }
        cal.maybe_recalibrate();
        assert_eq!(cal.scale(Strategy::Direct), SCALE_CLAMP.0);
    }

    #[test]
    fn non_finite_and_non_positive_observations_are_dropped() {
        let mut cal = Calibrator::new();
        cal.observe(Strategy::Direct, f64::NAN, 100.0);
        cal.observe(Strategy::Direct, 100.0, f64::INFINITY);
        cal.observe(Strategy::Direct, -5.0, 100.0);
        cal.observe(Strategy::Direct, 100.0, 0.0);
        assert_eq!(cal.observations(), 0);
        for _ in 0..RECALIBRATE_INTERVAL * 2 {
            assert!(!cal.maybe_recalibrate());
        }
        assert_eq!(cal.generation(), 0);
    }
}
