//! Experiment implementations, one module per paper table/figure.

pub mod ablations;
pub mod breakdown;
pub mod coalescing;
pub mod matrix;
pub mod model_accuracy;
pub mod motivation;
pub mod overall;
pub mod overhead;
pub mod reduction_census;
pub mod scaling;
pub mod strategies;

use tahoe::engine::EngineOptions;
use tahoe_gpu_sim::device::DeviceSpec;

use crate::env::Env;

/// High-parallelism batch size (paper §7.2: 100 K).
pub const HIGH_BATCH: usize = 100_000;

/// Low-parallelism batch size (paper §7.2: 100).
pub const LOW_BATCH: usize = 100;

/// Tahoe engine options for throughput experiments (functional predictions
/// off; correctness is covered by the test suite).
#[must_use]
pub fn tahoe_opts(env: &Env) -> EngineOptions {
    EngineOptions {
        detail: env.detail,
        functional: false,
        ..EngineOptions::tahoe()
    }
}

/// FIL-baseline options for throughput experiments.
#[must_use]
pub fn fil_opts(env: &Env) -> EngineOptions {
    EngineOptions {
        detail: env.detail,
        functional: false,
        ..EngineOptions::fil()
    }
}

/// The three paper GPUs.
#[must_use]
pub fn devices() -> Vec<DeviceSpec> {
    DeviceSpec::paper_devices()
}
