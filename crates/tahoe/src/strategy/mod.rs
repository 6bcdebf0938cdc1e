//! The four inference strategies of §5, as simulated GPU kernels.
//!
//! Every strategy consumes a [`LaunchContext`] (device + device-formatted
//! forest + sample batch) and produces a [`StrategyRun`] with the simulated
//! kernel outcome. Strategies that need shared-memory capacity return
//! `None` when the forest cannot fit (paper §5.2: shared forest "can only be
//! applied to five datasets").

pub mod common;
pub mod direct;
pub mod shared_data;
pub mod shared_forest;
pub mod split_shared_forest;

pub use common::{Geometry, LaunchContext, Strategy, StrategyRun};

/// Runs one strategy; `None` when infeasible on this context.
#[must_use]
pub fn run(strategy: Strategy, ctx: &LaunchContext<'_>) -> Option<StrategyRun> {
    match strategy {
        Strategy::SharedData => Some(shared_data::run(ctx)),
        Strategy::Direct => Some(direct::run(ctx)),
        Strategy::SharedForest => shared_forest::run(ctx),
        Strategy::SplittingSharedForest => split_shared_forest::run(ctx),
    }
}

/// Launch geometry a strategy would use; `None` when infeasible.
#[must_use]
pub fn geometry(strategy: Strategy, ctx: &LaunchContext<'_>) -> Option<Geometry> {
    match strategy {
        Strategy::SharedData => Some(shared_data::geometry(ctx)),
        Strategy::Direct => Some(direct::geometry(ctx)),
        Strategy::SharedForest => shared_forest::geometry(ctx),
        Strategy::SplittingSharedForest => split_shared_forest::geometry(ctx),
    }
}

/// Test fixtures shared by the strategy unit tests and integration tests.
#[doc(hidden)]
pub mod testutil {
    use tahoe_datasets::{DatasetSpec, Scale, SampleMatrix};
    use tahoe_forest::Forest;
    use tahoe_gpu_sim::device::DeviceSpec;
    use tahoe_gpu_sim::kernel::Detail;
    use tahoe_gpu_sim::memory::DeviceMemory;
    use tahoe_gpu_sim::GlobalBuffer;

    use crate::format::{DeviceForest, FormatConfig, LayoutPlan};

    use super::LaunchContext;

    /// Owns everything a [`LaunchContext`] borrows.
    pub struct Fixture {
        /// Target device (P100 by default, as in Fig. 5).
        pub device: DeviceSpec,
        /// Trained host forest.
        pub forest: Forest,
        /// Device-formatted forest (identity plan, adaptive encoding).
        pub device_forest: DeviceForest,
        /// Inference samples.
        pub samples: SampleMatrix,
        /// Simulated batch allocation.
        pub sample_buf: GlobalBuffer,
    }

    impl Fixture {
        /// Trains a Smoke-scale forest for a Table 2 dataset.
        ///
        /// # Panics
        ///
        /// Panics on an unknown dataset name.
        #[must_use]
        pub fn trained(name: &str) -> Self {
            Self::build(name, None, None)
        }

        /// As [`Fixture::trained`], truncating the forest to `n` trees.
        #[must_use]
        pub fn trained_with_trees(name: &str, n: usize) -> Self {
            Self::build(name, Some(n), None)
        }

        /// As [`Fixture::trained`], truncating the batch to `n` samples.
        #[must_use]
        pub fn trained_with_batch(name: &str, n: usize) -> Self {
            Self::build(name, None, Some(n))
        }

        fn build(name: &str, trees: Option<usize>, batch: Option<usize>) -> Self {
            let spec = DatasetSpec::by_name(name).expect("known dataset");
            let data = spec.generate(Scale::Smoke);
            let (train, infer) = data.split_train_infer();
            let mut forest = tahoe_forest::train_for_spec(&spec, &train, Scale::Smoke);
            if let Some(n) = trees {
                forest = forest.truncated(n.min(forest.n_trees()));
            }
            let mut samples = infer.samples;
            if let Some(n) = batch {
                let keep: Vec<usize> = (0..n.min(samples.n_samples())).collect();
                samples = samples.select(&keep);
            }
            let mut mem = DeviceMemory::new();
            let sample_buf =
                mem.alloc((samples.n_samples() * samples.n_attributes() * 4) as u64);
            let plan = LayoutPlan::identity(&forest);
            let device_forest =
                DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
            Self {
                device: DeviceSpec::tesla_p100(),
                forest,
                device_forest,
                samples,
                sample_buf,
            }
        }
    }

    /// Builds a launch context over a fixture.
    #[must_use]
    pub fn context<'a>(fx: &'a Fixture, detail: Detail) -> LaunchContext<'a> {
        LaunchContext {
            device: &fx.device,
            forest: &fx.device_forest,
            samples: &fx.samples,
            sample_buf: fx.sample_buf,
            detail,
            block_threads: super::common::THREADS_PER_BLOCK,
            telemetry: crate::telemetry::TelemetryCtx::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{context, Fixture};
    use super::*;
    use tahoe_gpu_sim::kernel::Detail;

    #[test]
    fn all_strategies_report_positive_time() {
        let fx = Fixture::trained("ijcnn1");
        for s in Strategy::ALL {
            let r = run(s, &context(&fx, Detail::Sampled(2))).expect("small forest");
            assert_eq!(r.strategy, s);
            assert!(r.kernel.total_ns > 0.0, "{}", r.strategy);
            assert!(r.throughput_samples_per_us() > 0.0, "{}", r.strategy);
            assert!(r.ns_per_sample() > 0.0, "{}", r.strategy);
        }
    }

    #[test]
    fn geometry_matches_run() {
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Sampled(2));
        for s in Strategy::ALL {
            let geo = geometry(s, &ctx).unwrap();
            let run = run(s, &ctx).unwrap();
            assert_eq!(run.geometry, geo, "{s}");
            assert_eq!(run.kernel.grid_blocks, geo.grid_blocks, "{s}");
        }
    }
}
