//! The §7.2–7.3 run matrix: every Table 2 dataset × paper GPU × batch
//! regime, simulated once. Each cell launches FIL once and sweeps Tahoe
//! ([`Sweep`]): its model's pick, then every other feasible strategy forced.
//! Fig. 7 and Table 3, the §7.3 reduction census and model-accuracy records,
//! and Fig. 5 (the P100 high-parallelism cells) are projections of it.

use tahoe::engine::Engine;
use tahoe::metrics::thread_acv_with_sink;
use tahoe_gpu_sim::device::DeviceSpec;

use crate::data::{batch_of, prepare_all, Prepared};
use crate::env::Env;
use crate::experiments::model_accuracy::{self, AccuracyResult, AccuracyRow};
use crate::experiments::overall::{self, OverallResult, OverallRow};
use crate::experiments::reduction_census::{self, CensusResult, CensusRow};
use crate::experiments::strategies::{self, Fig5Result, Sweep};
use crate::experiments::{devices, fil_opts, tahoe_opts, HIGH_BATCH, LOW_BATCH};

/// The four records the matrix projects.
#[derive(Clone, Debug)]
pub struct MatrixResult {
    /// Fig. 7 and Table 3.
    pub overall: OverallResult,
    /// §7.3 blockwise-reduction removal census.
    pub census: CensusResult,
    /// §7.3 performance-model accuracy.
    pub accuracy: AccuracyResult,
    /// Fig. 5: every strategy on P100 at high parallelism.
    pub fig5: Fig5Result,
}

/// Runs the matrix over all 15 datasets.
#[must_use]
pub fn run(env: &Env) -> MatrixResult {
    run_for(env, &prepare_all(env.scale))
}

/// Runs the matrix over `prepared`, in order.
#[must_use]
pub fn run_for(env: &Env, prepared: &[Prepared]) -> MatrixResult {
    let p100 = DeviceSpec::tesla_p100().name;
    let mut m = MatrixResult {
        overall: OverallResult { rows: Vec::new() },
        census: CensusResult { rows: Vec::new() },
        accuracy: AccuracyResult { rows: Vec::new() },
        fig5: Fig5Result { rows: Vec::new() },
    };
    for p in prepared {
        let dataset = p.spec.name.to_string();
        for device in devices() {
            let mut fil =
                Engine::with_telemetry(device.clone(), p.forest.clone(), fil_opts(env), env.sink.clone());
            let mut tahoe =
                Engine::with_telemetry(device.clone(), p.forest.clone(), tahoe_opts(env), env.sink.clone());
            for (high, size) in [(true, HIGH_BATCH), (false, LOW_BATCH)] {
                let batch = batch_of(&p.infer, size);
                let rf = fil.infer(&batch);
                let sweep = Sweep::run(&mut tahoe, &batch);
                let rt = &sweep.chosen;
                m.overall.rows.push(OverallRow {
                    dataset: dataset.clone(),
                    dataset_id: p.spec.id,
                    device: device.name.to_string(),
                    high_parallelism: high,
                    fil_throughput: rf.run.throughput_samples_per_us(),
                    tahoe_throughput: rt.run.throughput_samples_per_us(),
                    speedup: rf.run.kernel.total_ns / rt.run.kernel.total_ns,
                    tahoe_strategy: rt.strategy,
                    fil_acv: thread_acv_with_sink(&rf.run.kernel, &env.sink),
                    tahoe_acv: thread_acv_with_sink(&rt.run.kernel, &env.sink),
                    fil_lane_wait: 1.0 - rf.run.kernel.simt_efficiency(),
                    tahoe_lane_wait: 1.0 - rt.run.kernel.simt_efficiency(),
                });
                m.census.rows.push(CensusRow {
                    dataset: dataset.clone(),
                    device: device.name.to_string(),
                    high_parallelism: high,
                    strategy: rt.strategy,
                });
                let (optimal_ns, actual_best) = sweep.fastest();
                m.accuracy.rows.push(AccuracyRow {
                    dataset: dataset.clone(),
                    device: device.name.to_string(),
                    high_parallelism: high,
                    predicted_best: rt.strategy,
                    actual_best,
                    chosen_ns: rt.run.kernel.total_ns,
                    optimal_ns,
                });
                if high && device.name == p100 {
                    m.fig5.rows.push(sweep.row(&dataset));
                }
            }
        }
    }
    m
}

/// Prints Fig. 7, Table 3, the census, model accuracy and Fig. 5, and
/// writes their four records.
pub fn report(m: &MatrixResult) {
    overall::report_fig7(&m.overall);
    overall::report_table3(&m.overall);
    reduction_census::report(&m.census);
    model_accuracy::report(&m.accuracy);
    strategies::report_fig5(&m.fig5);
}
