//! The §7.2–7.4 run matrix: every Table 2 dataset × paper GPU × batch
//! regime, simulated once. Each cell launches FIL once, sweeps Tahoe
//! ([`Sweep`]): its model's pick, then every other feasible strategy forced,
//! and launches Tahoe's layout under FIL's strategy once (on P100 also node
//! rearrangement alone). Fig. 7 and Table 3, the §7.3 reduction census and
//! model-accuracy records, Fig. 5 and Fig. 8 (the P100 cells), the §7.3
//! coalescing means and the §7.4 overheads are projections of it.

use tahoe::engine::{Engine, EngineOptions};
use tahoe::metrics::thread_acv_with_sink;
use tahoe_gpu_sim::device::DeviceSpec;

use crate::data::{batch_of, Prepared};
use crate::env::Env;
use crate::experiments::breakdown::{self, BreakdownResult, BreakdownRow};
use crate::experiments::coalescing::{self, CoalescingResult, CoalescingRow};
use crate::experiments::model_accuracy::{self, AccuracyResult, AccuracyRow};
use crate::experiments::overall::{self, OverallResult, OverallRow};
use crate::experiments::overhead::{self, HostCost, OverheadResult};
use crate::experiments::reduction_census::{self, CensusResult, CensusRow};
use crate::experiments::strategies::{self, Fig5Result, Sweep};
use crate::experiments::{devices, fil_opts, tahoe_opts, HIGH_BATCH, LOW_BATCH};

/// The seven records the matrix projects.
#[derive(Clone, Debug, Default)]
pub struct MatrixResult {
    /// Fig. 7 and Table 3.
    pub overall: OverallResult,
    /// §7.3 blockwise-reduction removal census.
    pub census: CensusResult,
    /// §7.3 performance-model accuracy.
    pub accuracy: AccuracyResult,
    /// Fig. 5: every strategy on P100 at high parallelism.
    pub fig5: Fig5Result,
    /// Fig. 8: the per-technique speedups on P100.
    pub breakdown: BreakdownResult,
    /// §7.3 memory coalescence at high parallelism, per device.
    pub coalescing: CoalescingResult,
    /// §7.4 overheads beside the P100 Tahoe engine.
    pub overhead: OverheadResult,
    /// The host costs measured beside each overhead row (printed, never
    /// recorded).
    pub host: Vec<HostCost>,
}

/// Runs the matrix over `prepared`, in order.
#[must_use]
pub fn run(env: &Env, prepared: &[Prepared]) -> MatrixResult {
    let p100 = DeviceSpec::tesla_p100().name;
    // Tahoe's layout with FIL's strategy (the coalescing comparison and
    // Fig. 8's step (a)+(b)), and node rearrangement alone (step (a)).
    let layout_opts = EngineOptions {
        model_selection: false,
        ..tahoe_opts(env)
    };
    let node_opts = EngineOptions {
        tree_rearrange: false,
        ..layout_opts
    };
    let devices = devices();
    let mut m = MatrixResult::default();
    // Per device, one coalescing row per dataset, in dataset order.
    let mut coalescing_cells = vec![Vec::new(); devices.len()];
    for p in prepared {
        let dataset = p.spec.name.to_string();
        for (device, cells) in devices.iter().zip(&mut coalescing_cells) {
            let engine = |opts| {
                Engine::with_telemetry(device.clone(), p.forest.clone(), opts, env.sink.clone())
            };
            let mut fil = engine(fil_opts(env));
            let mut tahoe = engine(tahoe_opts(env));
            let mut layout = engine(layout_opts);
            let mut node = (device.name == p100).then(|| engine(node_opts));
            for (high, size) in [(true, HIGH_BATCH), (false, LOW_BATCH)] {
                let batch = batch_of(&p.infer, size);
                let rf = fil.infer(&batch);
                let sweep = Sweep::run(&mut tahoe, &batch);
                let rl = layout.infer(&batch);
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
                if high {
                    let row = CoalescingRow::of(device.name, &rf.run.kernel, &rl.run.kernel);
                    cells.push(row);
                }
                let Some(node) = &mut node else { continue };
                let base = rf.run.kernel.total_ns;
                m.breakdown.rows.push(BreakdownRow {
                    dataset: dataset.clone(),
                    dataset_id: p.spec.id,
                    high_parallelism: high,
                    speedup_a: base / node.infer(&batch).run.kernel.total_ns,
                    speedup_ab: base / rl.run.kernel.total_ns,
                    speedup_abc: base / rt.run.kernel.total_ns,
                });
                if high {
                    m.fig5.rows.push(sweep.row(&dataset));
                    let (row, host) = overhead::measure(p, *tahoe.conversion(), rt);
                    m.overhead.rows.push(row);
                    m.host.push(host);
                }
            }
        }
    }
    m.coalescing.rows = devices
        .iter()
        .zip(&coalescing_cells)
        .map(|(device, cells)| CoalescingRow::mean(device.name, cells))
        .collect();
    m
}

/// Prints Fig. 7, Table 3, the census, model accuracy, Fig. 5, Fig. 8, the
/// §7.3 coalescing table and the §7.4 overheads, and writes their seven
/// records.
pub fn report(m: &MatrixResult) {
    overall::report_fig7(&m.overall);
    overall::report_table3(&m.overall);
    reduction_census::report(&m.census);
    model_accuracy::report(&m.accuracy);
    strategies::report_fig5(&m.fig5);
    breakdown::report(&m.breakdown);
    coalescing::report(&m.coalescing);
    overhead::report(&m.overhead, &m.host);
}
