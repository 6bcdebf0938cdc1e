//! Fig. 5 (four strategies × 15 datasets on P100) and Fig. 6 (strategy
//! crossover vs batch size on Higgs and SVHN), and the strategy sweep both
//! read.

use serde::Serialize;

use tahoe::engine::{Engine, InferenceResult};
use tahoe::strategy::Strategy;
use tahoe_datasets::{SampleMatrix, Scale};
use tahoe_gpu_sim::device::DeviceSpec;

use crate::data::{batch_of, named, Prepared};
use crate::env::Env;
use crate::experiments::{tahoe_opts, HIGH_BATCH};
use crate::report::{f3, mib, write_json, Table};

/// One strategy's launch within a [`Sweep`].
#[derive(Clone, Copy, Debug)]
pub struct Launch {
    /// Simulated kernel time (ns).
    pub ns: f64,
    /// Simulated throughput (samples/µs).
    pub throughput: f64,
    /// Chunks the batch was split into to fit DRAM (1 = unsplit).
    pub chunks: usize,
}

impl Launch {
    fn of(r: &InferenceResult) -> Self {
        Self {
            ns: r.run.kernel.total_ns,
            throughput: r.run.throughput_samples_per_us(),
            chunks: r.chunks,
        }
    }
}

/// One batch through every feasible strategy: the model's pick, launched as
/// [`Engine::infer`] launches it, then every other feasible strategy forced.
/// A forced launch runs at the same tuned block size as an auto launch of
/// the same strategy, so each strategy is simulated once.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The model's launch.
    pub chosen: InferenceResult,
    /// Per-strategy launches in [`Strategy::ALL`] order (`None` =
    /// infeasible).
    pub launches: Vec<Option<Launch>>,
    /// The engine's high-water device-memory footprint after the sweep
    /// (bytes).
    pub mem_high_water_bytes: u64,
}

impl Sweep {
    /// Runs the sweep on `engine`.
    pub fn run(engine: &mut Engine, batch: &SampleMatrix) -> Self {
        let chosen = engine.infer(batch);
        let launches = Strategy::ALL
            .iter()
            .map(|&s| {
                if s == chosen.strategy {
                    Some(Launch::of(&chosen))
                } else {
                    engine
                        .feasible(s, batch)
                        .then(|| Launch::of(&engine.infer_with(batch, Some(s))))
                }
            })
            .collect();
        Self {
            chosen,
            launches,
            mem_high_water_bytes: engine.memory().high_water_bytes(),
        }
    }

    /// The fastest strategy and its simulated time (ns); the first in
    /// [`Strategy::ALL`] order wins a tie.
    #[must_use]
    pub fn fastest(&self) -> (f64, Strategy) {
        let (l, s) = self
            .launched()
            .min_by(|a, b| a.0.ns.total_cmp(&b.0.ns))
            .expect("the chosen strategy ran");
        (l.ns, s)
    }

    /// The Fig. 5/6 row of this sweep; the winner is the first
    /// highest-throughput strategy in [`Strategy::ALL`] order.
    #[must_use]
    pub fn row(&self, dataset: &str) -> StrategyRow {
        StrategyRow {
            dataset: dataset.to_string(),
            throughput: self.launches.iter().map(|l| l.map(|l| l.throughput)).collect(),
            winner: self
                .launched()
                .min_by(|a, b| b.0.throughput.total_cmp(&a.0.throughput))
                .expect("the chosen strategy ran")
                .1,
            mem_high_water_bytes: self.mem_high_water_bytes,
            max_chunks: self.launched().map(|(l, _)| l.chunks).fold(1, usize::max),
        }
    }

    /// The feasible strategies' launches, in [`Strategy::ALL`] order.
    fn launched(&self) -> impl Iterator<Item = (Launch, Strategy)> + '_ {
        self.launches.iter().zip(Strategy::ALL).filter_map(|(l, s)| l.map(|l| (l, s)))
    }
}

/// Throughput of each strategy on one dataset (samples/µs; `None` =
/// infeasible).
#[derive(Clone, Debug, Serialize)]
pub struct StrategyRow {
    /// Dataset name.
    pub dataset: String,
    /// Per-strategy throughput in [`Strategy::ALL`] order.
    pub throughput: Vec<Option<f64>>,
    /// Winning strategy.
    pub winner: Strategy,
    /// High-water simulated device-memory footprint over the sweep (bytes).
    pub mem_high_water_bytes: u64,
    /// Largest chunk split any strategy needed to fit DRAM (1 = unsplit).
    pub max_chunks: usize,
}

/// Fig. 5 record: the P100 high-parallelism cells of the run matrix
/// ([`crate::experiments::matrix`]).
#[derive(Clone, Debug, Default, Serialize)]
pub struct Fig5Result {
    /// One row per dataset.
    pub rows: Vec<StrategyRow>,
}

/// Sweeps all feasible strategies for one prepared dataset and batch size
/// on a fresh P100 engine.
#[must_use]
pub fn strategy_row(env: &Env, p: &Prepared, batch_size: usize) -> StrategyRow {
    let batch = batch_of(&p.infer, batch_size);
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        p.forest.clone(),
        tahoe_opts(env),
        env.sink.clone(),
    );
    Sweep::run(&mut engine, &batch).row(p.spec.name)
}

/// Prints Fig. 5 and writes its record.
pub fn report_fig5(result: &Fig5Result) {
    let mut t = Table::new(
        "Fig 5 — strategy throughput (samples/us), batch 100K, P100",
        &[
            "dataset",
            "shared data",
            "direct",
            "shared forest",
            "splitting",
            "winner",
            "mem hw (MiB)",
            "chunks",
        ],
    );
    for row in &result.rows {
        let mut cells = vec![row.dataset.clone()];
        for v in &row.throughput {
            cells.push(v.map_or("-".to_string(), f3));
        }
        cells.push(row.winner.name().to_string());
        cells.push(mib(row.mem_high_water_bytes));
        cells.push(row.max_chunks.to_string());
        t.row(cells);
    }
    t.print();
    println!(
        "paper: shared-data wins allstate/covtype/cup98/year; direct wins SVHN/gisette;\n\
         shared-forest wins HOCK/cifar10/ijcnn1/phishing/letter; splitting wins Higgs/SUSY/hepmass/aloi"
    );
    write_json("fig5_strategies", result);
}

/// One (dataset, batch) row of Fig. 6.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Row {
    /// Dataset name.
    pub dataset: String,
    /// Batch size requested.
    pub batch: usize,
    /// Per-strategy throughput in [`Strategy::ALL`] order.
    pub throughput: Vec<Option<f64>>,
    /// Winning strategy.
    pub winner: Strategy,
    /// High-water simulated device-memory footprint (bytes).
    pub mem_high_water_bytes: u64,
    /// Largest chunk split any strategy needed (1 = unsplit).
    pub max_chunks: usize,
}

/// Fig. 6 record.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Result {
    /// One row per (dataset, batch size).
    pub rows: Vec<Fig6Row>,
}

/// The datasets Fig. 6 sweeps.
pub const FIG6_DATASETS: [&str; 2] = ["higgs", "svhn"];

/// Runs Fig. 6: batch-size sweep on the [`FIG6_DATASETS`] of `prepared`.
///
/// A [`HIGH_BATCH`] row is the run matrix's Fig. 5 launch (a fresh P100
/// engine's sweep of the same batch), so a dataset with a row in `fig5` is
/// projected from it instead of simulated again; pass an empty record to
/// simulate every row.
///
/// # Panics
///
/// Panics when `prepared` lacks one of them.
#[must_use]
pub fn run_fig6(env: &Env, prepared: &[Prepared], fig5: &Fig5Result) -> Fig6Result {
    let mut rows = Vec::new();
    for name in FIG6_DATASETS {
        let p = named(prepared, name);
        for batch in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
            // Smoke scale keeps mega-batches affordable by capping memory.
            if env.scale == Scale::Smoke && batch > 10_000 {
                continue;
            }
            let projected = fig5.rows.iter().find(|r| batch == HIGH_BATCH && r.dataset == name);
            let row = projected.cloned().unwrap_or_else(|| strategy_row(env, p, batch));
            rows.push(Fig6Row {
                dataset: row.dataset,
                batch,
                throughput: row.throughput,
                winner: row.winner,
                mem_high_water_bytes: row.mem_high_water_bytes,
                max_chunks: row.max_chunks,
            });
        }
    }
    Fig6Result { rows }
}

/// Prints Fig. 6 and writes its record.
pub fn report_fig6(result: &Fig6Result) {
    let mut t = Table::new(
        "Fig 6 — strategy throughput (samples/us) vs batch size, P100",
        &[
            "dataset",
            "batch",
            "shared data",
            "direct",
            "shared forest",
            "splitting",
            "winner",
            "mem hw (MiB)",
        ],
    );
    for row in &result.rows {
        let mut cells = vec![row.dataset.clone(), row.batch.to_string()];
        for v in &row.throughput {
            cells.push(v.map_or("-".to_string(), f3));
        }
        cells.push(row.winner.name().to_string());
        cells.push(mib(row.mem_high_water_bytes));
        t.row(cells);
    }
    t.print();
    println!("paper: on Higgs, shared-data wins below ~10K, splitting wins above");
    write_json("fig6_batch_size", result);
}
