//! Pins the simulated outcome of every strategy kernel, bit for bit.
//!
//! Each cell runs one strategy on one smoke-scale dataset under one image
//! (the adaptive format with its automatic storage mode, or forced into the
//! sparse mode with explicit children), one simulation detail and one block
//! size, and renders its `KernelResult` as integers and f64 bit patterns.
//! The rendered table must equal `strategy_bits.golden` line for line, so a
//! change to the strategy kernels that moves any simulated number by one ULP
//! fails here. On a mismatch the test prints the whole regenerated table.

use std::fmt::Write as _;

use tahoe::format::{DeviceForest, FormatConfig, LayoutPlan, StorageMode};
use tahoe::strategy::testutil::{context, Fixture};
use tahoe::strategy::{self, Strategy};
use tahoe_gpu_sim::coalesce::AccessStats;
use tahoe_gpu_sim::kernel::{Detail, KernelResult};
use tahoe_gpu_sim::memory::DeviceMemory;

const GOLDEN: &str = include_str!("strategy_bits.golden");

/// 64-bit FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn access(a: &AccessStats) -> String {
    format!("{}/{}/{}/{}", a.requested_bytes, a.fetched_bytes, a.transactions, a.steps)
}

fn render(k: &KernelResult) -> String {
    let busy_sum: f64 = k.thread_busy_per_block.iter().flatten().sum();
    let busy_hash = fnv(k.thread_busy_per_block.iter().flat_map(|block| {
        std::iter::once(block.len() as u64).chain(block.iter().map(|b| b.to_bits()))
    }));
    let levels_hash = fnv(k.levels.iter().flat_map(|(level, s)| {
        [
            u64::from(*level),
            s.distance_sum.to_bits(),
            s.distance_steps,
            s.access.requested_bytes,
            s.access.fetched_bytes,
            s.access.transactions,
            s.access.steps,
        ]
    }));
    format!(
        "grid={} tpb={} sampled={} concurrent={} total={:016x} block_redu={:016x} \
         global_redu={:016x} mean_wall={:016x} mean_critical={:016x} max_wall={:016x} \
         gmem={} smem={} steps={} active_lane_steps={} busy_sum={:016x} busy={:016x} \
         levels={}:{:016x}",
        k.grid_blocks,
        k.threads_per_block,
        k.sampled_blocks,
        k.concurrent_blocks,
        k.total_ns.to_bits(),
        k.block_reduction_wall_ns.to_bits(),
        k.global_reduction_ns.to_bits(),
        k.mean_block_wall_ns.to_bits(),
        k.mean_block_critical_ns.to_bits(),
        k.max_block_wall_ns.to_bits(),
        access(&k.gmem),
        access(&k.smem),
        k.steps,
        k.active_lane_steps,
        busy_sum.to_bits(),
        busy_hash,
        k.levels.len(),
        levels_hash,
    )
}

/// Rebuilds the fixture's device image (and its batch allocation, first,
/// as the fixture does) under `config`.
fn with_format(mut fx: Fixture, config: FormatConfig) -> Fixture {
    let mut mem = DeviceMemory::new();
    fx.sample_buf = mem.alloc((fx.samples.n_samples() * fx.samples.n_attributes() * 4) as u64);
    let plan = LayoutPlan::identity(&fx.forest);
    fx.device_forest = DeviceForest::build(&fx.forest, &plan, config, &mut mem);
    fx
}

fn table() -> String {
    let sparse_classic = FormatConfig {
        mode: Some(StorageMode::Sparse),
        ..FormatConfig::adaptive()
    };
    let encodings = [
        ("classic", FormatConfig::adaptive()),
        ("classic-sparse", sparse_classic),
    ];
    let mut out = String::new();
    for dataset in ["letter", "higgs", "ijcnn1"] {
        for (encoding, config) in encodings {
            let fx = with_format(Fixture::trained(dataset), config);
            for detail in [Detail::Sampled(4), Detail::Full] {
                for threads in [256, 32] {
                    let mut ctx = context(&fx, detail);
                    ctx.block_threads = threads;
                    for s in Strategy::ALL {
                        let cell = format!("{dataset} {encoding} {detail:?} t{threads} {s}:");
                        let line = match strategy::run(s, &ctx) {
                            Some(run) => render(&run.kernel),
                            None => "infeasible".to_owned(),
                        };
                        writeln!(out, "{cell} {line}").unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn strategy_kernel_results_are_pinned() {
    let actual = table();
    let mismatches: Vec<(usize, &str, &str)> = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .filter(|(_, (want, got))| want != got)
        .map(|(i, (want, got))| (i + 1, want, got))
        .collect();
    assert!(
        mismatches.is_empty() && GOLDEN.lines().count() == actual.lines().count(),
        "{} of {} cells differ (first: {:?}); regenerated table:\n{actual}",
        mismatches.len(),
        actual.lines().count(),
        mismatches.first(),
    );
}
