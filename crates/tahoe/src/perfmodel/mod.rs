//! Performance models for the four inference strategies (paper §6.1,
//! Eq. 1–7); model-guided selection (§6.2) ranks them in [`crate::tune`].
//!
//! The models consume the Table 1 notation: sample/forest parameters gathered
//! from the workload ([`ModelInputs`]) and hardware parameters measured
//! offline by microbenchmarks ([`tahoe_gpu_sim::microbench::measure`],
//! Algorithm 1 line 4). They predict a per-sample cost for each strategy;
//! [`crate::tune::sweep`] evaluates them over every launch shape and the
//! engine runs the cheapest.
//!
//! # Extensions over the paper's Eq. 1–7 (documented in `DESIGN.md`)
//!
//! The paper's models are bandwidth-only. On the authors' hardware, at their
//! batch sizes, latency was always hidden by occupancy, so that sufficed. At
//! reproduction scale the latency-bound regime is reachable (small batches,
//! low-occupancy launches), so the model adds a *serial-chain* roofline term:
//! each strategy has a per-sample dependent-access chain `C` (levels ×
//! measured latency), executed across `parallel_eff` samples in flight
//! (occupancy-limited blocks × samples per block). The per-sample estimate is
//!
//! ```text
//! T = max(T_SMEM + T_GMEM,  (C + T_B_REDU) / parallel_eff) + T_G_REDU
//! ```
//!
//! where `T_SMEM`/`T_GMEM` are the paper's Eq. 4–7 bandwidth terms verbatim
//! (with the splitting strategy's staging scaled by its sample-tiling factor)
//! and `T_B_REDU` is the block-reduction cost — charged per sample and, like
//! any other block-serial work, amortized across concurrent blocks. The
//! selection-accuracy experiment (§7.3) validates this extended model against
//! the simulator.
//!
//! Shared data's chain counts the dependent reads of the block's critical
//! warp ([`shared_data_chain`]). Layout tree `t` goes to thread `t mod
//! threads`, so warp `w` of a `W`-warp block walks the aligned 32-tree
//! layout groups `w, w + W, w + 2W, …` in lockstep, and the block waits for
//! its slowest warp. Each group lasts as long as its deepest lane: `D_g`
//! levels of a node read plus a staged attribute read, then the leaf read
//! that ends the walk. So the chain is
//!
//! ```text
//! C = max over warps w of  Σ_{g ∈ w} (D_g × (lat_gmem + lat_smem) + lat_gmem)
//! ```
//!
//! with `D_g` the deepest tree of group `g` in layout order
//! ([`crate::format::DeviceForest::tree_depths`]). This is what lets
//! [`crate::tune::sweep`] rank block sizes: rounds charged at the forest's
//! mean group depth miss which warp draws the deep groups at a given block
//! size, and the leaf read that ends every walk. The Eq. 4 bandwidth terms
//! keep the mean depth `D_tree`.

pub mod calibrate;

pub use calibrate::Calibrator;

use serde::{Deserialize, Serialize};

use tahoe_datasets::SampleMatrix;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::occupancy::concurrent_blocks;
use tahoe_gpu_sim::MeasuredParams;

use crate::format::DeviceForest;
use crate::strategy::{Geometry, Strategy};

/// Workload parameters of Table 1 (sample + forest rows).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelInputs {
    /// Size of one sample in bytes (`S_sample`).
    pub s_sample: f64,
    /// Samples per batch (`N_batch`).
    pub n_batch: f64,
    /// Mean tree depth (`D_tree`).
    pub d_tree: f64,
    /// Number of trees (`N_trees`).
    pub n_trees: f64,
    /// Encoded node size in bytes (`S_node`).
    pub s_node: f64,
    /// Attribute size in bytes (`S_att`).
    pub s_att: f64,
    /// Mean nodes per tree (`N_nodes`).
    pub n_nodes: f64,
    /// Forest shared-memory footprint in bytes (`S_forest`).
    pub s_forest: f64,
}

impl ModelInputs {
    /// Gathers the inputs from a device forest, its structure summary
    /// (`forest.forest_stats()`) and its batch.
    #[must_use]
    pub fn gather(
        forest: &DeviceForest,
        host_stats: &tahoe_forest::ForestStats,
        samples: &SampleMatrix,
    ) -> Self {
        Self {
            s_sample: samples.sample_bytes() as f64,
            n_batch: samples.n_samples() as f64,
            d_tree: host_stats.avg_depth,
            n_trees: forest.n_trees() as f64,
            s_node: forest.node_bytes() as f64,
            s_att: 4.0,
            n_nodes: host_stats.avg_nodes_per_tree(),
            s_forest: forest.forest_smem_bytes() as f64,
        }
    }
}

/// Lanes per warp on every modelled device: shared data walks this many
/// layout trees in lockstep per warp round.
pub const WARP_LANES: usize = 32;

/// Shared data's per-sample serial chain in a block of `threads` threads:
/// the dependent reads of its slowest warp, from the tree depths in layout
/// order.
///
/// Warp `w` of the block's `W` warps walks the aligned [`WARP_LANES`]-tree
/// layout groups `w, w + W, w + 2W, …`. A group costs its deepest tree's
/// `D_g` levels of a node read (`lat_gmem`) plus a staged attribute read
/// (`lat_smem`), then one leaf read (`lat_gmem`). With equal depths `D` this
/// is `ceil(N_trees / threads) × (D × (lat_gmem + lat_smem) + lat_gmem)`.
#[must_use]
pub fn shared_data_chain(layout_depths: &[u32], threads: usize, hw: &MeasuredParams) -> f64 {
    let warps = threads.div_ceil(WARP_LANES).max(1);
    // Per warp: summed group depth and group count.
    let mut work = vec![(0u64, 0u64); warps];
    for (g, group) in layout_depths.chunks(WARP_LANES).enumerate() {
        let w = &mut work[g % warps];
        w.0 += u64::from(group.iter().copied().max().unwrap_or(0));
        w.1 += 1;
    }
    work.iter()
        .map(|&(depth, groups)| {
            depth as f64 * (hw.lat_gmem + hw.lat_smem) + groups as f64 * hw.lat_gmem
        })
        .fold(0.0, f64::max)
}

/// A per-strategy cost prediction (per-sample ns).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Strategy modelled.
    pub strategy: Strategy,
    /// Shared-memory bandwidth term (`T_SMEM`, Eq. 4–7).
    pub t_smem: f64,
    /// Global-memory bandwidth term (`T_GMEM`, Eq. 4–7).
    pub t_gmem: f64,
    /// Serial-chain (latency) term, already amortized over in-flight samples.
    pub t_serial: f64,
    /// Block-reduction term (`T_B_REDU`), amortized like serial work.
    pub t_b_redu: f64,
    /// Global-reduction term (`T_G_REDU`).
    pub t_g_redu: f64,
}

impl Prediction {
    /// Total predicted per-sample time (latency/bandwidth roofline).
    #[must_use]
    pub fn total(&self) -> f64 {
        (self.t_smem + self.t_gmem).max(self.t_serial + self.t_b_redu) + self.t_g_redu
    }
}

/// Per-sample wall-clock share of a strategy's serial chain, accounting for
/// occupancy waves and within-block serialization.
///
/// `chain` is the dependent-access time of processing one sample's share of
/// work in one block. The launch runs `ceil(grid / occupancy)` waves; within
/// a block, samples are processed in `rounds` serial passes (one staged
/// sample at a time for shared data; `threads` samples in parallel for the
/// thread-per-sample strategies). Wave quantization matters: a grid of 4.1×
/// the device's concurrency really costs 5 waves.
fn serial_per_sample(
    strategy: Strategy,
    geometry: &Geometry,
    device: &DeviceSpec,
    n_batch: f64,
    chain: f64,
) -> f64 {
    let occ = concurrent_blocks(device, geometry.threads_per_block, geometry.smem_per_block)
        .max(1) as f64;
    let grid = geometry.grid_blocks.max(1) as f64;
    let waves = (grid / occ).ceil().max(1.0);
    let samples_per_block = match strategy {
        Strategy::SharedData | Strategy::Direct | Strategy::SharedForest => n_batch / grid,
        // Each sample is processed by all P parts; a block's tile holds
        // n × P / grid samples.
        Strategy::SplittingSharedForest => {
            n_batch * geometry.parts.max(1) as f64 / grid
        }
    };
    let rounds = match strategy {
        // One staged sample at a time.
        Strategy::SharedData => samples_per_block.max(1.0),
        // One sample per thread, level-synchronous across the block.
        Strategy::Direct | Strategy::SharedForest | Strategy::SplittingSharedForest => {
            (samples_per_block / geometry.threads_per_block as f64).ceil().max(1.0)
        }
    };
    waves * rounds * chain / n_batch.max(1.0)
}

/// Predicts one strategy's per-sample cost (Eq. 4–7 + latency extension).
/// `layout_depths` are the tree depths in layout order (shared data's
/// chain, [`shared_data_chain`]).
#[must_use]
pub fn predict(
    strategy: Strategy,
    inputs: &ModelInputs,
    layout_depths: &[u32],
    hw: &MeasuredParams,
    geometry: &Geometry,
    device: &DeviceSpec,
) -> Prediction {
    let i = inputs;
    let traverse_bytes = i.d_tree * i.n_trees * i.s_node;
    let attr_bytes = i.d_tree * i.n_trees * i.s_att;
    let serial = |chain: f64| serial_per_sample(strategy, geometry, device, i.n_batch, chain);
    match strategy {
        // Eq. 4: samples staged in shared memory, forest from global memory
        // with "improved memory coalescence using half of bandwidth".
        Strategy::SharedData => {
            let chain = shared_data_chain(layout_depths, geometry.threads_per_block, hw);
            let reduce_values = (i.n_trees as usize).min(geometry.threads_per_block) as f64;
            let reduce = hw.b_base + hw.b_rate * reduce_values;
            Prediction {
                strategy,
                t_smem: i.s_sample / hw.bw_w_smem + attr_bytes / hw.bw_r_smem,
                t_gmem: i.s_sample / hw.bw_r_gmem_coa
                    + traverse_bytes / (hw.bw_r_gmem_coa / 2.0),
                t_serial: serial(chain),
                // The per-sample reduction serializes with the chain.
                t_b_redu: serial(reduce),
                t_g_redu: 0.0,
            }
        }
        // Eq. 5: everything from global memory; reduction-free.
        Strategy::Direct => {
            let chain = i.n_trees * i.d_tree * 2.0 * hw.lat_gmem;
            Prediction {
                strategy,
                t_smem: 0.0,
                t_gmem: traverse_bytes / (hw.bw_r_gmem_coa / 2.0)
                    + attr_bytes / hw.bw_r_gmem_ncoa,
                t_serial: serial(chain),
                t_b_redu: 0.0,
                t_g_redu: 0.0,
            }
        }
        // Eq. 6: forest resident in shared memory (load amortized away);
        // attributes from global memory, uncoalesced.
        Strategy::SharedForest => {
            let chain = i.n_trees * i.d_tree * (hw.lat_smem + hw.lat_gmem);
            Prediction {
                strategy,
                t_smem: traverse_bytes / hw.bw_r_smem,
                t_gmem: attr_bytes / hw.bw_r_gmem_ncoa,
                t_serial: serial(chain),
                t_b_redu: 0.0,
                t_g_redu: 0.0,
            }
        }
        // Eq. 7: forest restaged per sample tile; global reduction per batch.
        Strategy::SplittingSharedForest => {
            let parts = geometry.parts.max(1) as f64;
            let staged_bytes = i.n_nodes * i.n_trees * i.s_node * geometry.tiles() as f64;
            let chain = (i.n_trees / parts) * i.d_tree * (hw.lat_smem + hw.lat_gmem);
            Prediction {
                strategy,
                t_smem: staged_bytes / (hw.bw_w_smem * i.n_batch)
                    + traverse_bytes / hw.bw_r_smem,
                t_gmem: staged_bytes / (hw.bw_r_gmem_coa * i.n_batch)
                    + attr_bytes / hw.bw_r_gmem_ncoa,
                t_serial: serial(chain),
                t_b_redu: 0.0,
                t_g_redu: (hw.g_base + hw.g_rate * parts) / i.n_batch
                    + parts * 4.0 / hw.bw_r_gmem_coa,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::kernel::Detail;
    use tahoe_gpu_sim::measure;

    fn setup(name: &str) -> (Fixture, ModelInputs, MeasuredParams) {
        let fx = Fixture::trained(name);
        let stats = fx.device_forest.forest_stats();
        let inputs = ModelInputs::gather(&fx.device_forest, stats, &fx.samples);
        let hw = measure(&fx.device);
        (fx, inputs, hw)
    }

    #[test]
    fn inputs_gather_table1_notation() {
        let (fx, inputs, _) = setup("letter");
        assert_eq!(inputs.s_sample, 64.0); // 16 attrs x 4 B.
        assert_eq!(inputs.n_batch, fx.samples.n_samples() as f64);
        assert!(inputs.d_tree > 1.0 && inputs.d_tree <= 4.0);
        assert!(inputs.s_node >= 6.0);
    }

    #[test]
    fn predictions_are_positive_and_decomposed() {
        let (fx, inputs, hw) = setup("letter");
        let ctx = context(&fx, Detail::Sampled(1));
        for s in Strategy::ALL {
            let geo = crate::strategy::geometry(s, &ctx).unwrap();
            let p = predict(s, &inputs, fx.device_forest.tree_depths(), &hw, &geo, ctx.device);
            assert!(p.total() > 0.0, "{s}");
            assert!(p.t_smem >= 0.0 && p.t_gmem >= 0.0 && p.t_serial > 0.0, "{s}");
        }
    }

    #[test]
    fn reduction_terms_match_strategy_semantics() {
        let (fx, inputs, hw) = setup("letter");
        let ctx = context(&fx, Detail::Sampled(1));
        for s in Strategy::ALL {
            let geo = crate::strategy::geometry(s, &ctx).unwrap();
            let p = predict(s, &inputs, fx.device_forest.tree_depths(), &hw, &geo, ctx.device);
            assert_eq!(p.t_b_redu > 0.0, s.has_block_reduction(), "{s}");
            assert_eq!(p.t_g_redu > 0.0, s.has_global_reduction(), "{s}");
        }
    }

    #[test]
    fn bigger_batch_amortizes_splitting_costs() {
        let (fx, inputs, hw) = setup("higgs");
        let ctx = context(&fx, Detail::Sampled(1));
        let geo = crate::strategy::geometry(Strategy::SplittingSharedForest, &ctx).unwrap();
        let small = ModelInputs {
            n_batch: 100.0,
            ..inputs
        };
        let large = ModelInputs {
            n_batch: 100_000.0,
            ..inputs
        };
        let depths = fx.device_forest.tree_depths();
        let ps = predict(Strategy::SplittingSharedForest, &small, depths, &hw, &geo, ctx.device);
        let pl = predict(Strategy::SplittingSharedForest, &large, depths, &hw, &geo, ctx.device);
        assert!(pl.t_g_redu < ps.t_g_redu);
        assert!(pl.t_smem < ps.t_smem);
    }

    #[test]
    fn latency_term_shrinks_with_batch_parallelism() {
        // The serial-chain term must amortize as more samples fill the
        // device (the mechanism behind shared-data winning small batches).
        let (fx, inputs, hw) = setup("higgs");
        let ctx = context(&fx, Detail::Sampled(1));
        let geo = crate::strategy::geometry(Strategy::SharedForest, &ctx).unwrap();
        let small_geo = Geometry {
            grid_blocks: 1,
            ..geo
        };
        let depths = fx.device_forest.tree_depths();
        let small = predict(
            Strategy::SharedForest,
            &ModelInputs {
                n_batch: 64.0,
                ..inputs
            },
            depths,
            &hw,
            &small_geo,
            ctx.device,
        );
        let large = predict(Strategy::SharedForest, &inputs, depths, &hw, &geo, ctx.device);
        assert!(large.t_serial < small.t_serial);
    }
}
