//! Offline hardware-parameter measurement (paper Algorithm 1, line 4).
//!
//! The paper measures Table 1's hardware parameters once per platform with
//! microbenchmarks; Tahoe's performance models then consume them. We do the
//! same against the simulator: tiny synthetic kernels measure *effective*
//! bandwidths and reduction rates, and the fitted values feed the `tahoe`
//! crate's Eq. 4–7 models. The models are analytic while the simulator is
//! trace-driven, so agreement between them is a meaningful (tested) property,
//! not a tautology.

use serde::{Deserialize, Serialize};

use crate::device::DeviceSpec;
use crate::kernel::{KernelResult, KernelSim};
use crate::warp::{WarpSim, MAX_WARP_LANES};

/// Measured hardware parameters (the "Hardware parameters" rows of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasuredParams {
    /// Effective shared-memory read bandwidth, device-wide (bytes/ns).
    pub bw_r_smem: f64,
    /// Effective shared-memory write bandwidth, device-wide (bytes/ns).
    pub bw_w_smem: f64,
    /// Effective global read bandwidth under coalesced access (bytes/ns).
    pub bw_r_gmem_coa: f64,
    /// Effective global read bandwidth under uncoalesced access (bytes/ns),
    /// in *requested* bytes per ns (the wasted transaction bytes are the
    /// difference from `bw_r_gmem_coa`).
    pub bw_r_gmem_ncoa: f64,
    /// Block-reduction cost slope (ns per participating thread).
    pub b_rate: f64,
    /// Block-reduction fixed cost (ns per invocation).
    pub b_base: f64,
    /// Global-reduction cost slope (ns per participating block).
    pub g_rate: f64,
    /// Global-reduction fixed cost (ns per invocation).
    pub g_base: f64,
    /// Measured global-memory access latency (ns per dependent step).
    pub lat_gmem: f64,
    /// Measured shared-memory access latency (ns per dependent step).
    pub lat_smem: f64,
}

/// Number of warp steps per microbenchmark warp.
const STREAM_STEPS: usize = 64;

/// Measures all parameters on `device`.
#[must_use]
pub fn measure(device: &DeviceSpec) -> MeasuredParams {
    let (b_base, b_rate) = fit_block_reduce(device);
    let (g_base, g_rate) = fit_global_reduce(device);
    // The simulator does not distinguish shared read/write costs (real
    // hardware is near-symmetric too), so one shared-memory stream measures
    // both of the paper's symbols.
    let bw_smem = smem_stream_bandwidth(device);
    MeasuredParams {
        bw_r_smem: bw_smem,
        bw_w_smem: bw_smem,
        bw_r_gmem_coa: gmem_stream_bandwidth(device, 4),
        bw_r_gmem_ncoa: gmem_stream_bandwidth(device, 4096),
        b_rate,
        b_base,
        g_rate,
        g_base,
        lat_gmem: pointer_chase_latency(device, false),
        lat_smem: pointer_chase_latency(device, true),
    }
}

/// Measures per-dependent-step latency with a single-warp pointer chase.
fn pointer_chase_latency(device: &DeviceSpec, shared: bool) -> f64 {
    const STEPS: usize = 512;
    let mut k = KernelSim::new(device, 1, 32, if shared { 1024 } else { 0 });
    k.simulate_blocks(&[0], |_, mut b| {
        let mut w = b.warp();
        for s in 0..STEPS {
            if shared {
                w.smem_access(&[0], 4);
            } else {
                // Strided single-lane chain: every step its own transaction.
                w.gmem_read(&[(0, 0x1000_0000 + (s as u64) * 4096)], 4, None);
            }
        }
        b.push_warp(w.finish());
        b.finish()
    });
    k.finish().total_ns / STEPS as f64
}

/// Runs a streaming kernel of `grid` blocks of `threads` threads in which
/// every warp replays `steps`.
///
/// All blocks are identical, and so are all warps of a block: one warp is
/// simulated and its trace is pushed once per warp of the one simulated
/// block, which the kernel extrapolates to the grid.
fn stream_kernel(
    device: &DeviceSpec,
    grid: usize,
    threads: usize,
    smem_per_block: usize,
    steps: impl Fn(&mut WarpSim) + Sync,
) -> KernelResult {
    let warps = threads / device.warp_size as usize;
    let mut k = KernelSim::new(device, grid, threads, smem_per_block);
    k.simulate_blocks(&[0], |_, mut b| {
        let mut w = b.warp();
        steps(&mut w);
        let warp = w.finish();
        for _ in 0..warps {
            b.push_warp(warp.clone());
        }
        b.finish()
    });
    k.finish()
}

/// Runs a bandwidth-saturating global-read kernel with the given inter-lane
/// stride; returns requested bytes per ns.
///
/// Step `s` reads one row of `lane_stride`-spaced lanes from
/// `base + s · 32 · lane_stride`, in every warp. The simulator models no
/// cache and a row's transaction count depends only on its alignment, so
/// this measures what warps streaming rows of their own would: every warp's
/// 64 rows see the same alignments for transactions of up to 8 KiB.
fn gmem_stream_bandwidth(device: &DeviceSpec, lane_stride: u64) -> f64 {
    let threads = 256usize;
    // Enough blocks for two full waves so the wave model is exercised.
    let grid = (crate::occupancy::concurrent_blocks(device, threads, 0) * 2).max(1);
    let lanes = device.warp_size as usize;
    let r = stream_kernel(device, grid, threads, 0, |w| {
        let mut accesses = [(0u8, 0u64); MAX_WARP_LANES];
        for s in 0..STREAM_STEPS {
            let base = 0x1000_0000u64 + s as u64 * lane_stride * 32;
            for (i, access) in accesses[..lanes].iter_mut().enumerate() {
                *access = (i as u8, base + i as u64 * lane_stride);
            }
            w.gmem_read(&accesses[..lanes], 4, None);
        }
    });
    r.gmem.requested_bytes as f64 / r.total_ns
}

/// Runs a shared-memory streaming kernel; returns bytes per ns.
fn smem_stream_bandwidth(device: &DeviceSpec) -> f64 {
    let threads = 256usize;
    let grid = crate::occupancy::concurrent_blocks(device, threads, 16 * 1024).max(1);
    let lanes: Vec<u8> = (0..device.warp_size as u8).collect();
    let r = stream_kernel(device, grid, threads, 16 * 1024, |w| {
        for _ in 0..STREAM_STEPS {
            w.smem_access(&lanes, 4);
        }
    });
    r.smem.requested_bytes as f64 / r.total_ns
}

/// Measures block-reduce cost at two thread counts and fits a line.
fn fit_block_reduce(device: &DeviceSpec) -> (f64, f64) {
    let cost = |threads: usize| -> f64 {
        let mut k = KernelSim::new(device, 1, threads, 0);
        k.simulate_blocks(&[0], |_, mut b| {
            // A reduction needs at least a token warp so the block is
            // non-empty.
            let mut w = b.warp();
            w.compute(&[0], 0.0);
            b.push_warp(w.finish());
            b.block_reduce(threads);
            b.finish()
        });
        k.finish().total_ns
    };
    let (t1, t2) = (128usize, 512usize);
    let (c1, c2) = (cost(t1), cost(t2));
    let rate = (c2 - c1) / (t2 - t1) as f64;
    let base = c1 - rate * t1 as f64;
    (base, rate)
}

/// Measures global-reduce cost at two block counts and fits a line.
fn fit_global_reduce(device: &DeviceSpec) -> (f64, f64) {
    let cost = |blocks: usize| -> f64 {
        let mut k = KernelSim::new(device, blocks, 32, 0);
        k.simulate_blocks(&[0], |_, mut b| {
            let mut w = b.warp();
            w.compute(&[0], 0.0);
            b.push_warp(w.finish());
            b.finish()
        });
        k.global_reduce(blocks);
        k.finish().global_reduction_ns
    };
    let (n1, n2) = (64usize, 512usize);
    let (c1, c2) = (cost(n1), cost(n2));
    let rate = (c2 - c1) / (n2 - n1) as f64;
    let base = c1 - rate * n1 as f64;
    (base, rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams as first written: every warp of the block simulated
    /// with rows of its own, and the shared-memory stream run once per
    /// symbol.
    fn every_warp_streams(device: &DeviceSpec) -> [f64; 4] {
        let warps = 256 / device.warp_size as usize;
        let gmem = |lane_stride: u64| {
            let grid = (crate::occupancy::concurrent_blocks(device, 256, 0) * 2).max(1);
            let mut k = KernelSim::new(device, grid, 256, 0);
            k.simulate_blocks(&[0], |_, mut b| {
                for w_idx in 0..warps {
                    let mut w = b.warp();
                    for s in 0..STREAM_STEPS {
                        let row = (w_idx * STREAM_STEPS + s) as u64;
                        let base = 0x1000_0000u64 + row * lane_stride * 32;
                        let accesses: Vec<(u8, u64)> = (0..device.warp_size as u64)
                            .map(|i| (i as u8, base + i * lane_stride))
                            .collect();
                        w.gmem_read(&accesses, 4, None);
                    }
                    b.push_warp(w.finish());
                }
                b.finish()
            });
            let r = k.finish();
            r.gmem.requested_bytes as f64 / r.total_ns
        };
        let smem = || {
            let grid = crate::occupancy::concurrent_blocks(device, 256, 16 * 1024).max(1);
            let mut k = KernelSim::new(device, grid, 256, 16 * 1024);
            let lanes: Vec<u8> = (0..device.warp_size as u8).collect();
            k.simulate_blocks(&[0], |_, mut b| {
                for _ in 0..warps {
                    let mut w = b.warp();
                    for _ in 0..STREAM_STEPS {
                        w.smem_access(&lanes, 4);
                    }
                    b.push_warp(w.finish());
                }
                b.finish()
            });
            let r = k.finish();
            r.smem.requested_bytes as f64 / r.total_ns
        };
        [smem(), smem(), gmem(4), gmem(4096)]
    }

    #[test]
    fn one_warp_streams_match_every_warp_simulated() {
        let mut devices = DeviceSpec::paper_devices();
        for transaction_bytes in [32, 512] {
            let mut d = DeviceSpec::tesla_p100();
            d.name = "P100 with other transactions";
            d.transaction_bytes = transaction_bytes;
            d.validate().unwrap();
            devices.push(d);
        }
        for d in &devices {
            let p = measure(d);
            let measured = [p.bw_r_smem, p.bw_w_smem, p.bw_r_gmem_coa, p.bw_r_gmem_ncoa];
            let reference = every_warp_streams(d);
            assert_eq!(
                measured.map(f64::to_bits),
                reference.map(f64::to_bits),
                "{} ({} B transactions): {measured:?} vs {reference:?}",
                d.name,
                d.transaction_bytes
            );
        }
    }

    #[test]
    fn reduce_fits_recover_device_constants() {
        for d in DeviceSpec::paper_devices() {
            let p = measure(&d);
            assert!(
                (p.b_rate - d.block_reduce_ns_per_thread).abs() < 1e-6,
                "{}: fitted B_rate {} vs spec {}",
                d.name,
                p.b_rate,
                d.block_reduce_ns_per_thread
            );
            assert!((p.g_rate - d.global_reduce_ns_per_block).abs() < 1e-6);
            assert!((p.b_base - d.block_reduce_base_ns).abs() < 1e-3);
            assert!((p.g_base - d.global_reduce_base_ns).abs() < 1e-3);
        }
    }

    #[test]
    fn coalesced_bandwidth_exceeds_uncoalesced() {
        for d in DeviceSpec::paper_devices() {
            let p = measure(&d);
            assert!(
                p.bw_r_gmem_coa > 3.0 * p.bw_r_gmem_ncoa,
                "{}: coalesced {} vs uncoalesced {}",
                d.name,
                p.bw_r_gmem_coa,
                p.bw_r_gmem_ncoa
            );
        }
    }

    #[test]
    fn effective_bandwidth_is_below_peak() {
        for d in DeviceSpec::paper_devices() {
            let p = measure(&d);
            assert!(p.bw_r_gmem_coa <= d.gmem_bytes_per_ns * 1.001);
            assert!(p.bw_r_smem <= d.smem_bytes_per_ns * 1.001);
            assert!(p.bw_r_gmem_coa > 0.1 * d.gmem_bytes_per_ns);
        }
    }

    #[test]
    fn newer_generations_measure_faster() {
        let k80 = measure(&DeviceSpec::tesla_k80());
        let v100 = measure(&DeviceSpec::tesla_v100());
        assert!(v100.bw_r_gmem_coa > k80.bw_r_gmem_coa);
        assert!(v100.b_rate < k80.b_rate);
    }

    #[test]
    fn pointer_chase_recovers_latencies() {
        for d in DeviceSpec::paper_devices() {
            let p = measure(&d);
            assert!(
                (p.lat_gmem - d.gmem_latency_ns).abs() / d.gmem_latency_ns < 0.05,
                "{}: measured {} vs spec {}",
                d.name,
                p.lat_gmem,
                d.gmem_latency_ns
            );
            assert!((p.lat_smem - d.smem_latency_ns).abs() / d.smem_latency_ns < 0.05);
            assert!(p.lat_gmem > p.lat_smem);
        }
    }
}
