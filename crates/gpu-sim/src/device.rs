//! Simulated GPU device descriptions.
//!
//! One [`DeviceSpec`] per GPU generation used in the paper's evaluation
//! (Tesla K80 / Kepler, Tesla P100 / Pascal, Tesla V100 / Volta). Structural
//! parameters (SM count, shared-memory sizes, warp and transaction sizes)
//! come from the public datasheets; timing constants (latencies, reduction
//! rates, per-node compute cost) are calibrated so the simulated kernels
//! reproduce the *relative* effects the paper measures (reduction share,
//! coalescing sensitivity, bandwidth ratios across generations).

use serde::{Deserialize, Serialize};

/// GPU microarchitecture generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Tesla K80 generation.
    Kepler,
    /// Tesla P100 generation.
    Pascal,
    /// Tesla V100 generation.
    Volta,
}

/// Parameters of a simulated GPU.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"Tesla P100"`.
    pub name: &'static str,
    /// Microarchitecture generation.
    pub arch: Arch,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Threads per warp (32 on every NVIDIA generation).
    pub warp_size: u32,
    /// Maximum threads per thread block.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory available to one block (bytes).
    pub shared_mem_per_block: usize,
    /// Shared memory per SM (bytes) — bounds block residency.
    pub shared_mem_per_sm: usize,
    /// Global-memory transaction size (bytes); accesses within one
    /// transaction are coalesced.
    pub transaction_bytes: u64,
    /// Peak global-memory bandwidth (bytes per nanosecond = GB/s ÷ 1e0).
    pub gmem_bytes_per_ns: f64,
    /// Aggregate shared-memory bandwidth (bytes per nanosecond).
    pub smem_bytes_per_ns: f64,
    /// Global-memory access latency (ns) — the per-dependent-step cost on a
    /// warp's critical path.
    pub gmem_latency_ns: f64,
    /// Memory-level parallelism: independent loads a warp keeps in flight.
    /// Dependent (pointer-chase) accesses pay full latency per step;
    /// streaming accesses pay `latency / mlp` on the critical path.
    pub mlp: f64,
    /// Shared-memory access latency (ns).
    pub smem_latency_ns: f64,
    /// Compute cost of evaluating one decision node for a warp step (ns).
    pub node_eval_ns: f64,
    /// Block-wide reduction cost: ns per participating thread
    /// (the performance models' `B_rate`, Eq. 2).
    pub block_reduce_ns_per_thread: f64,
    /// Fixed block-wide reduction overhead per invocation (ns).
    pub block_reduce_base_ns: f64,
    /// Device-wide segmented reduction cost: ns per participating block
    /// (the performance models' `G_rate`, Eq. 3).
    pub global_reduce_ns_per_block: f64,
    /// Fixed device-wide reduction overhead per invocation (ns).
    pub global_reduce_base_ns: f64,
    /// Device DRAM capacity in bytes — bounds every simulated allocation
    /// (see `memory::DeviceMemory::for_device`).
    pub dram_bytes: u64,
}

impl DeviceSpec {
    /// Tesla K80 (one GK210 die), Kepler generation.
    #[must_use]
    pub fn tesla_k80() -> Self {
        Self {
            name: "Tesla K80",
            arch: Arch::Kepler,
            num_sms: 13,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 48 * 1024,
            transaction_bytes: 128,
            gmem_bytes_per_ns: 240.0,
            smem_bytes_per_ns: 1_300.0,
            gmem_latency_ns: 600.0,
            mlp: 6.0,
            smem_latency_ns: 42.0,
            node_eval_ns: 6.0,
            block_reduce_ns_per_thread: 42.0,
            block_reduce_base_ns: 2_600.0,
            global_reduce_ns_per_block: 110.0,
            global_reduce_base_ns: 2_800.0,
            dram_bytes: 12 << 30, // One GK210 die owns half the board's 24 GB.
        }
    }

    /// Tesla P100, Pascal generation.
    #[must_use]
    pub fn tesla_p100() -> Self {
        Self {
            name: "Tesla P100",
            arch: Arch::Pascal,
            num_sms: 56,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 64 * 1024,
            transaction_bytes: 128,
            gmem_bytes_per_ns: 732.0,
            smem_bytes_per_ns: 7_700.0,
            gmem_latency_ns: 320.0,
            mlp: 8.0,
            smem_latency_ns: 26.0,
            node_eval_ns: 2.8,
            block_reduce_ns_per_thread: 26.0,
            block_reduce_base_ns: 1_500.0,
            global_reduce_ns_per_block: 55.0,
            global_reduce_base_ns: 1_600.0,
            dram_bytes: 16 << 30,
        }
    }

    /// Tesla V100, Volta generation.
    #[must_use]
    pub fn tesla_v100() -> Self {
        Self {
            name: "Tesla V100",
            arch: Arch::Volta,
            num_sms: 80,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_block: 96 * 1024,
            shared_mem_per_sm: 96 * 1024,
            transaction_bytes: 128,
            gmem_bytes_per_ns: 900.0,
            smem_bytes_per_ns: 13_800.0,
            gmem_latency_ns: 280.0,
            mlp: 10.0,
            smem_latency_ns: 22.0,
            node_eval_ns: 2.0,
            block_reduce_ns_per_thread: 20.0,
            block_reduce_base_ns: 1_200.0,
            global_reduce_ns_per_block: 45.0,
            global_reduce_base_ns: 1_300.0,
            dram_bytes: 16 << 30,
        }
    }

    /// The three devices of the paper's evaluation, in generation order.
    #[must_use]
    pub fn paper_devices() -> Vec<DeviceSpec> {
        vec![Self::tesla_k80(), Self::tesla_p100(), Self::tesla_v100()]
    }

    /// An idealized device with effectively unbounded parallelism — the
    /// "infinite-SM" ablation of `DESIGN.md` §4.2.
    #[must_use]
    pub fn infinite_sms() -> Self {
        Self {
            name: "Infinite-SM",
            num_sms: 1_000_000,
            dram_bytes: 1 << 40,
            ..Self::tesla_v100()
        }
    }

    /// A copy of the spec running `slowdown`× slower than nominal: every
    /// latency and per-step cost scales up by `slowdown`, both bandwidths
    /// scale down by it — the coherent effect of a lower boost clock, so
    /// the roofline invariant is preserved. Capacities, geometry, and
    /// memory-level parallelism are silicon, not clocks, and are unchanged.
    ///
    /// Models the "silicon lottery": nominally identical boards in one
    /// chassis sustain slightly different clocks (binning, thermals). A
    /// multi-GPU cluster uses this to give replicated devices distinct but
    /// deterministic execution speeds.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown` is finite and >= 1 (a device cannot beat
    /// its own nominal calibration).
    #[must_use]
    pub fn downclocked(&self, slowdown: f64) -> Self {
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "slowdown must be finite and >= 1, got {slowdown}"
        );
        Self {
            gmem_bytes_per_ns: self.gmem_bytes_per_ns / slowdown,
            smem_bytes_per_ns: self.smem_bytes_per_ns / slowdown,
            gmem_latency_ns: self.gmem_latency_ns * slowdown,
            smem_latency_ns: self.smem_latency_ns * slowdown,
            node_eval_ns: self.node_eval_ns * slowdown,
            block_reduce_ns_per_thread: self.block_reduce_ns_per_thread * slowdown,
            block_reduce_base_ns: self.block_reduce_base_ns * slowdown,
            global_reduce_ns_per_block: self.global_reduce_ns_per_block * slowdown,
            global_reduce_base_ns: self.global_reduce_base_ns * slowdown,
            ..self.clone()
        }
    }

    /// Validates internal consistency; returns a description of the first
    /// violated invariant.
    ///
    /// # Errors
    ///
    /// Returns `Err` when a structural parameter is degenerate (zero sizes,
    /// shared memory per block exceeding per SM, non-positive rates,
    /// negative fixed overheads, a block size that is not a whole number of
    /// warps, or zero DRAM).
    pub fn validate(&self) -> Result<(), String> {
        if self.warp_size == 0 || self.num_sms == 0 {
            return Err(format!("{}: zero warp size or SM count", self.name));
        }
        if self.max_threads_per_block == 0
            || !self.max_threads_per_block.is_multiple_of(self.warp_size)
        {
            return Err(format!(
                "{}: max threads per block must be a positive multiple of the warp size",
                self.name
            ));
        }
        if self.dram_bytes == 0 {
            return Err(format!("{}: zero DRAM capacity", self.name));
        }
        if self.shared_mem_per_block > self.shared_mem_per_sm {
            return Err(format!(
                "{}: shared mem per block exceeds per-SM capacity",
                self.name
            ));
        }
        if self.transaction_bytes == 0 || !self.transaction_bytes.is_power_of_two() {
            return Err(format!("{}: transaction size must be a power of two", self.name));
        }
        let positive = [
            self.mlp,
            self.gmem_bytes_per_ns,
            self.smem_bytes_per_ns,
            self.gmem_latency_ns,
            self.smem_latency_ns,
            self.node_eval_ns,
            self.block_reduce_ns_per_thread,
            self.global_reduce_ns_per_block,
        ];
        if positive.iter().any(|&v| v <= 0.0) {
            return Err(format!("{}: non-positive timing constant", self.name));
        }
        // Fixed overheads may be zero (an idealized device) but never
        // negative — a negative base would let big launches go back in time.
        if self.block_reduce_base_ns < 0.0 || self.global_reduce_base_ns < 0.0 {
            return Err(format!("{}: negative reduction base overhead", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_devices_are_valid_and_ordered() {
        let devs = DeviceSpec::paper_devices();
        assert_eq!(devs.len(), 3);
        for d in &devs {
            d.validate().unwrap();
        }
        // Bandwidth and latency must improve across generations.
        assert!(devs[0].gmem_bytes_per_ns < devs[1].gmem_bytes_per_ns);
        assert!(devs[1].gmem_bytes_per_ns < devs[2].gmem_bytes_per_ns);
        assert!(devs[0].gmem_latency_ns > devs[2].gmem_latency_ns);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut d = DeviceSpec::tesla_k80();
        d.shared_mem_per_block = d.shared_mem_per_sm + 1;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::tesla_k80();
        d.transaction_bytes = 100;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::tesla_k80();
        d.node_eval_ns = 0.0;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::tesla_k80();
        d.block_reduce_base_ns = -1.0;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::tesla_k80();
        d.global_reduce_base_ns = -0.5;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::tesla_k80();
        d.max_threads_per_block = 1000; // Not a multiple of 32.
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::tesla_k80();
        d.dram_bytes = 0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn zero_reduce_base_is_allowed() {
        let mut d = DeviceSpec::tesla_v100();
        d.block_reduce_base_ns = 0.0;
        d.global_reduce_base_ns = 0.0;
        d.validate().unwrap();
    }

    #[test]
    fn paper_devices_have_datasheet_dram() {
        assert_eq!(DeviceSpec::tesla_k80().dram_bytes, 12 << 30);
        assert_eq!(DeviceSpec::tesla_p100().dram_bytes, 16 << 30);
        assert_eq!(DeviceSpec::tesla_v100().dram_bytes, 16 << 30);
        assert!(DeviceSpec::infinite_sms().dram_bytes > 16 << 30);
    }

    #[test]
    fn infinite_sm_device_is_valid() {
        DeviceSpec::infinite_sms().validate().unwrap();
    }

    #[test]
    fn shared_memory_grows_with_generation() {
        let devs = DeviceSpec::paper_devices();
        assert!(devs[2].shared_mem_per_block > devs[0].shared_mem_per_block);
    }

    #[test]
    fn downclocked_scales_times_up_and_bandwidth_down() {
        let base = DeviceSpec::tesla_v100();
        let slow = base.downclocked(1.01);
        slow.validate().unwrap();
        assert!(slow.gmem_latency_ns > base.gmem_latency_ns);
        assert!(slow.node_eval_ns > base.node_eval_ns);
        assert!(slow.gmem_bytes_per_ns < base.gmem_bytes_per_ns);
        assert!(slow.smem_bytes_per_ns < base.smem_bytes_per_ns);
        // Silicon (capacity/geometry) is untouched by a clock change.
        assert_eq!(slow.num_sms, base.num_sms);
        assert_eq!(slow.dram_bytes, base.dram_bytes);
        assert_eq!(slow.mlp.to_bits(), base.mlp.to_bits());
        // Unit slowdown is the identity.
        assert_eq!(base.downclocked(1.0), base);
    }

    #[test]
    #[should_panic(expected = "slowdown must be finite and >= 1")]
    fn overclocking_is_rejected() {
        let _ = DeviceSpec::tesla_v100().downclocked(0.99);
    }
}
