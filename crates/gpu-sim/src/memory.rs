//! Simulated device address spaces.
//!
//! The simulator never stores data at these addresses — kernels keep their
//! functional data in ordinary Rust slices. Addresses exist purely so the
//! coalescing analyzer can reason about which accesses share a memory
//! transaction, exactly as `nvprof`'s global-load-efficiency counters do.
//!
//! [`DeviceMemory`] models a real `cudaMalloc`/`cudaFree` heap: allocations
//! occupy 256-byte-aligned spans, freed spans are coalesced and reused, and
//! the heap is bounded by the device's DRAM capacity
//! ([`DeviceSpec::dram_bytes`]). Capacity is enforced on the *aligned* spans
//! (what actually occupies DRAM), so [`DeviceMemory::try_alloc`] fails with
//! [`OomError`] exactly when a real allocator would.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::device::DeviceSpec;
use crate::telemetry::{Counter, MemoryOp, TelemetrySink};

/// Base of the simulated global address space (arbitrary, non-zero so that
/// address arithmetic bugs surface as wild addresses rather than plausible
/// small offsets).
pub const GLOBAL_BASE: u64 = 0x1_0000_0000;

/// Allocation granularity: `cudaMalloc` guarantees at least 256-byte
/// alignment, and every span the allocator hands out is a multiple of this.
pub const ALLOC_ALIGN: u64 = 256;

/// Simulated device-memory exhaustion (the analogue of
/// `cudaErrorMemoryAllocation`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OomError {
    /// Bytes the failing request asked for.
    pub requested_bytes: u64,
    /// Aligned bytes in use at the time of the request.
    pub in_use_bytes: u64,
    /// Device DRAM capacity.
    pub capacity_bytes: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated device OOM: requested {} B with {} B of {} B in use",
            self.requested_bytes, self.in_use_bytes, self.capacity_bytes
        )
    }
}

impl std::error::Error for OomError {}

/// A capacity-bounded free-list allocator for simulated global memory.
///
/// Freed spans are merged with adjacent free spans and reused first-fit;
/// a free span that reaches the bump frontier shrinks the frontier back, so
/// a steady alloc/free workload stays at a constant footprint instead of
/// marching through the address space.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    /// Bump frontier: every address at or above this is virgin. Always a
    /// multiple of [`ALLOC_ALIGN`].
    next: u64,
    /// Aligned bytes currently live.
    in_use: u64,
    /// Largest value `in_use` has reached.
    high_water: u64,
    /// DRAM capacity in bytes; allocations beyond this fail.
    capacity: u64,
    /// Live spans: base → aligned span size. Guards double/foreign frees.
    live: BTreeMap<u64, u64>,
    /// Free spans below the frontier: base → aligned span size. Adjacent
    /// entries are always merged.
    free_list: BTreeMap<u64, u64>,
    /// Telemetry sink mirroring alloc/free/OOM activity and the in-use /
    /// high-water gauges ([`TelemetrySink::Disabled`] by default: no-ops).
    sink: TelemetrySink,
}

impl Default for DeviceMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceMemory {
    /// A fresh, effectively unbounded address space (for unit tests and
    /// host-side scratch where capacity is not the point).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(u64::MAX)
    }

    /// A fresh address space bounded at `capacity` bytes of DRAM.
    #[must_use]
    pub fn with_capacity(capacity: u64) -> Self {
        Self {
            next: GLOBAL_BASE,
            in_use: 0,
            high_water: 0,
            capacity,
            live: BTreeMap::new(),
            free_list: BTreeMap::new(),
            sink: TelemetrySink::Disabled,
        }
    }

    /// Mirrors this allocator's activity into `sink`: the footprint now,
    /// then after every successful allocation and free (one
    /// [`MemoryOp`] event each), and a [`Counter::DeviceOomEvents`]
    /// increment per failed request.
    pub fn attach_telemetry(&mut self, sink: &TelemetrySink) {
        self.sink = sink.clone();
        self.record(MemoryOp::Attach);
    }

    fn record(&self, op: MemoryOp) {
        self.sink.record_memory(op, self.in_use, self.high_water);
    }

    /// A fresh address space sized to a device's DRAM.
    #[must_use]
    pub fn for_device(device: &DeviceSpec) -> Self {
        Self::with_capacity(device.dram_bytes)
    }

    /// Allocates `bytes` of simulated global memory, 256-byte aligned.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the aligned span would push the in-use
    /// footprint past the DRAM capacity.
    pub fn try_alloc(&mut self, bytes: u64) -> Result<GlobalBuffer, OomError> {
        let span = match bytes.checked_add(ALLOC_ALIGN - 1) {
            Some(v) => v / ALLOC_ALIGN * ALLOC_ALIGN,
            None => {
                self.sink.add(Counter::DeviceOomEvents, 1);
                return Err(self.oom(bytes));
            }
        };
        if span > self.capacity.saturating_sub(self.in_use) {
            self.sink.add(Counter::DeviceOomEvents, 1);
            return Err(self.oom(bytes));
        }
        if span == 0 {
            // cudaMalloc(0): a valid, unusable zero-length buffer that
            // occupies nothing and needs no bookkeeping.
            return Ok(GlobalBuffer {
                base: self.next,
                bytes: 0,
            });
        }
        // First fit from the free list, else bump the frontier.
        let reuse = self
            .free_list
            .iter()
            .find(|&(_, &size)| size >= span)
            .map(|(&base, &size)| (base, size));
        let base = match reuse {
            Some((base, size)) => {
                self.free_list.remove(&base);
                if size > span {
                    self.free_list.insert(base + span, size - span);
                }
                base
            }
            None => {
                let base = self.next;
                self.next = base + span;
                base
            }
        };
        self.live.insert(base, span);
        self.in_use += span;
        self.high_water = self.high_water.max(self.in_use);
        self.record(MemoryOp::Alloc);
        Ok(GlobalBuffer { base, bytes })
    }

    /// Allocates `bytes` of simulated global memory, 256-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics on simulated OOM; capacity-aware callers use
    /// [`DeviceMemory::try_alloc`].
    #[must_use]
    pub fn alloc(&mut self, bytes: u64) -> GlobalBuffer {
        self.try_alloc(bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Releases an allocation, merging its span into the free list (or
    /// shrinking the bump frontier when it is the topmost span).
    ///
    /// # Panics
    ///
    /// Panics when `buf` was not returned by this allocator or was already
    /// freed — a simulated double-free, always a caller bug.
    pub fn free(&mut self, buf: GlobalBuffer) {
        if buf.bytes == 0 {
            return;
        }
        let span = self
            .live
            .remove(&buf.base)
            .expect("simulated double-free or foreign buffer");
        self.in_use -= span;
        self.record(MemoryOp::Free);
        let mut base = buf.base;
        let mut size = span;
        // Merge with the free neighbor below.
        if let Some((&prev_base, &prev_size)) = self.free_list.range(..base).next_back() {
            if prev_base + prev_size == base {
                self.free_list.remove(&prev_base);
                base = prev_base;
                size += prev_size;
            }
        }
        // Merge with the free neighbor above.
        if let Some(&next_size) = self.free_list.get(&(base + size)) {
            self.free_list.remove(&(base + size));
            size += next_size;
        }
        if base + size == self.next {
            self.next = base;
        } else {
            self.free_list.insert(base, size);
        }
    }

    /// Aligned bytes currently live.
    #[must_use]
    pub fn in_use_bytes(&self) -> u64 {
        self.in_use
    }

    /// Largest in-use footprint the allocator has reached.
    #[must_use]
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water
    }

    /// DRAM capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Bytes still allocatable before hitting capacity.
    #[must_use]
    pub fn available_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.in_use)
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }

    fn oom(&self, requested: u64) -> OomError {
        OomError {
            requested_bytes: requested,
            in_use_bytes: self.in_use,
            capacity_bytes: self.capacity,
        }
    }
}

/// A simulated global-memory allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalBuffer {
    /// First byte address.
    pub base: u64,
    /// Allocation size in bytes.
    pub bytes: u64,
}

impl GlobalBuffer {
    /// Address of byte `offset` within the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the offset is out of bounds — a simulated segfault, which is
    /// always a kernel-authoring bug.
    #[must_use]
    pub fn addr(&self, offset: u64) -> u64 {
        assert!(
            offset < self.bytes,
            "simulated OOB access: offset {offset} in {}-byte buffer",
            self.bytes
        );
        self.base + offset
    }

    /// Address of element `index` of an array of `elem_bytes`-sized elements.
    ///
    /// # Panics
    ///
    /// Panics if the element extends past the end of the buffer.
    #[must_use]
    pub fn elem_addr(&self, index: u64, elem_bytes: u64) -> u64 {
        let offset = index * elem_bytes;
        assert!(
            offset + elem_bytes <= self.bytes,
            "simulated OOB access: element {index} x {elem_bytes}B in {}-byte buffer",
            self.bytes
        );
        self.base + offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(100);
        let b = mem.alloc(100);
        assert_eq!(a.base % 256, 0);
        assert_eq!(b.base % 256, 0);
        assert!(b.base >= a.base + a.bytes);
    }

    #[test]
    fn elem_addr_computes_strided_addresses() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(64);
        assert_eq!(buf.elem_addr(3, 4), buf.base + 12);
    }

    #[test]
    #[should_panic(expected = "simulated OOB")]
    fn oob_offset_panics() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(16);
        let _ = buf.addr(16);
    }

    #[test]
    #[should_panic(expected = "simulated OOB")]
    fn oob_elem_panics() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(16);
        let _ = buf.elem_addr(4, 4); // Bytes 16..20 are past the end.
    }

    #[test]
    fn free_returns_capacity_and_footprint() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let a = mem.alloc(1000);
        let b = mem.alloc(2000);
        assert_eq!(mem.in_use_bytes(), 1024 + 2048); // Aligned spans.
        assert_eq!(mem.live_allocations(), 2);
        mem.free(a);
        assert_eq!(mem.in_use_bytes(), 2048);
        mem.free(b);
        assert_eq!(mem.in_use_bytes(), 0);
        assert_eq!(mem.live_allocations(), 0);
        assert_eq!(mem.high_water_bytes(), 1024 + 2048);
    }

    #[test]
    fn freed_spans_are_reused() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4096);
        let _hold = mem.alloc(256); // Pin the frontier above `a`.
        mem.free(a);
        // An equal-or-smaller request lands in the hole, not past the
        // frontier.
        let c = mem.alloc(4096);
        assert_eq!(c.base, a.base);
        let d = mem.alloc(100);
        assert!(d.base > c.base, "small alloc must not overlap");
    }

    #[test]
    fn adjacent_free_spans_merge() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(256);
        let b = mem.alloc(256);
        let _hold = mem.alloc(256);
        mem.free(a);
        mem.free(b); // Merges with `a`'s span below.
        let c = mem.alloc(512); // Fits only if the two spans merged.
        assert_eq!(c.base, a.base);
    }

    #[test]
    fn freeing_top_span_shrinks_frontier() {
        let mut mem = DeviceMemory::new();
        let base0 = mem.alloc(512).base;
        let a = mem.alloc(512);
        mem.free(a);
        // The frontier shrank, so the next alloc reuses a's address even
        // though it is larger than a's span.
        let b = mem.alloc(4096);
        assert_eq!(b.base, a.base);
        assert_eq!(base0 % 256, 0);
    }

    #[test]
    fn steady_alloc_free_cycle_is_flat() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let forest = mem.alloc(100_000);
        for _ in 0..10_000 {
            let batch = mem.alloc(65_536);
            mem.free(batch);
        }
        // 10k batches through a 1 MiB heap: only possible if spans recycle.
        assert_eq!(mem.in_use_bytes(), 100_096); // forest span only
        assert!(mem.high_water_bytes() <= 100_096 + 65_536);
        mem.free(forest);
        assert_eq!(mem.in_use_bytes(), 0);
    }

    #[test]
    fn try_alloc_reports_oom() {
        let mut mem = DeviceMemory::with_capacity(4096);
        let a = mem.try_alloc(2048).unwrap();
        let err = mem.try_alloc(4096).unwrap_err();
        assert_eq!(err.requested_bytes, 4096);
        assert_eq!(err.in_use_bytes, 2048);
        assert_eq!(err.capacity_bytes, 4096);
        // Freeing makes the space allocatable again.
        mem.free(a);
        assert!(mem.try_alloc(4096).is_ok());
    }

    #[test]
    fn capacity_counts_aligned_spans() {
        let mut mem = DeviceMemory::with_capacity(512);
        // 300 B occupies a 512 B span: a second 1 B alloc must fail.
        let _a = mem.try_alloc(300).unwrap();
        assert!(mem.try_alloc(1).is_err());
    }

    #[test]
    #[should_panic(expected = "simulated device OOM")]
    fn alloc_panics_on_oom() {
        let mut mem = DeviceMemory::with_capacity(1024);
        let _ = mem.alloc(2048);
    }

    #[test]
    #[should_panic(expected = "double-free")]
    fn double_free_panics() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(64);
        mem.free(a);
        mem.free(a);
    }

    #[test]
    fn zero_byte_alloc_is_free() {
        let mut mem = DeviceMemory::with_capacity(0);
        let buf = mem.try_alloc(0).unwrap();
        assert_eq!(buf.bytes, 0);
        assert_eq!(mem.in_use_bytes(), 0);
        mem.free(buf); // No-op, not a double-free.
        mem.free(buf);
    }

    #[test]
    fn for_device_uses_dram_capacity() {
        let spec = DeviceSpec::tesla_k80();
        let mem = DeviceMemory::for_device(&spec);
        assert_eq!(mem.capacity_bytes(), spec.dram_bytes);
    }
}
