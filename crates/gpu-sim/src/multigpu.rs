//! Multi-device data partitioning (paper §7.5 scaling experiments).
//!
//! The paper partitions the inference dataset across GPUs with no
//! inter-device communication during inference; total time is the slowest
//! device's time (strong scaling). The simulator models no inter-device
//! coupling either, so the paper's weak-scaling check (< 5 % variance as
//! devices are added) holds by construction and is not swept.
//!
//! This module holds only the partitioning arithmetic. Actual multi-device
//! execution lives in `tahoe::cluster::GpuCluster`, which runs one full
//! `Engine` (own `DeviceMemory`, own simulated clock, own device handle on
//! the cluster's telemetry sink) per device and merges results in
//! device-index order.

use std::ops::Range;

/// Evenly partitions `n_items` across `n_devices`; partition `i` gets the
/// remainder spread over the first partitions (sizes differ by at most 1).
///
/// # Panics
///
/// Panics when `n_devices == 0`.
#[must_use]
pub fn partition(n_items: usize, n_devices: usize) -> Vec<Range<usize>> {
    assert!(n_devices > 0, "need at least one device");
    let base = n_items / n_devices;
    let rem = n_items % n_devices;
    let mut out = Vec::with_capacity(n_devices);
    let mut start = 0;
    for i in 0..n_devices {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_once() {
        let parts = partition(103, 8);
        assert_eq!(parts.len(), 8);
        let mut next = 0;
        for p in &parts {
            assert_eq!(p.start, next);
            next = p.end;
        }
        assert_eq!(next, 103);
        let sizes: Vec<usize> = parts.iter().map(ExactSizeIterator::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_with_more_devices_than_items() {
        let parts = partition(3, 8);
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 3);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = partition(10, 0);
    }
}
