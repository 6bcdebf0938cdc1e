//! §7.3 "Quantifying memory coalescence" — forest-read load efficiency and
//! global-memory throughput, FIL format vs Tahoe's adaptive format.
//!
//! To isolate the *format* effect (what §7.3 measures), both engines run the
//! same shared-data strategy (the run matrix's FIL engine and its Tahoe
//! engine without model selection); only the node/tree layout and node
//! encoding differ. Efficiency is computed over the level-tagged forest
//! reads — the paper's metric is specifically about "accessing forests".

use serde::Serialize;

use tahoe_gpu_sim::kernel::KernelResult;

use crate::report::{f2, pct, write_json, Table};

/// Requested/fetched efficiency over the level-tagged (forest) reads.
#[must_use]
pub fn forest_read_efficiency(kernel: &KernelResult) -> f64 {
    let mut requested = 0u64;
    let mut fetched = 0u64;
    for stats in kernel.levels.values() {
        requested += stats.access.requested_bytes;
        fetched += stats.access.fetched_bytes;
    }
    if fetched == 0 {
        1.0
    } else {
        requested as f64 / fetched as f64
    }
}

/// One device's aggregate coalescing comparison.
#[derive(Clone, Debug, Serialize)]
pub struct CoalescingRow {
    /// Device name.
    pub device: String,
    /// Mean FIL forest-read efficiency across datasets.
    pub fil_efficiency: f64,
    /// Mean Tahoe forest-read efficiency.
    pub tahoe_efficiency: f64,
    /// Mean FIL global-memory throughput (bytes/ns ≈ GB/s).
    pub fil_throughput: f64,
    /// Mean Tahoe global-memory throughput.
    pub tahoe_throughput: f64,
    /// Mean FIL SIMT efficiency (active lanes per warp step).
    pub fil_simt: f64,
    /// Mean Tahoe SIMT efficiency.
    pub tahoe_simt: f64,
}

impl CoalescingRow {
    /// One dataset's comparison on `device`, from FIL's and Tahoe's
    /// layout-only kernels at the high-parallelism batch.
    #[must_use]
    pub fn of(device: &str, fil: &KernelResult, tahoe: &KernelResult) -> Self {
        Self {
            device: device.to_string(),
            fil_efficiency: forest_read_efficiency(fil),
            tahoe_efficiency: forest_read_efficiency(tahoe),
            fil_throughput: fil.gmem_throughput(),
            tahoe_throughput: tahoe.gmem_throughput(),
            fil_simt: fil.simt_efficiency(),
            tahoe_simt: tahoe.simt_efficiency(),
        }
    }

    /// The field-wise mean of one device's per-dataset rows, summed in row
    /// order.
    #[must_use]
    pub fn mean(device: &str, rows: &[Self]) -> Self {
        let mean =
            |field: fn(&Self) -> f64| rows.iter().map(field).sum::<f64>() / rows.len() as f64;
        Self {
            device: device.to_string(),
            fil_efficiency: mean(|r| r.fil_efficiency),
            tahoe_efficiency: mean(|r| r.tahoe_efficiency),
            fil_throughput: mean(|r| r.fil_throughput),
            tahoe_throughput: mean(|r| r.tahoe_throughput),
            fil_simt: mean(|r| r.fil_simt),
            tahoe_simt: mean(|r| r.tahoe_simt),
        }
    }
}

/// §7.3 coalescing record: the high-parallelism cells of the run matrix
/// ([`crate::experiments::matrix`]), averaged per device.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CoalescingResult {
    /// One row per device.
    pub rows: Vec<CoalescingRow>,
}

/// Prints the §7.3 coalescing table and writes the record.
pub fn report(result: &CoalescingResult) {
    let mut t = Table::new(
        "§7.3 — memory coalescence: forest-read efficiency and gmem throughput (GB/s)",
        &["device", "FIL eff.", "Tahoe eff.", "FIL SIMT", "Tahoe SIMT", "FIL thpt", "Tahoe thpt"],
    );
    for r in &result.rows {
        t.row(vec![
            r.device.clone(),
            pct(r.fil_efficiency),
            pct(r.tahoe_efficiency),
            pct(r.fil_simt),
            pct(r.tahoe_simt),
            f2(r.fil_throughput),
            f2(r.tahoe_throughput),
        ]);
    }
    t.print();
    println!(
        "paper: forest-read efficiency ~27% -> ~46%; gmem read throughput\n\
         62.4->174.7 GB/s (K80), 98.8->314.0 (P100), 112.4->378.5 (V100).\n\
         Note: both engines run the shared-data strategy here to isolate the\n\
         format effect; our simulator has no shared-memory bank conflicts, so\n\
         the paper's shared-memory efficiency numbers have no analogue\n\
         (documented in EXPERIMENTS.md)."
    );
    write_json("sec73_coalescing", result);
}
