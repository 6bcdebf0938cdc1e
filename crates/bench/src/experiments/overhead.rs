//! §7.4 — overhead analysis: CPU-side conversion cost vs inference time, the
//! SimHash+LSH vs pairwise-comparison speedup, the variable-length-index
//! memory saving, and the runtime cost of evaluating the performance models.
//! Only the deterministic quantities (simulated inference time, image sizes)
//! go into `sec74_overhead.json`; the host-clock costs are printed.

use std::time::Instant;

use serde::Serialize;

use tahoe::engine::{ConversionReport, InferenceResult};
use tahoe::format::{DeviceForest, FormatConfig, LayoutPlan};
use tahoe::rearrange::{pairwise, similarity_order_timed, SimilarityParams};
use tahoe_gpu_sim::memory::DeviceMemory;

use crate::data::Prepared;
use crate::report::{f2, pct, write_json, Table};

/// One dataset's §7.4 record: simulated time and image sizes only, so the
/// committed JSON is byte-identical on every run.
#[derive(Clone, Debug, Serialize)]
pub struct OverheadRow {
    /// Dataset name.
    pub dataset: String,
    /// Simulated time of one high-parallelism batch inference (ns).
    pub inference_ns: f64,
    /// Adaptive-format image size (bytes).
    pub adaptive_bytes: usize,
    /// Traditional (fixed 4-byte index) image size (bytes).
    pub traditional_bytes: usize,
}

impl OverheadRow {
    /// Storage saved by the variable-length representation.
    #[must_use]
    pub fn storage_saving(&self) -> f64 {
        1.0 - self.adaptive_bytes as f64 / self.traditional_bytes as f64
    }
}

/// Host wall-clock costs measured beside one [`OverheadRow`]. They vary run
/// to run, so they are printed but never written to the record.
#[derive(Clone, Copy, Debug)]
pub struct HostCost {
    /// The engine's CPU part: rearrangement stage by stage, then format
    /// conversion.
    pub conversion: ConversionReport,
    /// Exact pairwise ordering (ns).
    pub pairwise_ns: u64,
    /// SimHash+LSH ordering (ns).
    pub lsh_total_ns: u64,
    /// Performance-model evaluation (ns).
    pub model_eval_ns: u64,
}

impl HostCost {
    /// Pairwise-over-LSH host-time ratio (paper: > 37×).
    #[must_use]
    pub fn pairwise_speedup(&self) -> f64 {
        self.pairwise_ns as f64 / self.lsh_total_ns.max(1) as f64
    }
}

/// §7.4 record: one row per dataset, beside the run matrix's P100 Tahoe
/// engine ([`crate::experiments::matrix`]).
#[derive(Clone, Debug, Default, Serialize)]
pub struct OverheadResult {
    /// One row per dataset.
    pub rows: Vec<OverheadRow>,
}

/// Measures one dataset's row beside the run matrix's P100 Tahoe engine:
/// `conversion` is that engine's CPU part and `chosen` its auto launch of
/// the high-parallelism batch. Times the pairwise and SimHash+LSH orderings
/// and builds the adaptive and traditional images.
#[must_use]
pub fn measure(
    p: &Prepared,
    conversion: ConversionReport,
    chosen: &InferenceResult,
) -> (OverheadRow, HostCost) {
    // Brute-force pairwise vs SimHash+LSH ordering cost. The brute-force
    // method (the paper's 19-minute baseline) is O(N² · n²); cap it at 200
    // trees so the suite stays responsive — the ratio is already decisive
    // at this size and only grows with N.
    let pairwise_forest = if p.forest.n_trees() > 200 {
        p.forest.truncated(200)
    } else {
        p.forest.clone()
    };
    let t0 = Instant::now();
    let _ = pairwise::brute_force_order(&pairwise_forest);
    let pairwise_ns = t0.elapsed().as_nanos() as u64;
    let (_, lsh_report) = similarity_order_timed(&pairwise_forest, &SimilarityParams::default());

    // Storage: adaptive vs traditional encoding of the same layout.
    let plan = LayoutPlan::identity(&p.forest);
    let mut mem = DeviceMemory::new();
    let adaptive = DeviceForest::build(&p.forest, &plan, FormatConfig::adaptive(), &mut mem);
    let traditional = DeviceForest::build(&p.forest, &plan, FormatConfig::traditional(), &mut mem);

    let row = OverheadRow {
        dataset: p.spec.name.to_string(),
        inference_ns: chosen.run.kernel.total_ns,
        adaptive_bytes: adaptive.image_bytes(),
        traditional_bytes: traditional.image_bytes(),
    };
    let host = HostCost {
        conversion,
        pairwise_ns,
        lsh_total_ns: lsh_report.total_ns(),
        model_eval_ns: chosen.model_eval_ns,
    };
    (row, host)
}

/// Prints the §7.4 tables and writes the record; `host` pairs with
/// `result.rows`.
pub fn report(result: &OverheadResult, host: &[HostCost]) {
    let mut t = Table::new(
        "§7.4 — conversion overhead relative to one batch inference",
        &["dataset", "cpu/inference", "pairwise/LSH", "storage saving", "model eval (ns)"],
    );
    for (r, h) in result.rows.iter().zip(host) {
        t.row(vec![
            r.dataset.clone(),
            format!("{:.1}x", h.conversion.total_ns() as f64 / r.inference_ns),
            format!("{:.0}x", h.pairwise_speedup()),
            pct(r.storage_saving()),
            h.model_eval_ns.to_string(),
        ]);
    }
    t.print();
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let mut stages = Table::new(
        "§7.4 — CPU part by stage (host ms)",
        &["dataset", "node swap", "tokenize+SimHash", "LSH", "order", "convert", "total"],
    );
    for (r, h) in result.rows.iter().zip(host) {
        stages.row(vec![
            r.dataset.clone(),
            ms(h.conversion.rearrange.node_swap_ns),
            ms(h.conversion.rearrange.simhash_ns),
            ms(h.conversion.rearrange.lsh_ns),
            ms(h.conversion.rearrange.order_ns),
            ms(h.conversion.convert_ns),
            ms(h.conversion.total_ns()),
        ]);
    }
    stages.print();
    let max_saving = result
        .rows
        .iter()
        .map(OverheadRow::storage_saving)
        .fold(0.0, f64::max);
    let min_pairwise = host
        .iter()
        .filter(|h| h.pairwise_ns > 1_000_000) // Ratios on trivial forests are noise.
        .map(HostCost::pairwise_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "max storage saving: {} (paper: up to 23.6%); min pairwise/LSH ratio on\n\
         non-trivial forests: {} (paper: >37x). CPU part vs one inference —\n\
         paper: 28-57x (host wall-clock vs simulated GPU time here; see\n\
         EXPERIMENTS.md for the cross-domain caveat). Host-clock columns are\n\
         not recorded in the JSON",
        pct(max_saving),
        if min_pairwise.is_finite() { f2(min_pairwise) } else { "-".to_string() },
    );
    write_json("sec74_overhead", result);
}
