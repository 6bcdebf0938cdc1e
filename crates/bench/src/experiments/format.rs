//! `BENCH_format` — packed struct-of-arrays node encoding (DESIGN.md §2.13)
//! vs the classic whole-node records, across the Table 2 datasets.
//!
//! Two comparisons per dataset, both against the same adaptive layout so the
//! encoding is the only variable:
//!
//! 1. **Engine runs** (auto storage mode, shared-data strategy on the P100):
//!    device-image size, bytes per node, forest-read transactions, and the
//!    largest batch [`Engine::feasible`] admits on a memory-cramped device
//!    whose DRAM barely exceeds the classic image.
//! 2. **Forced-sparse images** (static accounting, no simulation): sparse
//!    mode stores explicit children, which is where the packed child lane's
//!    narrow tree-relative offsets pay off most — the paper's U8-packable
//!    datasets shrink by more than 2× here.

use serde::Serialize;

use tahoe::engine::{Engine, EngineOptions};
use tahoe::format::{DeviceForest, FormatConfig, LayoutPlan, NodeEncoding, StorageMode};
use tahoe::strategy::Strategy;
use tahoe_datasets::SampleMatrix;
use tahoe_gpu_sim::device::DeviceSpec;

use crate::data::{batch_of, prepare_all, Prepared};
use crate::env::Env;
use crate::experiments::{tahoe_opts, HIGH_BATCH};
use crate::report::{f2, mib, write_json, Table};

/// Sample-memory slack granted to the cramped feasibility device beyond the
/// classic engine's resident footprint: small enough that the packed
/// encoding's image saving moves the admissible batch size, large enough
/// that both engines admit a non-trivial batch.
const FEASIBLE_SLACK_BYTES: u64 = 4 << 20;

/// One dataset's engine-level encoding comparison.
#[derive(Clone, Debug, Serialize)]
pub struct FormatRow {
    /// Dataset name.
    pub dataset: String,
    /// Attribute count (decides the packed structural width).
    pub n_attributes: u32,
    /// Storage mode both engines selected automatically.
    pub mode: String,
    /// Packed structural-entry width in bytes (1/2/4).
    pub packed_entry_bytes: usize,
    /// Classic bytes per node.
    pub classic_node_bytes: usize,
    /// Packed bytes per node (sum of every lane's entry width).
    pub packed_node_bytes: usize,
    /// Classic device-image bytes.
    pub classic_image_bytes: u64,
    /// Packed device-image bytes.
    pub packed_image_bytes: u64,
    /// classic / packed image ratio (> 1 means packed is smaller).
    pub image_ratio: f64,
    /// Total gmem transactions staging + running the splitting-shared-forest
    /// strategy (the profiler's coalescing report), classic encoding.
    pub classic_gmem_transactions: u64,
    /// Same, packed encoding: staging streams the smaller image, so this is
    /// strictly lower whenever packed shrinks bytes-per-node.
    pub packed_gmem_transactions: u64,
    /// Forest-read (level-tagged) gmem transactions under the direct
    /// strategy, classic encoding.
    pub classic_traversal_transactions: u64,
    /// Same, packed encoding. Per-level gmem traversal pays one extra
    /// address stream (bits + value lanes), so this side of the trade-off
    /// runs *higher* than classic — the perf model weighs it against the
    /// staging win.
    pub packed_traversal_transactions: u64,
    /// Largest feasible batch on the cramped device, classic encoding.
    pub classic_feasible_batch: usize,
    /// Largest feasible batch on the cramped device, packed encoding.
    pub packed_feasible_batch: usize,
}

/// One dataset's forced-sparse static image comparison.
#[derive(Clone, Debug, Serialize)]
pub struct SparseRow {
    /// Dataset name.
    pub dataset: String,
    /// Classic sparse bytes per node (flag + attr + value + two children).
    pub classic_node_bytes: usize,
    /// Packed sparse bytes per node (bits + value + child-offset lanes).
    pub packed_node_bytes: usize,
    /// classic / packed bytes-per-node ratio.
    pub node_bytes_ratio: f64,
    /// Classic sparse image bytes.
    pub classic_image_bytes: u64,
    /// Packed sparse image bytes.
    pub packed_image_bytes: u64,
}

/// `BENCH_format` record.
#[derive(Clone, Debug, Serialize)]
pub struct FormatResult {
    /// Device the engine comparison ran on.
    pub device: String,
    /// Batch size of the transaction comparison.
    pub batch: usize,
    /// Engine comparison, one row per dataset (auto storage mode).
    pub rows: Vec<FormatRow>,
    /// Forced-sparse static image accounting, one row per dataset.
    pub sparse_rows: Vec<SparseRow>,
}

/// Sums gmem transactions over the level-tagged (forest) reads.
fn forest_transactions(engine_result: &tahoe::engine::InferenceResult) -> u64 {
    engine_result
        .run
        .kernel
        .levels
        .values()
        .map(|stats| stats.access.transactions)
        .sum()
}

/// Largest batch the engine admits without OOM chunking, by binary search
/// over `Engine::feasible` (memory feasibility is monotone in batch size).
/// Probes tile the inference split directly — `batch_of`'s host-memory cap
/// would saturate probe sizes and break the search's monotonicity.
fn max_feasible_batch(engine: &Engine, p: &Prepared) -> usize {
    let split = p.infer.samples.n_samples();
    let probe = |n: usize| -> SampleMatrix {
        let idx: Vec<usize> = (0..n).map(|i| i % split).collect();
        p.infer.samples.select(&idx)
    };
    if !engine.feasible(Strategy::SharedData, &probe(1)) {
        return 0;
    }
    // A batch bigger than DRAM / sample bytes cannot fit under any encoding,
    // so it bounds the search: lo stays feasible, hi infeasible.
    let sample_bytes = p.infer.samples.sample_bytes().max(4);
    let mut lo = 1usize;
    let mut hi = (engine.device().dram_bytes as usize / sample_bytes) + 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if engine.feasible(Strategy::SharedData, &probe(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Builds a forced-sparse image of the given encoding and returns
/// (bytes per node, image bytes).
fn sparse_image(p: &Prepared, encoding: NodeEncoding) -> (usize, u64) {
    let config = FormatConfig {
        varlen_attr: true,
        mode: Some(StorageMode::Sparse),
        encoding,
    };
    let plan = LayoutPlan::identity(&p.forest);
    let mut mem = tahoe_gpu_sim::memory::DeviceMemory::new();
    let df = DeviceForest::build(&p.forest, &plan, config, &mut mem);
    (df.node_bytes(), df.image_bytes() as u64)
}

/// Runs the encoding comparison over all 15 datasets.
#[must_use]
pub fn run(env: &Env) -> FormatResult {
    let prepared = prepare_all(env.scale);
    let device = DeviceSpec::tesla_p100();
    // Pin the strategy (shared-data, like the §7.3 coalescing experiment) so
    // node encoding is the only difference between the two engines.
    let classic_opts = EngineOptions {
        model_selection: false,
        ..tahoe_opts(env)
    };
    let packed_opts = EngineOptions {
        node_encoding: NodeEncoding::Packed,
        ..classic_opts
    };
    let mut rows = Vec::new();
    let mut sparse_rows = Vec::new();
    for p in &prepared {
        let batch = batch_of(&p.infer, HIGH_BATCH);
        let mut classic = Engine::new(device.clone(), p.forest.clone(), classic_opts);
        let mut packed = Engine::new(device.clone(), p.forest.clone(), packed_opts);

        // Cramped device: DRAM barely covers the classic engine's resident
        // image (recorded before any staging buffer exists), plus a fixed
        // sample budget. The packed engine's smaller image turns directly
        // into extra admissible samples.
        let classic_resident = classic.memory().in_use_bytes();
        let mut cramped = device.clone();
        cramped.dram_bytes = classic_resident + FEASIBLE_SLACK_BYTES;
        let classic_cramped = Engine::new(cramped.clone(), p.forest.clone(), classic_opts);
        let packed_cramped = Engine::new(cramped, p.forest.clone(), packed_opts);
        let classic_feasible = max_feasible_batch(&classic_cramped, p);
        let packed_feasible = max_feasible_batch(&packed_cramped, p);

        let rc = classic.infer_with(&batch, Some(Strategy::Direct));
        let rp = packed.infer_with(&batch, Some(Strategy::Direct));
        let rc_staged = classic.infer_with(&batch, Some(Strategy::SplittingSharedForest));
        let rp_staged = packed.infer_with(&batch, Some(Strategy::SplittingSharedForest));

        let (cdf, pdf) = (classic.device_forest(), packed.device_forest());
        assert_eq!(
            pdf.encoding(),
            NodeEncoding::Packed,
            "{}: every Table 2 dataset is packable",
            p.spec.name
        );
        rows.push(FormatRow {
            dataset: p.spec.name.to_string(),
            n_attributes: p.forest.n_attributes(),
            mode: format!("{:?}", cdf.mode()),
            packed_entry_bytes: pdf.packed_width().map_or(0, |w| w.bytes()),
            classic_node_bytes: cdf.node_bytes(),
            packed_node_bytes: pdf.node_bytes(),
            classic_image_bytes: cdf.image_bytes() as u64,
            packed_image_bytes: pdf.image_bytes() as u64,
            image_ratio: cdf.image_bytes() as f64 / pdf.image_bytes().max(1) as f64,
            classic_gmem_transactions: rc_staged.run.kernel.gmem.transactions,
            packed_gmem_transactions: rp_staged.run.kernel.gmem.transactions,
            classic_traversal_transactions: forest_transactions(&rc),
            packed_traversal_transactions: forest_transactions(&rp),
            classic_feasible_batch: classic_feasible,
            packed_feasible_batch: packed_feasible,
        });

        let (classic_nb, classic_ib) = sparse_image(p, NodeEncoding::Classic);
        let (packed_nb, packed_ib) = sparse_image(p, NodeEncoding::Packed);
        sparse_rows.push(SparseRow {
            dataset: p.spec.name.to_string(),
            classic_node_bytes: classic_nb,
            packed_node_bytes: packed_nb,
            node_bytes_ratio: classic_nb as f64 / packed_nb.max(1) as f64,
            classic_image_bytes: classic_ib,
            packed_image_bytes: packed_ib,
        });
    }
    FormatResult {
        device: device.name.to_string(),
        batch: HIGH_BATCH,
        rows,
        sparse_rows,
    }
}

/// Prints both encoding tables and writes the `BENCH_format` record.
pub fn report(result: &FormatResult) {
    let mut t = Table::new(
        format!(
            "node encoding — classic vs packed ({}, {} samples)",
            result.device, result.batch
        ),
        &[
            "dataset", "mode", "entry", "B/node c", "B/node p", "image c (MiB)",
            "image p (MiB)", "ratio", "staged txn c", "staged txn p", "feas. c", "feas. p",
        ],
    );
    for r in &result.rows {
        t.row(vec![
            r.dataset.clone(),
            r.mode.clone(),
            format!("u{}", 8 * r.packed_entry_bytes),
            r.classic_node_bytes.to_string(),
            r.packed_node_bytes.to_string(),
            mib(r.classic_image_bytes),
            mib(r.packed_image_bytes),
            f2(r.image_ratio),
            r.classic_gmem_transactions.to_string(),
            r.packed_gmem_transactions.to_string(),
            r.classic_feasible_batch.to_string(),
            r.packed_feasible_batch.to_string(),
        ]);
    }
    t.print();

    let mut s = Table::new(
        "forced-sparse images — explicit children vs packed child-offset lane",
        &["dataset", "B/node classic", "B/node packed", "ratio", "image c (MiB)", "image p (MiB)"],
    );
    for r in &result.sparse_rows {
        s.row(vec![
            r.dataset.clone(),
            r.classic_node_bytes.to_string(),
            r.packed_node_bytes.to_string(),
            f2(r.node_bytes_ratio),
            mib(r.classic_image_bytes),
            mib(r.packed_image_bytes),
        ]);
    }
    s.print();
    println!(
        "packed = structural-bits lane (attr index + flags) + f32 value lane\n\
         (+ child-offset lane in sparse mode); classic = whole-node records.\n\
         Staged txns: total gmem transactions under splitting-shared-forest,\n\
         where staging streams the image — strictly fewer once packed shrinks\n\
         bytes-per-node. Per-level gmem traversal (direct/shared-data) instead\n\
         pays one extra address stream per level; that side of the trade-off\n\
         is recorded as *_traversal_transactions in the JSON.\n\
         Feasibility columns: largest batch Engine::feasible admits on a\n\
         device whose DRAM is the classic image + {} MiB of sample slack.",
        FEASIBLE_SLACK_BYTES >> 20
    );
    write_json("BENCH_format", result);
}
