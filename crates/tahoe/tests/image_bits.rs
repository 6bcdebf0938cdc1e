//! Pins every device image and its host predictions, bit for bit.
//!
//! Each cell builds one smoke-scale forest under one format configuration
//! (adaptive, traditional), one forced storage mode (dense, sparse)
//! and one layout plan (identity, the §4 adaptive plan), and renders:
//!
//! - `image_bytes()` and `node_bytes()`;
//! - an FNV hash of `encode_image()`, the simulated image with its padding;
//! - an FNV hash of every root's node address;
//! - an FNV hash of `predict_batch`'s f32 bits on the infer split.
//!
//! The rendered table must equal `image_bits.golden` line for line. The
//! reference checks elsewhere compare predictions within a tolerance; this
//! one fails on a single flipped bit. On a mismatch the test prints the whole
//! regenerated table.

use std::fmt::Write as _;

use tahoe::format::{DeviceForest, FormatConfig, LayoutPlan, StorageMode};
use tahoe::rearrange::{adaptive_plan, SimilarityParams};
use tahoe::strategy::testutil::Fixture;
use tahoe_gpu_sim::memory::DeviceMemory;

const GOLDEN: &str = include_str!("image_bits.golden");

/// 64-bit FNV-1a over a stream of bytes.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn render(df: &DeviceForest, fx: &Fixture) -> String {
    let image = df.encode_image();
    let roots = fnv(df
        .roots()
        .iter()
        .flat_map(|&r| df.node_addr(r).to_le_bytes()));
    let predictions = fnv(df
        .predict_batch(&fx.samples)
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes()));
    format!(
        "image_bytes={} node_bytes={} image={:016x} roots={:016x} predict={:016x}",
        df.image_bytes(),
        df.node_bytes(),
        fnv(image),
        roots,
        predictions,
    )
}

fn table() -> String {
    let configs = [
        ("adaptive", FormatConfig::adaptive()),
        ("traditional", FormatConfig::traditional()),
    ];
    let mut out = String::new();
    for dataset in ["letter", "higgs", "ijcnn1"] {
        let fx = Fixture::trained(dataset);
        let plans = [
            ("identity", LayoutPlan::identity(&fx.forest)),
            ("adaptive-plan", adaptive_plan(&fx.forest, &SimilarityParams::default())),
        ];
        for (plan_name, plan) in &plans {
            for (config_name, config) in configs {
                for mode in [StorageMode::Dense, StorageMode::Sparse] {
                    let config = FormatConfig {
                        mode: Some(mode),
                        ..config
                    };
                    let mut mem = DeviceMemory::new();
                    let df = DeviceForest::build(&fx.forest, plan, config, &mut mem);
                    let cell = format!("{dataset} {plan_name} {config_name} {mode:?}:");
                    writeln!(out, "{cell} {}", render(&df, &fx)).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn device_images_and_host_predictions_are_pinned() {
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
