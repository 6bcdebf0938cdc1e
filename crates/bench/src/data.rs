//! Dataset/forest preparation with an on-disk forest cache.
//!
//! Training the 15 Table 2 forests dominates harness start-up, so trained
//! forests are cached as JSON under `target/tahoe-forest-cache/`. Cache
//! files are keyed by a fingerprint of the full dataset spec, the scale,
//! and [`TRAINER_VERSION`], so any change to the spec parameters or the
//! training pipeline makes stale entries miss instead of being silently
//! reused. Datasets themselves regenerate quickly and deterministically.

use std::fs;
use std::path::PathBuf;

use tahoe_datasets::{Dataset, DatasetSpec, SampleMatrix, Scale};
use tahoe_forest::{io, train_for_spec, Forest};
use tahoe_gpu_sim::parallel::parallel_map;

/// A dataset ready for experiments: trained forest + inference split.
pub struct Prepared {
    /// Table 2 spec.
    pub spec: DatasetSpec,
    /// Trained (cached) forest.
    pub forest: Forest,
    /// Held-out inference split.
    pub infer: Dataset,
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Ci => "ci",
        Scale::Smoke => "smoke",
    }
}

/// Bump this after any behavioral change to training or data generation:
/// it is folded into the cache fingerprint, so old cache files miss and
/// retrain instead of being reused with stale contents.
pub const TRAINER_VERSION: u32 = 2;

/// FNV-1a fingerprint of everything a cached forest depends on: the full
/// dataset spec (every generator/trainer parameter via `Debug`), the scale,
/// and the trainer version.
fn cache_fingerprint(spec: &DatasetSpec, scale: Scale) -> u64 {
    let key = format!("{spec:?}|{scale:?}|trainer-v{TRAINER_VERSION}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cache_dir() -> PathBuf {
    let dir = std::env::var("TAHOE_FOREST_CACHE").map_or_else(
        |_| PathBuf::from("target/tahoe-forest-cache"),
        PathBuf::from,
    );
    fs::create_dir_all(&dir).expect("create forest cache dir");
    dir
}

/// Prepares one dataset: generates data, loads or trains the forest.
///
/// # Panics
///
/// Panics on cache I/O failures other than a missing file.
#[must_use]
pub fn prepare(spec: &DatasetSpec, scale: Scale) -> Prepared {
    let data = spec.generate(scale);
    let (train, infer) = data.split_train_infer();
    let path = cache_dir().join(format!(
        "{}-{}-{:016x}.json",
        spec.name,
        scale_tag(scale),
        cache_fingerprint(spec, scale)
    ));
    let forest = match io::load_forest(&path) {
        Ok(f) if f.n_trees() == spec.scaled_trees(scale) => f,
        _ => {
            let f = train_for_spec(spec, &train, scale);
            io::save_forest(&f, &path).expect("write forest cache");
            f
        }
    };
    Prepared {
        spec: spec.clone(),
        forest,
        infer,
    }
}

/// Prepares all 15 Table 2 datasets in parallel.
#[must_use]
pub fn prepare_all(scale: Scale) -> Vec<Prepared> {
    let specs = DatasetSpec::table2();
    parallel_map(specs.len(), |i| prepare(&specs[i], scale))
}

/// Prepares the named Table 2 datasets, in order.
///
/// # Panics
///
/// Panics on a name outside Table 2, or as [`prepare`] does.
#[must_use]
pub fn prepare_named(names: &[&str], scale: Scale) -> Vec<Prepared> {
    names
        .iter()
        .map(|name| {
            let spec = DatasetSpec::by_name(name).expect("a Table 2 dataset");
            prepare(&spec, scale)
        })
        .collect()
}

/// The dataset named `name` in `prepared`.
///
/// # Panics
///
/// Panics when `prepared` holds no such dataset.
#[must_use]
pub fn named<'a>(prepared: &'a [Prepared], name: &str) -> &'a Prepared {
    prepared
        .iter()
        .find(|p| p.spec.name == name)
        .unwrap_or_else(|| panic!("{name} was not prepared"))
}

/// Upper bound on a tiled batch's memory so mega-batches of wide samples
/// stay addressable (≈ 400 MiB of f32s).
const MAX_BATCH_BYTES: usize = 400 << 20;

/// Builds a batch of exactly `size` samples by cycling through the inference
/// split (the paper's large batches exceed our scaled-down splits; tiling
/// preserves the distribution). The size is capped by available memory for
/// very wide samples; the returned matrix reports its actual size.
#[must_use]
pub fn batch_of(infer: &Dataset, size: usize) -> SampleMatrix {
    let n = infer.samples.n_samples();
    assert!(n > 0, "empty inference split");
    let cap = (MAX_BATCH_BYTES / infer.samples.sample_bytes().max(4)).max(1);
    let size = size.min(cap).max(1);
    if size <= n {
        let idx: Vec<usize> = (0..size).collect();
        infer.samples.select(&idx)
    } else {
        let idx: Vec<usize> = (0..size).map(|i| i % n).collect();
        infer.samples.select(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_trains_and_caches() {
        let spec = DatasetSpec::by_name("letter").unwrap();
        let a = prepare(&spec, Scale::Smoke);
        let b = prepare(&spec, Scale::Smoke); // Cache hit.
        assert_eq!(a.forest, b.forest);
        assert_eq!(a.forest.n_trees(), spec.scaled_trees(Scale::Smoke));
        assert!(!a.infer.is_empty());
    }

    #[test]
    fn cache_fingerprint_keys_on_spec_scale_and_version() {
        let a = DatasetSpec::by_name("letter").unwrap();
        let b = DatasetSpec::by_name("higgs").unwrap();
        assert_ne!(
            cache_fingerprint(&a, Scale::Smoke),
            cache_fingerprint(&b, Scale::Smoke)
        );
        assert_ne!(
            cache_fingerprint(&a, Scale::Smoke),
            cache_fingerprint(&a, Scale::Ci)
        );
        // A spec-parameter change (what the old n_trees-only check missed)
        // re-keys the cache file.
        let mut tweaked = a.clone();
        tweaked.n_attributes += 1;
        assert_ne!(
            cache_fingerprint(&a, Scale::Smoke),
            cache_fingerprint(&tweaked, Scale::Smoke)
        );
        // Deterministic across runs.
        assert_eq!(
            cache_fingerprint(&a, Scale::Smoke),
            cache_fingerprint(&a, Scale::Smoke)
        );
    }

    #[test]
    fn batch_truncates_and_tiles() {
        let spec = DatasetSpec::by_name("letter").unwrap();
        let p = prepare(&spec, Scale::Smoke);
        let n = p.infer.len();
        let small = batch_of(&p.infer, 10);
        assert_eq!(small.n_samples(), 10);
        let big = batch_of(&p.infer, n + 5);
        assert_eq!(big.n_samples(), n + 5);
        // Tiled rows repeat the split.
        assert_eq!(big.row(n), big.row(0));
    }

    #[test]
    fn batch_respects_memory_cap() {
        let spec = DatasetSpec::by_name("gisette").unwrap(); // 5000 attrs.
        let p = prepare(&spec, Scale::Smoke);
        let b = batch_of(&p.infer, 100_000_000);
        assert!(b.n_samples() * b.sample_bytes() <= MAX_BATCH_BYTES);
    }
}
