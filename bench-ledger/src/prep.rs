//! Inputs, prepared before any clock starts.
//!
//! Forests are trained once and cached as JSON under the build directory
//! (`$CARGO_TARGET_DIR/bench-ledger-forests`, else `target/…`). Training runs
//! in a child process, so it never counts toward this process's peak RSS,
//! and every run — cold or warm cache — loads the forest from the same file,
//! so the cache state cannot move a number. Payloads are a seeded
//! permutation of the dataset's held-out inference split.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use tahoe_datasets::{DatasetSpec, SampleMatrix, Scale};
use tahoe_forest::{io, train_for_spec, Forest};

/// Argument that turns the binary into the forest-training child.
pub const PREPARE_FLAG: &str = "--prepare";

/// A dataset's forests and its inference split.
pub struct Inputs {
    /// Forest versions: `[0]` is trained on the training split, `[1]` (when
    /// asked for) on its second half — a later model version for the
    /// update path.
    pub forests: Vec<Forest>,
    /// Held-out inference split: the payload pool.
    pub pool: SampleMatrix,
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Ci => "ci",
        Scale::Smoke => "smoke",
    }
}

fn cache_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("bench-ledger-forests")
}

/// Cache file of one forest version, keyed by an FNV-1a fingerprint of the
/// full dataset spec, the scale and the version.
fn forest_path(spec: &DatasetSpec, scale: Scale, version: usize) -> PathBuf {
    let key = format!("{spec:?}|{scale:?}|v{version}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    cache_dir().join(format!(
        "{}-{}-v{version}-{h:016x}.json",
        spec.name,
        scale_tag(scale)
    ))
}

fn train_version(spec: &DatasetSpec, scale: Scale, version: usize) -> Forest {
    let (train, _) = spec.generate(scale).split_train_infer();
    let train = if version == 0 {
        train
    } else {
        let n = train.len();
        train.subset(&(n / 2..n).collect::<Vec<_>>())
    };
    train_for_spec(spec, &train, scale)
}

fn save(forest: &Forest, path: &Path) -> Result<(), String> {
    std::fs::create_dir_all(path.parent().expect("cache file has a parent"))
        .map_err(|e| format!("create {}: {e}", path.display()))?;
    // Write-then-rename, so a killed run never leaves a truncated cache
    // file; each training child writes one file under its own name.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    io::save_forest(forest, &tmp).map_err(|e| format!("write {}: {e:?}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Loads forest versions `0..versions` of `dataset` plus its inference
/// split. A missing forest is first trained by re-running this executable
/// with [`PREPARE_FLAG`].
///
/// # Errors
///
/// Returns a message when the dataset is unknown, training fails, or a
/// cache file cannot be read back.
pub fn load(dataset: &str, scale: Scale, versions: usize) -> Result<Inputs, String> {
    let spec = DatasetSpec::by_name(dataset).ok_or_else(|| format!("unknown dataset {dataset}"))?;
    let mut forests = Vec::with_capacity(versions);
    for version in 0..versions {
        let path = forest_path(&spec, scale, version);
        let load = || io::load_forest(&path).map_err(|e| format!("load {}: {e:?}", path.display()));
        // Always the file's forest, whether it was cached or just written.
        let forest = match load() {
            Ok(f) => f,
            Err(_) => {
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                let status = Command::new(exe)
                    .args([
                        PREPARE_FLAG,
                        dataset,
                        scale_tag(scale),
                        &version.to_string(),
                    ])
                    .status()
                    .map_err(|e| format!("spawn trainer: {e}"))?;
                if !status.success() {
                    return Err(format!("training {dataset} v{version} failed: {status}"));
                }
                load()?
            }
        };
        forests.push(forest);
    }
    let (_, infer) = spec.generate(scale).split_train_infer();
    Ok(Inputs {
        forests,
        pool: infer.samples,
    })
}

/// Entry point of the training child: `--prepare <dataset> <scale> <version>`.
///
/// # Errors
///
/// Returns a message on bad arguments or a failed write.
pub fn prepare_main(args: &[String]) -> Result<(), String> {
    let [dataset, scale, version] = args else {
        return Err(format!("{PREPARE_FLAG} takes <dataset> <scale> <version>"));
    };
    let spec = DatasetSpec::by_name(dataset).ok_or_else(|| format!("unknown dataset {dataset}"))?;
    let scale = Scale::parse(scale).ok_or_else(|| format!("unknown scale {scale}"))?;
    let version: usize = version
        .parse()
        .map_err(|_| format!("bad version {version}"))?;
    save(
        &train_version(&spec, scale, version),
        &forest_path(&spec, scale, version),
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload matrix of one seed: every pool row once, in a seeded order
/// (Fisher–Yates over SplitMix64). The seed picks which rows each request
/// or batch carries; the program only ever sees the resulting matrix.
#[must_use]
pub fn payloads(pool: &SampleMatrix, seed: u64) -> SampleMatrix {
    let mut idx: Vec<usize> = (0..pool.n_samples()).collect();
    let mut state = seed;
    for i in (1..idx.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    pool.select(&idx)
}

/// The seed's offered-load factor, uniform in [0.995, 1.005]. Simulated
/// kernel times barely depend on which rows a batch carries, so under
/// uniform arrivals this factor is what lets one seed's simulated serving
/// results differ from another's; a fixed seed still reproduces them bit
/// for bit.
#[must_use]
pub fn load_factor(seed: u64) -> f64 {
    let mut state = seed ^ 0x5EED_10AD_F00D_CAFE;
    let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + 0.01 * (unit - 0.5)
}

/// Rows `start..start + n` of `payloads`, wrapping around (tiled batches).
#[must_use]
pub fn tile(payloads: &SampleMatrix, start: usize, n: usize) -> SampleMatrix {
    let len = payloads.n_samples();
    let idx: Vec<usize> = (start..start + n).map(|i| i % len).collect();
    payloads.select(&idx)
}

/// One line naming what was prepared, for the report header.
#[must_use]
pub fn describe(dataset: &str, scale: Scale, inputs: &Inputs) -> String {
    let mut s = format!(
        "{dataset} @ {} scale: pool {} rows",
        scale_tag(scale),
        inputs.pool.n_samples()
    );
    for (v, f) in inputs.forests.iter().enumerate() {
        let _ = write!(s, ", forest v{v} {} trees", f.n_trees());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_a_seeded_permutation() {
        let pool = SampleMatrix::from_vec(20, 1, (0..20).map(|i| i as f32).collect());
        let a = payloads(&pool, 7);
        let b = payloads(&pool, 7);
        let c = payloads(&pool, 8);
        let rows = |m: &SampleMatrix| (0..m.n_samples()).map(|i| m.row(i)[0]).collect::<Vec<_>>();
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
        let mut sorted = rows(&a);
        sorted.sort_by(f32::total_cmp);
        assert_eq!(sorted, rows(&pool));
    }

    #[test]
    fn load_factor_is_seeded_and_narrow() {
        assert_eq!(load_factor(3).to_bits(), load_factor(3).to_bits());
        assert_ne!(load_factor(3), load_factor(4));
        assert!((0..100)
            .map(load_factor)
            .all(|f| (0.995..=1.005).contains(&f)));
    }

    #[test]
    fn tile_wraps_around() {
        let pool = SampleMatrix::from_vec(4, 1, (0..4).map(|i| i as f32).collect());
        let t = tile(&pool, 3, 3);
        assert_eq!(
            (0..3).map(|i| t.row(i)[0]).collect::<Vec<_>>(),
            vec![3.0, 0.0, 1.0]
        );
    }
}
