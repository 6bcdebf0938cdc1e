//! Two-clock benchmark of the Tahoe reproduction: simulated GPU time (the
//! paper's results) and host wall-clock (the simulator's own speed), each
//! end to end and per layer, over three seeded workloads that each load a
//! different layer. See `README.md` in this directory.

mod layers;
pub mod metrics;
mod offline;
pub mod prep;
mod serve;

use metrics::Outcome;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["serve-covtype", "offline-higgs", "cluster-letter-recorded"];

/// Engine/cluster constructions timed before the passes, on top of each
/// pass's own, so `setup_s` is a median of several.
pub const SETUP_REPEATS: usize = 15;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Payload seed.
    pub seed: u64,
    /// Measurement budget (s): passes repeat until it is spent (at least
    /// one runs). A traced run spends a third of it on untraced passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Toy sizes (smoke-scale forests, a few hundred requests) for tests.
    pub toy: bool,
}

/// Logical cores of the host.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload or unpreparable inputs.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Pin the simulator's knobs so the environment cannot move a number:
    // one worker per host core, block memoization on (the defaults).
    tahoe_gpu_sim::set_sim_threads(Some(host_cores()));
    tahoe_gpu_sim::set_sim_memo(Some(true));
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "serve-covtype" => serve::run(&serve::ServeSpec::covtype(cfg.toy), cfg, &mut out)?,
        "offline-higgs" => offline::run(&offline::OfflineSpec::higgs(cfg.toy), cfg, &mut out)?,
        "cluster-letter-recorded" => {
            serve::run(&serve::ServeSpec::cluster_letter(cfg.toy), cfg, &mut out)?
        }
        other => {
            return Err(format!(
                "unknown workload {other}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    out.set("host_peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Peak resident set size of this process (MB, 10^6 bytes), from
/// `getrusage`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs
        /// starting with `ru_maxrss` (KiB).
        #[repr(C)]
        struct RUsage {
            times: [i64; 4],
            maxrss_kib: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        }
        let mut usage = RUsage {
            times: [0; 4],
            maxrss_kib: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a properly sized, writable `struct rusage`;
        // RUSAGE_SELF (0) only reads this process's counters.
        if unsafe { getrusage(0, &mut usage) } == 0 {
            return usage.maxrss_kib as f64 * 1024.0 / 1e6;
        }
    }
    f64::NAN
}
