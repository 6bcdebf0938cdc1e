//! Host-side parallelism for simulation workloads.
//!
//! Simulating sampled blocks (and whole per-dataset experiments) is
//! embarrassingly parallel; this module provides a dependency-light parallel
//! map built on `std::thread::scope`, so callers get order-preserving
//! results without any unsafe code.
//!
//! Worker count resolves, in priority order: the programmatic override set
//! via [`set_sim_threads`], the `TAHOE_SIM_THREADS` environment variable,
//! then `available_parallelism`. Results are merged in index order no matter
//! how many workers ran, so anything built on [`parallel_map`] — in
//! particular [`crate::kernel::KernelSim::simulate_blocks`] — is bit-identical
//! between a 1-thread and an N-thread run.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide programmatic worker override (0 = none; falls through to
/// `TAHOE_SIM_THREADS`, then `available_parallelism`).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count used by [`parallel_map`] process-wide.
///
/// `Some(n)` forces `n` workers (clamped to at least 1); `None` restores the
/// default resolution (`TAHOE_SIM_THREADS`, then `available_parallelism`).
/// Used by the determinism tests to compare a forced 1-thread run against a
/// multi-worker run in one process, and by `bench-ledger` to pin the worker
/// count.
pub fn set_sim_threads(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::SeqCst);
}

/// Worker threads [`parallel_map`] uses for an `n`-item job.
#[must_use]
pub fn sim_threads(n: usize) -> usize {
    let configured = match WORKER_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }),
        w => w,
    };
    configured.min(n).max(1)
}

/// `TAHOE_SIM_THREADS`, when set to a positive integer. Unparseable values
/// (e.g. `two`, `-1`) warn once to stderr instead of being silently
/// swallowed, then fall through to `available_parallelism`.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("TAHOE_SIM_THREADS").ok()?;
    match parse_worker_env(&raw) {
        Ok(v) => v,
        Err(()) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid TAHOE_SIM_THREADS={raw:?}: \
                     expected a non-negative integer; using host parallelism"
                );
            });
            None
        }
    }
}

/// Parses a `TAHOE_SIM_THREADS` value: `Ok(Some(n))` for a positive integer,
/// `Ok(None)` for "unset", `Err(())` for anything unparseable. Empty,
/// whitespace-only, and `0` all mean "unset" by design — `0` is "no
/// override", not "no workers", so wrapper scripts can clear the variable by
/// value without unsetting it.
fn parse_worker_env(raw: &str) -> Result<Option<usize>, ()> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(()),
    }
}

/// Applies `f` to every item index in `0..n`, in parallel, returning results
/// in index order.
///
/// Workers claim *chunks* of consecutive indices from a shared atomic cursor
/// and accumulate `(index, value)` pairs privately, so there is no per-item
/// lock contention; the chunks are stitched back into index order after the
/// scope joins. Falls back to sequential execution for tiny inputs where
/// thread spawn overhead dominates.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    const SEQUENTIAL_CUTOFF: usize = 4;
    let workers = sim_threads(n);
    if workers <= 1 || n <= SEQUENTIAL_CUTOFF {
        return (0..n).map(f).collect();
    }
    // ~4 claims per worker balances cursor traffic against load imbalance
    // from uneven item costs.
    let chunk = (n / (workers * 4)).max(1);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            produced.push((i, f(i)));
                        }
                    }
                    produced
                })
            })
            .collect();
        slots.extend((0..n).map(|_| None));
        for handle in handles {
            for (i, value) in handle.join().expect("simulation worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = parallel_map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
        assert_eq!(parallel_map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn heavy_closure_parallelizes_correctly() {
        let out = parallel_map(64, |i| {
            // Small busy work so threads actually interleave.
            let mut acc = 0u64;
            for k in 0..10_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn forced_worker_counts_preserve_index_order() {
        // Worker count must never change results — only wall-clock time.
        // (Other tests may race on the global override; that is safe for the
        // same reason.)
        for workers in [1usize, 2, 3, 7, 16] {
            set_sim_threads(Some(workers));
            let out = parallel_map(37, |i| i * 3 + 1);
            assert_eq!(out, (0..37).map(|i| i * 3 + 1).collect::<Vec<_>>(), "{workers} workers");
        }
        set_sim_threads(None);
    }

    #[test]
    fn worker_env_parsing() {
        // Positive integers, whitespace tolerated.
        assert_eq!(parse_worker_env("8"), Ok(Some(8)));
        assert_eq!(parse_worker_env(" 8 "), Ok(Some(8)));
        // Empty / whitespace-only / zero mean "unset" — zero is "no
        // override", not "no workers", by design.
        assert_eq!(parse_worker_env(""), Ok(None));
        assert_eq!(parse_worker_env("   "), Ok(None));
        assert_eq!(parse_worker_env("0"), Ok(None));
        assert_eq!(parse_worker_env("00"), Ok(None));
        // Anything unparseable is an error (warned once by `env_threads`).
        assert_eq!(parse_worker_env("two"), Err(()));
        assert_eq!(parse_worker_env("-1"), Err(()));
        assert_eq!(parse_worker_env("1.5"), Err(()));
        assert_eq!(parse_worker_env("8 workers"), Err(()));
    }

    #[test]
    fn sim_threads_is_clamped_to_job_size() {
        set_sim_threads(Some(64));
        assert_eq!(sim_threads(3), 3);
        assert_eq!(sim_threads(100), 64);
        set_sim_threads(None);
        assert!(sim_threads(1) == 1);
        assert!(sim_threads(usize::MAX) >= 1);
    }
}
