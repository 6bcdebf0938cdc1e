//! Block-result memoization support (DESIGN.md §2.12).
//!
//! Within one launch, many sampled blocks are *identical* as far as the
//! simulator can tell: same block shape, same tree slice, same sample-window
//! content, same alignment relative to the coalescing grain. Simulating each
//! of them is redundant — [`crate::kernel::KernelSim::simulate_blocks_keyed`]
//! simulates one representative per distinct fingerprint and replays the
//! cached [`crate::block::BlockResult`] for the rest, in plan order, so the
//! merged outcome is bit-identical to simulating every block.
//!
//! This module holds the pieces the keyed path needs:
//!
//! - [`BlockKey`] / [`KeyHasher`] — a deterministic, seedless 128-bit
//!   content fingerprint. The hasher is plain stack state (two u64
//!   accumulators), so computing a key never allocates; callers feed it the
//!   exact quantities their block closure depends on.
//! - [`MemoStats`] — per-`KernelSim` hit/miss/footprint accounting, emitted
//!   as telemetry counters from `KernelSim::finish` (and only there).
//! - [`set_sim_memo`] / [`sim_memo`] — the process-wide on/off switch,
//!   mirroring [`crate::parallel::set_sim_threads`]: programmatic override
//!   first, then the `TAHOE_SIM_MEMO` environment variable, then the
//!   default (on). Turning memoization off must never change results — the
//!   determinism suite pins that cross-product.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide memoization override: 0 = unset, 1 = forced off,
/// 2 = forced on.
static MEMO_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides whether [`crate::kernel::KernelSim::simulate_blocks_keyed`]
/// memoizes, process-wide.
///
/// `Some(false)` forces every planned block to simulate (the keyed path
/// degrades to [`crate::kernel::KernelSim::simulate_blocks`]); `Some(true)`
/// forces memoization on; `None` restores the default resolution
/// (`TAHOE_SIM_MEMO`, then on). Used by the determinism tests to compare
/// both paths in one process, and by `bench-ledger` to pin the default.
pub fn set_sim_memo(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    MEMO_OVERRIDE.store(v, Ordering::SeqCst);
}

/// Whether the keyed simulation path memoizes. Resolution order: the
/// [`set_sim_memo`] override, then `TAHOE_SIM_MEMO`, then on.
#[must_use]
pub fn sim_memo() -> bool {
    match MEMO_OVERRIDE.load(Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => env_memo().unwrap_or(true),
    }
}

/// `TAHOE_SIM_MEMO`, when set to a recognized value. Invalid values warn
/// once to stderr and fall through to the default (on).
fn env_memo() -> Option<bool> {
    let raw = std::env::var("TAHOE_SIM_MEMO").ok()?;
    match parse_memo_env(&raw) {
        Ok(v) => v,
        Err(()) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid TAHOE_SIM_MEMO={raw:?}: \
                     expected 0/1, true/false, or on/off; memoization stays on"
                );
            });
            None
        }
    }
}

/// Parses a `TAHOE_SIM_MEMO` value: `Ok(Some(_))` for a recognized on/off
/// spelling, `Ok(None)` for empty/whitespace (unset), `Err(())` otherwise.
fn parse_memo_env(raw: &str) -> Result<Option<bool>, ()> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    if t == "0" || t.eq_ignore_ascii_case("false") || t.eq_ignore_ascii_case("off") {
        return Ok(Some(false));
    }
    if t == "1" || t.eq_ignore_ascii_case("true") || t.eq_ignore_ascii_case("on") {
        return Ok(Some(true));
    }
    Err(())
}

/// 128-bit block fingerprint produced by [`KeyHasher`].
///
/// Keys are compared for exact equality; a collision would replay the wrong
/// block's result, so the key is 128 bits wide (collision probability is
/// negligible at any realistic grid size) and the hasher folds every input
/// word into both halves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockKey {
    hi: u64,
    lo: u64,
}

/// Deterministic, seedless streaming hasher for [`BlockKey`]s.
///
/// Plain stack state — two accumulators mixed with the splitmix64 finalizer
/// per input word — so fingerprinting a block allocates nothing. The stream
/// is length-suffixed, and words are position-dependent: `[a, b]` and
/// `[b, a]` hash differently.
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher {
    a: u64,
    b: u64,
    len: u64,
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// A fresh hasher. Always starts from the same fixed state, so the same
    /// input stream produces the same key in every process.
    #[must_use]
    pub fn new() -> Self {
        Self {
            a: 0x243f_6a88_85a3_08d3, // pi digits — nothing-up-my-sleeve
            b: 0x1319_8a2e_0370_7344,
            len: 0,
        }
    }

    /// Folds one 64-bit word into the fingerprint.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.a = mix(self.a ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.b = mix(self.b.wrapping_add(w).wrapping_add(self.a.rotate_left(23)));
        self.len = self.len.wrapping_add(1);
    }

    /// Folds a slice of f32 values by their exact bit patterns, so any ULP
    /// difference (or a NaN payload change) produces a different key.
    #[inline]
    pub fn write_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.write_u64(u64::from(v.to_bits()));
        }
    }

    /// Finishes the stream into a key.
    #[must_use]
    pub fn finish(self) -> BlockKey {
        BlockKey {
            hi: mix(self.a ^ self.len),
            lo: mix(self.b ^ self.len.rotate_left(32)),
        }
    }
}

/// Memoization accounting of one [`crate::kernel::KernelSim`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Planned blocks replayed from the cache.
    pub hits: u64,
    /// Planned blocks simulated in detail (one per distinct key).
    pub misses: u64,
    /// Approximate bytes of cached block results held while the launch's
    /// cache was live.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_env_parsing() {
        assert_eq!(parse_memo_env(""), Ok(None));
        assert_eq!(parse_memo_env("   "), Ok(None));
        assert_eq!(parse_memo_env("0"), Ok(Some(false)));
        assert_eq!(parse_memo_env("off"), Ok(Some(false)));
        assert_eq!(parse_memo_env("FALSE"), Ok(Some(false)));
        assert_eq!(parse_memo_env("1"), Ok(Some(true)));
        assert_eq!(parse_memo_env(" on "), Ok(Some(true)));
        assert_eq!(parse_memo_env("True"), Ok(Some(true)));
        assert_eq!(parse_memo_env("yes"), Err(()));
        assert_eq!(parse_memo_env("2"), Err(()));
        assert_eq!(parse_memo_env("-1"), Err(()));
    }

    #[test]
    fn identical_streams_hash_identically() {
        let mut a = KeyHasher::new();
        let mut b = KeyHasher::new();
        for h in [&mut a, &mut b] {
            h.write_u64(7);
            h.write_f32s(&[1.0, -0.5, f32::NAN]);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_changes_flip_the_key() {
        let key = |values: &[f32]| {
            let mut h = KeyHasher::new();
            h.write_f32s(values);
            h.finish()
        };
        let base = key(&[1.0, 2.0, 3.0]);
        // One ULP on one value must miss — this is the no-false-sharing
        // property the strategy keys rely on.
        assert_ne!(base, key(&[1.0, 2.0, f32::from_bits(3.0f32.to_bits() + 1)]));
        assert_ne!(base, key(&[1.0, 2.0]));
        // -0.0 and 0.0 differ in bits, so they differ in key.
        assert_ne!(key(&[0.0]), key(&[-0.0]));
    }

    #[test]
    fn keys_are_order_and_length_sensitive() {
        let key = |words: &[u64]| {
            let mut h = KeyHasher::new();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        assert_ne!(key(&[1, 2]), key(&[2, 1]));
        assert_ne!(key(&[0]), key(&[0, 0]));
        assert_ne!(key(&[]), key(&[0]));
    }
}
