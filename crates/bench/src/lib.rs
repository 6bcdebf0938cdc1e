//! Experiment harness regenerating every table and figure of the Tahoe
//! (EuroSys '21) evaluation.
//!
//! Each experiment lives in [`experiments`] as a library function returning a
//! serializable result; the `src/bin/` binaries are thin wrappers that parse
//! `--scale` / `--detail`, run the experiment, print its table(s), and write
//! its JSON record(s) under `results/`. `src/bin/all.rs` runs the full suite
//! and writes its digest, `SUMMARY.md`, through [`digest`].
//!
//! | Binary | Paper result |
//! |---|---|
//! | `fig2_motivation` | Fig. 2a/2b/2c — coalescing decay, reduction share, thread imbalance |
//! | `fig6_batch_size` | Fig. 6 — strategy crossover vs batch size |
//! | `fig7_overall` | the §7.2–7.4 run matrix: Fig. 7 and Table 3, Fig. 5, Fig. 8, the §7.3 reduction census, model accuracy and memory coalescing, and the §7.4 overheads |
//! | `fig9_scaling` | Fig. 9 — strong scaling on 1–128 V100s |
//! | `all` | everything above, plus the ablations and `SUMMARY.md` |

pub mod data;
pub mod digest;
pub mod env;
pub mod experiments;
pub mod report;

pub use data::{batch_of, named, prepare, prepare_all, prepare_named, Prepared};
pub use env::Env;
pub use report::Table;
