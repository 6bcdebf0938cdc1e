//! Fig. 8 — contribution breakdown of the three techniques.
//!
//! The paper applies (a) probability-based node rearrangement, then (b)
//! similarity-based tree rearrangement on top, then (c) model-guided strategy
//! selection on top of both, measuring the speedup over FIL after each step;
//! a technique's contribution is its speedup delta normalized by the total.
//! Each step is one of the run matrix's P100 engines: node rearrangement
//! alone, Tahoe's layout without model selection, and full Tahoe.

use serde::Serialize;

use crate::report::{pct, write_json, Table};

/// One dataset's breakdown.
#[derive(Clone, Debug, Serialize)]
pub struct BreakdownRow {
    /// Dataset name.
    pub dataset: String,
    /// Dataset id.
    pub dataset_id: usize,
    /// `true` for the 100 K batch.
    pub high_parallelism: bool,
    /// Speedup over FIL after (a) node rearrangement.
    pub speedup_a: f64,
    /// Speedup after (a)+(b) tree rearrangement.
    pub speedup_ab: f64,
    /// Speedup after (a)+(b)+(c) strategy selection (full Tahoe).
    pub speedup_abc: f64,
}

impl BreakdownRow {
    /// `(node, tree, selection)` contribution fractions of the total gain.
    ///
    /// Negative deltas (a step that happened to regress on this dataset) are
    /// clamped to zero before normalizing, as a stacked-percentage chart
    /// requires.
    #[must_use]
    pub fn contributions(&self) -> (f64, f64, f64) {
        let a = (self.speedup_a - 1.0).max(0.0);
        let b = (self.speedup_ab - self.speedup_a).max(0.0);
        let c = (self.speedup_abc - self.speedup_ab).max(0.0);
        let total = a + b + c;
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (a / total, b / total, c / total)
    }
}

/// Fig. 8 record: the P100 cells of the run matrix
/// ([`crate::experiments::matrix`]).
#[derive(Clone, Debug, Default, Serialize)]
pub struct BreakdownResult {
    /// One row per (dataset, regime).
    pub rows: Vec<BreakdownRow>,
}

/// Prints Fig. 8 and writes the record.
pub fn report(result: &BreakdownResult) {
    for high in [true, false] {
        let regime = if high { "high parallelism" } else { "low parallelism" };
        let mut t = Table::new(
            format!("Fig 8 — technique contribution breakdown, {regime}, P100"),
            &["id", "dataset", "node rearr.", "tree rearr.", "model select", "total speedup"],
        );
        for r in result.rows.iter().filter(|r| r.high_parallelism == high) {
            let (a, b, c) = r.contributions();
            t.row(vec![
                r.dataset_id.to_string(),
                r.dataset.clone(),
                pct(a),
                pct(b),
                pct(c),
                format!("{:.2}x", r.speedup_abc),
            ]);
        }
        t.print();
    }
    println!(
        "paper: node rearrangement dominates shallow forests (ids 5,7,10,15);\n\
         tree rearrangement dominates many-tree forests (ids 2,3,11,14);\n\
         strategy selection contributes least for low-parallelism tasks"
    );
    write_json("fig8_breakdown", result);
}
