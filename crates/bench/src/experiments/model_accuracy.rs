//! §7.3 "Quantifying the effectiveness of performance models" — does the
//! model pick the strategy the simulator says is fastest, and how much is
//! lost when it does not? The run matrix ([`crate::experiments::matrix`])
//! simulates every feasible strategy of each cell.

use serde::Serialize;

use tahoe::strategy::Strategy;
use tahoe_gpu_sim::metrics::geomean;

use crate::report::{f2, write_json, Table};

/// One (dataset, device, regime) comparison.
#[derive(Clone, Debug, Serialize)]
pub struct AccuracyRow {
    /// Dataset name.
    pub dataset: String,
    /// Device name.
    pub device: String,
    /// `true` for the 100 K batch.
    pub high_parallelism: bool,
    /// Strategy the model chose.
    pub predicted_best: Strategy,
    /// Strategy that was actually fastest in the simulator.
    pub actual_best: Strategy,
    /// Simulated time with the model's choice (ns).
    pub chosen_ns: f64,
    /// Simulated time of the true optimum (ns).
    pub optimal_ns: f64,
}

impl AccuracyRow {
    /// Whether the model picked the true optimum.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.predicted_best == self.actual_best
    }
}

/// §7.3 model-accuracy record.
#[derive(Clone, Debug, Default, Serialize)]
pub struct AccuracyResult {
    /// Every comparison.
    pub rows: Vec<AccuracyRow>,
}

impl AccuracyResult {
    /// `(correct, total)` top-choice accuracy.
    #[must_use]
    pub fn correct_count(&self) -> (usize, usize) {
        (
            self.rows.iter().filter(|r| r.correct()).count(),
            self.rows.len(),
        )
    }

    /// Geomean ratio `chosen / optimal` over incorrect cases (1.0 = no loss).
    #[must_use]
    pub fn loss_when_wrong(&self) -> f64 {
        let ratios: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| !r.correct())
            .map(|r| r.chosen_ns / r.optimal_ns)
            .collect();
        if ratios.is_empty() {
            1.0
        } else {
            geomean(&ratios)
        }
    }
}

/// Prints the accuracy tables and writes the record.
pub fn report(result: &AccuracyResult) {
    let mut t = Table::new(
        "§7.3 — performance-model accuracy (wrong cases only)",
        &["dataset", "device", "regime", "predicted", "actual", "slowdown"],
    );
    for r in result.rows.iter().filter(|r| !r.correct()) {
        t.row(vec![
            r.dataset.clone(),
            r.device.clone(),
            if r.high_parallelism { "high" } else { "low" }.to_string(),
            r.predicted_best.name().to_string(),
            r.actual_best.name().to_string(),
            f2(r.chosen_ns / r.optimal_ns),
        ]);
    }
    t.print();
    let (correct, total) = result.correct_count();
    println!(
        "model picked the true optimum in {correct}/{total} cases (paper: 87/90);\n\
         geomean slowdown when wrong: {:.3}x (paper: near-optimal)",
        result.loss_when_wrong()
    );
    write_json("sec73_model_accuracy", result);
}
