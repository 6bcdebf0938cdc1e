//! §7.3 "Quantifying effectiveness of removing blockwise reduction" — in how
//! many of the 45 (dataset × device) cases per regime does Tahoe's selected
//! strategy drop the block-wide reduction? The rows are the run matrix's
//! selections ([`crate::experiments::matrix`]).

use serde::Serialize;

use tahoe::strategy::Strategy;

use crate::report::{write_json, Table};

/// One (dataset, device, regime) selection.
#[derive(Clone, Debug, Serialize)]
pub struct CensusRow {
    /// Dataset name.
    pub dataset: String,
    /// Device name.
    pub device: String,
    /// `true` for the 100 K batch.
    pub high_parallelism: bool,
    /// Strategy Tahoe selected.
    pub strategy: Strategy,
}

/// §7.3 reduction-removal record.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CensusResult {
    /// Every selection.
    pub rows: Vec<CensusRow>,
}

impl CensusResult {
    /// `(removed, total)` for one regime.
    #[must_use]
    pub fn removed(&self, high: bool) -> (usize, usize) {
        let slice: Vec<&CensusRow> = self
            .rows
            .iter()
            .filter(|r| r.high_parallelism == high)
            .collect();
        let removed = slice
            .iter()
            .filter(|r| !r.strategy.has_block_reduction())
            .count();
        (removed, slice.len())
    }
}

/// Prints the census and writes the record.
pub fn report(result: &CensusResult) {
    let mut t = Table::new(
        "§7.3 — strategy selections (blockwise-reduction removal census)",
        &["dataset", "device", "regime", "strategy"],
    );
    for r in &result.rows {
        t.row(vec![
            r.dataset.clone(),
            r.device.clone(),
            if r.high_parallelism { "high" } else { "low" }.to_string(),
            r.strategy.name().to_string(),
        ]);
    }
    t.print();
    let (rh, th) = result.removed(true);
    let (rl, tl) = result.removed(false);
    println!(
        "block reduction removed in {rh}/{th} high-parallelism cases (paper: 27/45)\n\
         and {rl}/{tl} low-parallelism cases (paper: 13/45)"
    );
    write_json("sec73_reduction", result);
}
