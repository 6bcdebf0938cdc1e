//! Request-path flight recorder and tuning decision audit (DESIGN.md §2.9).
//!
//! The profiler answers "what did this launch cost?"; this view answers the
//! two questions aggregates cannot: *why was request R slow?* and *why did
//! Algorithm 1 pick this plan?*
//!
//! - [`DecisionRecord`] — one entry per engine tuning event: every
//!   `(strategy, block size)` rung of the tuner's ladder with its predicted
//!   cost (or the rejection reason), the chosen plan, and the post-hoc
//!   simulated cost + model drift for the launch that actually ran — the
//!   one record of the model's drift.
//! - [`RequestPathRecord`] — one entry per serving request: the critical-path
//!   breakdown (batch formation wait, queue wait behind a busy device,
//!   execution) whose components sum *bitwise* to the request's end-to-end
//!   latency, because the serving simulators construct the latency as the
//!   left-to-right fold `form + queue + execute` rather than deriving the
//!   components after the fact.
//!
//! Both are logged as [`Event`]s and export as
//! [`TelemetrySink::decisions_json`] (the `decisions.json` view); the Chrome
//! trace additionally renders each request as a Perfetto async span plus
//! flow arrows into the executing device's track. Every field derives from
//! simulated-clock arithmetic and performance-model evaluation (no
//! wall-clock), so the view is byte-identical at any `TAHOE_SIM_THREADS`
//! (`tests/determinism.rs`).

use serde::{Deserialize, Serialize};

use crate::telemetry::{Event, TelemetrySink};

/// One `(strategy, block size)` candidate Algorithm 1 evaluated.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionCandidate {
    /// Strategy name (e.g. `"shared forest"`).
    pub strategy: String,
    /// Candidate threads per block.
    pub block_threads: u64,
    /// Model-predicted batch cost (ns); `None` (JSON `null`) when the
    /// candidate was rejected before costing — a rejection is not a
    /// zero-cost prediction.
    pub predicted_ns: Option<f64>,
    /// Why the candidate was rejected (`None` = feasible and costed).
    pub rejection: Option<String>,
}

/// One engine tuning event: the full candidate sweep, the chosen plan, and
/// the realized (simulated) cost of the launch it produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Cluster device index the batch ran on (0 for a bare engine; set by
    /// the device's [`TelemetrySink::for_device`] handle).
    pub device: u32,
    /// Engine batch ordinal on its device (1-based launch order).
    pub batch: u64,
    /// Samples in the batch.
    pub n_samples: u64,
    /// Whether the strategy was forced by the caller (the sweep is still
    /// recorded so the export shows what the model *would* have chosen).
    pub forced: bool,
    /// Strategy the engine ran.
    pub chosen_strategy: String,
    /// Block size the engine launched with.
    pub chosen_block_threads: u64,
    /// Model-predicted cost of the chosen plan for this batch (ns).
    pub predicted_ns: f64,
    /// Simulated kernel time of the launch (ns).
    pub simulated_ns: f64,
    /// `(predicted − simulated) / simulated` (0 when simulated is 0).
    pub relative_error: f64,
    /// Calibration generation the predictions were made under (0 = the raw
    /// §6 constants; bumps when the engine's calibrator refits and moves a
    /// scale).
    pub calibration_generation: u64,
    /// Always `false`: it has no effect and stays only because
    /// `bench-ledger` reads it.
    pub cache_hit: bool,
    /// Every rung of the tuning ladder, in sweep order (strategy-major,
    /// ascending block size).
    pub candidates: Vec<DecisionCandidate>,
}

/// One serving request's critical path. `form_ns + queue_ns + execute_ns`
/// equals `total_ns` bitwise: the serving simulators compute `total_ns` as
/// exactly that left-to-right sum and report it as the request's latency.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestPathRecord {
    /// Request index in the trace — the trace id linking the Chrome-trace
    /// async span and flow arrows to this record.
    pub request: u64,
    /// Serving batch ordinal the request was grouped into (dispatch order).
    pub batch: u64,
    /// Cluster device index that executed the batch (0 for a single engine).
    pub device: u32,
    /// Arrival time on the simulated clock (ns).
    pub arrival_ns: f64,
    /// Wait for the batch to form after arrival (ns; 0 for the request that
    /// completed the batch).
    pub form_ns: f64,
    /// Wait for the dispatch device to become free (ns).
    pub queue_ns: f64,
    /// Batch execution time on the device (ns).
    pub execute_ns: f64,
    /// Slice of `execute_ns` spent in block + global reductions
    /// (informational; not a critical-path component of the sum).
    pub reduction_ns: f64,
    /// End-to-end latency (ns) — bitwise `form_ns + queue_ns + execute_ns`.
    pub total_ns: f64,
}

/// The full flight-recorder export — the `decisions.json` view.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionsExport {
    /// One record per engine tuning event, in launch order (device-major
    /// after a cluster merge).
    pub decisions: Vec<DecisionRecord>,
    /// One record per serving request, in request order within each batch,
    /// batches in dispatch order.
    pub requests: Vec<RequestPathRecord>,
}

impl DecisionsExport {
    /// Parses an export previously written by
    /// [`TelemetrySink::decisions_json`] (e.g. a `decisions.json` file).
    ///
    /// # Errors
    ///
    /// Returns the deserialization error message when `text` is not a valid
    /// flight-recorder export.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// The decisions of a log, in record order.
fn decisions(log: &[Event]) -> impl Iterator<Item = &DecisionRecord> {
    log.iter().filter_map(|e| match e {
        Event::Decision(d) => Some(&**d),
        _ => None,
    })
}

/// The request paths of a log, in record order.
pub(crate) fn requests(log: &[Event]) -> impl Iterator<Item = &RequestPathRecord> {
    log.iter().filter_map(|e| match e {
        Event::Request(r) => Some(&**r),
        _ => None,
    })
}

impl TelemetrySink {
    /// Records one tuning decision. No-op when disabled. Called only from
    /// the engine's caller thread, after the launch finished.
    pub fn push_decision(&self, record: DecisionRecord) {
        if self.is_enabled() {
            self.push([Event::Decision(Box::new(record))]);
        }
    }

    /// Records one served request. No-op when disabled. Called only from
    /// the serving simulator's caller thread.
    pub fn record_request(&self, request: RequestPathRecord) {
        if self.is_enabled() {
            self.push([Event::Request(Box::new(request))]);
        }
    }

    /// The flight-recorder view of the log (empty when disabled).
    #[must_use]
    pub fn decisions(&self) -> DecisionsExport {
        self.view(|log| DecisionsExport {
            decisions: decisions(log).cloned().collect(),
            requests: requests(log).cloned().collect(),
        })
    }

    /// The flight-recorder export as pretty JSON (the `decisions.json`
    /// view).
    ///
    /// The document is streamed from the locked log: each decision, then
    /// each request path, is pretty-printed on its own and appended, so the
    /// export neither clones the records nor builds a whole-document value
    /// tree; its memory is the output text. The bytes are what
    /// pretty-printing [`Self::decisions`] gives, plus a trailing newline
    /// (`tests/decision_schema.rs` pins the equality).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the records are plain data that always
    /// serialize.
    #[must_use]
    pub fn decisions_json(&self) -> String {
        self.view(|log| {
            let mut doc = DocWriter::default();
            doc.open_array("decisions");
            for d in decisions(log) {
                doc.item(d);
            }
            doc.close_array();
            doc.open_array("requests");
            for r in requests(log) {
                doc.item(r);
            }
            doc.close_array();
            doc.finish()
        })
    }
}

/// Streams a pretty-printed JSON document of the shape
/// `{"<key>": [items…], …}` one array item at a time.
///
/// The bytes are what `serde_json::to_string_pretty` gives for the whole
/// document, plus a trailing newline. The memory is the text alone: each
/// item is formed, printed and dropped before the next, so no export builds
/// a whole-document value tree several times its text's size.
#[derive(Default)]
struct DocWriter {
    text: String,
    /// Items written to the open array.
    items: usize,
}

impl DocWriter {
    /// Opens the field `"<key>": [`; [`Self::item`] appends to it and
    /// [`Self::close_array`] closes it.
    fn open_array(&mut self, key: &str) {
        self.key(key);
        self.text.push('[');
        self.items = 0;
    }

    /// Appends one item to the open array. It is printed at nesting level 0
    /// and re-indented to its level-2 place; escaped strings never contain a
    /// raw newline, so every `'\n'` is a line break of the printer's.
    fn item<T: Serialize + ?Sized>(&mut self, item: &T) {
        let pretty = serde_json::to_string_pretty(item).expect("export item serializes");
        self.text
            .push_str(if self.items == 0 { "\n    " } else { ",\n    " });
        for (i, line) in pretty.split('\n').enumerate() {
            if i > 0 {
                self.text.push_str("\n    ");
            }
            self.text.push_str(line);
        }
        self.items += 1;
    }

    /// Closes the open array (`[]` when it got no item).
    fn close_array(&mut self) {
        self.text
            .push_str(if self.items == 0 { "]" } else { "\n  ]" });
    }

    fn key(&mut self, key: &str) {
        self.text.push_str(if self.text.is_empty() {
            "{\n  "
        } else {
            ",\n  "
        });
        self.text
            .push_str(&serde_json::to_string(key).expect("export key serializes"));
        self.text.push_str(": ");
    }

    /// Closes the document, which holds at least one field.
    fn finish(mut self) -> String {
        self.text.push_str("\n}\n");
        self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(device: u32) -> DecisionRecord {
        DecisionRecord {
            device,
            batch: 1,
            n_samples: 64,
            forced: false,
            chosen_strategy: "shared data".to_string(),
            chosen_block_threads: 128,
            predicted_ns: 900.0,
            simulated_ns: 1_000.0,
            relative_error: -0.1,
            calibration_generation: 0,
            cache_hit: false,
            candidates: vec![
                DecisionCandidate {
                    strategy: "shared data".to_string(),
                    block_threads: 128,
                    predicted_ns: Some(900.0),
                    rejection: None,
                },
                DecisionCandidate {
                    strategy: "shared forest".to_string(),
                    block_threads: 1024,
                    predicted_ns: None,
                    rejection: Some("geometry infeasible".to_string()),
                },
            ],
        }
    }

    fn request(device: u32) -> RequestPathRecord {
        RequestPathRecord {
            request: 3,
            batch: 0,
            device,
            arrival_ns: 150.0,
            form_ns: 50.0,
            queue_ns: 25.0,
            execute_ns: 1_000.0,
            reduction_ns: 100.0,
            total_ns: 50.0 + 25.0 + 1_000.0,
        }
    }

    #[test]
    fn disabled_sink_stores_nothing() {
        let sink = TelemetrySink::Disabled;
        sink.push_decision(decision(0));
        sink.record_request(request(0));
        let e = sink.decisions();
        assert!(e.decisions.is_empty());
        assert!(e.requests.is_empty());
    }

    #[test]
    fn recording_sink_accumulates_and_round_trips() {
        let sink = TelemetrySink::recording();
        sink.push_decision(decision(0));
        sink.record_request(request(0));
        let e = sink.decisions();
        assert_eq!(e.decisions.len(), 1);
        assert_eq!(e.requests.len(), 1);
        assert_eq!(e.decisions[0].candidates.len(), 2);
        let back = DecisionsExport::from_json(&sink.decisions_json()).expect("export parses");
        assert_eq!(back, e, "round-trip must be lossless");
    }

    #[test]
    fn decision_ordinals_continue_from_the_latest_decision() {
        let sink = TelemetrySink::recording();
        assert_eq!(sink.next_decision_batch(), 1);
        let mut d = decision(0);
        d.batch = 7;
        sink.push_decision(d.clone());
        sink.span("after", crate::telemetry::PID_GPU, 0, 0.0, 1.0);
        assert_eq!(sink.next_decision_batch(), 8);
        // A device handle counts its own device's decisions only.
        let dev = sink.for_device(1, "test");
        assert_eq!(dev.next_decision_batch(), 1);
        d.batch = 3;
        dev.push_decision(d);
        assert_eq!(dev.next_decision_batch(), 4);
        assert_eq!(sink.next_decision_batch(), 8);
    }
}
