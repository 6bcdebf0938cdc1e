//! Windowed time series: counter deltas and gauges on fixed simulated-clock
//! windows (DESIGN.md §2.9).
//!
//! The counters and kernel profiles are end-of-run aggregates — queue
//! build-up and device utilization *over time* are invisible in them. This
//! view bins the log into fixed windows of [`WINDOW_NS`] (1 ms of simulated
//! time) and exports them as
//! [`TelemetrySink::timeseries_json`] (the `timeseries.json` view) and as
//! Perfetto counter tracks (`"ph":"C"`) inside the Chrome trace.
//!
//! Two sample shapes, each derived from the events that carry them:
//!
//! - **sums** — per-window deltas: a launch's busy time and fetched bytes,
//!   apportioned across the windows its interval overlaps; a serving
//!   batch's dispatch and its queue wait past the policy's ready instant;
//! - **gauges** — the last sample in a window wins: a launch's roofline
//!   utilization, a batch's inflight count over its execution, and the
//!   recorded [`Event::Gauge`] samples (queue depth, DRAM in-use/high-water).
//!
//! Window edges are fixed multiples of [`WINDOW_NS`], never
//! sample-dependent, each window folds its samples in log order, and every
//! export iterates `BTreeMap`s, so `timeseries_json()` is byte-identical at
//! any `TAHOE_SIM_THREADS`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::telemetry::{Event, TelemetrySink};

/// Sampling window: 1 ms of simulated time.
pub const WINDOW_NS: u64 = 1_000_000;

/// Sum series: simulated-kernel busy nanoseconds (apportioned per window).
pub const BUSY_NS: &str = "busy_ns";
/// Sum series: global-memory bytes fetched by traced launches.
pub const GMEM_FETCHED_BYTES: &str = "gmem_fetched_bytes";
/// Gauge series: per-launch roofline utilization (last launch in window).
pub const ROOFLINE_UTILIZATION: &str = "roofline_utilization";
/// Gauge series: device DRAM bytes in use after a batch.
pub const MEM_IN_USE_BYTES: &str = "mem_in_use_bytes";
/// Gauge series: device DRAM high-water footprint after a batch.
pub const MEM_HIGH_WATER_BYTES: &str = "mem_high_water_bytes";
/// Gauge series: requests arrived but not yet dispatched.
pub const QUEUE_DEPTH: &str = "queue_depth";
/// Sum series: nanoseconds batches spent waiting for a free device.
pub const QUEUE_WAIT_NS: &str = "queue_wait_ns";
/// Sum series: batches dispatched to a device.
pub const DISPATCHED_BATCHES: &str = "dispatched_batches";
/// Gauge series: batches in flight on the device(s).
pub const INFLIGHT_BATCHES: &str = "inflight_batches";

/// Window index of a simulated timestamp. Non-finite and negative times
/// clamp to window 0, mirroring `LatencyHistogram::record`.
fn window_of(t_ns: f64) -> u64 {
    if t_ns.is_finite() && t_ns > 0.0 {
        (t_ns as u64) / WINDOW_NS // saturating cast
    } else {
        0
    }
}

/// Per-window points of every `(device, series)`.
type Series = BTreeMap<(u32, &'static str), BTreeMap<u64, f64>>;

/// Adds `value` to window `w` of a sum series.
fn add(sums: &mut Series, key: (u32, &'static str), t_ns: f64, value: f64) {
    *sums.entry(key).or_default().entry(window_of(t_ns)).or_insert(0.0) += value;
}

/// Apportions `value` across the windows `[start_ns, end_ns)` overlaps,
/// proportional to overlap. Degenerate intervals collapse to a point sample
/// at `start_ns`.
fn add_interval(sums: &mut Series, key: (u32, &'static str), start_ns: f64, end_ns: f64, value: f64) {
    let span = end_ns - start_ns;
    if !(span.is_finite() && span > 0.0) {
        add(sums, key, start_ns, value);
        return;
    }
    let points = sums.entry(key).or_default();
    for w in window_of(start_ns)..=window_of(end_ns) {
        let lo = (w * WINDOW_NS) as f64;
        let hi = lo + WINDOW_NS as f64;
        let overlap = end_ns.min(hi) - start_ns.max(lo);
        if overlap > 0.0 {
            *points.entry(w).or_insert(0.0) += value * overlap / span;
        }
    }
}

/// Records a gauge sample; the last one in a window wins.
fn gauge(gauges: &mut Series, key: (u32, &'static str), t_ns: f64, value: f64) {
    gauges.entry(key).or_default().insert(window_of(t_ns), value);
}

/// The time-series view of a log.
pub(crate) fn export(log: &[Event]) -> TimeSeriesExport {
    let mut sums = Series::new();
    let mut gauges = Series::new();
    for e in log {
        match e {
            Event::Launch(l) => {
                let (start, total) = (l.start_ns, l.profile.total_ns);
                add_interval(&mut sums, (l.device, BUSY_NS), start, start + total, total);
                let fetched = l.profile.gmem_fetched_bytes as f64;
                add_interval(&mut sums, (l.device, GMEM_FETCHED_BYTES), start, start + total, fetched);
                let roofline = l.profile.roofline_utilization;
                gauge(&mut gauges, (l.device, ROOFLINE_UTILIZATION), start, roofline);
            }
            Event::Batch(b) => {
                let at = b.dispatch_ns;
                add(&mut sums, (b.device, DISPATCHED_BATCHES), at, 1.0);
                add(&mut sums, (b.device, QUEUE_WAIT_NS), at, at - b.ready_ns);
                gauge(&mut gauges, (b.device, INFLIGHT_BATCHES), at, 1.0);
                gauge(&mut gauges, (b.device, INFLIGHT_BATCHES), at + b.gpu_ns, 0.0);
            }
            Event::Gauge { device, series, t_ns, value } => {
                gauge(&mut gauges, (*device, series), *t_ns, *value);
            }
            _ => {}
        }
    }
    let point = |w: u64, v: f64| SeriesPoint {
        window: w,
        start_ns: w.saturating_mul(WINDOW_NS),
        value: v,
    };
    let mut series: Vec<SeriesExport> = Vec::with_capacity(sums.len() + gauges.len());
    for (kind, map) in [("sum", &sums), ("gauge", &gauges)] {
        for ((device, name), points) in map {
            series.push(SeriesExport {
                device: *device,
                name: (*name).to_string(),
                kind: kind.to_string(),
                points: points.iter().map(|(&w, &v)| point(w, v)).collect(),
            });
        }
    }
    series.sort_by(|a, b| (a.device, &a.name, &a.kind).cmp(&(b.device, &b.name, &b.kind)));
    TimeSeriesExport {
        window_ns: WINDOW_NS,
        series,
    }
}

/// One windowed sample of a sum or gauge series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Window index (`start_ns / window_ns`).
    pub window: u64,
    /// Window start on the simulated clock (`window × window_ns`).
    pub start_ns: u64,
    /// Accumulated delta (sums) or last sample (gauges) in the window.
    pub value: f64,
}

/// One named series of windowed samples.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesExport {
    /// Cluster device index (0 for a bare engine).
    pub device: u32,
    /// Series name (one of the constants in this module).
    pub name: String,
    /// `"sum"` (per-window deltas) or `"gauge"` (last sample wins).
    pub kind: String,
    /// Non-empty windows in ascending window order.
    pub points: Vec<SeriesPoint>,
}

/// The full time-series export — the `timeseries.json` view.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesExport {
    /// Sampling window width (simulated ns).
    pub window_ns: u64,
    /// Every recorded series, sorted by `(device, name, kind)`.
    pub series: Vec<SeriesExport>,
}

impl TimeSeriesExport {
    /// Looks up a series by device, name, and kind.
    #[must_use]
    pub fn series(&self, device: u32, name: &str, kind: &str) -> Option<&SeriesExport> {
        self.series
            .iter()
            .find(|s| s.device == device && s.name == name && s.kind == kind)
    }

    /// Parses an export previously written by
    /// [`TelemetrySink::timeseries_json`] (e.g. a `timeseries.json` file).
    ///
    /// # Errors
    ///
    /// Returns the deserialization error message when `text` is not a valid
    /// time-series export.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl TelemetrySink {
    /// The time-series view of the log (empty when disabled).
    #[must_use]
    pub fn timeseries(&self) -> TimeSeriesExport {
        self.view(export)
    }

    /// The time-series export as pretty JSON (the `timeseries.json` view).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the export is plain data that always
    /// serializes.
    #[must_use]
    pub fn timeseries_json(&self) -> String {
        let mut s =
            serde_json::to_string_pretty(&self.timeseries()).expect("timeseries serialize");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::ServingBatch;

    fn batch(dispatch_ns: f64) -> ServingBatch {
        ServingBatch {
            device: 0,
            index: 0,
            size: 1,
            strategy: "direct",
            first_arrival_ns: 0.0,
            ready_ns: 0.0,
            dispatch_ns,
            gpu_ns: 10.0,
        }
    }

    #[test]
    fn disabled_sink_stores_no_samples() {
        let sink = TelemetrySink::Disabled;
        sink.record_batch(batch(0.0));
        sink.ts_gauge(0, QUEUE_DEPTH, 0.0, 3.0);
        let e = sink.timeseries();
        assert_eq!(e.window_ns, WINDOW_NS);
        assert!(e.series.is_empty());
    }

    #[test]
    fn sums_accumulate_within_a_window() {
        let sink = TelemetrySink::recording();
        for t in [10.0, 999_999.0, 1_000_000.0] {
            sink.record_batch(batch(t));
        }
        let e = sink.timeseries();
        let s = e.series(0, DISPATCHED_BATCHES, "sum").expect("series");
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0], SeriesPoint { window: 0, start_ns: 0, value: 2.0 });
        assert_eq!(
            s.points[1],
            SeriesPoint { window: 1, start_ns: 1_000_000, value: 1.0 }
        );
    }

    #[test]
    fn gauges_keep_the_last_sample_per_window() {
        let sink = TelemetrySink::recording();
        sink.ts_gauge(0, QUEUE_DEPTH, 100.0, 5.0);
        sink.ts_gauge(0, QUEUE_DEPTH, 200.0, 2.0);
        sink.ts_gauge(0, QUEUE_DEPTH, 1_500_000.0, 7.0);
        let e = sink.timeseries();
        let s = e.series(0, QUEUE_DEPTH, "gauge").expect("series");
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].value, 2.0);
        assert_eq!(s.points[1].value, 7.0);
    }

    #[test]
    fn intervals_apportion_by_overlap() {
        let mut sums = Series::new();
        // 2 ms of busy time from 0.5 ms to 2.5 ms: ¼ + ½ + ¼ of the value.
        add_interval(&mut sums, (0, BUSY_NS), 500_000.0, 2_500_000.0, 2_000_000.0);
        let points: Vec<f64> = sums[&(0, BUSY_NS)].values().copied().collect();
        assert_eq!(points.len(), 3);
        assert!((points[0] - 500_000.0).abs() < 1e-6);
        assert!((points[1] - 1_000_000.0).abs() < 1e-6);
        assert!((points[2] - 500_000.0).abs() < 1e-6);
        let total: f64 = points.iter().sum();
        assert!((total - 2_000_000.0).abs() < 1e-6, "apportioning conserves the value");
    }

    #[test]
    fn degenerate_intervals_collapse_to_point_samples() {
        let mut sums = Series::new();
        add_interval(&mut sums, (0, BUSY_NS), 100.0, 100.0, 42.0);
        add_interval(&mut sums, (0, BUSY_NS), f64::NAN, f64::NAN, 1.0);
        let points = &sums[&(0, BUSY_NS)];
        assert_eq!(points.len(), 1);
        assert!((points[&0] - 43.0).abs() < 1e-12);
    }

    #[test]
    fn export_round_trips_through_serde() {
        let sink = TelemetrySink::recording();
        sink.record_batch(batch(3_000_000.0));
        sink.ts_gauge(0, ROOFLINE_UTILIZATION, 10.0, 0.42);
        let e = sink.timeseries();
        let text = sink.timeseries_json();
        let back = TimeSeriesExport::from_json(&text).expect("export parses");
        assert_eq!(back, e, "round-trip must be lossless");
    }
}
