//! Windowed time-series sampler: counter deltas, gauges, and latency
//! percentiles on fixed simulated-clock window boundaries (DESIGN.md §2.14).
//!
//! The telemetry counters (§2.9) and kernel profiles (§2.10) are end-of-run
//! aggregates — queue build-up, device utilization, and tail-latency
//! excursions *over time* are invisible in them. This module adds that view:
//! a [`TimeSeriesStore`] behind every recording [`TelemetrySink`] that bins
//! samples into fixed-width windows of the simulated clock
//! ([`DEFAULT_WINDOW_NS`] = 1 ms simulated) and exports them as
//! [`TelemetrySink::timeseries_json`] (the `--timeseries <path>` payload)
//! plus Perfetto counter tracks (`"ph":"C"`) inside the Chrome trace.
//!
//! Three sample shapes:
//!
//! - **sums** ([`TelemetrySink::ts_add`] / [`TelemetrySink::ts_add_interval`])
//!   — per-window deltas (dispatched batches, queue-wait ns, gmem bytes,
//!   busy ns apportioned across the windows an interval overlaps);
//! - **gauges** ([`TelemetrySink::ts_gauge`]) — instantaneous values where
//!   the last sample in a window wins (queue depth, inflight batches, DRAM
//!   in-use/high-water, roofline utilization);
//! - **latency/SLO windows** ([`TelemetrySink::record_latency_window`] /
//!   [`TelemetrySink::record_slo_window`]) — per-window request-latency
//!   histograms (the same fixed log2 edges as [`LatencyHistogram`], sliced
//!   into p50/p95/p99 on export) and deadline-attainment fractions.
//!
//! # Determinism
//!
//! Samples are recorded only from deterministic points — `KernelSim::finish`
//! after the plan-order merge, and the engine/serving caller thread — never
//! from simulation workers. Window edges are fixed multiples of `window_ns`,
//! never sample-dependent, and every export iterates `BTreeMap`s, so
//! `timeseries_json()` is byte-identical at any `TAHOE_SIM_THREADS`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::profile::LatencyHistogram;
use crate::telemetry::TelemetrySink;

/// Default sampling window: 1 ms of simulated time.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000;

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

/// Window state shared behind a recording sink (one per
/// `telemetry::SinkInner`).
#[derive(Debug)]
pub struct TimeSeriesStore {
    window_ns: u64,
    /// Per-window accumulated deltas, keyed by `(device, series name)`.
    sums: BTreeMap<(u32, String), BTreeMap<u64, f64>>,
    /// Per-window last-wins samples, keyed by `(device, series name)`.
    gauges: BTreeMap<(u32, String), BTreeMap<u64, f64>>,
    /// Per-window request-latency histograms.
    latency: BTreeMap<u64, LatencyHistogram>,
    /// Per-window `(total, met)` deadline outcomes.
    slo: BTreeMap<u64, (u64, u64)>,
}

impl Default for TimeSeriesStore {
    fn default() -> Self {
        TimeSeriesStore {
            window_ns: DEFAULT_WINDOW_NS,
            sums: BTreeMap::new(),
            gauges: BTreeMap::new(),
            latency: BTreeMap::new(),
            slo: BTreeMap::new(),
        }
    }
}

impl TimeSeriesStore {
    /// Window index of a simulated timestamp. Non-finite and negative times
    /// clamp to window 0, mirroring `LatencyHistogram::record`.
    fn window_of(&self, t_ns: f64) -> u64 {
        if t_ns.is_finite() && t_ns > 0.0 {
            (t_ns as u64) / self.window_ns // saturating cast
        } else {
            0
        }
    }

    fn add(&mut self, device: u32, name: &str, t_ns: f64, value: f64) {
        let w = self.window_of(t_ns);
        *self
            .sums
            .entry((device, name.to_string()))
            .or_default()
            .entry(w)
            .or_insert(0.0) += value;
    }

    /// Apportions `value` across the windows `[start_ns, end_ns)` overlaps,
    /// proportional to overlap. Degenerate intervals collapse to a point
    /// sample at `start_ns`.
    fn add_interval(&mut self, device: u32, name: &str, start_ns: f64, end_ns: f64, value: f64) {
        let span = end_ns - start_ns;
        if !(span.is_finite() && span > 0.0) {
            self.add(device, name, start_ns, value);
            return;
        }
        let w0 = self.window_of(start_ns);
        let w1 = self.window_of(end_ns);
        let points = self.sums.entry((device, name.to_string())).or_default();
        for w in w0..=w1 {
            let lo = (w * self.window_ns) as f64;
            let hi = lo + self.window_ns as f64;
            let overlap = end_ns.min(hi) - start_ns.max(lo);
            if overlap > 0.0 {
                *points.entry(w).or_insert(0.0) += value * overlap / span;
            }
        }
    }

    fn gauge(&mut self, device: u32, name: &str, t_ns: f64, value: f64) {
        let w = self.window_of(t_ns);
        self.gauges
            .entry((device, name.to_string()))
            .or_default()
            .insert(w, value);
    }

    fn record_latency(&mut self, t_ns: f64, latency_ns: f64) {
        let w = self.window_of(t_ns);
        self.latency.entry(w).or_default().record(latency_ns);
    }

    fn record_slo(&mut self, t_ns: f64, met: bool) {
        let w = self.window_of(t_ns);
        let slot = self.slo.entry(w).or_insert((0, 0));
        slot.0 += 1;
        if met {
            slot.1 += 1;
        }
    }

    /// Folds a cluster device's store into this one, re-tagging its series
    /// from the device-local index (always 0) to `device_idx`. Latency and
    /// SLO windows merge element-wise (fixed edges, plain sums). Callers
    /// (the cluster absorb path) must invoke this in device-index order so
    /// the merged export is deterministic. The destination's `window_ns`
    /// wins; `GpuCluster` propagates its window to device sinks at
    /// construction so the two always agree.
    pub(crate) fn merge_from(&mut self, other: TimeSeriesStore, device_idx: usize) {
        for ((dev, name), points) in other.sums {
            let dst = self
                .sums
                .entry((dev + device_idx as u32, name))
                .or_default();
            for (w, v) in points {
                *dst.entry(w).or_insert(0.0) += v;
            }
        }
        for ((dev, name), points) in other.gauges {
            let dst = self
                .gauges
                .entry((dev + device_idx as u32, name))
                .or_default();
            for (w, v) in points {
                dst.insert(w, v);
            }
        }
        for (w, h) in other.latency {
            self.latency.entry(w).or_default().merge(&h);
        }
        for (w, (total, met)) in other.slo {
            let slot = self.slo.entry(w).or_insert((0, 0));
            slot.0 += total;
            slot.1 += met;
        }
    }

    fn export(&self) -> TimeSeriesExport {
        let point = |w: u64, v: f64| SeriesPoint {
            window: w,
            start_ns: w.saturating_mul(self.window_ns),
            value: v,
        };
        let mut series: Vec<SeriesExport> = Vec::with_capacity(self.sums.len() + self.gauges.len());
        for (kind, map) in [("sum", &self.sums), ("gauge", &self.gauges)] {
            for ((device, name), points) in map {
                series.push(SeriesExport {
                    device: *device,
                    name: name.clone(),
                    kind: kind.to_string(),
                    points: points.iter().map(|(&w, &v)| point(w, v)).collect(),
                });
            }
        }
        series.sort_by(|a, b| {
            (a.device, &a.name, &a.kind).cmp(&(b.device, &b.name, &b.kind))
        });
        let latency_windows = self
            .latency
            .iter()
            .map(|(&w, h)| {
                let e = h.export();
                LatencyWindowExport {
                    window: w,
                    start_ns: w.saturating_mul(self.window_ns),
                    count: e.count,
                    mean_ns: e.mean_ns(),
                    p50_ns: e.quantile_upper_ns(0.50),
                    p95_ns: e.quantile_upper_ns(0.95),
                    p99_ns: e.quantile_upper_ns(0.99),
                    max_ns: e.max_ns,
                }
            })
            .collect();
        let slo_windows = self
            .slo
            .iter()
            .map(|(&w, &(total, met))| SloWindowExport {
                window: w,
                start_ns: w.saturating_mul(self.window_ns),
                total,
                met,
                attainment: if total == 0 { 1.0 } else { met as f64 / total as f64 },
            })
            .collect();
        TimeSeriesExport {
            window_ns: self.window_ns,
            series,
            latency_windows,
            slo_windows,
        }
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

/// Latency percentiles of one window, sliced from its fixed-edge log2
/// histogram (`quantile_upper_ns`, bucket-resolution).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyWindowExport {
    /// Window index.
    pub window: u64,
    /// Window start on the simulated clock.
    pub start_ns: u64,
    /// Requests that completed in this window.
    pub count: u64,
    /// Mean request latency (ns).
    pub mean_ns: f64,
    /// Upper bucket edge containing the median (ns).
    pub p50_ns: u64,
    /// Upper bucket edge containing the 95th percentile (ns).
    pub p95_ns: u64,
    /// Upper bucket edge containing the 99th percentile (ns).
    pub p99_ns: u64,
    /// Largest rounded latency in the window (ns).
    pub max_ns: u64,
}

/// Deadline outcomes of one window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloWindowExport {
    /// Window index.
    pub window: u64,
    /// Window start on the simulated clock.
    pub start_ns: u64,
    /// Requests that completed in this window.
    pub total: u64,
    /// Of those, requests that met their deadline.
    pub met: u64,
    /// `met / total` (1.0 when the window is empty).
    pub attainment: f64,
}

/// The full time-series export — the `--timeseries <path>` payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesExport {
    /// Sampling window width (simulated ns).
    pub window_ns: u64,
    /// Every recorded series, sorted by `(device, name, kind)`.
    pub series: Vec<SeriesExport>,
    /// Per-window latency percentiles, in ascending window order.
    pub latency_windows: Vec<LatencyWindowExport>,
    /// Per-window SLO attainment, in ascending window order.
    pub slo_windows: Vec<SloWindowExport>,
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
    /// [`TelemetrySink::timeseries_json`] (e.g. a `--timeseries <path>`
    /// file).
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
    /// Adds `value` to a sum series at simulated time `t_ns`. No-op when
    /// disabled; only deterministic caller-thread code paths may call this
    /// (never simulation workers).
    pub fn ts_add(&self, device: u32, name: &str, t_ns: f64, value: f64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.timeseries.lock().add(device, name, t_ns, value);
        }
    }

    /// Adds `value` to a sum series, apportioned across the windows
    /// `[start_ns, end_ns)` overlaps. No-op when disabled.
    pub fn ts_add_interval(
        &self,
        device: u32,
        name: &str,
        start_ns: f64,
        end_ns: f64,
        value: f64,
    ) {
        if let TelemetrySink::Recording(inner) = self {
            inner
                .timeseries
                .lock()
                .add_interval(device, name, start_ns, end_ns, value);
        }
    }

    /// Records a gauge sample at simulated time `t_ns`; the last sample in
    /// a window wins. No-op when disabled.
    pub fn ts_gauge(&self, device: u32, name: &str, t_ns: f64, value: f64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.timeseries.lock().gauge(device, name, t_ns, value);
        }
    }

    /// Records one request latency into the histogram of the window its
    /// completion time `t_ns` falls in. No-op when disabled.
    pub fn record_latency_window(&self, t_ns: f64, latency_ns: f64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.timeseries.lock().record_latency(t_ns, latency_ns);
        }
    }

    /// Records one request's deadline outcome into the window its completion
    /// time `t_ns` falls in. No-op when disabled.
    pub fn record_slo_window(&self, t_ns: f64, met: bool) {
        if let TelemetrySink::Recording(inner) = self {
            inner.timeseries.lock().record_slo(t_ns, met);
        }
    }

    /// Overrides the sampling window width. Call before recording any
    /// samples — existing windows are *not* re-bucketed.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width window.
    pub fn set_timeseries_window_ns(&self, window_ns: u64) {
        assert!(window_ns > 0, "time-series window must be positive");
        if let TelemetrySink::Recording(inner) = self {
            inner.timeseries.lock().window_ns = window_ns;
        }
    }

    /// The current sampling window width ([`DEFAULT_WINDOW_NS`] when
    /// disabled).
    #[must_use]
    pub fn timeseries_window_ns(&self) -> u64 {
        match self {
            TelemetrySink::Disabled => DEFAULT_WINDOW_NS,
            TelemetrySink::Recording(inner) => inner.timeseries.lock().window_ns,
        }
    }

    /// Snapshot of the recorded time series (empty when disabled).
    #[must_use]
    pub fn timeseries(&self) -> TimeSeriesExport {
        match self {
            TelemetrySink::Disabled => TimeSeriesStore::default().export(),
            TelemetrySink::Recording(inner) => inner.timeseries.lock().export(),
        }
    }

    /// The time-series export as pretty JSON (the `--timeseries <path>`
    /// payload).
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

    #[test]
    fn disabled_sink_stores_no_samples() {
        let sink = TelemetrySink::Disabled;
        sink.ts_add(0, DISPATCHED_BATCHES, 0.0, 1.0);
        sink.ts_add_interval(0, BUSY_NS, 0.0, 5e6, 5e6);
        sink.ts_gauge(0, QUEUE_DEPTH, 0.0, 3.0);
        sink.record_latency_window(0.0, 100.0);
        sink.record_slo_window(0.0, true);
        let e = sink.timeseries();
        assert_eq!(e.window_ns, DEFAULT_WINDOW_NS);
        assert!(e.series.is_empty());
        assert!(e.latency_windows.is_empty());
        assert!(e.slo_windows.is_empty());
    }

    #[test]
    fn sums_accumulate_within_a_window() {
        let sink = TelemetrySink::recording();
        sink.ts_add(0, DISPATCHED_BATCHES, 10.0, 1.0);
        sink.ts_add(0, DISPATCHED_BATCHES, 999_999.0, 1.0);
        sink.ts_add(0, DISPATCHED_BATCHES, 1_000_000.0, 1.0);
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
        let sink = TelemetrySink::recording();
        // 2 ms of busy time from 0.5 ms to 2.5 ms: ¼ + ½ + ¼ of the value.
        sink.ts_add_interval(0, BUSY_NS, 500_000.0, 2_500_000.0, 2_000_000.0);
        let e = sink.timeseries();
        let s = e.series(0, BUSY_NS, "sum").expect("series");
        assert_eq!(s.points.len(), 3);
        assert!((s.points[0].value - 500_000.0).abs() < 1e-6);
        assert!((s.points[1].value - 1_000_000.0).abs() < 1e-6);
        assert!((s.points[2].value - 500_000.0).abs() < 1e-6);
        let total: f64 = s.points.iter().map(|p| p.value).sum();
        assert!((total - 2_000_000.0).abs() < 1e-6, "apportioning conserves the value");
    }

    #[test]
    fn degenerate_intervals_collapse_to_point_samples() {
        let sink = TelemetrySink::recording();
        sink.ts_add_interval(0, BUSY_NS, 100.0, 100.0, 42.0);
        sink.ts_add_interval(0, BUSY_NS, f64::NAN, f64::NAN, 1.0);
        let e = sink.timeseries();
        let s = e.series(0, BUSY_NS, "sum").expect("series");
        assert_eq!(s.points.len(), 1);
        assert!((s.points[0].value - 43.0).abs() < 1e-12);
    }

    #[test]
    fn latency_windows_slice_percentiles_from_log2_buckets() {
        let sink = TelemetrySink::recording();
        for lat in [100.0, 200.0, 400.0, 100_000.0] {
            sink.record_latency_window(10.0, lat);
        }
        sink.record_latency_window(2_000_000.0, 50.0);
        let e = sink.timeseries();
        assert_eq!(e.latency_windows.len(), 2);
        let w0 = &e.latency_windows[0];
        assert_eq!((w0.window, w0.count), (0, 4));
        // Rounded samples land in buckets [64,128), [128,256), [256,512),
        // [65536,131072): p50 is the 2nd sample's bucket edge.
        assert_eq!(w0.p50_ns, 256);
        assert_eq!(w0.p99_ns, 131_072);
        assert_eq!(w0.max_ns, 100_000);
        assert!(w0.p50_ns <= w0.p95_ns && w0.p95_ns <= w0.p99_ns);
        let w1 = &e.latency_windows[1];
        assert_eq!((w1.window, w1.count, w1.start_ns), (2, 1, 2_000_000));
    }

    #[test]
    fn slo_windows_report_attainment() {
        let sink = TelemetrySink::recording();
        sink.record_slo_window(10.0, true);
        sink.record_slo_window(20.0, true);
        sink.record_slo_window(30.0, false);
        sink.record_slo_window(1_500_000.0, true);
        let e = sink.timeseries();
        assert_eq!(e.slo_windows.len(), 2);
        assert_eq!(e.slo_windows[0].total, 3);
        assert_eq!(e.slo_windows[0].met, 2);
        assert!((e.slo_windows[0].attainment - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.slo_windows[1].attainment, 1.0);
    }

    #[test]
    fn merge_retags_devices_and_folds_windows() {
        let cluster = TelemetrySink::recording();
        let dev = TelemetrySink::recording();
        cluster.ts_add(0, DISPATCHED_BATCHES, 10.0, 1.0);
        dev.ts_add(0, DISPATCHED_BATCHES, 10.0, 2.0);
        dev.ts_gauge(0, MEM_IN_USE_BYTES, 10.0, 4096.0);
        dev.record_latency_window(10.0, 500.0);
        dev.record_slo_window(10.0, false);
        let (TelemetrySink::Recording(dst), TelemetrySink::Recording(src)) = (&cluster, &dev)
        else {
            unreachable!()
        };
        let store = std::mem::take(&mut *src.timeseries.lock());
        dst.timeseries.lock().merge_from(store, 2);
        let e = cluster.timeseries();
        // The cluster's own device-0 series is untouched; the absorbed
        // store's series re-tag to device 2.
        assert_eq!(e.series(0, DISPATCHED_BATCHES, "sum").unwrap().points[0].value, 1.0);
        assert_eq!(e.series(2, DISPATCHED_BATCHES, "sum").unwrap().points[0].value, 2.0);
        assert_eq!(e.series(2, MEM_IN_USE_BYTES, "gauge").unwrap().points[0].value, 4096.0);
        assert_eq!(e.latency_windows[0].count, 1);
        assert_eq!(e.slo_windows[0].total, 1);
        // The drained source is empty; a second absorb is a no-op.
        assert!(dev.timeseries().series.is_empty());
    }

    #[test]
    fn custom_windows_rebucket_future_samples() {
        let sink = TelemetrySink::recording();
        sink.set_timeseries_window_ns(1_000);
        assert_eq!(sink.timeseries_window_ns(), 1_000);
        sink.ts_add(0, DISPATCHED_BATCHES, 2_500.0, 1.0);
        let e = sink.timeseries();
        assert_eq!(e.window_ns, 1_000);
        let s = e.series(0, DISPATCHED_BATCHES, "sum").expect("series");
        assert_eq!(s.points[0].window, 2);
        assert_eq!(s.points[0].start_ns, 2_000);
    }

    #[test]
    fn export_round_trips_through_serde() {
        let sink = TelemetrySink::recording();
        sink.ts_add_interval(1, BUSY_NS, 0.0, 3_000_000.0, 3_000_000.0);
        sink.ts_gauge(0, ROOFLINE_UTILIZATION, 10.0, 0.42);
        sink.record_latency_window(10.0, 1234.0);
        sink.record_slo_window(10.0, true);
        let e = sink.timeseries();
        let text = sink.timeseries_json();
        let back = TimeSeriesExport::from_json(&text).expect("export parses");
        assert_eq!(back, e, "round-trip must be lossless");
    }
}
