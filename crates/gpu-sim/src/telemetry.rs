//! Unified telemetry: span recording, typed counters, and trace export.
//!
//! The simulator computes hardware-counter-style evidence (coalescing
//! efficiency, reduction share, imbalance) in result structs, but those are
//! per-launch aggregates — there is no way to see *one request's* timeline
//! end to end. This module adds that observability substrate:
//!
//! - [`TelemetrySink`] — a cheaply cloneable handle that layers (kernel
//!   scheduler, device allocator, engine, serving simulator) record into.
//!   The [`TelemetrySink::Disabled`] variant compiles every recording call
//!   to an enum-tag check followed by nothing, so the hot simulation path
//!   pays no locks, no allocation, and no branch-heavy bookkeeping when
//!   telemetry is off.
//! - [`Counter`] / [`CounterRegistry`] — a typed registry of monotonic
//!   counters (plus two gauge-style entries maintained with `set`/`max`),
//!   stored as a fixed array so increments are a single indexed add.
//! - [`SpanEvent`] — a flat span (label, track, start, duration) in
//!   *simulated* nanoseconds. Its label is a typed [`SpanName`]: each
//!   sampled block of a launch is one event holding its grid index, its
//!   warps' serial times and its reduction, expanded into the block, warp
//!   and reduce spans only when exported, which renders the labels. Exported
//!   as Chrome trace-event JSON
//!   ([`TelemetrySink::chrome_trace_json`]) loadable in Perfetto /
//!   `chrome://tracing`, one process per layer and one track per concurrent
//!   block slot.
//! - [`MetricsSnapshot`] — a flat, serde-round-trippable snapshot of the
//!   counters for `report_md` and regression dashboards
//!   ([`TelemetrySink::metrics_json`]).
//!
//! # Determinism
//!
//! Span and counter emission for simulated work happens in
//! `KernelSim::finish`, *after* `simulate_blocks` has merged per-block
//! results in plan order — worker threads never touch the sink. Exported
//! traces and snapshots are therefore byte-identical at any
//! `TAHOE_SIM_THREADS` (pinned by `tests/determinism.rs`). Host-measured
//! engine phases (convert/rearrange/tune) are wall-clock timed and vary
//! run to run; they live on their own process track.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

/// Chrome-trace process id for simulated-GPU spans (kernel/block/warp).
pub const PID_GPU: u32 = 1;
/// Chrome-trace process id for host-side engine spans (convert/tune/infer).
pub const PID_ENGINE: u32 = 2;
/// Chrome-trace process id for serving-simulation spans (queue/execute).
pub const PID_SERVING: u32 = 3;

/// Pid stride between cluster devices: device `d`'s layers occupy pids
/// `d * PID_DEVICE_STRIDE + {PID_GPU, PID_ENGINE, PID_SERVING}`, so device 0
/// keeps the canonical pids and every device gets its own process group in
/// the exported trace.
pub const PID_DEVICE_STRIDE: u32 = 10;

/// Chrome-trace pid of `base_pid`'s layer on cluster device `device_idx`
/// (identity for device 0).
#[must_use]
pub const fn device_pid(base_pid: u32, device_idx: usize) -> u32 {
    base_pid + PID_DEVICE_STRIDE * device_idx as u32
}

/// Typed telemetry counters.
///
/// Discriminants index [`CounterRegistry`]'s fixed array; keep them dense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Global-memory transactions issued by sampled blocks.
    GmemTransactions,
    /// Bytes the warp lanes asked for (coalesced ideal).
    GmemRequestedBytes,
    /// Bytes the memory system actually moved.
    GmemFetchedBytes,
    /// Fetched minus requested: traffic wasted on uncoalesced access.
    GmemUncoalescedBytes,
    /// Shared-memory bytes moved by sampled blocks.
    SmemBytes,
    /// Block-wide reduction operations in sampled blocks.
    BlockReductions,
    /// Device-wide segmented reductions.
    GlobalReductions,
    /// Idle lane-steps in sampled warps (divergence stalls):
    /// `steps × warp_size − active_lane_steps`.
    DivergenceStallLaneSteps,
    /// Active lane-steps in sampled warps (warp-efficiency numerator).
    WarpActiveLaneSteps,
    /// Total simulated kernel time, rounded ns (reduction-share denominator).
    KernelTimeNs,
    /// Simulated kernel time spent in block + global reductions, rounded ns.
    ReductionTimeNs,
    /// Kernel launches traced.
    KernelLaunches,
    /// Blocks simulated in detail.
    SimulatedBlocks,
    /// Successful simulated-device allocations.
    DeviceAllocs,
    /// Simulated-device frees.
    DeviceFrees,
    /// Allocation failures (simulated OOM).
    DeviceOomEvents,
    /// Gauge: aligned device bytes currently live (maintained with `set`).
    AllocInUseBytes,
    /// Gauge: high-water in-use footprint (maintained with `max`).
    AllocHighWaterBytes,
    /// Batches the engine inferred.
    EngineBatches,
    /// Batches the engine had to chunk-split to fit device DRAM.
    EngineChunkSplits,
    /// Sampled blocks that contributed to the A.C.V. statistic.
    AcvBlocksCounted,
    /// Sampled blocks skipped by the A.C.V. statistic (< 2 busy threads).
    AcvBlocksSkipped,
    /// Batches the serving simulator dispatched.
    ServingBatches,
    /// Requests the serving simulator served.
    ServingRequests,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 24] = [
        Counter::GmemTransactions,
        Counter::GmemRequestedBytes,
        Counter::GmemFetchedBytes,
        Counter::GmemUncoalescedBytes,
        Counter::SmemBytes,
        Counter::BlockReductions,
        Counter::GlobalReductions,
        Counter::DivergenceStallLaneSteps,
        Counter::WarpActiveLaneSteps,
        Counter::KernelTimeNs,
        Counter::ReductionTimeNs,
        Counter::KernelLaunches,
        Counter::SimulatedBlocks,
        Counter::DeviceAllocs,
        Counter::DeviceFrees,
        Counter::DeviceOomEvents,
        Counter::AllocInUseBytes,
        Counter::AllocHighWaterBytes,
        Counter::EngineBatches,
        Counter::EngineChunkSplits,
        Counter::AcvBlocksCounted,
        Counter::AcvBlocksSkipped,
        Counter::ServingBatches,
        Counter::ServingRequests,
    ];

    /// Whether this entry is a gauge (maintained with `set`/`max`) rather
    /// than a monotonic counter. Gauges are excluded from cross-sink merges:
    /// summing point-in-time snapshots double-counts, so an aggregating
    /// layer (e.g. the cluster) recomputes them from the live allocators.
    #[must_use]
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::AllocInUseBytes | Counter::AllocHighWaterBytes)
    }

    /// Snake-case name used in the metrics snapshot.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::GmemTransactions => "gmem_transactions",
            Counter::GmemRequestedBytes => "gmem_requested_bytes",
            Counter::GmemFetchedBytes => "gmem_fetched_bytes",
            Counter::GmemUncoalescedBytes => "gmem_uncoalesced_bytes",
            Counter::SmemBytes => "smem_bytes",
            Counter::BlockReductions => "block_reductions",
            Counter::GlobalReductions => "global_reductions",
            Counter::DivergenceStallLaneSteps => "divergence_stall_lane_steps",
            Counter::WarpActiveLaneSteps => "warp_active_lane_steps",
            Counter::KernelTimeNs => "kernel_time_ns",
            Counter::ReductionTimeNs => "reduction_time_ns",
            Counter::KernelLaunches => "kernel_launches",
            Counter::SimulatedBlocks => "simulated_blocks",
            Counter::DeviceAllocs => "device_allocs",
            Counter::DeviceFrees => "device_frees",
            Counter::DeviceOomEvents => "device_oom_events",
            Counter::AllocInUseBytes => "alloc_in_use_bytes",
            Counter::AllocHighWaterBytes => "alloc_high_water_bytes",
            Counter::EngineBatches => "engine_batches",
            Counter::EngineChunkSplits => "engine_chunk_splits",
            Counter::AcvBlocksCounted => "acv_blocks_counted",
            Counter::AcvBlocksSkipped => "acv_blocks_skipped",
            Counter::ServingBatches => "serving_batches",
            Counter::ServingRequests => "serving_requests",
        }
    }
}

/// Fixed-size registry of every [`Counter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    values: [u64; Counter::ALL.len()],
}

impl CounterRegistry {
    /// Current value of a counter.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Adds `n` to a monotonic counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.values[c as usize] += n;
    }

    /// Overwrites a gauge-style entry.
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// Raises a gauge-style entry to at least `v`.
    pub fn max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.values[c as usize];
        *slot = (*slot).max(v);
    }

    /// Name → value map (sorted; the snapshot's serialization order).
    #[must_use]
    pub fn to_map(&self) -> BTreeMap<String, u64> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), self.get(c)))
            .collect()
    }
}

/// A span's label, kept typed while recorded and rendered only when the
/// trace is exported, so a launch's block/warp/reduce spans cost no heap
/// allocation each.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanName {
    /// A free-form label (host phases, serving spans, a kernel's own span).
    Text(String),
    /// Block `g` of a launch: `"block {g}"`.
    Block(u32),
    /// Warp `w` of block `g`: `"block {g} warp {w}"`.
    Warp(u32, u32),
    /// Block `g`'s block-wide reduction: `"block {g} reduce"`.
    Reduce(u32),
    /// A sampled block as recorded: one event standing for its
    /// [`Block`](Self::Block) span, one [`Warp`](Self::Warp) span per warp
    /// and its [`Reduce`](Self::Reduce) span, expanded only by
    /// [`TelemetrySink::spans`] and [`TelemetrySink::chrome_trace_json`].
    /// Boxed so [`SpanEvent`] stays 48 bytes.
    SampledBlock(Box<BlockRecord>),
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanName::Text(s) => f.write_str(s),
            SpanName::Block(g) => write!(f, "block {g}"),
            SpanName::Warp(g, w) => write!(f, "block {g} warp {w}"),
            SpanName::Reduce(g) => write!(f, "block {g} reduce"),
            SpanName::SampledBlock(b) => write!(f, "block {}", b.block),
        }
    }
}

/// What a [`SpanName::SampledBlock`] event holds beyond its own block span,
/// whose track, start and wall time are the event's.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockRecord {
    /// Grid index of the block.
    pub block: u32,
    /// Serial time of each warp, in warp order; every warp span starts with
    /// the block.
    pub warp_serial_ns: Box<[f64]>,
    /// Trailing block-wide reduction time; 0 records no reduce span.
    pub reduction_ns: f64,
}

/// One completed span on the simulated (or host) timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span label; its [`Display`](fmt::Display) form is the Chrome trace
    /// `name`.
    pub name: SpanName,
    /// Process track (one per layer; see [`PID_GPU`] etc.).
    pub pid: u32,
    /// Thread track within the process (e.g. one per concurrent block slot).
    pub tid: u32,
    /// Start time in nanoseconds on the track's timeline.
    pub start_ns: f64,
    /// Duration in nanoseconds.
    pub dur_ns: f64,
}

impl SpanEvent {
    /// Chrome-trace spans this event stands for: 1, or for a sampled block
    /// 1 + its warps + 1 when it reduces.
    #[must_use]
    pub fn span_count(&self) -> usize {
        match &self.name {
            SpanName::SampledBlock(b) => {
                1 + b.warp_serial_ns.len() + usize::from(b.reduction_ns > 0.0)
            }
            _ => 1,
        }
    }

    /// Span `part` (below [`Self::span_count`]) as `(name, start, dur)`; it
    /// shares the event's track. A sampled block's parts come in record
    /// order: the block, its warps, then the reduction, which ends with the
    /// block.
    fn part(&self, part: usize) -> (Cow<'_, SpanName>, f64, f64) {
        let SpanName::SampledBlock(b) = &self.name else {
            return (Cow::Borrowed(&self.name), self.start_ns, self.dur_ns);
        };
        match part {
            0 => (Cow::Owned(SpanName::Block(b.block)), self.start_ns, self.dur_ns),
            p if p <= b.warp_serial_ns.len() => (
                Cow::Owned(SpanName::Warp(b.block, (p - 1) as u32)),
                self.start_ns,
                b.warp_serial_ns[p - 1],
            ),
            _ => (
                Cow::Owned(SpanName::Reduce(b.block)),
                self.start_ns + self.dur_ns - b.reduction_ns,
                b.reduction_ns,
            ),
        }
    }
}

/// Flat metrics snapshot — the machine-readable export `report_md` digests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Spans recorded alongside the counters.
    pub span_count: usize,
}

impl MetricsSnapshot {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Global-load efficiency derived from the counters
    /// (requested / fetched; 1.0 when nothing was fetched).
    #[must_use]
    pub fn gmem_efficiency(&self) -> f64 {
        let requested = self.counter("gmem_requested_bytes");
        let fetched = self.counter("gmem_fetched_bytes");
        if fetched == 0 {
            1.0
        } else {
            requested as f64 / fetched as f64
        }
    }

    /// Warp-execution efficiency: active lane-steps over total lane-steps
    /// (active + divergence stalls); 1.0 when no lane-steps were recorded.
    #[must_use]
    pub fn warp_efficiency(&self) -> f64 {
        let active = self.counter("warp_active_lane_steps");
        let stalled = self.counter("divergence_stall_lane_steps");
        let total = active + stalled;
        if total == 0 {
            1.0
        } else {
            active as f64 / total as f64
        }
    }

    /// Share of simulated kernel time spent in block + global reductions;
    /// 0.0 when no kernel time was recorded.
    #[must_use]
    pub fn reduction_share(&self) -> f64 {
        let kernel_ns = self.counter("kernel_time_ns");
        let reduction_ns = self.counter("reduction_time_ns");
        if kernel_ns == 0 {
            0.0
        } else {
            (reduction_ns as f64 / kernel_ns as f64).min(1.0)
        }
    }

    /// Fraction of allocation attempts that hit simulated OOM
    /// (`oom / (allocs + oom)`); 0.0 when nothing was allocated.
    #[must_use]
    pub fn oom_retry_rate(&self) -> f64 {
        let oom = self.counter("device_oom_events");
        let attempts = self.counter("device_allocs") + oom;
        if attempts == 0 {
            0.0
        } else {
            oom as f64 / attempts as f64
        }
    }
}

/// Shared state behind a recording sink.
#[derive(Debug, Default)]
pub struct SinkInner {
    counters: Mutex<CounterRegistry>,
    /// Spans in record order; a sampled block is one event here.
    pub(crate) spans: Mutex<Vec<SpanEvent>>,
    process_names: Mutex<BTreeMap<u32, String>>,
    /// Per-kernel profiles and latency histograms; the recording methods
    /// live in [`crate::profile`].
    pub(crate) profiles: Mutex<crate::profile::ProfileStore>,
    /// Windowed time-series samples; the recording methods live in
    /// [`crate::timeseries`].
    pub(crate) timeseries: Mutex<crate::timeseries::TimeSeriesStore>,
    /// Tuning decisions (which also back the profiler's drift view) and
    /// per-request critical paths; the recording methods live in
    /// [`crate::decision`].
    pub(crate) decisions: Mutex<crate::decision::DecisionStore>,
}

/// Telemetry recording handle.
///
/// Cloning is cheap (`Disabled` is a unit; `Recording` clones an [`Arc`]),
/// so every layer holds its own handle to one shared recording. All methods
/// are no-ops on [`TelemetrySink::Disabled`].
#[derive(Clone, Debug, Default)]
pub enum TelemetrySink {
    /// Record nothing; every call is a no-op.
    #[default]
    Disabled,
    /// Record into shared state.
    Recording(Arc<SinkInner>),
}

impl TelemetrySink {
    /// A fresh recording sink.
    #[must_use]
    pub fn recording() -> Self {
        TelemetrySink::Recording(Arc::new(SinkInner::default()))
    }

    /// Whether this sink records anything. Layers use this to skip building
    /// span data entirely when telemetry is off.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TelemetrySink::Recording(_))
    }

    /// Adds `n` to a monotonic counter.
    pub fn add(&self, c: Counter, n: u64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.counters.lock().add(c, n);
        }
    }

    /// Overwrites a gauge-style counter.
    pub fn set(&self, c: Counter, v: u64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.counters.lock().set(c, v);
        }
    }

    /// Raises a gauge-style counter to at least `v`.
    pub fn max(&self, c: Counter, v: u64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.counters.lock().max(c, v);
        }
    }

    /// Records one span.
    pub fn span(
        &self,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        start_ns: f64,
        dur_ns: f64,
    ) {
        if let TelemetrySink::Recording(inner) = self {
            inner.spans.lock().push(SpanEvent {
                name: SpanName::Text(name.into()),
                pid,
                tid,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Appends a batch of spans under one lock acquisition.
    pub fn push_spans(&self, spans: Vec<SpanEvent>) {
        if let TelemetrySink::Recording(inner) = self {
            inner.spans.lock().extend(spans);
        }
    }

    /// Names a Chrome-trace process track (idempotent).
    pub fn name_process(&self, pid: u32, name: &str) {
        if let TelemetrySink::Recording(inner) = self {
            inner
                .process_names
                .lock()
                .entry(pid)
                .or_insert_with(|| name.to_string());
        }
    }

    /// Snapshot of the recorded spans, in record order, with each sampled
    /// block expanded into its block, warp and reduce spans (empty when
    /// disabled).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        let TelemetrySink::Recording(inner) = self else {
            return Vec::new();
        };
        let recorded = inner.spans.lock();
        let mut spans = Vec::with_capacity(recorded.iter().map(SpanEvent::span_count).sum());
        for s in recorded.iter() {
            for part in 0..s.span_count() {
                let (name, start_ns, dur_ns) = s.part(part);
                spans.push(SpanEvent {
                    name: name.into_owned(),
                    pid: s.pid,
                    tid: s.tid,
                    start_ns,
                    dur_ns,
                });
            }
        }
        spans
    }

    /// Snapshot of the named process tracks (empty when disabled).
    #[must_use]
    pub fn process_names(&self) -> BTreeMap<u32, String> {
        match self {
            TelemetrySink::Disabled => BTreeMap::new(),
            TelemetrySink::Recording(inner) => inner.process_names.lock().clone(),
        }
    }

    /// Current value of one counter (0 when disabled).
    #[must_use]
    pub fn counter_value(&self, c: Counter) -> u64 {
        match self {
            TelemetrySink::Disabled => 0,
            TelemetrySink::Recording(inner) => inner.counters.lock().get(c),
        }
    }

    /// Drains a cluster device's private sink into this (cluster-wide) one,
    /// remapping every span's pid with [`device_pid`] so each device keeps
    /// its own process group in the exported trace.
    ///
    /// Monotonic counters are added and reset on `source`; gauges are left
    /// untouched (the caller recomputes cluster-wide footprints from the
    /// live allocators — see [`Counter::is_gauge`]). Kernel profiles,
    /// histograms, and decision records move over wholesale. Spans on the
    /// engine's *host* track ([`PID_ENGINE`] tid 0: rearrange/convert/tune)
    /// are wall-clock measured and vary run to run, so they are dropped —
    /// this is what keeps cluster exports byte-identical at any
    /// `TAHOE_SIM_THREADS`. The caller must invoke this in device-index
    /// order, from one thread, after all per-device simulation finished.
    ///
    /// No-op when either sink is disabled or both share one recording.
    pub fn absorb_device(&self, source: &TelemetrySink, device_idx: usize, device_label: &str) {
        let (TelemetrySink::Recording(dst), TelemetrySink::Recording(src)) = (self, source)
        else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        let drained = std::mem::take(&mut *src.spans.lock());
        let mut remapped: Vec<SpanEvent> = drained
            .into_iter()
            .filter(|s| !(s.pid == PID_ENGINE && s.tid == 0))
            .map(|mut s| {
                s.pid = device_pid(s.pid, device_idx);
                s
            })
            .collect();
        dst.spans.lock().append(&mut remapped);
        {
            let src_names = src.process_names.lock();
            let mut dst_names = dst.process_names.lock();
            for (pid, name) in src_names.iter() {
                dst_names
                    .entry(device_pid(*pid, device_idx))
                    .or_insert_with(|| format!("{name} [gpu{device_idx}: {device_label}]"));
            }
        }
        {
            let mut src_counters = src.counters.lock();
            let mut dst_counters = dst.counters.lock();
            for c in Counter::ALL {
                if c.is_gauge() {
                    continue;
                }
                let v = src_counters.get(c);
                if v > 0 {
                    dst_counters.add(c, v);
                    src_counters.set(c, 0);
                }
            }
        }
        let store = std::mem::take(&mut *src.profiles.lock());
        dst.profiles.lock().merge_from(store);
        // Time-series samples re-tag from the device-local index 0 to the
        // cluster-wide device index; window widths agree because the cluster
        // propagates its window to device sinks at construction.
        let ts = std::mem::take(&mut *src.timeseries.lock());
        dst.timeseries.lock().merge_from(ts, device_idx);
        // Flight-recorder records re-tag the same way: a device-local engine
        // records device 0, which becomes the cluster-wide index here.
        let ds = std::mem::take(&mut *src.decisions.lock());
        dst.decisions.lock().merge_from(ds, device_idx);
    }

    /// Flat snapshot of the recorded counters (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self {
            TelemetrySink::Disabled => MetricsSnapshot {
                counters: CounterRegistry::default().to_map(),
                span_count: 0,
            },
            TelemetrySink::Recording(inner) => MetricsSnapshot {
                counters: inner.counters.lock().to_map(),
                span_count: inner.spans.lock().iter().map(SpanEvent::span_count).sum(),
            },
        }
    }

    /// The metrics snapshot as pretty JSON (the `--metrics <path>` payload).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the snapshot is a map of strings to
    /// integers, which always serializes.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serializes");
        s.push('\n');
        s
    }

    /// Exports the recorded spans as Chrome trace-event JSON (the
    /// `--trace <path>` payload), loadable in Perfetto / `chrome://tracing`.
    ///
    /// Events are stably ordered by `(pid, tid, ts, −dur)`, so timestamps are
    /// monotone per track and enclosing spans precede enclosed ones; the
    /// output is a pure function of the recorded spans and therefore
    /// byte-identical however many worker threads simulated the blocks.
    ///
    /// Recorded time series additionally export as Perfetto counter tracks
    /// (`"ph":"C"` events, one per non-empty window) after the spans, in
    /// the export's `(device, name, kind)` order.
    ///
    /// Recorded request paths (DESIGN.md §2.15) export after the counter
    /// tracks, in record order: one Perfetto async span (`"b"`/`"e"`, id =
    /// request index) covering the request's end-to-end latency on the
    /// serving queue track, plus a flow arrow (`"s"`/`"f"`) from its arrival
    /// into the executing device's batch-execute track. Pure functions of
    /// the recorded [`crate::decision::RequestPathRecord`]s, so the same
    /// byte-identity guarantee applies.
    ///
    /// The document is `{"traceEvents":[`, then one compact event per line
    /// (each a small [`serde_json::Value`], printed as `serde_json::to_string`
    /// prints it), then `],"displayTimeUnit":"ns"}` on a line of its own.
    /// Each event is formed, printed and dropped before the next, and span
    /// labels are rendered as they are written, so the export's memory is
    /// the output text itself. Sampled blocks are expanded here, and the
    /// sort moves `(event, part)` index pairs, not copies of the spans.
    /// `tests/telemetry_schema.rs` pins the bytes against a whole-document
    /// reference.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        if let TelemetrySink::Recording(inner) = self {
            let timeseries = self.timeseries();
            let names = inner.process_names.lock();
            let recorded = inner.spans.lock();
            let mut order: Vec<(u32, u32)> =
                Vec::with_capacity(recorded.iter().map(SpanEvent::span_count).sum());
            for (i, s) in recorded.iter().enumerate() {
                let i = u32::try_from(i).expect("fewer than 2^32 recorded spans");
                order.extend((0..s.span_count() as u32).map(|part| (i, part)));
            }
            let key = |&(i, part): &(u32, u32)| {
                let s = &recorded[i as usize];
                let (_, start_ns, dur_ns) = s.part(part as usize);
                ((s.pid, s.tid), start_ns, dur_ns)
            };
            order.sort_by(|a, b| {
                let (a, b) = (key(a), key(b));
                a.0.cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(b.2.total_cmp(&a.2))
            });
            for (pid, name) in names.iter() {
                push_event(&mut out, vec![
                    ("ph", str_val("M")),
                    ("ts", num(0.0)),
                    ("pid", uint(u64::from(*pid))),
                    ("tid", uint(0)),
                    ("name", str_val("process_name")),
                    ("args", Value::Object(vec![("name".into(), str_val(name))])),
                ]);
            }
            for (i, part) in order {
                let s = &recorded[i as usize];
                let (name, start_ns, dur_ns) = s.part(part as usize);
                push_event(&mut out, vec![
                    ("ph", str_val("X")),
                    ("ts", num(start_ns / 1_000.0)),
                    ("dur", num(dur_ns / 1_000.0)),
                    ("pid", uint(u64::from(s.pid))),
                    ("tid", uint(u64::from(s.tid))),
                    ("name", Value::String(name.to_string())),
                ]);
            }
            for series in &timeseries.series {
                let pid = u64::from(device_pid(PID_GPU, series.device as usize));
                for p in &series.points {
                    push_event(&mut out, vec![
                        ("ph", str_val("C")),
                        ("ts", num(p.start_ns as f64 / 1_000.0)),
                        ("pid", uint(pid)),
                        ("tid", uint(0)),
                        ("name", str_val(&series.name)),
                        ("args", Value::Object(vec![("value".into(), num(p.value))])),
                    ]);
                }
            }
            let queue_pid = u64::from(device_pid(PID_SERVING, 0));
            for r in inner.decisions.lock().requests() {
                let exec_pid = u64::from(device_pid(PID_SERVING, r.device as usize));
                let dispatch_ns = r.arrival_ns + r.form_ns + r.queue_ns;
                let end_ns = r.arrival_ns + r.total_ns;
                let name = format!("request {}", r.request);
                for (ph, ts_ns) in [("b", r.arrival_ns), ("e", end_ns)] {
                    push_event(&mut out, vec![
                        ("ph", str_val(ph)),
                        ("cat", str_val("request")),
                        ("id", uint(r.request)),
                        ("ts", num(ts_ns / 1_000.0)),
                        ("pid", uint(queue_pid)),
                        ("tid", uint(0)),
                        ("name", str_val(&name)),
                    ]);
                }
                push_event(&mut out, vec![
                    ("ph", str_val("s")),
                    ("id", uint(r.request)),
                    ("ts", num(r.arrival_ns / 1_000.0)),
                    ("pid", uint(queue_pid)),
                    ("tid", uint(0)),
                    ("name", str_val("request path")),
                ]);
                push_event(&mut out, vec![
                    ("ph", str_val("f")),
                    ("bp", str_val("e")),
                    ("id", uint(r.request)),
                    ("ts", num(dispatch_ns / 1_000.0)),
                    ("pid", uint(exec_pid)),
                    ("tid", uint(2)),
                    ("name", str_val("request path")),
                ]);
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Appends one trace event on a line of its own: a compact JSON object with
/// `fields` in order, comma-separated from the event before it.
fn push_event(out: &mut String, fields: Vec<(&str, Value)>) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('\n');
    let event = Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{event}");
}

fn str_val(s: &str) -> Value {
    Value::String(s.to_string())
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn uint(x: u64) -> Value {
    Value::Number(Number::PosInt(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::Disabled;
        sink.add(Counter::KernelLaunches, 5);
        sink.span("x", PID_GPU, 0, 0.0, 1.0);
        assert!(!sink.is_enabled());
        let snap = sink.snapshot();
        assert_eq!(snap.counters["kernel_launches"], 0);
        assert_eq!(snap.span_count, 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::GmemFetchedBytes, 128);
        sink.add(Counter::GmemFetchedBytes, 64);
        sink.add(Counter::GmemRequestedBytes, 96);
        sink.set(Counter::AllocInUseBytes, 1000);
        sink.max(Counter::AllocHighWaterBytes, 2000);
        sink.max(Counter::AllocHighWaterBytes, 500);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["gmem_fetched_bytes"], 192);
        assert_eq!(snap.counters["alloc_in_use_bytes"], 1000);
        assert_eq!(snap.counters["alloc_high_water_bytes"], 2000);
        assert!((snap.gmem_efficiency() - 0.5).abs() < 1e-12);
        // Every declared counter appears in the snapshot.
        assert_eq!(snap.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn derived_metrics_are_nan_free_on_zero_counters() {
        // A fresh (or disabled) sink has every counter at zero; no derived
        // helper may divide by that zero.
        for sink in [TelemetrySink::Disabled, TelemetrySink::recording()] {
            let snap = sink.snapshot();
            assert_eq!(snap.gmem_efficiency(), 1.0);
            assert_eq!(snap.warp_efficiency(), 1.0);
            assert_eq!(snap.reduction_share(), 0.0);
            assert_eq!(snap.oom_retry_rate(), 0.0);
        }
        // Missing keys (e.g. a snapshot parsed from an older export) must
        // degrade the same way, not panic or return NaN.
        let empty = MetricsSnapshot { counters: BTreeMap::new(), span_count: 0 };
        for v in [
            empty.gmem_efficiency(),
            empty.warp_efficiency(),
            empty.reduction_share(),
            empty.oom_retry_rate(),
        ] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn derived_metrics_follow_their_counters() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::WarpActiveLaneSteps, 75);
        sink.add(Counter::DivergenceStallLaneSteps, 25);
        sink.add(Counter::KernelTimeNs, 1_000);
        sink.add(Counter::ReductionTimeNs, 250);
        sink.add(Counter::DeviceAllocs, 9);
        sink.add(Counter::DeviceOomEvents, 1);
        let snap = sink.snapshot();
        assert!((snap.warp_efficiency() - 0.75).abs() < 1e-12);
        assert!((snap.reduction_share() - 0.25).abs() < 1e-12);
        assert!((snap.oom_retry_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn clones_share_one_recording() {
        let a = TelemetrySink::recording();
        let b = a.clone();
        b.add(Counter::ServingRequests, 7);
        assert_eq!(a.snapshot().counters["serving_requests"], 7);
    }

    #[test]
    fn chrome_trace_sorts_tracks_and_nests_spans() {
        let sink = TelemetrySink::recording();
        sink.name_process(PID_GPU, "gpu-sim");
        // Inserted out of order; the child (shorter) span shares its
        // parent's start.
        sink.span("child", PID_GPU, 2, 10_000.0, 1_000.0);
        sink.span("parent", PID_GPU, 2, 10_000.0, 5_000.0);
        sink.span("earlier", PID_GPU, 1, 0.0, 2_000.0);
        let text = sink.chrome_trace_json();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 4); // 1 metadata + 3 spans
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        let spans: Vec<&serde_json::Value> =
            events.iter().filter(|e| e["ph"].as_str() == Some("X")).collect();
        assert_eq!(spans[0]["name"].as_str(), Some("earlier"));
        // Longer span first at equal ts.
        assert_eq!(spans[1]["name"].as_str(), Some("parent"));
        assert_eq!(spans[2]["name"].as_str(), Some("child"));
        // Timestamps are microseconds.
        assert!((spans[1]["ts"].as_f64().unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_emits_counter_tracks() {
        let sink = TelemetrySink::recording();
        sink.ts_gauge(0, crate::timeseries::QUEUE_DEPTH, 10.0, 3.0);
        sink.ts_gauge(1, crate::timeseries::QUEUE_DEPTH, 10.0, 4.0);
        let text = sink.chrome_trace_json();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        let counters: Vec<&serde_json::Value> =
            events.iter().filter(|e| e["ph"].as_str() == Some("C")).collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0]["name"].as_str(), Some("queue_depth"));
        assert_eq!(counters[0]["pid"].as_u64(), Some(u64::from(PID_GPU)));
        assert_eq!(counters[0]["args"]["value"].as_f64(), Some(3.0));
        // Device 1's series lands in its own pid group.
        assert_eq!(
            counters[1]["pid"].as_u64(),
            Some(u64::from(device_pid(PID_GPU, 1)))
        );
    }

    #[test]
    fn span_names_render_the_trace_labels() {
        assert_eq!(SpanName::Block(7).to_string(), "block 7");
        assert_eq!(SpanName::Warp(7, 3).to_string(), "block 7 warp 3");
        assert_eq!(SpanName::Reduce(7).to_string(), "block 7 reduce");
        assert_eq!(SpanName::Text("infer".into()).to_string(), "infer");
        // `span` records free text.
        let sink = TelemetrySink::recording();
        sink.span("block 7", PID_GPU, 1, 0.0, 1.0);
        assert_eq!(sink.spans()[0].name, SpanName::Text("block 7".into()));
    }

    #[test]
    fn a_sampled_block_record_keeps_span_events_small() {
        // The boxed payload keeps every recorded event, a sampled block
        // included, at the size of a plain span.
        assert_eq!(std::mem::size_of::<SpanEvent>(), 48);
    }

    #[test]
    fn metrics_snapshot_round_trips_through_serde() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::EngineBatches, 3);
        sink.span("s", PID_ENGINE, 0, 1.0, 2.0);
        let snap = sink.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
