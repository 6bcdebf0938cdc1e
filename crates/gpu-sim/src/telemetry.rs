//! Telemetry: one append-only event log, and every export as a view of it
//! (DESIGN.md §2.9).
//!
//! The simulator computes hardware-counter-style evidence (coalescing
//! efficiency, reduction share, imbalance) in result structs, but those are
//! per-launch aggregates — there is no way to see *one request's* timeline
//! end to end. This module is that observability substrate:
//!
//! - [`TelemetrySink`] — a cheaply cloneable handle that layers (kernel
//!   scheduler, device allocator, engine, serving simulator) record into.
//!   Every recording call appends one typed [`Event`] to the sink's log
//!   under its one lock. The [`TelemetrySink::Disabled`] variant reduces
//!   every recording call to an enum-tag check followed by nothing, so the
//!   hot simulation path pays no locks, no allocation, and no bookkeeping
//!   when telemetry is off.
//! - [`Event`] — what the log holds: kernel launches (with their
//!   [`KernelProfile`] and counter contributions), spans, process names,
//!   allocator activity, serving batches, request paths, tuning decisions,
//!   gauge samples and plain counter increments, each stamped with
//!   simulated time and a device id.
//! - Views — pure functions of the log: the [`MetricsSnapshot`] of the
//!   typed [`Counter`]s ([`TelemetrySink::metrics_json`]), the Chrome trace
//!   ([`TelemetrySink::chrome_trace_json`], loadable in Perfetto /
//!   `chrome://tracing`), the kernel profiles and latency histograms
//!   ([`crate::profile`]), the windowed time series ([`crate::timeseries`])
//!   and the flight recorder ([`crate::decision`]).
//!
//! # Determinism
//!
//! Simulated work is recorded in `KernelSim::finish`, *after*
//! `simulate_blocks` has merged per-block results in plan order, and
//! everything else from the engine's and the serving simulator's caller
//! thread — worker threads never touch the sink. A cluster device records
//! through a [`TelemetrySink::for_device`] handle on the cluster's own sink,
//! so its events land in the one log at the moment they are recorded, in
//! dispatch order. Every field derives from the simulated clock and the
//! performance model, and the views read nothing but the log, so every
//! export is byte-identical at any `TAHOE_SIM_THREADS` (pinned by
//! `tests/determinism.rs`).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

use crate::decision::{DecisionRecord, RequestPathRecord};
use crate::profile::KernelProfile;

/// Chrome-trace process id for simulated-GPU spans (kernel/block/warp).
pub const PID_GPU: u32 = 1;
/// Chrome-trace process id for engine spans (a batch's inference and its
/// chunked-OOM-retry wrapper, on the simulated clock).
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

/// Typed telemetry counters, each a sum over the log (see
/// [`TelemetrySink::snapshot`] for which event feeds which counter).
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
    /// Aligned device bytes currently live, summed over devices.
    AllocInUseBytes,
    /// High-water in-use footprint, summed over devices.
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

/// A span's label, kept typed while recorded and rendered only when the
/// trace is exported, so a launch's block/warp/reduce spans cost no heap
/// allocation each.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanName {
    /// A free-form label (engine and serving spans, a kernel's own span).
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

/// One completed span on the simulated timeline.
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

/// One traced kernel launch: its profile plus the counter contributions the
/// profile does not carry.
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchRecord {
    /// Cluster device index (0 for a bare engine; set by a
    /// [`TelemetrySink::for_device`] handle).
    pub device: u32,
    /// Launch start on the simulated clock (ns).
    pub start_ns: f64,
    /// The launch's profiler report.
    pub profile: KernelProfile,
    /// Block-wide reductions in the sampled blocks.
    pub block_reductions: u64,
    /// Device-wide segmented reductions.
    pub global_reductions: u64,
    /// Active lane-steps in the sampled warps.
    pub active_lane_steps: u64,
    /// Idle lane-steps in the sampled warps.
    pub stalled_lane_steps: u64,
}

/// What changed a device allocator's footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryOp {
    /// The allocator started recording (its footprint so far).
    Attach,
    /// A successful allocation.
    Alloc,
    /// A free.
    Free,
}

/// One serving batch dispatched to a device: its formation, queue wait and
/// execution spans, its dispatch series, and the serving counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingBatch {
    /// Cluster device index that executed the batch.
    pub device: u32,
    /// Batch ordinal in dispatch order.
    pub index: u64,
    /// Requests in the batch.
    pub size: u64,
    /// Strategy the batch ran with.
    pub strategy: &'static str,
    /// Arrival of the batch's first request (ns).
    pub first_arrival_ns: f64,
    /// Instant the batching policy was ready to dispatch (ns).
    pub ready_ns: f64,
    /// Actual dispatch instant (ns).
    pub dispatch_ns: f64,
    /// Execution time on the device (ns).
    pub gpu_ns: f64,
}

/// One entry of the telemetry log.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A traced kernel launch (it also names the device's `gpu-sim` track).
    Launch(Box<LaunchRecord>),
    /// A span; a sampled block is one event.
    Span(SpanEvent),
    /// Names a Chrome-trace process track; the first name of a pid wins.
    ProcessName {
        /// Process track.
        pid: u32,
        /// Its name.
        name: Cow<'static, str>,
    },
    /// A device allocator's footprint after `op`.
    Memory {
        /// Cluster device index.
        device: u32,
        /// What changed the footprint.
        op: MemoryOp,
        /// Aligned bytes live after the operation.
        in_use: u64,
        /// The allocator's high-water footprint.
        high_water: u64,
    },
    /// A dispatched serving batch.
    Batch(Box<ServingBatch>),
    /// A served request's critical path.
    Request(Box<RequestPathRecord>),
    /// A tuning decision (it also names the device's `engine` track).
    Decision(Box<DecisionRecord>),
    /// A gauge sample of a time series.
    Gauge {
        /// Cluster device index.
        device: u32,
        /// Series name (one of the [`crate::timeseries`] constants).
        series: &'static str,
        /// Sample instant on the simulated clock (ns).
        t_ns: f64,
        /// Sampled value.
        value: f64,
    },
    /// A plain counter increment.
    Count {
        /// The counter.
        counter: Counter,
        /// Increment.
        n: u64,
    },
}

impl Event {
    /// Chrome-trace spans this event stands for.
    fn span_count(&self) -> usize {
        match self {
            Event::Span(s) => s.span_count(),
            Event::Batch(b) => 2 + usize::from(b.dispatch_ns > b.ready_ns),
            _ => 0,
        }
    }

    /// Whether span `part` is the warp span of a warp that did no work
    /// (zero serial time, e.g. a shared-data warp with no tree left). The
    /// Chrome trace writes no span for it.
    fn is_idle_warp(&self, part: usize) -> bool {
        let Event::Span(SpanEvent {
            name: SpanName::SampledBlock(b),
            ..
        }) = self
        else {
            return false;
        };
        part >= 1 && b.warp_serial_ns.get(part - 1) == Some(&0.0)
    }

    /// Span `part` (below [`Self::span_count`]) as `((pid, tid), start,
    /// dur)`. A batch's parts come in record order: formation, the queue
    /// wait when there was one, then execution.
    fn span(&self, part: usize) -> ((u32, u32), f64, f64) {
        match self {
            Event::Span(s) => {
                let (_, start, dur) = s.part(part);
                ((s.pid, s.tid), start, dur)
            }
            Event::Batch(b) => {
                let pid = device_pid(PID_SERVING, b.device as usize);
                match (part, b.dispatch_ns > b.ready_ns) {
                    (0, _) => ((pid, 0), b.first_arrival_ns, b.ready_ns - b.first_arrival_ns),
                    (1, true) => ((pid, 1), b.ready_ns, b.dispatch_ns - b.ready_ns),
                    _ => ((pid, 2), b.dispatch_ns, b.gpu_ns),
                }
            }
            _ => unreachable!("only spans and batches hold spans"),
        }
    }

    /// Label of span `part`.
    fn span_name(&self, part: usize) -> Cow<'_, SpanName> {
        match self {
            Event::Span(s) => s.part(part).0,
            Event::Batch(b) => Cow::Owned(SpanName::Text(match self.span(part).0 .1 {
                0 => format!("batch {}: form ({} requests)", b.index, b.size),
                1 => format!("batch {}: queue wait (GPU busy)", b.index),
                _ => format!("batch {}: execute ({})", b.index, b.strategy),
            })),
            _ => unreachable!("only spans and batches hold spans"),
        }
    }

    /// The process track this event names, if any.
    fn process_name(&self) -> Option<(u32, &str)> {
        match self {
            Event::ProcessName { pid, name } => Some((*pid, name)),
            Event::Launch(l) => Some((device_pid(PID_GPU, l.device as usize), "gpu-sim")),
            Event::Decision(d) => Some((device_pid(PID_ENGINE, d.device as usize), "engine")),
            _ => None,
        }
    }

    /// Moves this event from device-local index 0 to cluster device
    /// `device` (spans through [`device_pid`]). Process names are left to
    /// [`DeviceTag::record`], which relabels them.
    fn retag(&mut self, device: usize) {
        let d = device as u32;
        match self {
            Event::Span(s) => s.pid = device_pid(s.pid, device),
            Event::Launch(l) => l.device += d,
            Event::Memory { device, .. } | Event::Gauge { device, .. } => *device += d,
            Event::Batch(b) => b.device += d,
            Event::Request(r) => r.device += d,
            Event::Decision(r) => r.device += d,
            Event::ProcessName { .. } | Event::Count { .. } => {}
        }
    }
}

/// Flat metrics snapshot — the `metrics.json` view `tahoe-cli profile`
/// digests.
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

/// The files [`TelemetrySink::write_views`] writes, one per view: the Chrome
/// trace, the counter snapshot, the kernel profiles, the windowed time
/// series and the flight recorder.
pub const VIEW_FILES: [&str; 5] = [
    "trace.json",
    "metrics.json",
    "profiles.json",
    "timeseries.json",
    "decisions.json",
];

/// Shared state behind a recording sink: the event log and its one lock.
#[derive(Debug, Default)]
pub struct SinkInner {
    log: Mutex<Vec<Event>>,
}

impl SinkInner {
    /// Locks the log. Every event is pushed whole, so a lock poisoned by a
    /// panicking recorder still guards a consistent log, and is taken as is.
    fn log(&self) -> MutexGuard<'_, Vec<Event>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a cluster device's handle stamps on every event it records.
#[derive(Debug)]
pub struct DeviceTag {
    /// Cluster device index.
    device: usize,
    /// Device model name, shown in the device's process labels.
    model: String,
    /// Process tracks this device has named, so each is named once.
    named: Mutex<BTreeSet<u32>>,
}

impl DeviceTag {
    /// Appends `event` to `log` as cluster device `device` records it:
    /// retagged from device-local index 0 ([`Event::retag`]), and preceded,
    /// the first time it names a process track, by that track's name
    /// `"<name> [gpu<d>: <model>]"` — which then wins over the plain name.
    fn record(&self, mut event: Event, log: &mut Vec<Event>) {
        if let Some((pid, name)) = event.process_name() {
            let first = self.named.lock().unwrap_or_else(PoisonError::into_inner).insert(pid);
            if first {
                let d = self.device;
                log.push(Event::ProcessName {
                    pid: device_pid(pid, d),
                    name: Cow::Owned(format!("{name} [gpu{d}: {}]", self.model)),
                });
            }
        }
        if !matches!(event, Event::ProcessName { .. }) {
            event.retag(self.device);
            log.push(event);
        }
    }
}

/// Telemetry recording handle.
///
/// Cloning is cheap (`Disabled` is a unit; the others clone [`Arc`]s), so
/// every layer holds its own handle to one shared recording. All methods
/// are no-ops on [`TelemetrySink::Disabled`].
#[derive(Clone, Debug, Default)]
pub enum TelemetrySink {
    /// Record nothing; every call is a no-op.
    #[default]
    Disabled,
    /// Record into shared state.
    Recording(Arc<SinkInner>),
    /// Record into shared state as one cluster device
    /// ([`TelemetrySink::for_device`]).
    Device(Arc<SinkInner>, Arc<DeviceTag>),
}

impl TelemetrySink {
    /// A fresh recording sink.
    #[must_use]
    pub fn recording() -> Self {
        TelemetrySink::Recording(Arc::new(SinkInner::default()))
    }

    /// A handle on this sink's log for cluster device `device`, a `model`
    /// board: everything recorded through it lands in the one log at once,
    /// retagged from device-local index 0 to `device` (spans onto its
    /// [`device_pid`] tracks), each process track it names labelled
    /// `"<name> [gpu<d>: <model>]"`. Disabled when this sink is.
    #[must_use]
    pub fn for_device(&self, device: usize, model: &str) -> Self {
        match self {
            TelemetrySink::Disabled => TelemetrySink::Disabled,
            TelemetrySink::Recording(inner) | TelemetrySink::Device(inner, _) => {
                TelemetrySink::Device(
                    Arc::clone(inner),
                    Arc::new(DeviceTag {
                        device,
                        model: model.to_string(),
                        named: Mutex::default(),
                    }),
                )
            }
        }
    }

    /// Whether this sink records anything. Layers use this to skip building
    /// event data entirely when telemetry is off.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TelemetrySink::Disabled)
    }

    /// Appends events to the log under one lock acquisition.
    pub(crate) fn push(&self, events: impl IntoIterator<Item = Event>) {
        match self {
            TelemetrySink::Disabled => {}
            TelemetrySink::Recording(inner) => inner.log().extend(events),
            TelemetrySink::Device(inner, tag) => {
                let mut log = inner.log();
                for event in events {
                    tag.record(event, &mut log);
                }
            }
        }
    }

    /// Runs a view over the log (an empty one when disabled).
    pub(crate) fn view<R>(&self, view: impl FnOnce(&[Event]) -> R) -> R {
        match self {
            TelemetrySink::Disabled => view(&[]),
            TelemetrySink::Recording(inner) | TelemetrySink::Device(inner, _) => {
                view(&inner.log())
            }
        }
    }

    /// Writes the five views into `dir` (created when missing) as the
    /// [`VIEW_FILES`], each printed by its `*_json` method. One view's text
    /// is formed, written and dropped before the next.
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error.
    pub fn write_views(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let views: [fn(&Self) -> String; 5] = [
            Self::chrome_trace_json,
            Self::metrics_json,
            Self::profiles_json,
            Self::timeseries_json,
            Self::decisions_json,
        ];
        for (file, view) in VIEW_FILES.into_iter().zip(views) {
            std::fs::write(dir.join(file), view(self))?;
        }
        Ok(())
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.push([Event::Count { counter, n }]);
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
        if self.is_enabled() {
            self.push([Event::Span(SpanEvent {
                name: SpanName::Text(name.into()),
                pid,
                tid,
                start_ns,
                dur_ns,
            })]);
        }
    }

    /// Names a Chrome-trace process track (the first name of a pid wins).
    pub fn name_process(&self, pid: u32, name: &'static str) {
        self.push([Event::ProcessName { pid, name: Cow::Borrowed(name) }]);
    }

    /// Records one traced launch and its spans under one lock acquisition.
    /// Called only from `KernelSim::finish`, after the plan-order merge.
    pub fn record_launch(&self, launch: LaunchRecord, spans: Vec<SpanEvent>) {
        if self.is_enabled() {
            let launch = Event::Launch(Box::new(launch));
            self.push(std::iter::once(launch).chain(spans.into_iter().map(Event::Span)));
        }
    }

    /// Records a device allocator's footprint after `op` (device 0).
    pub fn record_memory(&self, op: MemoryOp, in_use: u64, high_water: u64) {
        self.push([Event::Memory { device: 0, op, in_use, high_water }]);
    }

    /// Records a gauge sample of `series` at simulated time `t_ns`; the last
    /// sample in a window wins.
    pub fn ts_gauge(&self, device: u32, series: &'static str, t_ns: f64, value: f64) {
        self.push([Event::Gauge { device, series, t_ns, value }]);
    }

    /// Records one dispatched serving batch.
    pub fn record_batch(&self, batch: ServingBatch) {
        if self.is_enabled() {
            self.push([Event::Batch(Box::new(batch))]);
        }
    }

    /// The ordinal the next tuning decision of this handle's device gets:
    /// one past that device's latest recorded decision, or 1 when the log
    /// holds none.
    #[must_use]
    pub fn next_decision_batch(&self) -> u64 {
        let device = match self {
            TelemetrySink::Device(_, tag) => tag.device as u32,
            _ => 0,
        };
        self.view(|log| {
            log.iter()
                .rev()
                .find_map(|e| match e {
                    Event::Decision(d) if d.device == device => Some(d.batch + 1),
                    _ => None,
                })
                .unwrap_or(1)
        })
    }

    /// The recorded spans, in record order, with each sampled block and
    /// serving batch expanded into its spans (empty when disabled).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.view(|log| {
            let mut spans = Vec::new();
            for e in log {
                for part in 0..e.span_count() {
                    let ((pid, tid), start_ns, dur_ns) = e.span(part);
                    let name = e.span_name(part).into_owned();
                    spans.push(SpanEvent { name, pid, tid, start_ns, dur_ns });
                }
            }
            spans
        })
    }

    /// The named process tracks (empty when disabled).
    #[must_use]
    pub fn process_names(&self) -> BTreeMap<u32, String> {
        self.view(|log| {
            process_names(log)
                .into_iter()
                .map(|(pid, name)| (pid, name.to_string()))
                .collect()
        })
    }

    /// Counter snapshot of the log (all zeros when disabled). A launch
    /// feeds the traffic, reduction, lane-step, kernel-time, launch and
    /// sampled-block counters; a decision one engine batch; a serving batch
    /// the serving counters; an [`Event::Count`] its counter; an allocator
    /// event the alloc/free counts and the footprints. Each
    /// [`MemoryOp::Attach`] starts a device's next allocator generation
    /// (the n-th engine, or cluster, built on the sink): the in-use bytes
    /// sum each device's latest, and the high water is the largest, over
    /// generations, of the devices' summed high waters.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.view(|log| {
            let mut values = [0u64; Counter::ALL.len()];
            let mut add = |c: Counter, n: u64| values[c as usize] += n;
            // Per device: latest in-use bytes, high water per generation.
            let mut memory: BTreeMap<u32, (u64, Vec<u64>)> = BTreeMap::new();
            for e in log {
                match e {
                    Event::Launch(l) => {
                        let p = &l.profile;
                        add(Counter::KernelLaunches, 1);
                        add(Counter::SimulatedBlocks, p.sampled_blocks);
                        add(Counter::GmemTransactions, p.gmem_transactions);
                        add(Counter::GmemRequestedBytes, p.gmem_requested_bytes);
                        add(Counter::GmemFetchedBytes, p.gmem_fetched_bytes);
                        add(
                            Counter::GmemUncoalescedBytes,
                            p.gmem_fetched_bytes.saturating_sub(p.gmem_requested_bytes),
                        );
                        add(Counter::SmemBytes, p.smem_fetched_bytes);
                        add(Counter::BlockReductions, l.block_reductions);
                        add(Counter::GlobalReductions, l.global_reductions);
                        add(Counter::DivergenceStallLaneSteps, l.stalled_lane_steps);
                        add(Counter::WarpActiveLaneSteps, l.active_lane_steps);
                        add(Counter::KernelTimeNs, p.total_ns.round() as u64);
                        let reduction_ns =
                            p.breakdown.block_reduction_ns + p.breakdown.global_reduction_ns;
                        add(Counter::ReductionTimeNs, reduction_ns.round() as u64);
                    }
                    Event::Memory { device, op, in_use, high_water } => {
                        let (latest, generations) = memory.entry(*device).or_default();
                        match op {
                            MemoryOp::Attach => generations.push(0),
                            MemoryOp::Alloc => add(Counter::DeviceAllocs, 1),
                            MemoryOp::Free => add(Counter::DeviceFrees, 1),
                        }
                        *latest = *in_use;
                        match generations.last_mut() {
                            Some(hw) => *hw = (*hw).max(*high_water),
                            None => generations.push(*high_water),
                        }
                    }
                    Event::Batch(b) => {
                        add(Counter::ServingBatches, 1);
                        add(Counter::ServingRequests, b.size);
                    }
                    Event::Decision(_) => add(Counter::EngineBatches, 1),
                    Event::Count { counter, n } => add(*counter, *n),
                    _ => {}
                }
            }
            add(Counter::AllocInUseBytes, memory.values().map(|m| m.0).sum());
            let generations = memory.values().map(|m| m.1.len()).max().unwrap_or(0);
            let peak = (0..generations)
                .map(|g| memory.values().filter_map(|m| m.1.get(g)).sum())
                .max()
                .unwrap_or(0);
            add(Counter::AllocHighWaterBytes, peak);
            MetricsSnapshot {
                counters: Counter::ALL
                    .iter()
                    .map(|&c| (c.name().to_string(), values[c as usize]))
                    .collect(),
                span_count: log.iter().map(Event::span_count).sum(),
            }
        })
    }

    /// The metrics snapshot as pretty JSON (the `metrics.json` view).
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

    /// Exports the log as Chrome trace-event JSON (the `trace.json` view),
    /// loadable in Perfetto / `chrome://tracing`.
    ///
    /// Span events are stably ordered by `(pid, tid, ts, −dur)`, so
    /// timestamps are monotone per track and enclosing spans precede
    /// enclosed ones. The time series follow as Perfetto counter tracks
    /// (`"ph":"C"` events, one per non-empty window) in the export's
    /// `(device, name, kind)` order. The request paths (DESIGN.md §2.9)
    /// follow in record order: one Perfetto async span (`"b"`/`"e"`, id =
    /// request index) covering the request's end-to-end latency on the
    /// serving queue track, plus a flow arrow (`"s"`/`"f"`) from its arrival
    /// into the executing device's batch-execute track.
    ///
    /// The document is `{"traceEvents":[`, then one compact event per line
    /// (each a small [`serde_json::Value`], printed as `serde_json::to_string`
    /// prints it), then `],"displayTimeUnit":"ns"}` on a line of its own.
    /// Each event is formed, printed and dropped before the next, and span
    /// labels are rendered as they are written, so the export's memory is
    /// the output text itself. Sampled blocks and batches are expanded here,
    /// and the sort moves `(event, part)` index pairs, not copies of the
    /// spans. A warp that did no work (zero serial time) writes no span;
    /// [`TelemetrySink::spans`] and the snapshot's `span_count` still count
    /// it. `tests/telemetry_schema.rs` pins the bytes against a
    /// whole-document reference.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        self.view(|log| {
            let mut order: Vec<(u32, u32)> =
                Vec::with_capacity(log.iter().map(Event::span_count).sum());
            for (i, e) in log.iter().enumerate() {
                let i = u32::try_from(i).expect("fewer than 2^32 recorded events");
                order.extend(
                    (0..e.span_count() as u32)
                        .filter(|&part| !e.is_idle_warp(part as usize))
                        .map(|part| (i, part)),
                );
            }
            let key = |&(i, part): &(u32, u32)| log[i as usize].span(part as usize);
            order.sort_by(|a, b| {
                let (a, b) = (key(a), key(b));
                a.0.cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(b.2.total_cmp(&a.2))
            });
            for (pid, name) in process_names(log) {
                push_event(&mut out, vec![
                    ("ph", str_val("M")),
                    ("ts", num(0.0)),
                    ("pid", uint(u64::from(pid))),
                    ("tid", uint(0)),
                    ("name", str_val("process_name")),
                    ("args", Value::Object(vec![("name".into(), str_val(name))])),
                ]);
            }
            for (i, part) in order {
                let e = &log[i as usize];
                let ((pid, tid), start_ns, dur_ns) = e.span(part as usize);
                push_event(&mut out, vec![
                    ("ph", str_val("X")),
                    ("ts", num(start_ns / 1_000.0)),
                    ("dur", num(dur_ns / 1_000.0)),
                    ("pid", uint(u64::from(pid))),
                    ("tid", uint(u64::from(tid))),
                    ("name", Value::String(e.span_name(part as usize).to_string())),
                ]);
            }
            for series in crate::timeseries::export(log).series {
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
            for r in crate::decision::requests(log) {
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
        });
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Process track names: the first name each pid gets in the log.
fn process_names(log: &[Event]) -> BTreeMap<u32, &str> {
    let mut names = BTreeMap::new();
    for (pid, name) in log.iter().filter_map(Event::process_name) {
        names.entry(pid).or_insert(name);
    }
    names
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
        sink.record_memory(MemoryOp::Alloc, 2000, 2000);
        sink.record_memory(MemoryOp::Free, 1000, 2000);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["gmem_fetched_bytes"], 192);
        assert_eq!(snap.counters["alloc_in_use_bytes"], 1000);
        assert_eq!(snap.counters["alloc_high_water_bytes"], 2000);
        assert_eq!(snap.counters["device_allocs"], 1);
        assert_eq!(snap.counters["device_frees"], 1);
        assert!((snap.gmem_efficiency() - 0.5).abs() < 1e-12);
        // Every declared counter appears in the snapshot.
        assert_eq!(snap.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn footprints_sum_each_devices_latest_and_highest() {
        let cluster = TelemetrySink::recording();
        for (d, (in_use, high_water)) in [(300, 500), (100, 400)].into_iter().enumerate() {
            let dev = cluster.for_device(d, "test");
            dev.record_memory(MemoryOp::Alloc, high_water, high_water);
            dev.record_memory(MemoryOp::Free, in_use, high_water);
        }
        let snap = cluster.snapshot();
        assert_eq!(snap.counters["alloc_in_use_bytes"], 400);
        assert_eq!(snap.counters["alloc_high_water_bytes"], 900);
        assert_eq!(snap.counters["device_allocs"], 2);
    }

    #[test]
    fn the_high_water_peaks_over_allocator_generations() {
        // Two clusters of two devices recorded one after the other: the
        // peak is the larger cluster total (400 + 100), not the sum of the
        // per-device peaks (400 + 300); in-use bytes are the latest
        // cluster's.
        let sink = TelemetrySink::recording();
        for footprints in [[(400, 300), (100, 100)], [(100, 50), (300, 50)]] {
            for (d, (high_water, in_use)) in footprints.into_iter().enumerate() {
                let dev = sink.for_device(d, "test");
                dev.record_memory(MemoryOp::Attach, 0, 0);
                dev.record_memory(MemoryOp::Alloc, high_water, high_water);
                dev.record_memory(MemoryOp::Free, in_use, high_water);
            }
        }
        let snap = sink.snapshot();
        assert_eq!(snap.counters["alloc_high_water_bytes"], 500);
        assert_eq!(snap.counters["alloc_in_use_bytes"], 100);
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
    fn a_batch_stands_for_its_form_queue_and_execute_spans() {
        let sink = TelemetrySink::recording();
        let batch = ServingBatch {
            device: 0,
            index: 4,
            size: 3,
            strategy: "direct",
            first_arrival_ns: 100.0,
            ready_ns: 150.0,
            dispatch_ns: 180.0,
            gpu_ns: 40.0,
        };
        sink.record_batch(batch.clone());
        sink.record_batch(ServingBatch { dispatch_ns: 150.0, ..batch });
        let spans = sink.spans();
        let labels: Vec<(String, u32, f64, f64)> = spans
            .iter()
            .map(|s| (s.name.to_string(), s.tid, s.start_ns, s.dur_ns))
            .collect();
        assert_eq!(labels[..3], [
            ("batch 4: form (3 requests)".to_string(), 0, 100.0, 50.0),
            ("batch 4: queue wait (GPU busy)".to_string(), 1, 150.0, 30.0),
            ("batch 4: execute (direct)".to_string(), 2, 180.0, 40.0),
        ]);
        assert_eq!(labels.len(), 5, "a batch that never queued has no wait span");
        let snap = sink.snapshot();
        assert_eq!(snap.span_count, 5);
        assert_eq!(snap.counters["serving_batches"], 2);
        assert_eq!(snap.counters["serving_requests"], 6);
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
    fn events_stay_small() {
        // The boxed payloads keep every logged event, a sampled block
        // included, at the size of a plain span.
        assert_eq!(std::mem::size_of::<SpanEvent>(), 48);
        assert_eq!(std::mem::size_of::<Event>(), 48);
    }

    #[test]
    fn metrics_snapshot_round_trips_through_serde() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::EngineBatches, 3);
        sink.span("s", PID_ENGINE, 1, 1.0, 2.0);
        let snap = sink.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
