//! Telemetry re-exports and the strategy-launch telemetry context.
//!
//! The event log and its views live in [`tahoe_gpu_sim::telemetry`]; this
//! module re-exports them so engine-level code has one import path, and
//! adds [`TelemetryCtx`] — the borrowed handle a
//! [`crate::strategy::LaunchContext`] carries into every kernel launch.

pub use tahoe_gpu_sim::telemetry::{
    device_pid, Counter, Event, MetricsSnapshot, ServingBatch, SpanEvent, SpanName, TelemetrySink,
    PID_DEVICE_STRIDE, PID_ENGINE, PID_GPU, PID_SERVING, VIEW_FILES,
};
/// The windowed time-series view (series constants and export types) —
/// see DESIGN.md §2.9.
pub use tahoe_gpu_sim::timeseries;
/// The flight-recorder view (decision and request-path records, export)
/// — see DESIGN.md §2.9.
pub use tahoe_gpu_sim::decision;

/// A disabled sink with `'static` lifetime, so contexts without telemetry
/// can borrow one without owning a sink.
static DISABLED_SINK: TelemetrySink = TelemetrySink::Disabled;

/// Telemetry handle for one strategy launch: where to record, and where the
/// launch sits on the simulated timeline (the engine advances `t0_ns` by each
/// kernel's simulated duration so consecutive batches lay out end to end in
/// the exported trace).
#[derive(Clone, Copy, Debug)]
pub struct TelemetryCtx<'a> {
    /// Sink launches record into.
    pub sink: &'a TelemetrySink,
    /// Simulated-timeline origin of the launch (ns).
    pub t0_ns: f64,
}

impl TelemetryCtx<'static> {
    /// A context that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        TelemetryCtx { sink: &DISABLED_SINK, t0_ns: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_is_off() {
        let ctx = TelemetryCtx::disabled();
        assert!(!ctx.sink.is_enabled());
        assert_eq!(ctx.t0_ns, 0.0);
    }
}
