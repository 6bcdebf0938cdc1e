//! Tahoe: tree structure-aware high performance inference engine for decision
//! tree ensembles — a full reproduction of the EuroSys '21 paper on top of a
//! simulated GPU substrate.
//!
//! The crate mirrors the paper's architecture:
//!
//! - [`mod@format`] — the reorg storage format (FIL's baseline, §2) and Tahoe's
//!   adaptive forest format (§4.3): interleaved node layout, variable-length
//!   attribute indices, dense/sparse storage.
//! - [`rearrange`] — probability-based node rearrangement (§4.1) and
//!   SimHash/LSH similarity-based tree rearrangement (§4.2).
//! - [`strategy`] — the four inference strategies of §5 (shared data, direct,
//!   shared forest, splitting shared forest) as simulated GPU kernels.
//! - [`perfmodel`] — the performance models of §6.1 (Eq. 1–7) and
//!   model-guided strategy selection.
//! - [`engine`] — the adaptive engine (Algorithm 1) and the FIL-equivalent
//!   baseline.
//! - [`cluster`] — the multi-GPU layer (§7.5): one engine per device with
//!   private memory, clock, and telemetry, merged deterministically.
//! - [`metrics`] — throughput / imbalance metrics used by the evaluation.
//! - [`telemetry`] — the one telemetry event log every layer appends to,
//!   and its five views: Chrome trace, counter snapshot, kernel profiles,
//!   windowed time series and flight recorder (see `gpu-sim`'s `telemetry`
//!   module for the substrate).
//! - [`profile`] — per-kernel profiler reports and latency histograms
//!   (substrate in `gpu-sim`'s `profile`).
//! - [`telemetry::decision`] — the request-path flight recorder: per-request
//!   critical-path records and per-tuning-event decision audits with the
//!   model's drift (substrate in `gpu-sim`'s `decision`).
//!
//! # Examples
//!
//! ```
//! use tahoe_datasets::{DatasetSpec, Scale};
//! use tahoe_forest::train_for_spec;
//! use tahoe::format::{DeviceForest, FormatConfig, LayoutPlan};
//! use tahoe_gpu_sim::memory::DeviceMemory;
//!
//! let spec = DatasetSpec::by_name("letter").unwrap();
//! let data = spec.generate(Scale::Smoke);
//! let (train, infer) = data.split_train_infer();
//! let forest = train_for_spec(&spec, &train, Scale::Smoke);
//! let plan = tahoe::rearrange::adaptive_plan(&forest, &Default::default());
//! let mut mem = DeviceMemory::new();
//! let device_forest = DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
//! let predictions = device_forest.predict_batch(&infer.samples);
//! assert_eq!(predictions.len(), infer.len());
//! ```

pub mod cluster;
pub mod engine;
pub mod format;
pub mod metrics;
pub mod perfmodel;
pub mod profile;
pub mod rearrange;
pub mod serving;
pub mod strategy;
pub mod telemetry;
pub mod tune;

pub use cluster::{ClusterRun, DeviceRun, GpuCluster};
pub use engine::{Engine, EngineOptions, InferenceResult};
pub use format::{DeviceForest, FormatConfig, LayoutPlan};
pub use perfmodel::{Calibrator, ModelInputs, Prediction};
pub use profile::{KernelProfile, ProfilesExport};
pub use rearrange::{adaptive_plan, similarity_order, SimilarityParams};
pub use strategy::{LaunchContext, Strategy, StrategyRun};
pub use telemetry::decision::{DecisionRecord, DecisionsExport, RequestPathRecord};
pub use telemetry::timeseries::TimeSeriesExport;
pub use telemetry::{Counter, MetricsSnapshot, TelemetryCtx, TelemetrySink};
