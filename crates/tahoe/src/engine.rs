//! The adaptive inference engine (paper Algorithm 1) and the FIL baseline.
//!
//! Construction runs the *offline* part (hardware microbenchmarks, line 4)
//! and the *online* CPU part (node rearrangement, similarity detection,
//! format conversion, lines 5–7). Each batch then runs the *GPU* part:
//! performance-model evaluation (lines 8–13) and the selected strategy
//! (line 15). [`Engine::update_forest`] is the incremental-learning path:
//! a forest update re-triggers probability counting and format conversion.

use std::time::Instant;

use tahoe_datasets::SampleMatrix;
use tahoe_forest::probability::EdgeCounter;
use tahoe_forest::{Forest, ForestStats};
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;
use tahoe_gpu_sim::memory::{DeviceMemory, OomError, ALLOC_ALIGN, GLOBAL_BASE};
use tahoe_gpu_sim::{measure, GlobalBuffer, MeasuredParams};

use crate::format::{DeviceForest, FormatConfig, LayoutPlan, NodeEncoding};
use crate::perfmodel::{Calibrator, ModelInputs, Prediction};
use crate::profile::DriftRecord;
use crate::rearrange::{self, RearrangeReport, SimilarityParams};
use crate::strategy::common::THREADS_PER_BLOCK;
use crate::strategy::{self, LaunchContext, Strategy, StrategyRun};
use crate::telemetry::decision::{DecisionCandidate, DecisionRecord};
use crate::telemetry::{timeseries, Counter, TelemetryCtx, TelemetrySink, PID_ENGINE};
use crate::tune;

/// How the engine picks the device-node encoding (DESIGN.md §2.13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NodeEncodingChoice {
    /// Whole-node records — the historical layout and the default, so the
    /// presets stay bit-identical to what they always produced.
    #[default]
    Classic,
    /// Packed struct-of-arrays lanes; falls back to classic when the
    /// attribute count exceeds [`crate::format::PackedWidth`]'s 29-bit cap.
    Packed,
    /// Packed whenever the attribute count is representable (same fallback
    /// rule as `Packed` — the format layer decides).
    Auto,
}

impl NodeEncodingChoice {
    /// The concrete encoding to request from the format layer.
    #[must_use]
    pub fn resolve(self) -> NodeEncoding {
        match self {
            Self::Classic => NodeEncoding::Classic,
            Self::Packed | Self::Auto => NodeEncoding::Packed,
        }
    }
}

/// Which of Tahoe's techniques an engine applies (the knobs behind the
/// paper's Fig. 8 breakdown).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineOptions {
    /// Probability-based node rearrangement (§4.1).
    pub node_rearrange: bool,
    /// Similarity-based tree rearrangement (§4.2).
    pub tree_rearrange: bool,
    /// Performance-model-guided strategy selection (§6); when off, the
    /// engine always uses FIL's shared-data strategy.
    pub model_selection: bool,
    /// Variable-length attribute index (§4.3).
    pub varlen_attr: bool,
    /// Simulation detail (sampled blocks per kernel).
    pub detail: Detail,
    /// Similarity-pipeline parameters.
    pub similarity: SimilarityParams,
    /// Compute functional predictions on [`Engine::infer`]. Throughput
    /// sweeps over tiled mega-batches disable this: the simulated timing
    /// comes from the trace simulator either way, and correctness is covered
    /// by the (always-functional) validation tests.
    pub functional: bool,
    /// Count edge probabilities during inference (Algorithm 1 line 16).
    /// Accumulated counts feed [`Engine::refresh_probabilities`], which
    /// re-annotates the forest and rebuilds the layout. Off by default: it
    /// costs an extra traversal pass per batch.
    pub track_probabilities: bool,
    /// Device-node encoding (DESIGN.md §2.13). The presets keep the classic
    /// whole-node layout so their simulated traces stay byte-identical;
    /// `tahoe-cli` defaults to `Auto`.
    pub node_encoding: NodeEncodingChoice,
    /// Online recalibration of the §6 constants from the engine's own drift
    /// stream (DESIGN.md §2.16). Off in the presets so their selections and
    /// exports stay bit-identical to the historical engine; `tahoe-cli`
    /// enables it with `--calibrate`. Calibration consumes only
    /// simulated-clock values, so turning it on keeps every export
    /// byte-identical at any worker count and across memo settings.
    pub calibration: bool,
}

impl EngineOptions {
    /// Full Tahoe: everything on.
    #[must_use]
    pub fn tahoe() -> Self {
        Self {
            node_rearrange: true,
            tree_rearrange: true,
            model_selection: true,
            varlen_attr: true,
            detail: Detail::DEFAULT_SAMPLED,
            similarity: SimilarityParams::default(),
            functional: true,
            track_probabilities: false,
            node_encoding: NodeEncodingChoice::Classic,
            calibration: false,
        }
    }

    /// FIL baseline: reorg format, fixed-width attributes, shared-data
    /// strategy only.
    #[must_use]
    pub fn fil() -> Self {
        Self {
            node_rearrange: false,
            tree_rearrange: false,
            model_selection: false,
            varlen_attr: false,
            detail: Detail::DEFAULT_SAMPLED,
            similarity: SimilarityParams::default(),
            functional: true,
            track_probabilities: false,
            node_encoding: NodeEncodingChoice::Classic,
            calibration: false,
        }
    }
}

/// CPU-side conversion cost (paper §7.4's overhead analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConversionReport {
    /// Rearrangement stage timings.
    pub rearrange: RearrangeReport,
    /// Device-format build time.
    pub convert_ns: u64,
}

impl ConversionReport {
    /// Total CPU-part time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.rearrange.total_ns() + self.convert_ns
    }
}

/// Result of one inference batch.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Final predictions (aggregated ensemble outputs).
    pub predictions: Vec<f32>,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Simulated kernel outcome.
    pub run: StrategyRun,
    /// Model predictions for every feasible strategy, cheapest first.
    pub ranked: Vec<Prediction>,
    /// Model inputs used for the ranking.
    pub inputs: ModelInputs,
    /// Host-side model-evaluation time (§7.4's "runtime overhead").
    pub model_eval_ns: u64,
    /// Sequential chunks the batch was split into because its staging
    /// buffer exceeded the remaining device DRAM (1 = ran unsplit).
    pub chunks: usize,
    /// Simulated device memory live after this batch (bytes).
    pub mem_in_use_bytes: u64,
    /// High-water in-use footprint over the engine's lifetime (bytes).
    pub mem_high_water_bytes: u64,
}

/// A configured inference engine bound to one device and one forest.
pub struct Engine {
    device: DeviceSpec,
    hw: MeasuredParams,
    options: EngineOptions,
    forest: Forest,
    stats: ForestStats,
    device_forest: DeviceForest,
    /// The §4 layout the image was built from. It is a function of the
    /// forest and options alone, so [`Engine::retarget`] reuses it on other
    /// device models instead of rearranging again.
    plan: LayoutPlan,
    mem: DeviceMemory,
    /// Live allocations holding the forest image — one per node lane (the
    /// classic encoding has one, packed two or three); freed on
    /// reconversion.
    forest_bufs: Vec<GlobalBuffer>,
    /// Cached per-batch staging buffer, reused (or grown) across batches.
    sample_buf: Option<GlobalBuffer>,
    conversion: ConversionReport,
    counter: Option<EdgeCounter>,
    /// Telemetry recording handle ([`TelemetrySink::Disabled`] via
    /// [`Engine::new`]; a live sink via [`Engine::with_telemetry`]).
    sink: TelemetrySink,
    /// Simulated-timeline cursor: each batch's kernel spans start here, and
    /// the cursor advances by the kernel's simulated duration so consecutive
    /// batches lay out end to end in the exported trace. The serving
    /// simulator overrides it per dispatch via [`Engine::set_sim_clock_ns`].
    clock_ns: f64,
    /// Host-phase cursor for the engine track's wall-clock-measured spans
    /// (rearrange/convert/tune), laid out sequentially.
    host_cursor_ns: f64,
    /// Online §6-constant recalibration state (DESIGN.md §2.16). Always
    /// present; folded into and applied to selections only when
    /// `options.calibration` is on.
    calibrator: Calibrator,
    /// Memoized `tune::sweep` ladders keyed by everything selection depends
    /// on (`tune::cache_key`); cleared on reconversion and on
    /// calibration-generation bumps.
    tuning_cache: tune::TuningCache,
}

impl Engine {
    /// Builds an engine: offline microbenchmarks + online format conversion.
    ///
    /// # Panics
    ///
    /// Panics if the device spec fails validation.
    #[must_use]
    pub fn new(device: DeviceSpec, forest: Forest, options: EngineOptions) -> Self {
        Self::with_telemetry(device, forest, options, TelemetrySink::Disabled)
    }

    /// As [`Engine::new`], recording spans and counters into `sink` — the
    /// construction-time conversion, the simulated allocator, every kernel
    /// launch, and the per-batch engine phases all report into it.
    ///
    /// # Panics
    ///
    /// Panics if the device spec fails validation.
    #[must_use]
    pub fn with_telemetry(
        device: DeviceSpec,
        forest: Forest,
        options: EngineOptions,
        sink: TelemetrySink,
    ) -> Self {
        let mut engine = Self::assemble(device, forest, options, sink);
        engine.convert();
        engine
    }

    /// Builds an engine for another device model from this one's forest,
    /// options and layout plan: it runs the device's own microbenchmarks and
    /// builds a fresh image in the device's own memory, but skips the §4
    /// rearrangement, which depends on the forest alone. The result matches
    /// an [`Engine::with_telemetry`] built on `device` except that its
    /// [`Engine::conversion`] reports no rearrangement time.
    pub(crate) fn retarget(&self, device: DeviceSpec, sink: TelemetrySink) -> Self {
        let mut engine = Self::assemble(device, self.forest.clone(), self.options, sink);
        engine.build_image(self.plan.clone(), RearrangeReport::default());
        engine
    }

    /// An engine with measured hardware parameters and an empty device
    /// memory, awaiting its first image build.
    fn assemble(
        device: DeviceSpec,
        forest: Forest,
        options: EngineOptions,
        sink: TelemetrySink,
    ) -> Self {
        device.validate().expect("valid device spec");
        let hw = measure(&device);
        let mut mem = DeviceMemory::for_device(&device);
        mem.attach_telemetry(&sink);
        Self {
            stats: forest.stats(),
            counter: options.track_probabilities.then(|| EdgeCounter::new(&forest)),
            device,
            hw,
            options,
            forest,
            device_forest: placeholder_device_forest(),
            plan: LayoutPlan {
                tree_order: Vec::new(),
                swaps: Vec::new(),
            },
            mem,
            forest_bufs: Vec::new(),
            sample_buf: None,
            conversion: ConversionReport::default(),
            sink,
            clock_ns: 0.0,
            host_cursor_ns: 0.0,
            calibrator: Calibrator::new(),
            tuning_cache: tune::TuningCache::new(),
        }
    }

    /// Clones a fully converted engine for another device slot of the same
    /// device model, executing on `device` (the slot's possibly
    /// clock-perturbed spec), attaching `sink` as its telemetry handle and
    /// zeroing the simulated clocks. The template's calibration (`hw`,
    /// layout plan, conversion, strategy stats) carries over — fleets
    /// calibrate once per SKU, not per board.
    ///
    /// The clone shares nothing mutable with `self`: the capacity-modeled
    /// `DeviceMemory` (with the forest image and any cached staging buffer
    /// still resident) is copied wholesale, so each replica has independent
    /// in-use/high-water accounting. It is the multi-GPU cluster's only
    /// same-model path; a new model reuses just the layout plan (via
    /// `Engine::retarget`). A cluster thus rearranges once per forest,
    /// microbenchmarks once per device model and holds one image per board.
    #[must_use]
    pub fn replicate(&self, device: DeviceSpec, sink: TelemetrySink) -> Self {
        let mut mem = self.mem.clone();
        mem.attach_telemetry(&sink);
        Self {
            device,
            hw: self.hw,
            options: self.options,
            forest: self.forest.clone(),
            stats: self.stats,
            device_forest: self.device_forest.clone(),
            plan: self.plan.clone(),
            mem,
            forest_bufs: self.forest_bufs.clone(),
            sample_buf: self.sample_buf,
            conversion: self.conversion,
            counter: self.counter.clone(),
            sink,
            clock_ns: 0.0,
            host_cursor_ns: 0.0,
            // Fitted scales carry over with the rest of the calibration;
            // the tuning cache does not — replica slots run downclocked
            // specs, so the template's keys would never match anyway.
            calibrator: self.calibrator.clone(),
            tuning_cache: tune::TuningCache::new(),
        }
    }

    /// Full Tahoe on `device`.
    #[must_use]
    pub fn tahoe(device: DeviceSpec, forest: Forest) -> Self {
        Self::new(device, forest, EngineOptions::tahoe())
    }

    /// FIL-equivalent baseline on `device`.
    #[must_use]
    pub fn fil(device: DeviceSpec, forest: Forest) -> Self {
        Self::new(device, forest, EngineOptions::fil())
    }

    /// (Re)plans the layout and rebuilds the device forest from the current
    /// host forest.
    fn convert(&mut self) {
        let (plan, rearrange) = self.plan_layout();
        self.build_image(plan, rearrange);
    }

    /// The §4 rearrangement the options ask for, with its stage timings.
    fn plan_layout(&self) -> (LayoutPlan, RearrangeReport) {
        let (forest, similarity) = (&self.forest, &self.options.similarity);
        match (self.options.node_rearrange, self.options.tree_rearrange) {
            (true, true) => rearrange::adaptive_plan_timed(forest, similarity),
            (true, false) => {
                let t0 = Instant::now();
                let swaps = rearrange::node_swap::forest_swaps(forest);
                let report = RearrangeReport {
                    node_swap_ns: t0.elapsed().as_nanos() as u64,
                    ..RearrangeReport::default()
                };
                let tree_order = (0..forest.n_trees()).collect();
                (LayoutPlan { tree_order, swaps }, report)
            }
            (false, true) => {
                let (tree_order, report) = rearrange::similarity_order_timed(forest, similarity);
                let swaps = LayoutPlan::identity(forest).swaps;
                (LayoutPlan { tree_order, swaps }, report)
            }
            (false, false) => (LayoutPlan::identity(forest), RearrangeReport::default()),
        }
    }

    /// Replaces the device image with one built from the host forest and
    /// `plan`, recording `rearrange` (the planning cost, zero when the plan
    /// was reused) alongside the build time.
    fn build_image(&mut self, plan: LayoutPlan, rearrange: RearrangeReport) {
        // The cache keys per-forest statistics but not the per-tree layout;
        // its validity contract is that the forest image is fixed within one
        // cache lifetime, so a rebuild drops every entry (DESIGN.md §2.16).
        self.tuning_cache.clear();
        let config = FormatConfig {
            varlen_attr: self.options.varlen_attr,
            mode: None,
            encoding: self.options.node_encoding.resolve(),
        };
        let t0 = Instant::now();
        // Release the previous image before building the replacement —
        // without this, every `update_forest`/`refresh_probabilities` cycle
        // leaked a full forest image of simulated DRAM.
        for old in std::mem::take(&mut self.forest_bufs) {
            self.mem.free(old);
        }
        self.device_forest = DeviceForest::try_build(&self.forest, &plan, config, &mut self.mem)
            .unwrap_or_else(|e| panic!("forest image exceeds device DRAM: {e}"));
        self.forest_bufs = self.device_forest.buffers();
        let report = ConversionReport {
            rearrange,
            convert_ns: t0.elapsed().as_nanos() as u64,
        };
        self.stats = self.forest.stats();
        if self.sink.is_enabled() {
            self.sink.name_process(PID_ENGINE, "engine");
            let rearrange_ns = report.rearrange.total_ns() as f64;
            if rearrange_ns > 0.0 {
                self.host_span("rearrange", rearrange_ns);
            }
            self.host_span("convert", report.convert_ns as f64);
        }
        self.conversion = report;
        self.plan = plan;
    }

    /// Emits one wall-clock-measured engine-phase span and advances the host
    /// cursor so phases tile the engine track in execution order.
    fn host_span(&mut self, name: &str, dur_ns: f64) {
        self.sink.span(name, PID_ENGINE, 0, self.host_cursor_ns, dur_ns);
        self.host_cursor_ns += dur_ns;
    }

    /// Runs inference on a batch, selecting the strategy via the performance
    /// models (Algorithm 1 lines 8–15).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or an attribute-count mismatch.
    pub fn infer(&mut self, samples: &SampleMatrix) -> InferenceResult {
        self.infer_with(samples, None)
    }

    /// As [`Engine::infer`], optionally forcing a strategy (used by the
    /// Fig. 5/6 strategy sweeps). Forcing an infeasible strategy panics;
    /// callers check feasibility first via [`Engine::feasible`] or
    /// [`strategy::geometry`].
    ///
    /// A batch whose staging buffer does not fit in the remaining device
    /// DRAM is split into chunks inferred sequentially and merged;
    /// [`InferenceResult::chunks`] reports how many.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, attribute mismatch, or an infeasible forced
    /// strategy.
    pub fn infer_with(
        &mut self,
        samples: &SampleMatrix,
        force: Option<Strategy>,
    ) -> InferenceResult {
        assert!(samples.n_samples() > 0, "cannot infer an empty batch");
        assert_eq!(
            samples.n_attributes() as u32,
            self.forest.n_attributes(),
            "attribute count mismatch"
        );
        match self.ensure_sample_buf(sample_bytes(samples)) {
            Ok(buf) => self.infer_batch(samples, force, None, buf),
            Err(_) => self.infer_chunked(samples, force),
        }
    }

    /// Secures a staging buffer of at least `bytes`, reusing the cached one
    /// when it is large enough (the fix for the per-batch leak: the old code
    /// bump-allocated a fresh buffer every call and never freed it).
    fn ensure_sample_buf(&mut self, bytes: u64) -> Result<GlobalBuffer, OomError> {
        if let Some(buf) = self.sample_buf {
            if buf.bytes >= bytes {
                return Ok(buf);
            }
            self.mem.free(buf);
            self.sample_buf = None;
        }
        let buf = self.mem.try_alloc(bytes)?;
        self.sample_buf = Some(buf);
        Ok(buf)
    }

    /// One unsplit batch through model selection and the chosen strategy.
    /// `force` is the caller's pin (recorded as `forced`); `pin` is the
    /// chunked path's pin of later chunks to the first chunk's strategy.
    fn infer_batch(
        &mut self,
        samples: &SampleMatrix,
        force: Option<Strategy>,
        pin: Option<Strategy>,
        sample_buf: GlobalBuffer,
    ) -> InferenceResult {
        let ctx = LaunchContext {
            device: &self.device,
            forest: &self.device_forest,
            samples,
            sample_buf,
            detail: self.options.detail,
            block_threads: THREADS_PER_BLOCK,
            telemetry: TelemetryCtx { sink: &self.sink, t0_ns: self.clock_ns },
        };
        let inputs = ModelInputs::gather(&self.device_forest, &self.stats, samples);
        let cal_enabled = self.options.calibration;
        let cal = cal_enabled.then_some(&self.calibrator);
        // Model evaluation: consult the tuning-decision cache (DESIGN.md
        // §2.16), falling back to sweeping every strategy × block size
        // (Algorithm 1 lines 8-14), then rank the ladder. The cached ladder
        // is a pure function of its key material, so warm and cold runs
        // select identically — only this host span and the cache accounting
        // differ.
        let t0 = Instant::now();
        let (ladder, cache_hit) = if tune::tune_cache_enabled() {
            let key = tune::cache_key(
                &self.device_forest,
                &self.device,
                &inputs,
                self.options.detail,
                self.calibrator.generation(),
            );
            match self.tuning_cache.get(&key) {
                Some(cached) => (cached.clone(), true),
                None => {
                    let fresh = tune::sweep(&ctx, &inputs, &self.hw);
                    self.tuning_cache.insert(key, fresh.clone());
                    (fresh, false)
                }
            }
        } else {
            (tune::sweep(&ctx, &inputs, &self.hw), false)
        };
        let tuned = ladder.ranked(cal);
        let model_eval_ns = t0.elapsed().as_nanos() as u64;
        // Cache accounting only when the cache was consulted, mirroring the
        // block-memo counters: turning the cache off zeroes these counters
        // but must change nothing else.
        if tune::tune_cache_enabled() {
            self.sink.add(
                if cache_hit {
                    Counter::TuningCacheHits
                } else {
                    Counter::TuningCacheMisses
                },
                1,
            );
        }
        let ranked: Vec<Prediction> = tuned.iter().map(|&(_, _, p)| p).collect();
        let strategy = force.or(pin).unwrap_or_else(|| {
            if self.options.model_selection {
                tuned
                    .first()
                    .expect("shared data and direct are always feasible")
                    .0
            } else {
                Strategy::SharedData
            }
        });
        // Launch with the tuned block size (FIL's fixed default when the
        // model is disabled, matching the baseline).
        let block_threads = if self.options.model_selection {
            tuned
                .iter()
                .find(|(s, _, _)| *s == strategy)
                .map_or(THREADS_PER_BLOCK, |&(_, t, _)| t)
        } else {
            THREADS_PER_BLOCK
        };
        let run_ctx = LaunchContext {
            block_threads,
            ..ctx
        };
        let run = strategy::run(strategy, &run_ctx)
            .unwrap_or_else(|| panic!("strategy {strategy} infeasible for this forest/device"));
        self.sink.add(Counter::EngineBatches, 1);
        // The launch's drift observation (DESIGN.md §2.10) is the ladder's
        // rung at the launched plan — `strategy::run` launches the geometry
        // the sweep costed. The calibrator folds the *raw* rung (the fit is
        // always against the uncalibrated model); telemetry records the
        // *applied* one — the cost selection actually compared.
        let n = samples.n_samples() as f64;
        let launched = || {
            ladder
                .raw(strategy, block_threads)
                .expect("the launched plan is a feasible ladder rung")
        };
        if self.sink.is_enabled() {
            let applied = cal.map_or(launched(), |c| c.apply(launched()));
            debug_assert!(
                applied.total().is_finite(),
                "non-finite launched-plan prediction for {strategy} ({n} samples)"
            );
            let drift = DriftRecord::new(
                strategy.name(),
                samples.n_samples(),
                applied.total() * n,
                run.kernel.total_ns,
            );
            let candidates = ladder
                .rungs()
                .iter()
                .map(|r| DecisionCandidate {
                    strategy: r.strategy.name().to_string(),
                    block_threads: r.block_threads as u64,
                    predicted_ns: r
                        .outcome
                        .ok()
                        .map(|p| cal.map_or(p, |c| c.apply(p)).total() * n),
                    rejection: r.outcome.err().map(str::to_string),
                })
                .collect();
            self.sink.name_process(PID_ENGINE, "engine");
            self.host_span("tune", model_eval_ns as f64);
            self.sink.span(
                format!("infer: {} ({} samples)", strategy.name(), samples.n_samples()),
                PID_ENGINE,
                1,
                self.clock_ns,
                run.kernel.total_ns,
            );
            // The decision record joins the ladder to the launch it produced;
            // the profiler's drift export is read back from it.
            self.sink.push_decision(DecisionRecord {
                device: 0,
                batch: self.sink.counter_value(Counter::EngineBatches),
                n_samples: samples.n_samples() as u64,
                forced: force.is_some(),
                chosen_strategy: strategy.name().to_string(),
                chosen_block_threads: block_threads as u64,
                predicted_ns: drift.predicted_ns,
                simulated_ns: drift.simulated_ns,
                relative_error: drift.relative_error,
                calibration_generation: self.calibrator.generation(),
                cache_hit,
                candidates,
            });
            // DRAM footprint gauges at the batch's simulated completion time
            // (DESIGN.md §2.14), still on the caller thread.
            let done_ns = self.clock_ns + run.kernel.total_ns;
            self.sink.ts_gauge(
                0,
                timeseries::MEM_IN_USE_BYTES,
                done_ns,
                self.mem.in_use_bytes() as f64,
            );
            self.sink.ts_gauge(
                0,
                timeseries::MEM_HIGH_WATER_BYTES,
                done_ns,
                self.mem.high_water_bytes() as f64,
            );
        }
        self.clock_ns += run.kernel.total_ns;
        // Close the tuning loop (DESIGN.md §2.16): fold this launch's drift
        // observation and refit on cadence. Both inputs derive from the
        // simulated clock, so calibration cannot perturb byte-identity. A
        // generation bump invalidates the tuning cache — by dropping
        // entries, never by mutating them.
        if cal_enabled {
            self.calibrator
                .observe(strategy, launched().total() * n, run.kernel.total_ns);
            if self.calibrator.maybe_recalibrate() {
                self.tuning_cache.clear();
            }
        }
        let predictions = if self.options.functional {
            self.device_forest.predict_batch(samples)
        } else {
            Vec::new()
        };
        // Algorithm 1 line 16: count edge probabilities during inference.
        if let Some(counter) = self.counter.as_mut() {
            counter.observe(&self.forest, samples);
        }
        InferenceResult {
            predictions,
            strategy,
            run,
            ranked,
            inputs,
            model_eval_ns,
            chunks: 1,
            mem_in_use_bytes: self.mem.in_use_bytes(),
            mem_high_water_bytes: self.mem.high_water_bytes(),
        }
    }

    /// Degraded-mode inference for a batch whose staging buffer exceeds the
    /// remaining DRAM: split into the largest chunks that fit, infer them
    /// sequentially (later chunks pinned to the first chunk's strategy so
    /// the merged result is coherent), and merge predictions and simulated
    /// kernel time.
    fn infer_chunked(
        &mut self,
        samples: &SampleMatrix,
        force: Option<Strategy>,
    ) -> InferenceResult {
        let bytes_per_sample = (samples.n_attributes() * 4) as u64;
        // Largest chunk whose 256-byte-aligned span fits what is left
        // (`ensure_sample_buf` already released any cached buffer when it
        // failed, so `available_bytes` is exact).
        let usable = self.mem.available_bytes() / ALLOC_ALIGN * ALLOC_ALIGN;
        let max_samples = (usable / bytes_per_sample) as usize;
        assert!(
            max_samples > 0,
            "device DRAM cannot hold even one sample alongside the forest image"
        );
        let n = samples.n_samples();
        let split_t0 = self.clock_ns;
        let mut merged: Option<InferenceResult> = None;
        let mut chunks = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + max_samples).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let chunk = samples.select(&idx);
            let buf = self
                .ensure_sample_buf(sample_bytes(&chunk))
                .expect("chunk was sized to fit the remaining DRAM");
            // Later chunks are pinned to the first chunk's strategy, but only
            // the caller's `force` is recorded as forced.
            let pin = merged.as_ref().map(|m| m.strategy);
            let r = self.infer_batch(&chunk, force, pin, buf);
            merged = Some(match merged {
                None => r,
                Some(m) => merge_chunk_results(m, r),
            });
            chunks += 1;
            start = end;
        }
        let mut out = merged.expect("non-empty batch");
        out.chunks = chunks;
        out.mem_in_use_bytes = self.mem.in_use_bytes();
        out.mem_high_water_bytes = self.mem.high_water_bytes();
        self.sink.add(Counter::EngineChunkSplits, 1);
        // Guard the format!: span() is a no-op when disabled, but the label
        // would still allocate on the hot path (CLAUDE.md invariant).
        if self.sink.is_enabled() {
            self.sink.span(
                format!("chunked infer ({chunks} chunks, OOM retry)"),
                PID_ENGINE,
                2,
                split_t0,
                self.clock_ns - split_t0,
            );
        }
        out
    }

    /// Whether a strategy is feasible for this engine's forest/device on a
    /// given batch: launch-geometry (shared-memory) checks plus device
    /// DRAM — the batch must be stageable *unsplit* next to the live forest
    /// image.
    #[must_use]
    pub fn feasible(&self, strategy: Strategy, samples: &SampleMatrix) -> bool {
        let needed = sample_bytes(samples);
        // The cached staging buffer would be recycled for this batch, so its
        // span counts as available.
        let reusable = self.sample_buf.map_or(0, |b| aligned_span(b.bytes));
        if aligned_span(needed) > self.mem.available_bytes().saturating_add(reusable) {
            return false;
        }
        let ctx = LaunchContext {
            device: &self.device,
            forest: &self.device_forest,
            samples,
            // Geometry only inspects sizes, never dereferences — a
            // phantom buffer avoids touching the real allocator.
            sample_buf: GlobalBuffer {
                base: GLOBAL_BASE,
                bytes: needed,
            },
            detail: Detail::Sampled(1),
            block_threads: THREADS_PER_BLOCK,
            telemetry: TelemetryCtx::disabled(),
        };
        strategy::geometry(strategy, &ctx).is_some()
    }

    /// The engine's telemetry sink (disabled unless constructed via
    /// [`Engine::with_telemetry`]).
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Current position on the simulated timeline (ns): the sum of every
    /// inferred batch's simulated kernel time, unless overridden.
    #[must_use]
    pub fn sim_clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Repositions the simulated-timeline cursor. The serving simulator sets
    /// this to each batch's dispatch time so kernel spans land where the
    /// batch actually ran.
    pub fn set_sim_clock_ns(&mut self, t_ns: f64) {
        self.clock_ns = t_ns;
    }

    /// Replaces the forest (incremental learning, §4.2/§6.2): re-measures
    /// edge probabilities on `recount` when given, then reconverts the
    /// format. Any probability-tracking counts are reset (the structure
    /// changed).
    pub fn update_forest(&mut self, forest: Forest, recount: Option<&SampleMatrix>) {
        self.forest = match recount {
            Some(samples) => tahoe_forest::probability::annotate_edge_probabilities(
                &forest, samples,
            ),
            None => forest,
        };
        if self.options.track_probabilities {
            self.counter = Some(EdgeCounter::new(&self.forest));
        }
        self.convert();
    }

    /// Samples observed by the inference-time probability counter (0 when
    /// tracking is off).
    #[must_use]
    pub fn observed_samples(&self) -> u64 {
        self.counter.as_ref().map_or(0, EdgeCounter::observations)
    }

    /// Re-annotates the forest from the probabilities observed during
    /// inference and rebuilds the adaptive layout (the refresh step of the
    /// paper's incremental-learning workflow). No-op without tracked
    /// observations.
    pub fn refresh_probabilities(&mut self) {
        let Some(counter) = self.counter.as_ref() else {
            return;
        };
        if counter.observations() == 0 {
            return;
        }
        self.forest = counter.annotate(&self.forest);
        self.convert();
    }

    /// The device this engine targets.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Measured hardware parameters (Algorithm 1 line 4).
    #[must_use]
    pub fn hardware_params(&self) -> &MeasuredParams {
        &self.hw
    }

    /// The engine's simulated device-memory heap (capacity, in-use and
    /// high-water accounting).
    #[must_use]
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The device-formatted forest.
    #[must_use]
    pub fn device_forest(&self) -> &DeviceForest {
        &self.device_forest
    }

    /// The host forest currently loaded.
    #[must_use]
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// CPU-side conversion report (§7.4).
    #[must_use]
    pub fn conversion(&self) -> &ConversionReport {
        &self.conversion
    }

    /// Engine options.
    #[must_use]
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Online recalibration state (identity scales, generation 0 unless
    /// [`EngineOptions::calibration`] is on and drift has accumulated).
    #[must_use]
    pub fn calibrator(&self) -> &Calibrator {
        &self.calibrator
    }

    /// Distinct batch shapes currently memoized in the tuning-decision
    /// cache.
    #[must_use]
    pub fn tuning_cache_len(&self) -> usize {
        self.tuning_cache.len()
    }
}

/// Bytes a batch's staging buffer needs (row-major f32).
fn sample_bytes(samples: &SampleMatrix) -> u64 {
    (samples.n_samples() * samples.n_attributes() * 4) as u64
}

/// The 256-byte-aligned span `bytes` occupies in simulated DRAM.
fn aligned_span(bytes: u64) -> u64 {
    bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN
}

/// Merges a later chunk's result into the accumulated one: predictions
/// concatenate (chunks are consecutive sample ranges), host-side model time
/// adds up, and the simulated runs merge as sequential launches. The
/// ranking and model inputs of the first chunk are kept as representative.
fn merge_chunk_results(mut acc: InferenceResult, next: InferenceResult) -> InferenceResult {
    acc.predictions.extend(next.predictions);
    acc.model_eval_ns += next.model_eval_ns;
    acc.run = merge_runs(acc.run, next.run);
    acc
}

/// Merges two sequential launches of the same strategy: additive totals,
/// sample-count-weighted means, elementwise-summed memory statistics.
fn merge_runs(mut acc: StrategyRun, next: StrategyRun) -> StrategyRun {
    debug_assert_eq!(acc.strategy, next.strategy, "chunks pin one strategy");
    acc.n_samples += next.n_samples;
    let a = &mut acc.kernel;
    let b = next.kernel;
    let (wa, wb) = (a.sampled_blocks as f64, b.sampled_blocks as f64);
    if wa + wb > 0.0 {
        a.mean_block_wall_ns =
            (a.mean_block_wall_ns * wa + b.mean_block_wall_ns * wb) / (wa + wb);
        a.mean_block_critical_ns =
            (a.mean_block_critical_ns * wa + b.mean_block_critical_ns * wb) / (wa + wb);
    }
    a.grid_blocks += b.grid_blocks;
    a.sampled_blocks += b.sampled_blocks;
    a.total_ns += b.total_ns;
    a.block_reduction_wall_ns += b.block_reduction_wall_ns;
    a.global_reduction_ns += b.global_reduction_ns;
    a.max_block_wall_ns = a.max_block_wall_ns.max(b.max_block_wall_ns);
    a.gmem.requested_bytes += b.gmem.requested_bytes;
    a.gmem.fetched_bytes += b.gmem.fetched_bytes;
    a.gmem.transactions += b.gmem.transactions;
    a.gmem.steps += b.gmem.steps;
    a.smem.requested_bytes += b.smem.requested_bytes;
    a.smem.fetched_bytes += b.smem.fetched_bytes;
    a.smem.transactions += b.smem.transactions;
    a.smem.steps += b.smem.steps;
    a.thread_busy_per_block.extend(b.thread_busy_per_block);
    for (level, stats) in b.levels {
        let entry = a.levels.entry(level).or_default();
        entry.distance_sum += stats.distance_sum;
        entry.distance_steps += stats.distance_steps;
        entry.access.requested_bytes += stats.access.requested_bytes;
        entry.access.fetched_bytes += stats.access.fetched_bytes;
        entry.access.transactions += stats.access.transactions;
        entry.access.steps += stats.access.steps;
    }
    a.steps += b.steps;
    a.active_lane_steps += b.active_lane_steps;
    acc
}

/// A 1-tree placeholder replaced by `convert()` during construction.
fn placeholder_device_forest() -> DeviceForest {
    use tahoe_datasets::{ForestKind, Task};
    use tahoe_forest::Tree;
    let forest = Forest::new(
        vec![Tree::leaf(0.0)],
        1,
        ForestKind::Gbdt,
        Task::Regression,
        0.0,
    );
    let plan = LayoutPlan::identity(&forest);
    DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut DeviceMemory::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_forest::{predict_dataset, train_for_spec};

    fn setup(name: &str) -> (Forest, SampleMatrix) {
        let spec = DatasetSpec::by_name(name).unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        (forest, infer.samples)
    }

    #[test]
    fn tahoe_predictions_match_cpu_reference() {
        let (forest, samples) = setup("letter");
        let reference = predict_dataset(&forest, &samples);
        let mut engine = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let result = engine.infer(&samples);
        assert_eq!(result.predictions.len(), reference.len());
        for (a, b) in result.predictions.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn fil_and_tahoe_agree_on_predictions() {
        let (forest, samples) = setup("ijcnn1");
        let mut fil = Engine::fil(DeviceSpec::tesla_p100(), forest.clone());
        let mut tahoe = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let a = fil.infer(&samples);
        let b = tahoe.infer(&samples);
        for (x, y) in a.predictions.iter().zip(&b.predictions) {
            assert!((x - y).abs() < 1e-4);
        }
        assert_eq!(a.strategy, Strategy::SharedData, "FIL always uses shared data");
    }

    #[test]
    fn tahoe_is_no_slower_than_fil_and_moves_fewer_bytes() {
        // At Smoke scale blocks can be latency-bound, where layout cannot
        // change the step count — Tahoe then ties FIL on time but must still
        // fetch fewer bytes (better coalescing + smaller nodes). The
        // bandwidth-bound speedups are covered by the Ci-scale experiments.
        let (forest, samples) = setup("higgs");
        let mut fil = Engine::fil(DeviceSpec::tesla_p100(), forest.clone());
        let mut tahoe = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let a = fil.infer(&samples);
        let b = tahoe.infer(&samples);
        assert!(
            b.run.kernel.total_ns <= a.run.kernel.total_ns * 1.001,
            "tahoe {} > fil {}",
            b.run.kernel.total_ns,
            a.run.kernel.total_ns
        );
        assert!(
            b.run.kernel.gmem.fetched_bytes < a.run.kernel.gmem.fetched_bytes,
            "tahoe fetched {} !< fil fetched {}",
            b.run.kernel.gmem.fetched_bytes,
            a.run.kernel.gmem.fetched_bytes
        );
    }

    #[test]
    fn packed_encoding_matches_reference_and_shrinks_image() {
        let (forest, samples) = setup("letter");
        let reference = predict_dataset(&forest, &samples);
        let classic = Engine::tahoe(DeviceSpec::tesla_p100(), forest.clone());
        let options = EngineOptions {
            node_encoding: NodeEncodingChoice::Auto,
            ..EngineOptions::tahoe()
        };
        let mut packed = Engine::new(DeviceSpec::tesla_p100(), forest, options);
        assert_eq!(packed.device_forest().encoding(), NodeEncoding::Packed);
        assert!(
            packed.device_forest().image_bytes() < classic.device_forest().image_bytes(),
            "packed {} !< classic {}",
            packed.device_forest().image_bytes(),
            classic.device_forest().image_bytes()
        );
        let result = packed.infer(&samples);
        assert_eq!(result.predictions.len(), reference.len());
        for (a, b) in result.predictions.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn forced_strategy_is_used() {
        let (forest, samples) = setup("letter");
        let mut engine = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let r = engine.infer_with(&samples, Some(Strategy::Direct));
        assert_eq!(r.strategy, Strategy::Direct);
    }

    #[test]
    fn conversion_report_is_populated_for_tahoe_only() {
        let (forest, _) = setup("ijcnn1");
        let tahoe = Engine::tahoe(DeviceSpec::tesla_v100(), forest.clone());
        assert!(tahoe.conversion().rearrange.simhash_ns > 0);
        assert!(tahoe.conversion().convert_ns > 0);
        let fil = Engine::fil(DeviceSpec::tesla_v100(), forest);
        assert_eq!(fil.conversion().rearrange.simhash_ns, 0);
    }

    #[test]
    fn update_forest_keeps_predictions_consistent() {
        let (forest, samples) = setup("letter");
        let mut engine = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let before = engine.infer(&samples);
        // Incremental learning: retrain on the inference split and update.
        let (forest2, _) = setup("letter");
        engine.update_forest(forest2, Some(&samples));
        let after = engine.infer(&samples);
        assert_eq!(before.predictions.len(), after.predictions.len());
        // Probabilities changed, but predictions must still match reference.
        let reference = predict_dataset(engine.forest(), &samples);
        for (a, b) in after.predictions.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn probability_tracking_accumulates_and_refreshes() {
        let (forest, samples) = setup("letter");
        let options = EngineOptions {
            track_probabilities: true,
            ..EngineOptions::tahoe()
        };
        let mut engine = Engine::new(DeviceSpec::tesla_p100(), forest, options);
        assert_eq!(engine.observed_samples(), 0);
        let before = engine.infer(&samples);
        assert_eq!(engine.observed_samples(), samples.n_samples() as u64);
        let _ = engine.infer(&samples);
        assert_eq!(engine.observed_samples(), 2 * samples.n_samples() as u64);
        engine.refresh_probabilities();
        // Predictions are invariant under the probability refresh.
        let after = engine.infer(&samples);
        for (a, b) in before.predictions.iter().zip(&after.predictions) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn refresh_without_tracking_is_a_noop() {
        let (forest, samples) = setup("letter");
        let mut engine = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let _ = engine.infer(&samples);
        assert_eq!(engine.observed_samples(), 0);
        let image_before = engine.device_forest().image_bytes();
        engine.refresh_probabilities();
        assert_eq!(engine.device_forest().image_bytes(), image_before);
    }

    #[test]
    fn tuning_cache_hits_on_repeated_batches_without_changing_selection() {
        // Default cache state (on, no override) — safe alongside parallel
        // in-crate tests, which never flip the process-wide toggle.
        let (forest, samples) = setup("letter");
        let sink = TelemetrySink::recording();
        let mut engine = Engine::with_telemetry(
            DeviceSpec::tesla_p100(),
            forest,
            EngineOptions::tahoe(),
            sink.clone(),
        );
        let first = engine.infer(&samples);
        let second = engine.infer(&samples);
        assert_eq!(engine.tuning_cache_len(), 1, "one shape, one entry");
        assert_eq!(sink.counter_value(Counter::TuningCacheMisses), 1);
        assert_eq!(sink.counter_value(Counter::TuningCacheHits), 1);
        // The cached plan list is bit-identical to the fresh sweep's.
        assert_eq!(first.strategy, second.strategy);
        assert_eq!(first.ranked.len(), second.ranked.len());
        for (a, b) in first.ranked.iter().zip(&second.ranked) {
            assert_eq!(a.total().to_bits(), b.total().to_bits());
        }
        let decisions = sink.decisions().decisions;
        assert_eq!(decisions.len(), 2);
        assert!(!decisions[0].cache_hit, "first batch is a cold miss");
        assert!(decisions[1].cache_hit, "second batch replays the cache");
        assert_eq!(
            decisions[0].chosen_block_threads,
            decisions[1].chosen_block_threads
        );
    }

    #[test]
    fn forest_rebuild_invalidates_the_tuning_cache() {
        let (forest, samples) = setup("letter");
        let sink = TelemetrySink::recording();
        let mut engine = Engine::with_telemetry(
            DeviceSpec::tesla_p100(),
            forest,
            EngineOptions::tahoe(),
            sink.clone(),
        );
        let _ = engine.infer(&samples);
        let (forest2, _) = setup("letter");
        engine.update_forest(forest2, None);
        let _ = engine.infer(&samples);
        assert_eq!(
            sink.counter_value(Counter::TuningCacheMisses),
            2,
            "reconversion drops every cached entry"
        );
    }

    #[test]
    fn calibration_reduces_model_error_on_repeated_batches() {
        use crate::perfmodel::calibrate::RECALIBRATE_INTERVAL;
        let (forest, samples) = setup("letter");
        let sink = TelemetrySink::recording();
        let options = EngineOptions {
            calibration: true,
            ..EngineOptions::tahoe()
        };
        let mut engine =
            Engine::with_telemetry(DeviceSpec::tesla_p100(), forest, options, sink.clone());
        // Pin the strategy so the drift stream stays on one bucket: the
        // test isolates the calibrator loop from selection switching (which
        // free selection may legitimately do once scales move).
        let batches = 3 * RECALIBRATE_INTERVAL as usize;
        for _ in 0..batches {
            let _ = engine.infer_with(&samples, Some(Strategy::Direct));
        }
        assert!(
            engine.calibrator().generation() > 0,
            "a repeated biased workload must trigger a refit"
        );
        let decisions = sink.decisions().decisions;
        let err = |gen0: bool| {
            let picked: Vec<f64> = decisions
                .iter()
                .filter(|d| (d.calibration_generation == 0) == gen0)
                .map(|d| d.relative_error.abs())
                .collect();
            assert!(!picked.is_empty(), "both generations must appear");
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        let uncalibrated = err(true);
        let calibrated = err(false);
        assert!(
            calibrated < uncalibrated,
            "mean |model err| must drop once calibrated: {calibrated} !< {uncalibrated}"
        );
        // On an identical repeated batch the least-squares fit is exact, so
        // the calibrated error collapses to rounding noise.
        assert!(calibrated < 1e-6, "calibrated error is ~0: {calibrated}");
        // A generation bump invalidates the cache: more than one miss.
        assert!(sink.counter_value(Counter::TuningCacheMisses) > 1);
        assert_eq!(
            sink.counter_value(Counter::TuningCacheHits)
                + sink.counter_value(Counter::TuningCacheMisses),
            batches as u64
        );
    }

    #[test]
    fn model_eval_is_fast() {
        let (forest, samples) = setup("letter");
        let mut engine = Engine::tahoe(DeviceSpec::tesla_p100(), forest);
        let r = engine.infer(&samples);
        // §7.4: model evaluation is microseconds, not milliseconds.
        assert!(r.model_eval_ns < 5_000_000, "model eval {} ns", r.model_eval_ns);
    }
}
