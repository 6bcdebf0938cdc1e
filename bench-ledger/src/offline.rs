//! The offline workload: large tiled batch jobs on one engine, with
//! `Engine::update_forest` switching between two pre-trained forest
//! versions between jobs. On the simulated clock the jobs arrive open loop
//! at a fixed rate and run FIFO; the queueing arithmetic is the
//! benchmark's own, over the engine's simulated kernel times.

use std::time::Instant;

use tahoe::{Engine, EngineOptions, InferenceResult, TelemetrySink};
use tahoe_datasets::{SampleMatrix, Scale};
use tahoe_forest::probability::annotate_edge_probabilities;
use tahoe_forest::Forest;
use tahoe_gpu_sim::device::DeviceSpec;

use crate::layers::{self, HostLayers, Tracer};
use crate::metrics::{median, Checks, Outcome};
use crate::{prep, Config};

/// One offline workload.
pub struct OfflineSpec {
    /// Table 2 dataset.
    pub dataset: &'static str,
    /// Dataset/forest scale.
    pub scale: Scale,
    /// The device.
    pub device: DeviceSpec,
    /// Samples per job (rows tiled from the seeded payloads).
    pub job_samples: usize,
    /// `(forest version, batch)` per job, in order. The engine is built on
    /// version 0 and updated whenever the version changes; each update
    /// starts a segment, the host unit of `host_samples_per_s`. Batch `b`
    /// starts at payload row `b × pool / 2`.
    pub jobs: Vec<(usize, usize)>,
    /// Offered job rates, in samples/µs, ascending.
    pub rates: Vec<f64>,
    /// The rate the latency metrics are read at; one of `rates`.
    pub nominal: f64,
    /// p99 job-latency limit (µs).
    pub limit_us: f64,
    /// Bisection steps above the highest passing rate.
    pub bisect: usize,
}

impl OfflineSpec {
    /// `offline-higgs`: one P100, higgs, 100k-sample jobs.
    #[must_use]
    pub fn higgs(toy: bool) -> Self {
        Self {
            dataset: "higgs",
            scale: if toy { Scale::Smoke } else { Scale::Ci },
            device: DeviceSpec::tesla_p100(),
            job_samples: if toy { 2_000 } else { 100_000 },
            jobs: vec![(1, 0), (1, 1), (0, 0), (0, 1), (1, 0), (1, 1)],
            rates: if toy {
                vec![1.0, 1.5, 64.0]
            } else {
                vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0]
            },
            nominal: 1.5,
            limit_us: if toy { 150.0 } else { 40_000.0 },
            bisect: 8,
        }
    }
}

/// One job's outcome.
struct Job {
    kernel_ns: f64,
    mem_high_water: u64,
    predictions: Vec<f32>,
}

/// Job latencies (ns) when jobs of `job_samples` arrive every
/// `job_samples / rate` µs and run FIFO: queue wait plus kernel time.
/// Returns `(latencies, waits)`.
fn open_loop(kernel_ns: &[f64], job_samples: usize, rate: f64) -> (Vec<f64>, Vec<f64>) {
    let interarrival_ns = job_samples as f64 / rate * 1e3;
    let mut free_at = 0.0f64;
    let mut latencies = Vec::with_capacity(kernel_ns.len());
    let mut waits = Vec::with_capacity(kernel_ns.len());
    for (j, &k) in kernel_ns.iter().enumerate() {
        let arrival = j as f64 * interarrival_ns;
        let start = arrival.max(free_at);
        free_at = start + k;
        waits.push(start - arrival);
        latencies.push(free_at - arrival);
    }
    (latencies, waits)
}

/// Nearest-rank percentile, the same rule as `ServingReport`.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

fn meets(kernel_ns: &[f64], job_samples: usize, rate: f64, limit_us: f64) -> bool {
    let (lat, _) = open_loop(kernel_ns, job_samples, rate);
    let limit_ns = limit_us * 1e3;
    percentile(&lat, 0.99) <= limit_ns && lat.last().is_some_and(|&l| l <= limit_ns)
}

/// Highest ladder rate meeting the limit, refined by bisection; also
/// whether the ladder spans under-load to saturation.
fn capacity(spec: &OfflineSpec, kernel_ns: &[f64]) -> (f64, bool) {
    let ok: Vec<bool> = spec
        .rates
        .iter()
        .map(|&r| meets(kernel_ns, spec.job_samples, r, spec.limit_us))
        .collect();
    let spans = ok[0] && !ok[ok.len() - 1];
    let Some(i) = ok.iter().rposition(|&b| b) else {
        return (0.0, spans);
    };
    let (mut lo, mut hi) = (spec.rates[i], spec.rates.get(i + 1).copied());
    for _ in 0..spec.bisect {
        let Some(h) = hi else { break };
        let mid = (lo + h) / 2.0;
        if meets(kernel_ns, spec.job_samples, mid, spec.limit_us) {
            lo = mid;
        } else {
            hi = Some(mid);
        }
    }
    (lo, spans)
}

/// Everything a pass hands to its `after` hooks.
enum Event<'a> {
    Infer {
        engine: &'a Engine,
        job: usize,
        batch: &'a SampleMatrix,
        result: &'a InferenceResult,
        wall: f64,
    },
    Update {
        engine: &'a Engine,
        version: usize,
        wall: f64,
    },
}

struct Pass {
    jobs: Vec<Job>,
    engine: Engine,
    setup_s: f64,
    /// Rearrangement and build seconds of the construction, from
    /// `Engine::conversion()` before any update replaced them.
    setup_conversion: (f64, f64),
    /// Samples per second of each segment (an update and the jobs after it).
    segment_rates: Vec<f64>,
}

/// One pass: construction on version 0, then every job (updating the
/// forest when its version changes). `after` runs off the clock.
fn pass(
    spec: &OfflineSpec,
    forests: &[Forest],
    batches: &[SampleMatrix],
    recount: &SampleMatrix,
    sink: TelemetrySink,
    tracer: &mut Tracer,
    mut after: impl FnMut(&mut Tracer, Event<'_>),
) -> Pass {
    let owned = tracer.pause(|| forests[0].clone());
    let (mut engine, setup_s) = tracer.span("setup", || {
        Engine::with_telemetry(spec.device.clone(), owned, EngineOptions::tahoe(), sink)
    });
    let c = engine.conversion();
    let setup_conversion = (
        c.rearrange.total_ns() as f64 * 1e-9,
        c.convert_ns as f64 * 1e-9,
    );
    let mut segment_rates = Vec::new();
    let (mut segment_start, mut segment_samples) = (tracer.wall_s(), 0usize);
    let mut version = 0;
    let mut jobs = Vec::with_capacity(spec.jobs.len());
    for (j, &(v, b)) in spec.jobs.iter().enumerate() {
        if v != version {
            if segment_samples > 0 {
                segment_rates.push(segment_samples as f64 / (tracer.wall_s() - segment_start));
            }
            (segment_start, segment_samples) = (tracer.wall_s(), 0);
            let next = tracer.pause(|| forests[v].clone());
            let ((), wall) = tracer.span("update", || engine.update_forest(next, Some(recount)));
            version = v;
            after(
                tracer,
                Event::Update {
                    engine: &engine,
                    version: v,
                    wall,
                },
            );
        }
        let (result, wall) = tracer.span("infer", || engine.infer(&batches[b]));
        after(
            tracer,
            Event::Infer {
                engine: &engine,
                job: j,
                batch: &batches[b],
                result: &result,
                wall,
            },
        );
        segment_samples += batches[b].n_samples();
        jobs.push(Job {
            kernel_ns: result.run.kernel.total_ns,
            mem_high_water: result.mem_high_water_bytes,
            predictions: result.predictions,
        });
    }
    segment_rates.push(segment_samples as f64 / (tracer.wall_s() - segment_start));
    Pass {
        jobs,
        engine,
        setup_s,
        setup_conversion,
        segment_rates,
    }
}

fn kernel_ns(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().map(|j| j.kernel_ns).collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Jobs that repeat an earlier `(version, batch)` must repeat its kernel
/// time and predictions exactly, whatever ran in between.
fn check_repeats(spec: &OfflineSpec, jobs: &[Job], checks: &mut Checks) {
    for (j, key) in spec.jobs.iter().enumerate() {
        if let Some(i) = spec.jobs[..j].iter().position(|k| k == key) {
            checks.check(
                jobs[i].kernel_ns.to_bits() == jobs[j].kernel_ns.to_bits()
                    && jobs[i].predictions == jobs[j].predictions,
                || {
                    format!(
                        "job {j} repeats job {i} but simulated {} ns vs {} ns",
                        jobs[j].kernel_ns, jobs[i].kernel_ns
                    )
                },
            );
        }
    }
}

/// Runs the offline workload per `cfg` into `out`.
///
/// # Errors
///
/// Returns a message when the inputs cannot be prepared.
pub fn run(spec: &OfflineSpec, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let versions = spec.jobs.iter().map(|j| j.0).max().unwrap_or(0) + 1;
    let inputs = prep::load(spec.dataset, spec.scale, versions)?;
    let payloads = prep::payloads(&inputs.pool, cfg.seed);
    // Every version carries the edge probabilities of the recount samples
    // the updates measure, so a job that returns to a version meets exactly
    // the layout the first job on it saw.
    let forests: &[Forest] = &inputs
        .forests
        .iter()
        .map(|f| annotate_edge_probabilities(f, &payloads))
        .collect::<Vec<_>>();
    let n_batches = spec.jobs.iter().map(|j| j.1).max().unwrap_or(0) + 1;
    let half = payloads.n_samples() / 2;
    let batches: Vec<SampleMatrix> = (0..n_batches)
        .map(|b| prep::tile(&payloads, b * half, spec.job_samples))
        .collect();
    // Expected predictions per (version, batch), from the CPU reference.
    let reference: Vec<Vec<Vec<f32>>> = forests
        .iter()
        .map(|f| {
            let pool_ref = tahoe_forest::predict_dataset(f, &payloads);
            (0..n_batches)
                .map(|b| {
                    (0..spec.job_samples)
                        .map(|i| pool_ref[(b * half + i) % payloads.n_samples()])
                        .collect()
                })
                .collect()
        })
        .collect();
    out.note(prep::describe(spec.dataset, spec.scale, &inputs));
    out.note(format!(
        "{} jobs of {} samples, (version, batch) {:?}; open loop on the simulated clock at {:?} samples/us then {} bisection steps; nominal {} samples/us; p99 job-latency limit {} us",
        spec.jobs.len(),
        spec.job_samples,
        spec.jobs,
        spec.rates,
        spec.bisect,
        spec.nominal,
        spec.limit_us
    ));
    out.note(format!(
        "sim_p50_us / sim_p99_us: nearest-rank over the {} job latencies at the nominal rate (too few for a tail; p99 is the slowest job)",
        spec.jobs.len()
    ));

    let mut setups: Vec<f64> = (0..crate::SETUP_REPEATS)
        .map(|_| {
            let owned = forests[0].clone();
            let t = Instant::now();
            let engine = Engine::new(spec.device.clone(), owned, EngineOptions::tahoe());
            let s = t.elapsed().as_secs_f64();
            drop(engine);
            s
        })
        .collect();

    let mut first: Option<Pass> = None;
    let mut rates = Vec::new();
    let mut untraced_wall = Vec::new();
    let started = Instant::now();
    let budget = if cfg.trace {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    let samples = (spec.jobs.len() * spec.job_samples) as f64;
    while first.is_none() || started.elapsed().as_secs_f64() < budget {
        let mut tracer = Tracer::new();
        let p = {
            let checks = &mut out.checks;
            pass(
                spec,
                forests,
                &batches,
                &payloads,
                TelemetrySink::Disabled,
                &mut tracer,
                |tracer: &mut Tracer, event: Event<'_>| {
                    if let Event::Infer { job, result, .. } = event {
                        tracer.pause(|| {
                            let (v, b) = spec.jobs[job];
                            let err = layers::max_abs_diff(&result.predictions, &reference[v][b]);
                            checks.check(err <= layers::PREDICTION_TOLERANCE, || {
                                format!("job {job}: max prediction error {err}")
                            });
                        });
                    }
                },
            )
        };
        setups.push(p.setup_s);
        rates.extend(&p.segment_rates);
        untraced_wall.push(tracer.wall_s());
        check_repeats(spec, &p.jobs, &mut out.checks);
        match &first {
            Some(f) => out
                .checks
                .check(same_bits(&kernel_ns(&f.jobs), &kernel_ns(&p.jobs)), || {
                    "a repeated pass simulated different kernel times".into()
                }),
            None => first = Some(p),
        }
    }
    let first = first.expect("at least one pass");
    let kernels = kernel_ns(&first.jobs);
    let (cap, spans) = capacity(spec, &kernels);
    out.checks.check(spans, || {
        "the job-rate ladder does not span under-load to saturation".into()
    });
    let (lat, waits) = open_loop(&kernels, spec.job_samples, spec.nominal);
    let limit_ns = spec.limit_us * 1e3;
    out.set("sim_p50_us", percentile(&lat, 0.5) / 1e3);
    out.set("sim_p99_us", percentile(&lat, 0.99) / 1e3);
    out.set(
        "sim_slo_attainment",
        lat.iter().filter(|&&l| l <= limit_ns).count() as f64 / lat.len() as f64,
    );
    out.set(
        "sim_throughput_samples_per_us",
        samples / (kernels.iter().sum::<f64>() / 1e3),
    );
    out.set("sim_capacity_req_per_us", cap);
    let high_water = first
        .jobs
        .iter()
        .map(|j| j.mem_high_water)
        .max()
        .unwrap_or(0);
    out.set(
        "sim_mem_high_water_mb",
        high_water as f64 / (1u64 << 20) as f64,
    );
    out.set("setup_s", median(&setups));
    out.set("host_samples_per_s", median(&rates));
    out.note(format!(
        "host_samples_per_s per segment: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.note(format!(
        "host: {} segments (an update and the jobs after it) in passes of {} samples; setup_s median of {} constructions; sim threads {} of {} host cores; tuning cache and block memo start empty in every engine (the memo is per launch)",
        rates.len(),
        samples,
        setups.len(),
        tahoe_gpu_sim::sim_threads(usize::MAX),
        crate::host_cores()
    ));
    if !cfg.trace {
        return Ok(());
    }

    // Traced pass: spans around Engine::new / update_forest / infer; each
    // infer is split into its parts, and each update's annotation re-timed,
    // off the clock.
    let mut host = HostLayers::default();
    let mut tracer = Tracer::new();
    let traced = {
        let checks = &mut out.checks;
        let host = &mut host;
        pass(
            spec,
            forests,
            &batches,
            &payloads,
            TelemetrySink::Disabled,
            &mut tracer,
            |tracer: &mut Tracer, event: Event<'_>| {
                tracer.pause(|| match event {
                    Event::Infer {
                        engine,
                        batch,
                        result,
                        wall,
                        ..
                    } => {
                        host.execute_s += wall;
                        let stats = engine.forest().stats();
                        let (run, predictions) =
                            layers::replay(engine, &stats, batch, &mut host.parts);
                        checks.check(
                            run.kernel.total_ns.to_bits() == result.run.kernel.total_ns.to_bits()
                                && predictions == result.predictions,
                            || {
                                format!(
                                    "replay simulated {} ns, Engine::infer {} ns",
                                    run.kernel.total_ns, result.run.kernel.total_ns
                                )
                            },
                        );
                    }
                    Event::Update {
                        engine,
                        version,
                        wall,
                    } => {
                        let t = Instant::now();
                        let _ = annotate_edge_probabilities(&forests[version], &payloads);
                        let annotate = t.elapsed().as_secs_f64();
                        let c = engine.conversion();
                        let (rearrange, build) = (
                            c.rearrange.total_ns() as f64 * 1e-9,
                            c.convert_ns as f64 * 1e-9,
                        );
                        host.annotate_s += annotate;
                        host.rearrange_s += rearrange;
                        host.build_s += build;
                        host.update_self_s += wall - annotate - rearrange - build;
                    }
                });
            },
        )
    };
    out.checks.check(
        same_bits(&kernel_ns(&first.jobs), &kernel_ns(&traced.jobs)),
        || "the traced pass simulated different kernel times".into(),
    );
    let (rearrange, build) = traced.setup_conversion;
    host.rearrange_s += rearrange;
    host.build_s += build;
    host.measure_s = traced.setup_s - rearrange - build;
    host.report(&tracer, median(&untraced_wall), out);

    // Simulated per-layer values from a recording pass, which must
    // simulate exactly what the untraced passes did.
    let mut t = Tracer::new();
    let recorded = pass(
        spec,
        forests,
        &batches,
        &payloads,
        TelemetrySink::recording(),
        &mut t,
        |_, _| {},
    );
    out.checks
        .check(same_bits(&kernels, &kernel_ns(&recorded.jobs)), || {
            "recording telemetry changed the kernel times".into()
        });
    let profiles = recorded.engine.telemetry().profiles().kernels;
    for (j, key) in spec.jobs.iter().enumerate() {
        if let Some(i) = spec.jobs[..j].iter().position(|k| k == key) {
            out.checks.check(profiles.get(i) == profiles.get(j), || {
                format!("job {j} repeats job {i} but profiled differently")
            });
        }
    }
    for (name, v) in layers::sim_layers(recorded.engine.telemetry()) {
        out.set(name, v);
    }
    let total: f64 = lat.iter().sum();
    out.set("serving.form_share", 0.0);
    out.set("serving.queue_share", waits.iter().sum::<f64>() / total);
    out.set("serving.execute_share", kernels.iter().sum::<f64>() / total);
    out.set("serving.mean_batch_size", spec.job_samples as f64);
    out.set("cluster.busy_imbalance", 0.0);
    Ok(())
}
