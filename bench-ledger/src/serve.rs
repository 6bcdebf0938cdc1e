//! The serving workloads: an open-loop ladder of offered rates (uniform
//! arrivals on the simulated clock) replayed through `ServingSim` over one
//! `Engine`, or through `ClusterServingSim` over a `GpuCluster`. On the
//! host each replay is a batch job with no pacing.

use tahoe::serving::{BatchingPolicy, ClusterServingSim, ServingReport, ServingSim};
use tahoe::{Engine, EngineOptions, GpuCluster, TelemetrySink};
use tahoe_datasets::{SampleMatrix, Scale};
use tahoe_forest::Forest;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::measure;

use crate::layers::{self, HostLayers, Tracer};
use crate::metrics::{median, Checks, Outcome};
use crate::{prep, Config};

/// One serving workload.
#[derive(Clone)]
pub struct ServeSpec {
    /// Table 2 dataset.
    pub dataset: &'static str,
    /// Dataset/forest scale.
    pub scale: Scale,
    /// Devices; one means a bare `Engine` under `ServingSim`.
    pub devices: Vec<DeviceSpec>,
    /// Online recalibration of the §6 model.
    pub calibration: bool,
    /// Telemetry `Recording` (all five views exported after the ladder).
    pub record: bool,
    /// Dynamic-batching policy.
    pub policy: BatchingPolicy,
    /// Offered rates (requests/µs), ascending: under-load to saturation.
    pub rates: Vec<f64>,
    /// The rate the latency metrics are read at; one of `rates`.
    pub nominal: f64,
    /// p99 latency limit (µs).
    pub limit_us: f64,
    /// Bisection steps between the highest passing and the next rate.
    pub bisect: usize,
    /// Requests per replay.
    pub requests: usize,
}

impl ServeSpec {
    /// `serve-covtype`: one P100, covtype, low-latency batching.
    #[must_use]
    pub fn covtype(toy: bool) -> Self {
        Self {
            dataset: "covtype",
            scale: if toy { Scale::Smoke } else { Scale::Ci },
            devices: vec![DeviceSpec::tesla_p100()],
            calibration: false,
            record: false,
            policy: BatchingPolicy::low_latency(),
            rates: if toy {
                vec![1.0, 4.0, 64.0]
            } else {
                vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
            },
            nominal: 4.0,
            limit_us: 100.0,
            bisect: if toy { 1 } else { 5 },
            requests: if toy { 300 } else { 2_500 },
        }
    }

    /// `cluster-letter-recorded`: K80 + P100 + V100 + P100, letter,
    /// low-latency batching, calibration on, telemetry recording.
    #[must_use]
    pub fn cluster_letter(toy: bool) -> Self {
        Self {
            dataset: "letter",
            scale: if toy { Scale::Smoke } else { Scale::Ci },
            devices: vec![
                DeviceSpec::tesla_k80(),
                DeviceSpec::tesla_p100(),
                DeviceSpec::tesla_v100(),
                DeviceSpec::tesla_p100(),
            ],
            calibration: true,
            record: true,
            policy: BatchingPolicy::low_latency(),
            rates: if toy {
                vec![2.0, 16.0, 256.0]
            } else {
                vec![4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0]
            },
            nominal: 16.0,
            limit_us: 100.0,
            bisect: if toy { 1 } else { 5 },
            // Fewer than covtype: the recording (tens of MB of telemetry per
            // pass) is what this workload loads, and smaller passes keep its
            // page-fault-heavy host time steadier.
            requests: if toy { 300 } else { 1_000 },
        }
    }

    fn sink(&self) -> TelemetrySink {
        if self.record {
            TelemetrySink::recording()
        } else {
            TelemetrySink::Disabled
        }
    }
}

/// What the replays run on.
enum Target {
    One(Box<Engine>),
    Many(GpuCluster),
}

/// One replay's outcome.
struct Served {
    report: ServingReport,
    /// Device of each batch.
    devices: Vec<usize>,
    /// Per device: (requests, batches, busy simulated ns).
    per_device: Vec<(usize, usize, f64)>,
}

impl Target {
    /// Construction — the timed set-up. `forest` is cloned by the caller
    /// off the clock for the bare engine; the cluster clones internally, as
    /// its users would see.
    fn build(spec: &ServeSpec, forest: Forest, sink: TelemetrySink) -> Self {
        let options = EngineOptions {
            calibration: spec.calibration,
            ..EngineOptions::tahoe()
        };
        if let [device] = spec.devices.as_slice() {
            Target::One(Box::new(Engine::with_telemetry(
                device.clone(),
                forest,
                options,
                sink,
            )))
        } else {
            Target::Many(GpuCluster::with_telemetry(
                spec.devices.clone(),
                &forest,
                options,
                sink,
            ))
        }
    }

    fn engine(&self, device: usize) -> &Engine {
        match self {
            Target::One(e) => e,
            Target::Many(c) => c.engine(device),
        }
    }

    fn n_devices(&self) -> usize {
        match self {
            Target::One(_) => 1,
            Target::Many(c) => c.n_devices(),
        }
    }

    fn sink(&self) -> &TelemetrySink {
        match self {
            Target::One(e) => e.telemetry(),
            Target::Many(c) => c.telemetry(),
        }
    }

    fn serve(&mut self, spec: &ServeSpec, payloads: &SampleMatrix, rate: f64) -> Served {
        let interarrival_ns = 1_000.0 / rate;
        let deadline = Some(spec.limit_us * 1e3);
        match self {
            Target::One(engine) => {
                let report = ServingSim::new(engine, spec.policy).run_uniform_trace_with_deadline(
                    payloads,
                    spec.requests,
                    interarrival_ns,
                    deadline,
                );
                let busy = report.batches.iter().map(|b| b.gpu_ns).sum();
                Served {
                    devices: vec![0; report.batches.len()],
                    per_device: vec![(report.n_requests(), report.batches.len(), busy)],
                    report,
                }
            }
            Target::Many(cluster) => {
                let r = ClusterServingSim::new(cluster, spec.policy)
                    .run_uniform_trace_with_deadline(
                        payloads,
                        spec.requests,
                        interarrival_ns,
                        deadline,
                    );
                Served {
                    per_device: r
                        .per_device
                        .iter()
                        .map(|d| (d.requests, d.batches, d.busy_ns))
                        .collect(),
                    devices: r.batch_devices,
                    report: r.report,
                }
            }
        }
    }
}

impl Served {
    /// The rate is sustained: p99 within the limit and no growing backlog
    /// — the devices were busy for less than the arrivals lasted (mean
    /// per-device utilization at most 1).
    fn meets(&self, limit_us: f64, rate: f64) -> bool {
        let arrivals_ns = (self.report.n_requests() - 1) as f64 / rate * 1e3;
        let busy_ns: f64 = self.per_device.iter().map(|d| d.2).sum();
        self.report.latency_percentile_ns(0.99) <= limit_us * 1e3
            && busy_ns <= arrivals_ns * self.per_device.len() as f64
    }

    /// Request ranges of each batch, in dispatch order.
    fn batch_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.report.batches.iter().scan(0usize, |first, b| {
            let r = *first..*first + b.size;
            *first += b.size;
            Some(r)
        })
    }

    /// Bit-identical simulated outcome.
    fn same_as(&self, other: &Served) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.report.latencies_ns) == bits(&other.report.latencies_ns)
            && self.report.batches == other.report.batches
            && self.report.makespan_ns.to_bits() == other.report.makespan_ns.to_bits()
            && self.report.mem_high_water_bytes == other.report.mem_high_water_bytes
            && self.devices == other.devices
    }
}

/// One ladder climb: every rate in order, then a bisection above the
/// highest passing rate.
struct Ladder {
    rungs: Vec<(f64, Served)>,
    capacity: f64,
}

impl Ladder {
    fn nominal_index(&self, spec: &ServeSpec) -> usize {
        self.rungs
            .iter()
            .position(|(r, _)| *r == spec.nominal)
            .expect("nominal rate is on the ladder")
    }

    fn same_as(&self, other: &Ladder) -> bool {
        self.capacity.to_bits() == other.capacity.to_bits()
            && self.rungs.len() == other.rungs.len()
            && self
                .rungs
                .iter()
                .zip(&other.rungs)
                .all(|((ra, a), (rb, b))| ra.to_bits() == rb.to_bits() && a.same_as(b))
    }
}

/// Climbs the ladder on `target`, each replay in a `serve` span; `after`
/// runs off the clock after every replay with the replay's wall time.
fn climb(
    target: &mut Target,
    spec: &ServeSpec,
    payloads: &SampleMatrix,
    tracer: &mut Tracer,
    mut after: impl FnMut(&mut Tracer, &Target, f64, &Served, f64),
) -> Ladder {
    let mut rungs: Vec<(f64, Served)> = Vec::new();
    let mut rung = |rate: f64, target: &mut Target, tracer: &mut Tracer| {
        let (served, wall) = tracer.span("serve", || target.serve(spec, payloads, rate));
        after(tracer, target, rate, &served, wall);
        let ok = served.meets(spec.limit_us, rate);
        rungs.push((rate, served));
        ok
    };
    let mut highest: Option<usize> = None;
    for (i, &rate) in spec.rates.iter().enumerate() {
        if rung(rate, target, tracer) {
            highest = Some(i);
        }
    }
    let mut lo = highest.map_or(0.0, |i| spec.rates[i]);
    let mut hi = highest.and_then(|i| spec.rates.get(i + 1).copied());
    for _ in 0..spec.bisect {
        let Some(h) = hi else { break };
        let mid = (lo + h) / 2.0;
        if rung(mid, target, tracer) {
            lo = mid;
        } else {
            hi = Some(mid);
        }
    }
    Ladder {
        rungs,
        capacity: lo,
    }
}

/// Off-the-clock checks of one replay: every request served exactly once
/// (per-device sums included), and every batch's functional predictions
/// against the CPU reference.
fn check_replay(
    checks: &mut Checks,
    target: &Target,
    spec: &ServeSpec,
    payloads: &SampleMatrix,
    reference: &[f32],
    rate: f64,
    served: &Served,
) {
    let n = spec.requests;
    let r = &served.report;
    let dev_requests: usize = served.per_device.iter().map(|d| d.0).sum();
    let dev_batches: usize = served.per_device.iter().map(|d| d.1).sum();
    let sizes: usize = r.batches.iter().map(|b| b.size).sum();
    checks.check(
        r.n_requests() == n
            && sizes == n
            && dev_requests == n
            && dev_batches == r.batches.len()
            && served.devices.len() == r.batches.len()
            && served.per_device.len() == target.n_devices()
            && r.latencies_ns.iter().all(|l| l.is_finite() && *l > 0.0),
        || format!("rate {rate}: {} requests served for {n} offered ({sizes} in batches, {dev_requests} on devices)", r.n_requests()),
    );
    let n_payloads = payloads.n_samples();
    for (k, range) in served.batch_ranges().enumerate() {
        let rows: Vec<usize> = range.map(|i| i % n_payloads).collect();
        let got = target
            .engine(served.devices[k])
            .device_forest()
            .predict_batch(&payloads.select(&rows));
        let want: Vec<f32> = rows.iter().map(|&i| reference[i]).collect();
        let err = layers::max_abs_diff(&got, &want);
        checks.check(err <= layers::PREDICTION_TOLERANCE, || {
            format!("rate {rate} batch {k}: max prediction error {err}")
        });
    }
}

/// One pass: construction, the ladder, and (when recording) the export.
struct Pass {
    target: Target,
    ladder: Ladder,
    setup_s: f64,
    exec_s: f64,
    requests: usize,
    export_bytes: usize,
}

fn pass(
    spec: &ServeSpec,
    forest: &Forest,
    sink: TelemetrySink,
    payloads: &SampleMatrix,
    tracer: &mut Tracer,
    after: impl FnMut(&mut Tracer, &Target, f64, &Served, f64),
) -> Pass {
    let owned = tracer.pause(|| forest.clone());
    let (mut target, setup_s) = tracer.span("setup", || Target::build(spec, owned, sink));
    let t_exec = tracer.wall_s();
    let ladder = climb(&mut target, spec, payloads, tracer, after);
    let export_bytes = if spec.record {
        tracer
            .span("export", || layers::export_views(target.sink()))
            .0
    } else {
        0
    };
    let exec_s = tracer.wall_s() - t_exec;
    let requests = ladder.rungs.len() * spec.requests;
    Pass {
        target,
        ladder,
        setup_s,
        exec_s,
        requests,
        export_bytes,
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Simulated end-to-end metrics of one ladder.
fn sim_metrics(spec: &ServeSpec, ladder: &Ladder, out: &mut Outcome) {
    let nominal = &ladder.rungs[ladder.nominal_index(spec)].1.report;
    let top = &ladder.rungs[spec.rates.len() - 1].1.report;
    out.set("sim_p50_us", nominal.latency_percentile_ns(0.5) / 1e3);
    out.set("sim_p99_us", nominal.latency_percentile_ns(0.99) / 1e3);
    out.set(
        "sim_slo_attainment",
        nominal.slo_attainment().unwrap_or(f64::NAN),
    );
    out.set("sim_throughput_samples_per_us", top.throughput_per_us());
    out.set("sim_capacity_req_per_us", ladder.capacity);
    let high_water = ladder
        .rungs
        .iter()
        .map(|(_, s)| s.report.mem_high_water_bytes)
        .max()
        .unwrap_or(0);
    out.set("sim_mem_high_water_mb", mib(high_water));
}

/// Simulated per-layer metrics of one recorded ladder (kernel, model and
/// serving layers) plus the report-derived ones.
fn sim_layer_metrics(spec: &ServeSpec, pass: &Pass) -> Vec<(&'static str, f64)> {
    let mut v: Vec<(&'static str, f64)> =
        layers::sim_layers(pass.target.sink()).into_iter().collect();
    let k = pass.ladder.nominal_index(spec);
    let [form, queue, exec] = layers::serving_shares(
        pass.target.sink(),
        k * spec.requests..(k + 1) * spec.requests,
    );
    let served = &pass.ladder.rungs[k].1;
    let busy: Vec<f64> = served.per_device.iter().map(|d| d.2).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    v.extend([
        ("serving.form_share", form),
        ("serving.queue_share", queue),
        ("serving.execute_share", exec),
        ("serving.mean_batch_size", served.report.mean_batch_size()),
        (
            "cluster.busy_imbalance",
            if mean_busy > 0.0 {
                max_busy / mean_busy - 1.0
            } else {
                0.0
            },
        ),
    ]);
    v
}

fn same_values(a: &[(&'static str, f64)], b: &[(&'static str, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((na, va), (nb, vb))| na == nb && va.to_bits() == vb.to_bits())
}

/// Runs a serving workload per `cfg` into `out`.
///
/// # Errors
///
/// Returns a message when the inputs cannot be prepared.
pub fn run(spec: &ServeSpec, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let load = prep::load_factor(cfg.seed);
    let spec = &ServeSpec {
        rates: spec.rates.iter().map(|r| r * load).collect(),
        nominal: spec.nominal * load,
        ..spec.clone()
    };
    let inputs = prep::load(spec.dataset, spec.scale, 1)?;
    let forest = &inputs.forests[0];
    let payloads = prep::payloads(&inputs.pool, cfg.seed);
    let reference = tahoe_forest::predict_dataset(forest, &payloads);
    out.note(prep::describe(spec.dataset, spec.scale, &inputs));
    out.note(format!(
        "open loop on the simulated clock: {} requests per rate, rates {:?} req/us (seeded load factor {load}) then {} bisection steps; nominal {} req/us; p99 limit {} us; policy max_batch {} max_delay {} us",
        spec.requests,
        spec.rates,
        spec.bisect,
        spec.nominal,
        spec.limit_us,
        spec.policy.max_batch,
        spec.policy.max_delay_ns / 1e3
    ));
    let beyond = spec.requests - ((spec.requests - 1) as f64 * 0.99).round() as usize - 1;
    out.note(format!("sim_p50_us / sim_p99_us: nearest-rank over the {} requests at the nominal rate ({beyond} beyond p99)", spec.requests));

    // Set-up samples beyond the passes' own, for a steady median.
    let mut setups: Vec<f64> = (0..crate::SETUP_REPEATS)
        .map(|_| {
            let owned = forest.clone();
            let t = std::time::Instant::now();
            let target = Target::build(spec, owned, spec.sink());
            let s = t.elapsed().as_secs_f64();
            drop(target);
            s
        })
        .collect();

    // Untraced passes, for the end-to-end metrics. The first warms caches
    // and allocators: it is checked, and is the reference the others must
    // reproduce, but stays out of the host medians.
    let mut first: Option<Pass> = None;
    let mut first_layers = Vec::new();
    let mut rates = Vec::new();
    let mut untraced_wall = Vec::new();
    let started = std::time::Instant::now();
    let budget = if cfg.trace {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    while rates.len() < 2 || started.elapsed().as_secs_f64() < budget {
        let mut tracer = Tracer::new();
        let p = {
            let checks = &mut out.checks;
            pass(
                spec,
                forest,
                spec.sink(),
                &payloads,
                &mut tracer,
                |tracer: &mut Tracer, target: &Target, rate: f64, served: &Served, _wall: f64| {
                    tracer.pause(|| {
                        check_replay(checks, target, spec, &payloads, &reference, rate, served)
                    });
                },
            )
        };
        if first.is_some() {
            setups.push(p.setup_s);
            rates.push(p.requests as f64 / p.exec_s);
            untraced_wall.push(tracer.wall_s());
        }
        // A recording pass also carries its simulated per-layer values.
        let layer_values = if spec.record {
            sim_layer_metrics(spec, &p)
        } else {
            Vec::new()
        };
        if let Some(f) = &first {
            out.checks.check(p.ladder.same_as(&f.ladder), || {
                "a repeated pass simulated a different ladder".into()
            });
            out.checks
                .check(same_values(&first_layers, &layer_values), || {
                    "a repeated pass recorded different simulated layers".into()
                });
        } else {
            first_layers = layer_values;
            first = Some(p);
        }
    }
    let first = first.expect("at least one pass");
    out.checks.check(
        {
            let (low, top) = (
                &first.ladder.rungs[0],
                &first.ladder.rungs[spec.rates.len() - 1],
            );
            low.1.meets(spec.limit_us, low.0) && !top.1.meets(spec.limit_us, top.0)
        },
        || "the ladder does not span under-load to saturation".into(),
    );
    sim_metrics(spec, &first.ladder, out);
    out.set("setup_s", median(&setups));
    out.set("host_samples_per_s", median(&rates));
    out.note(format!(
        "host_samples_per_s per pass: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.note(format!(
        "host: {} timed passes after a warm-up pass, {} requests each; setup_s median of {} constructions; sim threads {} of {} host cores; tuning cache and block memo start empty in every engine (the memo is per launch)",
        rates.len(),
        first.requests,
        setups.len(),
        tahoe_gpu_sim::sim_threads(usize::MAX),
        crate::host_cores()
    ));
    if !cfg.trace {
        return Ok(());
    }

    // Traced pass: spans around the public calls; each replay is split
    // into the engine's parts by replaying its batches off the clock.
    let mut host = HostLayers::default();
    let mut serve_wall = 0.0;
    // A recording workload gets a telemetry-off twin that replays every
    // rate off the clock: the difference is the recording cost.
    let twin_spec = ServeSpec {
        record: false,
        ..spec.clone()
    };
    let mut twin = spec
        .record
        .then(|| Target::build(&twin_spec, forest.clone(), TelemetrySink::Disabled));
    let mut tracer = Tracer::new();
    let traced = {
        let checks = &mut out.checks;
        let host = &mut host;
        let serve_wall = &mut serve_wall;
        pass(
            spec,
            forest,
            spec.sink(),
            &payloads,
            &mut tracer,
            |tracer: &mut Tracer, target: &Target, rate: f64, served: &Served, wall: f64| {
                tracer.pause(|| {
                *serve_wall += wall;
                if let Some(twin) = twin.as_mut() {
                    let t = std::time::Instant::now();
                    let plain = twin.serve(&twin_spec, &payloads, rate);
                    host.execute_s += t.elapsed().as_secs_f64();
                    checks.check(plain.same_as(served), || format!("rate {rate}: recording changed the simulated replay"));
                } else {
                    host.execute_s += wall;
                }
                let stats: Vec<_> = (0..target.n_devices()).map(|d| target.engine(d).forest().stats()).collect();
                let n_payloads = payloads.n_samples();
                for (k, range) in served.batch_ranges().enumerate() {
                    let rows: Vec<usize> = range.map(|i| i % n_payloads).collect();
                    let batch = payloads.select(&rows);
                    let d = served.devices[k];
                    let (run, _) = layers::replay(target.engine(d), &stats[d], &batch, &mut host.parts);
                    if !spec.calibration {
                        let gpu_ns = served.report.batches[k].gpu_ns;
                        checks.check(run.kernel.total_ns.to_bits() == gpu_ns.to_bits(), || {
                            format!("rate {rate} batch {k}: replay simulated {} ns, serving {gpu_ns} ns", run.kernel.total_ns)
                        });
                    }
                }
            });
            },
        )
    };
    out.checks.check(traced.ladder.same_as(&first.ladder), || {
        "the traced pass simulated a different ladder".into()
    });
    host.record_s = serve_wall - host.execute_s;
    host.export_s = tracer.total_s("export");
    host.export_bytes = traced.export_bytes;

    // Set-up split: conversion timings from each engine the set-up built
    // (replicas copy their template's), the microbenchmarks re-timed off
    // the clock for clusters; for a bare engine the rest of `Engine::new`
    // is the microbenchmarks plus allocator set-up.
    let built: Vec<usize> = (0..spec.devices.len())
        .filter(|&d| !spec.devices[..d].contains(&spec.devices[d]))
        .collect();
    for &d in &built {
        let c = traced.target.engine(d).conversion();
        host.rearrange_s += c.rearrange.total_ns() as f64 * 1e-9;
        host.build_s += c.convert_ns as f64 * 1e-9;
    }
    let rest = traced.setup_s - host.rearrange_s - host.build_s;
    if spec.devices.len() == 1 {
        host.measure_s = rest;
    } else {
        for &d in &built {
            let t = std::time::Instant::now();
            let _ = measure(traced.target.engine(d).device());
            host.measure_s += t.elapsed().as_secs_f64();
        }
        host.replicate_s = rest - host.measure_s;
    }
    host.report(&tracer, median(&untraced_wall), out);

    // Simulated per-layer values: from the recorded passes themselves, or
    // from two recording passes (checked against each other and against
    // the untraced ladder) when the workload runs with telemetry off.
    let values = if spec.record {
        let v = sim_layer_metrics(spec, &traced);
        out.checks.check(same_values(&first_layers, &v), || {
            "the traced pass recorded different simulated layers".into()
        });
        v
    } else {
        let mut record = || {
            let p = pass(
                spec,
                forest,
                TelemetrySink::recording(),
                &payloads,
                &mut Tracer::new(),
                |_, _, _, _, _| {},
            );
            out.checks.check(p.ladder.same_as(&first.ladder), || {
                "recording telemetry changed the simulated ladder".into()
            });
            sim_layer_metrics(spec, &p)
        };
        let (a, b) = (record(), record());
        out.checks.check(same_values(&a, &b), || {
            "two recording passes recorded different simulated layers".into()
        });
        a
    };
    for (name, v) in values {
        out.set(name, v);
    }
    Ok(())
}
