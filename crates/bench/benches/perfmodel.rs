//! Host-side cost of the performance models (paper §7.4: model evaluation
//! must be orders of magnitude below inference) and of the offline hardware
//! microbenchmarks (Algorithm 1, line 4).

use criterion::{criterion_group, criterion_main, Criterion};

use tahoe::perfmodel::ModelInputs;
use tahoe::{strategy, tune};
use tahoe_datasets::{DatasetSpec, Scale};
use tahoe_forest::train_for_spec;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;
use tahoe_gpu_sim::measure;
use tahoe_gpu_sim::memory::DeviceMemory;

fn bench_microbench(c: &mut Criterion) {
    let device = DeviceSpec::tesla_v100();
    c.bench_function("hardware_microbench", |b| {
        b.iter(|| measure(&device));
    });
}

fn bench_model(c: &mut Criterion) {
    let spec = DatasetSpec::by_name("higgs").expect("known dataset");
    let data = spec.generate(Scale::Smoke);
    let (train, infer) = data.split_train_infer();
    let host = train_for_spec(&spec, &train, Scale::Smoke);
    let stats = host.stats();
    let plan = tahoe::rearrange::adaptive_plan(&host, &Default::default());
    let mut mem = DeviceMemory::new();
    let forest = tahoe::format::DeviceForest::build(
        &host,
        &plan,
        tahoe::format::FormatConfig::adaptive(),
        &mut mem,
    );
    let samples = infer.samples;
    let buf = mem.alloc((samples.n_samples() * samples.n_attributes() * 4) as u64);
    let device = DeviceSpec::tesla_p100();
    let hw = measure(&device);
    let ctx = strategy::LaunchContext {
        device: &device,
        forest: &forest,
        samples: &samples,
        sample_buf: buf,
        detail: Detail::Sampled(1),
        block_threads: 256,
        telemetry: tahoe::telemetry::TelemetryCtx::disabled(),
    };
    let inputs = ModelInputs::gather(&forest, &stats, &samples);
    // The whole Algorithm 1 model evaluation: every strategy × block-size
    // rung costed, then ranked.
    c.bench_function("model_rank_all", |b| {
        b.iter(|| tune::sweep(&ctx, &inputs, &hw).ranked(None));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_microbench, bench_model
);
criterion_main!(benches);
