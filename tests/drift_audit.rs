//! Model-vs-simulator drift gate (DESIGN.md §2.9).
//!
//! Every launch's `DecisionRecord` pairs the §6 performance model's
//! prediction for the launched plan (its tuning-ladder rung) with the
//! simulated total time. The model is an analytic approximation, so it will not match the
//! trace simulator exactly — but if it drifts past ~50% the strategy
//! ranking it drives becomes untrustworthy, so this test pins a coarse
//! agreement bound on the smoke-scale forests. Observed drift at the time
//! of writing is 3–16%; the 50% tolerance leaves room for model retuning
//! without flakiness.

use tahoe::engine::{Engine, EngineOptions};
use tahoe::strategy::{testutil::Fixture, Strategy};
use tahoe::telemetry::TelemetrySink;
use tahoe_gpu_sim::device::DeviceSpec;

const TOLERANCE: f64 = 0.5;

#[test]
fn model_tracks_the_simulator_within_tolerance() {
    for dataset in ["letter", "higgs"] {
        let fx = Fixture::trained(dataset);
        let sink = TelemetrySink::recording();
        let mut engine = Engine::with_telemetry(
            DeviceSpec::tesla_p100(),
            fx.forest.clone(),
            EngineOptions::tahoe(),
            sink.clone(),
        );
        let mut audited = 0usize;
        for s in Strategy::ALL {
            if !engine.feasible(s, &fx.samples) {
                continue;
            }
            let result = engine.infer_with(&fx.samples, Some(s));
            let export = sink.decisions();
            let record = export.decisions.last().expect("forced launch records drift");
            assert_eq!(
                record.chosen_strategy,
                s.name(),
                "{dataset}: drift names the strategy"
            );
            assert_eq!(
                record.n_samples,
                fx.samples.n_samples() as u64,
                "{dataset}/{s}: drift records the batch size"
            );
            assert!(
                record.predicted_ns > 0.0 && record.simulated_ns > 0.0,
                "{dataset}/{s}: drift times are positive"
            );
            assert!(
                (record.simulated_ns - result.run.kernel.total_ns).abs()
                    <= 1e-6 * record.simulated_ns,
                "{dataset}/{s}: drift must replay the launch the engine ran"
            );
            assert!(
                record.relative_error.abs() <= TOLERANCE,
                "{dataset}/{s}: model drifted {:.1}% from the simulator \
                 (predicted {:.0} ns, simulated {:.0} ns, tolerance {:.0}%)",
                100.0 * record.relative_error,
                record.predicted_ns,
                record.simulated_ns,
                100.0 * TOLERANCE
            );
            audited += 1;
        }
        assert!(audited >= 2, "{dataset}: at least two strategies audited");
    }
}

#[test]
fn disabled_sink_records_no_drift() {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::Disabled;
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let _ = engine.infer(&fx.samples);
    assert!(sink.decisions().decisions.is_empty());
    assert!(sink.profiles().kernels.is_empty());
}
