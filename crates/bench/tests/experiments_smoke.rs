//! Smoke tests: every experiment must run end-to-end at Smoke scale and
//! produce structurally sane results. (Full-scale numbers are checked by the
//! `all` binary and recorded in EXPERIMENTS.md.)

use tahoe_bench::env::Env;
use tahoe::strategy::Strategy;
use tahoe_bench::experiments;
use tahoe_datasets::Scale;
use tahoe_gpu_sim::kernel::Detail;

fn smoke_env() -> Env {
    Env {
        scale: Scale::Smoke,
        detail: Detail::Sampled(2),
        ..Env::default()
    }
}

#[test]
fn motivation_runs_and_shows_decay() {
    let r = experiments::motivation::run(&smoke_env());
    assert!(!r.levels.is_empty());
    assert!(r.overall_efficiency > 0.0 && r.overall_efficiency <= 1.0);
    assert!(!r.reduction.is_empty());
    for row in &r.reduction {
        assert!(row.reduction_fraction > 0.0 && row.reduction_fraction < 1.0);
    }
    assert!(r.thread_cv > 0.0);
    // Distance grows from the first to the last level.
    let first = r.levels.first().unwrap();
    let last = r.levels.last().unwrap();
    assert!(last.distance > first.distance);
}

#[test]
fn strategy_row_covers_feasible_strategies() {
    let spec = tahoe_datasets::DatasetSpec::by_name("letter").unwrap();
    let p = tahoe_bench::prepare(&spec, Scale::Smoke);
    let row = experiments::strategies::strategy_row(&smoke_env(), &p, 500);
    assert_eq!(row.throughput.len(), 4);
    // Letter's small forest makes all four feasible.
    assert!(row.throughput.iter().all(Option::is_some));
    for t in row.throughput.iter().flatten() {
        assert!(*t > 0.0);
    }
}

/// The run matrix's seven records are projections of one set of launches:
/// the census and the accuracy row read Fig. 7's selection, the chosen time
/// is what a fresh engine's auto launch simulates (and §7.4's inference
/// time is the P100 high-parallelism one), Fig. 8's full-Tahoe speedup is
/// Fig. 7's P100 speedup, the coalescing means average fresh FIL launches,
/// and Fig. 5's winner on P100 at high parallelism runs at the optimum's
/// throughput.
#[test]
fn matrix_records_project_one_set_of_launches() {
    let env = smoke_env();
    let prepared = tahoe_bench::prepare_named(&["letter", "higgs"], Scale::Smoke);
    let m = experiments::matrix::run(&env, &prepared);
    assert_eq!(m.overall.rows.len(), 2 * 3 * 2);
    assert_eq!(m.census.rows.len(), m.overall.rows.len());
    assert_eq!(m.accuracy.rows.len(), m.overall.rows.len());
    assert_eq!(m.breakdown.rows.len(), 2 * 2);
    assert_eq!(m.overhead.rows.len(), prepared.len());
    let mut cells = m.overall.rows.iter().zip(&m.census.rows).zip(&m.accuracy.rows);
    let mut breakdown = m.breakdown.rows.iter();
    let mut overhead = m.overhead.rows.iter();
    // Per device, the summed FIL forest-read and SIMT efficiencies of the
    // high-parallelism launches, in dataset order.
    let mut fil_sums = vec![(0.0, 0.0); experiments::devices().len()];
    for p in &prepared {
        for (device, sums) in experiments::devices().iter().zip(&mut fil_sums) {
            let engine = |opts| tahoe::engine::Engine::new(device.clone(), p.forest.clone(), opts);
            let mut tahoe = engine(experiments::tahoe_opts(&env));
            let high = engine(experiments::fil_opts(&env))
                .infer(&tahoe_bench::batch_of(&p.infer, experiments::HIGH_BATCH));
            sums.0 += experiments::coalescing::forest_read_efficiency(&high.run.kernel);
            sums.1 += high.run.kernel.simt_efficiency();
            for size in [experiments::HIGH_BATCH, experiments::LOW_BATCH] {
                let ((fig7, census), accuracy) = cells.next().unwrap();
                assert_eq!((fig7.dataset.as_str(), fig7.device.as_str()), (p.spec.name, device.name));
                assert_eq!(census.strategy, fig7.tahoe_strategy);
                assert_eq!(accuracy.predicted_best, fig7.tahoe_strategy);
                assert!(accuracy.optimal_ns <= accuracy.chosen_ns);
                let r = tahoe.infer(&tahoe_bench::batch_of(&p.infer, size));
                assert_eq!(r.strategy, fig7.tahoe_strategy);
                assert_eq!(accuracy.chosen_ns.to_bits(), r.run.kernel.total_ns.to_bits());
                if device.name != "Tesla P100" {
                    continue;
                }
                let fig8 = breakdown.next().unwrap();
                assert_eq!(
                    (fig8.dataset.as_str(), fig8.high_parallelism),
                    (p.spec.name, fig7.high_parallelism)
                );
                assert_eq!(fig8.speedup_abc.to_bits(), fig7.speedup.to_bits());
                if size == experiments::HIGH_BATCH {
                    let sec74 = overhead.next().unwrap();
                    assert_eq!(sec74.dataset, p.spec.name);
                    assert_eq!(
                        sec74.inference_ns.to_bits(),
                        r.run.kernel.total_ns.to_bits()
                    );
                }
            }
        }
    }
    let n = prepared.len() as f64;
    assert_eq!(m.coalescing.rows.len(), fil_sums.len());
    for (row, (eff, simt)) in m.coalescing.rows.iter().zip(fil_sums) {
        let (device, fil_eff) = (&row.device, row.fil_efficiency);
        assert_eq!(fil_eff.to_bits(), (eff / n).to_bits(), "{device}");
        assert_eq!(row.fil_simt.to_bits(), (simt / n).to_bits(), "{device}");
    }
    assert_eq!(m.fig5.rows.len(), prepared.len());
    let p100_high = m
        .accuracy
        .rows
        .iter()
        .filter(|r| r.device == "Tesla P100" && r.high_parallelism);
    for ((row, accuracy), p) in m.fig5.rows.iter().zip(p100_high).zip(&prepared) {
        assert_eq!(row.dataset, accuracy.dataset);
        let n = tahoe_bench::batch_of(&p.infer, experiments::HIGH_BATCH).n_samples() as f64;
        let winner = Strategy::ALL.iter().position(|&s| s == row.winner).unwrap();
        assert_eq!(row.throughput[winner], Some(n / (accuracy.optimal_ns / 1_000.0)));
        assert_eq!(row.winner, accuracy.actual_best);
    }
}

#[test]
fn ablations_run_at_smoke_scale() {
    let higgs = tahoe_bench::prepare_named(&["higgs"], Scale::Smoke);
    let r = experiments::ablations::run(&smoke_env(), &higgs[0]);
    assert!(r.weighted_order_score >= 0.0);
    assert!(r.training_prob_speedup > 0.0);
    assert!(r.oracle_prob_speedup > 0.0);
    assert!(r.sampling_error >= 0.0 && r.sampling_error < 1.0);
    assert!(r.infinite_sm_speedup > 0.0);
    assert!(r.varlen_speedup > 0.5);
}

/// Strong scaling simulates every non-empty partition, and no speedup cell
/// ever renders as `inf` or a bogus 0.00.
#[test]
fn strong_scaling_simulates_every_partition() {
    let spec = tahoe_datasets::DatasetSpec::by_name("letter").unwrap();
    let p = tahoe_bench::prepare(&spec, Scale::Smoke);
    let r = experiments::scaling::run_for(&smoke_env(), std::slice::from_ref(&p), &[1, 2, 4]);
    assert_eq!(r.rows.len(), 1);
    let row = &r.rows[0];
    let batch_len = row.strong[0].per_device[0].n_samples;
    for s in &row.strong {
        assert_eq!(s.per_device.len(), s.n_gpus.min(batch_len));
        match s.speedup {
            Some(v) => assert!(v.is_finite() && v > 0.0),
            None => assert!(s.n_gpus > batch_len),
        }
    }
}

#[test]
fn forest_read_efficiency_is_bounded() {
    let spec = tahoe_datasets::DatasetSpec::by_name("ijcnn1").unwrap();
    let p = tahoe_bench::prepare(&spec, Scale::Smoke);
    let batch = tahoe_bench::batch_of(&p.infer, 400);
    let mut engine = tahoe::engine::Engine::fil(
        tahoe_gpu_sim::device::DeviceSpec::tesla_p100(),
        p.forest.clone(),
    );
    let r = engine.infer(&batch);
    let eff = experiments::coalescing::forest_read_efficiency(&r.run.kernel);
    assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff}");
}
