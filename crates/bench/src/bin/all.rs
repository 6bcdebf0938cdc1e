//! Runs the full experiment suite: every table and figure of the paper's
//! evaluation, plus the reproduction's ablations, then digests them into
//! `SUMMARY.md` ([`tahoe_bench::digest`]).

use tahoe_bench::experiments as exp;

fn main() {
    let env = tahoe_bench::Env::from_args();
    println!("[all] running with {env:?}");
    // The run matrix, Fig. 6, Fig. 9 and the ablations read their datasets
    // from this one set.
    let prepared = tahoe_bench::prepare_all(env.scale);

    let motivation = exp::motivation::run(&env);
    exp::motivation::report(&motivation);

    let matrix = exp::matrix::run(&env, &prepared);
    exp::matrix::report(&matrix);

    // Fig. 6's batch-100 K rows are the matrix's Fig. 5 launches.
    let fig6 = exp::strategies::run_fig6(&env, &prepared, &matrix.fig5);
    exp::strategies::report_fig6(&fig6);

    let scaling = exp::scaling::run(&env, &prepared);
    exp::scaling::report(&scaling);

    let ablations = exp::ablations::run(&env, tahoe_bench::named(&prepared, "higgs"));
    exp::ablations::report(&ablations);

    tahoe_bench::digest::write(&motivation, &matrix, &scaling, &ablations);
    env.export_telemetry();
    println!("\n[all] done — JSON records and SUMMARY.md in results/");
}
