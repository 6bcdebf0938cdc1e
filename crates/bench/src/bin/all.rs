//! Runs the full experiment suite: every table and figure of the paper's
//! evaluation, plus the reproduction's ablations, then digests them into
//! `SUMMARY.md` ([`tahoe_bench::digest`]).

use tahoe_bench::experiments as exp;

fn main() {
    let env = tahoe_bench::Env::from_args();
    println!("[all] running with {env:?}");
    // Fig. 6, the run matrix, Fig. 9 and the ablations read their datasets
    // from this one set.
    let prepared = tahoe_bench::prepare_all(env.scale);

    let motivation = exp::motivation::run(&env);
    exp::motivation::report(&motivation);

    let fig6 = exp::strategies::run_fig6(&env, &prepared);
    exp::strategies::report_fig6(&fig6);

    let matrix = exp::matrix::run(&env, &prepared);
    exp::matrix::report(&matrix);

    let scaling = exp::scaling::run(&env, &prepared);
    exp::scaling::report(&scaling);

    let ablations = exp::ablations::run(&env, tahoe_bench::named(&prepared, "higgs"));
    exp::ablations::report(&ablations);

    tahoe_bench::digest::write(&motivation, &matrix, &scaling, &ablations);
    env.export_telemetry();
    println!("\n[all] done — JSON records and SUMMARY.md in results/");
}
