//! Runs the full experiment suite: every table and figure of the paper's
//! evaluation, plus the reproduction's ablations.

use tahoe_bench::experiments as exp;

fn main() {
    let env = tahoe_bench::Env::from_args();
    println!("[all] running with {env:?}");

    let motivation = exp::motivation::run(&env);
    exp::motivation::report(&motivation);

    let fig5 = exp::strategies::run_fig5(&env);
    exp::strategies::report_fig5(&fig5);

    let fig6 = exp::strategies::run_fig6(&env);
    exp::strategies::report_fig6(&fig6);

    let overall = exp::overall::run(&env);
    exp::overall::report_fig7(&overall);
    exp::overall::report_table3(&overall);

    let breakdown = exp::breakdown::run(&env);
    exp::breakdown::report(&breakdown);

    let scaling = exp::scaling::run(&env);
    exp::scaling::report(&scaling);

    let coalescing = exp::coalescing::run(&env);
    exp::coalescing::report(&coalescing);

    let census = exp::reduction_census::run(&env);
    exp::reduction_census::report(&census);

    let accuracy = exp::model_accuracy::run(&env);
    exp::model_accuracy::report(&accuracy);

    let (overhead, host) = exp::overhead::run(&env);
    exp::overhead::report(&overhead, &host);

    let ablations = exp::ablations::run(&env);
    exp::ablations::report(&ablations);

    env.export_telemetry();
    println!("\n[all] done — JSON records in results/");
}
