//! Runs the full experiment suite: every table and figure of the paper's
//! evaluation, plus the reproduction's ablations.

use tahoe_bench::experiments as exp;

fn main() {
    let env = tahoe_bench::Env::from_args();
    println!("[all] running with {env:?}");

    let motivation = exp::motivation::run(&env);
    exp::motivation::report(&motivation);

    let fig6 = exp::strategies::run_fig6(&env);
    exp::strategies::report_fig6(&fig6);

    let matrix = exp::matrix::run(&env);
    exp::matrix::report(&matrix);

    let breakdown = exp::breakdown::run(&env);
    exp::breakdown::report(&breakdown);

    let scaling = exp::scaling::run(&env);
    exp::scaling::report(&scaling);

    let coalescing = exp::coalescing::run(&env);
    exp::coalescing::report(&coalescing);

    let (overhead, host) = exp::overhead::run(&env);
    exp::overhead::report(&overhead, &host);

    let ablations = exp::ablations::run(&env);
    exp::ablations::report(&ablations);

    env.export_telemetry();
    println!("\n[all] done — JSON records in results/");
}
