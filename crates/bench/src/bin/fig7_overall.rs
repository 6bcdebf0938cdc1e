//! Runs the §7.2–7.3 matrix (15 datasets x 3 GPUs x 2 batch regimes) and
//! regenerates the paper's Fig. 7, Table 3, Fig. 5 and the §7.3 reduction
//! census and model-accuracy count from it.

fn main() {
    let env = tahoe_bench::Env::from_args();
    let result = tahoe_bench::experiments::matrix::run(&env);
    tahoe_bench::experiments::matrix::report(&result);
    env.export_telemetry();
}
