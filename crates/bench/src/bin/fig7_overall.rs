//! Runs the §7.2–7.4 matrix (15 datasets x 3 GPUs x 2 batch regimes) and
//! regenerates the paper's Fig. 7, Table 3, Fig. 5, Fig. 8, the §7.3
//! reduction census, model-accuracy count and coalescing means, and the
//! §7.4 overheads from it.

fn main() {
    let env = tahoe_bench::Env::from_args();
    let prepared = tahoe_bench::prepare_all(env.scale);
    let result = tahoe_bench::experiments::matrix::run(&env, &prepared);
    tahoe_bench::experiments::matrix::report(&result);
    env.export_telemetry();
}
