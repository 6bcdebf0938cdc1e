//! Regenerates the paper's Fig. 9 (strong scaling on 1-128 V100s).

fn main() {
    let env = tahoe_bench::Env::from_args();
    let prepared = tahoe_bench::prepare_all(env.scale);
    let result = tahoe_bench::experiments::scaling::run(&env, &prepared);
    tahoe_bench::experiments::scaling::report(&result);
    env.export_telemetry();
}
