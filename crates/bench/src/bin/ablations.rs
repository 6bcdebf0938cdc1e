//! Runs the reproduction's ablation studies (DESIGN.md Sec. 4).

fn main() {
    let env = tahoe_bench::Env::from_args();
    let higgs = tahoe_bench::prepare_named(&["higgs"], env.scale);
    let result = tahoe_bench::experiments::ablations::run(&env, &higgs[0]);
    tahoe_bench::experiments::ablations::report(&result);
}
