//! Regenerates Sec. 7.4's overhead analysis.

fn main() {
    let env = tahoe_bench::Env::from_args();
    let (result, host) = tahoe_bench::experiments::overhead::run(&env);
    tahoe_bench::experiments::overhead::report(&result, &host);
}
