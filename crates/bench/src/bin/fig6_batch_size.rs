//! Regenerates the paper's Fig. 6 (strategy crossover vs batch size).

use tahoe_bench::experiments::strategies::{self, Fig5Result};

fn main() {
    let env = tahoe_bench::Env::from_args();
    let prepared = tahoe_bench::prepare_named(&strategies::FIG6_DATASETS, env.scale);
    let result = strategies::run_fig6(&env, &prepared, &Fig5Result::default());
    strategies::report_fig6(&result);
}
