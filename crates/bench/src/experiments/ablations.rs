//! Ablations of the reproduction's design decisions (DESIGN.md §4).
//!
//! 1. **SimHash weighting** — drop the node-probability weight (§4.2 claims
//!    it "is necessary") and measure ordering quality against the exact
//!    pairwise baseline.
//! 2. **Oracle probabilities** — re-count edge probabilities on the
//!    *inference* split instead of the training split before node
//!    rearrangement, measuring how much of the benefit the paper's
//!    "training data predicts inference data" assumption leaves on the table.
//! 3. **Sampling extrapolation** — Detail::Full vs Detail::Sampled timing
//!    error on mid-size launches.
//! 4. **Infinite-SM device** — removes the occupancy bound, isolating how
//!    much of Tahoe's win is memory behaviour vs scheduling.

use serde::Serialize;

use tahoe::engine::{Engine, EngineOptions};
use tahoe::rearrange::{pairwise, similarity_order, SimilarityParams};
use tahoe_forest::probability::annotate_edge_probabilities;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;

use crate::data::{batch_of, Prepared};
use crate::env::Env;
use crate::experiments::{fil_opts, tahoe_opts};
use crate::report::{f2, f3, pct, write_json, Table};

/// Ablation record.
#[derive(Clone, Debug, Serialize)]
pub struct AblationResult {
    /// Adjacency score of the weighted LSH order (exact-similarity units).
    pub weighted_order_score: f64,
    /// Adjacency score without SimHash weights.
    pub unweighted_order_score: f64,
    /// Adjacency score of the exact pairwise order (upper reference).
    pub exact_order_score: f64,
    /// Tahoe speedup over FIL with training-split probabilities.
    pub training_prob_speedup: f64,
    /// Tahoe speedup over FIL with oracle (inference-split) probabilities.
    pub oracle_prob_speedup: f64,
    /// Relative timing error of sampled vs full simulation.
    pub sampling_error: f64,
    /// Tahoe speedup over FIL on the infinite-SM device.
    pub infinite_sm_speedup: f64,
    /// Speedup of the variable-length attribute index alone (full Tahoe vs
    /// full Tahoe with fixed 4-byte indices), §4.3.
    pub varlen_speedup: f64,
}

/// Runs all four ablations on a representative dataset, `p` (Higgs: many
/// trees, jittered depths — every mechanism is active).
#[must_use]
pub fn run(env: &Env, p: &Prepared) -> AblationResult {
    let batch = batch_of(&p.infer, 20_000);

    // 1. SimHash weighting.
    let params = SimilarityParams::default();
    let unweighted = SimilarityParams {
        weighted: false,
        ..params
    };
    let counts = pairwise::pairwise_counts(&p.forest, params.t_nodes);
    let exact = pairwise::pairwise_order(&p.forest, params.t_nodes);
    let weighted_order_score =
        pairwise::adjacency_score(&similarity_order(&p.forest, &params), &counts);
    let unweighted_order_score =
        pairwise::adjacency_score(&similarity_order(&p.forest, &unweighted), &counts);
    let exact_order_score = pairwise::adjacency_score(&exact, &counts);

    // 2. Training-split vs oracle probabilities.
    let device = DeviceSpec::tesla_p100();
    let mut fil = Engine::new(device.clone(), p.forest.clone(), fil_opts(env));
    let fil_ns = fil.infer(&batch).run.kernel.total_ns;
    let mut tahoe_train = Engine::new(device.clone(), p.forest.clone(), tahoe_opts(env));
    let training_prob_speedup = fil_ns / tahoe_train.infer(&batch).run.kernel.total_ns;
    let oracle_forest = annotate_edge_probabilities(&p.forest, &batch);
    let mut tahoe_oracle = Engine::new(device.clone(), oracle_forest, tahoe_opts(env));
    let oracle_prob_speedup = fil_ns / tahoe_oracle.infer(&batch).run.kernel.total_ns;

    // 3. Sampling extrapolation error (small batch keeps Full affordable).
    let small_batch = batch_of(&p.infer, 2_000);
    let full_opts = EngineOptions {
        detail: Detail::Full,
        ..tahoe_opts(env)
    };
    let sampled_opts = EngineOptions {
        detail: Detail::Sampled(8),
        ..tahoe_opts(env)
    };
    let mut e_full = Engine::new(device.clone(), p.forest.clone(), full_opts);
    let mut e_sampled = Engine::new(device.clone(), p.forest.clone(), sampled_opts);
    let t_full = e_full.infer(&small_batch).run.kernel.total_ns;
    let t_sampled = e_sampled.infer(&small_batch).run.kernel.total_ns;
    let sampling_error = (t_sampled - t_full).abs() / t_full;

    // 4. Variable-length attribute index (§4.3) in isolation.
    let no_varlen = EngineOptions {
        varlen_attr: false,
        ..tahoe_opts(env)
    };
    let mut tahoe_fixed = Engine::new(device.clone(), p.forest.clone(), no_varlen);
    let varlen_speedup =
        tahoe_fixed.infer(&batch).run.kernel.total_ns / tahoe_train.infer(&batch).run.kernel.total_ns;

    // 5. Infinite-SM device.
    let inf = DeviceSpec::infinite_sms();
    let mut fil_inf = Engine::new(inf.clone(), p.forest.clone(), fil_opts(env));
    let mut tahoe_inf = Engine::new(inf, p.forest.clone(), tahoe_opts(env));
    let infinite_sm_speedup = fil_inf.infer(&batch).run.kernel.total_ns
        / tahoe_inf.infer(&batch).run.kernel.total_ns;

    AblationResult {
        weighted_order_score,
        unweighted_order_score,
        exact_order_score,
        training_prob_speedup,
        oracle_prob_speedup,
        sampling_error,
        infinite_sm_speedup,
        varlen_speedup,
    }
}

/// Prints the ablation table and writes the record.
pub fn report(result: &AblationResult) {
    let mut t = Table::new("Ablations (Higgs, P100)", &["ablation", "value"]);
    t.row(vec![
        "LSH order adjacency score (weighted)".into(),
        f3(result.weighted_order_score),
    ]);
    t.row(vec![
        "LSH order adjacency score (unweighted)".into(),
        f3(result.unweighted_order_score),
    ]);
    t.row(vec![
        "exact pairwise adjacency score".into(),
        f3(result.exact_order_score),
    ]);
    t.row(vec![
        "Tahoe speedup, training-split probabilities".into(),
        format!("{}x", f2(result.training_prob_speedup)),
    ]);
    t.row(vec![
        "Tahoe speedup, oracle probabilities".into(),
        format!("{}x", f2(result.oracle_prob_speedup)),
    ]);
    t.row(vec![
        "sampled-vs-full timing error".into(),
        pct(result.sampling_error),
    ]);
    t.row(vec![
        "Tahoe speedup on infinite-SM device".into(),
        format!("{}x", f2(result.infinite_sm_speedup)),
    ]);
    t.row(vec![
        "variable-length index speedup (vs 4-byte)".into(),
        format!("{}x", f2(result.varlen_speedup)),
    ]);
    t.print();
    write_json("ablations", result);
}
