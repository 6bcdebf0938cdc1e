//! Forest rearrangement: the two tree-structure-aware optimizations of §4.
//!
//! - [`node_swap`] — probability-based node rearrangement (§4.1).
//! - [`tokenize`] → [`simhash`] → [`lsh`] → [`order`] — the similarity-based
//!   tree rearrangement pipeline (§4.2, Fig. 3).
//! - [`pairwise`] — the exact O(N²) baseline used for cost and quality
//!   comparisons (§4.2/§7.4).
//!
//! [`adaptive_plan`] combines both into the [`LayoutPlan`] consumed by the
//! adaptive forest format, and [`RearrangeReport`] records the per-stage CPU
//! cost for the paper's §7.4 overhead analysis.

pub mod lsh;
pub mod node_swap;
pub mod order;
pub mod pairwise;
pub mod sha1;
pub mod simhash;
pub mod tokenize;

use std::time::Instant;

use tahoe_forest::Forest;
use tahoe_gpu_sim::parallel::parallel_map;

use crate::format::LayoutPlan;

/// Parameters of the similarity pipeline (§7.1: `T_nodes = 4`,
/// `L_hash = 128`, `M = 64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimilarityParams {
    /// Nodes per token.
    pub t_nodes: usize,
    /// SimHash checksum length in bits.
    pub l_hash: usize,
    /// LSH chunk count.
    pub m_chunks: usize,
    /// Whether tokens are weighted by node probability (ablation hook; the
    /// paper says the weight "is necessary", and the ablation bench
    /// quantifies it).
    pub weighted: bool,
}

impl Default for SimilarityParams {
    fn default() -> Self {
        Self {
            t_nodes: 4,
            l_hash: 128,
            m_chunks: 64,
            weighted: true,
        }
    }
}

/// Per-stage CPU cost of one rearrangement run (paper §7.4).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RearrangeReport {
    /// Node-swap planning time (§7.4 part 2, "rearranging nodes of trees").
    pub node_swap_ns: u64,
    /// Tokenize + SimHash time.
    pub simhash_ns: u64,
    /// LSH + ordering time (§7.4 part 3, "detecting similarity").
    pub lsh_ns: u64,
}

impl RearrangeReport {
    /// Total rearrangement time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.node_swap_ns + self.simhash_ns + self.lsh_ns
    }
}

/// Computes the similarity-based tree order (§4.2).
#[must_use]
pub fn similarity_order(forest: &Forest, params: &SimilarityParams) -> Vec<usize> {
    similarity_order_timed(forest, params).0
}

/// As [`similarity_order`], also returning stage timings.
#[must_use]
pub fn similarity_order_timed(
    forest: &Forest,
    params: &SimilarityParams,
) -> (Vec<usize>, RearrangeReport) {
    let mut report = RearrangeReport::default();
    let t0 = Instant::now();
    let checksums: Vec<simhash::Checksum> = parallel_map(forest.n_trees(), |t| {
        let mut tokens = tokenize::tokenize(&forest.trees()[t], params.t_nodes);
        if !params.weighted {
            for tok in &mut tokens {
                tok.weight = 1.0;
            }
        }
        simhash::normalize(&simhash::simhash(&tokens, params.l_hash))
    });
    report.simhash_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let counts = lsh::count_collisions(&checksums, params.m_chunks);
    let order = order::order_by_similarity(&counts);
    report.lsh_ns = t1.elapsed().as_nanos() as u64;
    (order, report)
}

/// Builds the full adaptive layout plan: similarity tree order plus
/// probability child swaps (§4.3, "adaptive forest format").
#[must_use]
pub fn adaptive_plan(forest: &Forest, params: &SimilarityParams) -> LayoutPlan {
    adaptive_plan_timed(forest, params).0
}

/// As [`adaptive_plan`], also returning stage timings.
#[must_use]
pub fn adaptive_plan_timed(
    forest: &Forest,
    params: &SimilarityParams,
) -> (LayoutPlan, RearrangeReport) {
    let (tree_order, mut report) = similarity_order_timed(forest, params);
    let t0 = Instant::now();
    let swaps = node_swap::forest_swaps(forest);
    report.node_swap_ns = t0.elapsed().as_nanos() as u64;
    (LayoutPlan { tree_order, swaps }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_forest::train_for_spec;

    fn trained(name: &str) -> Forest {
        let spec = DatasetSpec::by_name(name).unwrap();
        let data = spec.generate(Scale::Smoke);
        train_for_spec(&spec, &data, Scale::Smoke)
    }

    #[test]
    fn similarity_order_is_a_permutation() {
        let forest = trained("letter");
        let order = similarity_order(&forest, &SimilarityParams::default());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..forest.n_trees()).collect::<Vec<_>>());
    }

    #[test]
    fn similarity_order_is_deterministic() {
        let forest = trained("ijcnn1");
        let p = SimilarityParams::default();
        assert_eq!(similarity_order(&forest, &p), similarity_order(&forest, &p));
    }

    #[test]
    fn lsh_order_approaches_pairwise_quality() {
        // The LSH ordering must place similar trees adjacently at least half
        // as well as exact pairwise comparison — the paper's claim that LSH
        // gives "a correct order of trees based on their similarity".
        let forest = trained("letter");
        let p = SimilarityParams::default();
        let counts = pairwise::pairwise_counts(&forest, p.t_nodes);
        let exact = pairwise::pairwise_order(&forest, p.t_nodes);
        let approx = similarity_order(&forest, &p);
        let exact_score = pairwise::adjacency_score(&exact, &counts);
        let approx_score = pairwise::adjacency_score(&approx, &counts);
        let random_score = pairwise::adjacency_score(
            &(0..forest.n_trees()).collect::<Vec<_>>(),
            &counts,
        );
        assert!(
            approx_score >= random_score,
            "LSH order ({approx_score}) must beat index order ({random_score})"
        );
        assert!(
            approx_score >= 0.3 * exact_score,
            "LSH order ({approx_score}) too far below exact ({exact_score})"
        );
    }

    #[test]
    fn tree_orders_are_pinned() {
        // Orders produced by the first implementation: unpacked checksums,
        // Rabin–Karp chunk buckets, hash-map counts and a comparison-sorted
        // pair list. The packed, dense and bucketed pipeline must reproduce
        // them exactly, for the defaults and for chunks that are 1 and 28
        // bits wide with trailing bits left over.
        let variants = [
            SimilarityParams::default(),
            SimilarityParams {
                t_nodes: 2,
                l_hash: 64,
                m_chunks: 16,
                weighted: false,
            },
            SimilarityParams {
                t_nodes: 3,
                l_hash: 200,
                m_chunks: 7,
                weighted: true,
            },
        ];
        let expected: [(&str, [&[usize]; 3]); 5] = [
            (
                "letter",
                [
                    &[
                        22, 28, 31, 35, 25, 33, 39, 38, 10, 24, 1, 0, 13, 6, 12, 5, 16, 14, 4, 21,
                        20, 26, 23, 34, 19, 7, 30, 3, 2, 27, 8, 32, 17, 18, 15, 9, 11, 29, 37, 36,
                    ][..],
                    &[
                        22, 28, 13, 6, 3, 20, 32, 23, 26, 34, 12, 2, 1, 10, 25, 33, 39, 21, 37, 31,
                        5, 15, 30, 4, 27, 8, 14, 11, 19, 29, 35, 9, 7, 17, 18, 16, 0, 36, 38, 24,
                    ][..],
                    &[
                        22, 28, 33, 39, 25, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                        16, 17, 18, 19, 20, 21, 23, 24, 26, 27, 29, 30, 31, 32, 34, 35, 36, 37, 38,
                    ][..],
                ],
            ),
            (
                "higgs",
                [
                    &[
                        0, 11, 8, 7, 39, 4, 37, 15, 19, 27, 28, 6, 5, 1, 26, 3, 30, 38, 36, 20, 34,
                        31, 18, 16, 14, 23, 33, 24, 17, 9, 35, 10, 12, 21, 32, 29, 22, 13, 2, 25,
                    ][..],
                    &[
                        2, 39, 34, 12, 0, 11, 5, 8, 7, 13, 9, 15, 37, 20, 19, 10, 1, 17, 36, 18,
                        24, 33, 23, 21, 35, 14, 38, 22, 30, 4, 16, 27, 28, 25, 3, 29, 6, 26, 31,
                        32,
                    ][..],
                    &[
                        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                        21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
                    ][..],
                ],
            ),
            (
                "covtype",
                [
                    &[
                        1, 6, 7, 13, 39, 16, 5, 11, 33, 24, 31, 14, 23, 9, 15, 35, 2, 28, 19, 18,
                        30, 3, 8, 29, 0, 20, 4, 26, 21, 12, 38, 32, 34, 17, 25, 10, 22, 27, 36, 37,
                    ][..],
                    &[
                        1, 6, 13, 39, 7, 10, 22, 37, 38, 17, 8, 11, 33, 32, 12, 4, 0, 21, 28, 25,
                        29, 31, 19, 24, 16, 15, 26, 18, 23, 3, 27, 36, 9, 20, 35, 5, 34, 30, 2, 14,
                    ][..],
                    &[
                        1, 6, 7, 13, 39, 0, 2, 3, 4, 5, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19,
                        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
                    ][..],
                ],
            ),
            (
                "ijcnn1",
                [
                    &[1, 9, 6, 5, 2, 8, 3, 4, 0, 7][..],
                    &[0, 9, 1, 4, 3, 2, 8, 7, 6, 5][..],
                    &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9][..],
                ],
            ),
            (
                "phishing",
                [
                    &[7, 14, 1, 3, 4, 12, 13, 2, 8, 5, 0, 6, 10, 9, 11][..],
                    &[0, 8, 5, 11, 1, 3, 6, 2, 12, 4, 10, 14, 7, 9, 13][..],
                    &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14][..],
                ],
            ),
        ];
        for (name, orders) in expected {
            let forest = trained(name);
            for (params, order) in variants.iter().zip(orders) {
                assert_eq!(
                    similarity_order(&forest, params),
                    order,
                    "{name} {params:?}"
                );
            }
        }
    }

    #[test]
    fn adaptive_plan_is_valid_for_its_forest() {
        let forest = trained("phishing");
        let plan = adaptive_plan(&forest, &SimilarityParams::default());
        plan.validate(&forest);
        // At least one swap is expected on real data (skewed probabilities).
        let any_swap = plan.swaps.iter().flatten().any(|&s| s);
        assert!(any_swap, "trained forests should have sub-0.5 left probs somewhere");
    }

    #[test]
    fn timing_report_is_populated() {
        let forest = trained("ijcnn1");
        let (_, report) = adaptive_plan_timed(&forest, &SimilarityParams::default());
        assert!(report.simhash_ns > 0);
        assert!(report.total_ns() >= report.simhash_ns);
    }
}
