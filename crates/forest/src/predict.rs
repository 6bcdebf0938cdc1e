//! Reference CPU inference (ground truth for the simulated engines).

use tahoe_datasets::SampleMatrix;

use crate::forest::Forest;

/// Predicts one sample: aggregated ensemble output.
///
/// GBDT returns the raw score (logit for classification); random forests
/// return the mean tree output. This matches what the simulated GPU engines
/// compute, so results can be compared bit-for-bit up to float associativity.
#[must_use]
pub fn predict_sample(forest: &Forest, sample: &[f32]) -> f32 {
    let sum: f32 = forest.trees().iter().map(|t| t.predict(sample)).sum();
    forest.aggregate(sum)
}

/// Predicts every row of `samples`.
#[must_use]
pub fn predict_dataset(forest: &Forest, samples: &SampleMatrix) -> Vec<f32> {
    (0..samples.n_samples())
        .map(|i| predict_sample(forest, samples.row(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::tree::Tree;
    use tahoe_datasets::{ForestKind, Task};

    fn stub_forest(kind: ForestKind) -> Forest {
        let tree = |v: f32| {
            Tree::new(vec![
                Node::Decision {
                    attribute: 0,
                    threshold: 0.5,
                    default_left: true,
                    left: 1,
                    right: 2,
                    left_prob: 0.5,
                },
                Node::Leaf { value: v },
                Node::Leaf { value: -v },
            ])
        };
        Forest::new(vec![tree(1.0), tree(3.0)], 1, kind, Task::Regression, 0.25)
    }

    #[test]
    fn predict_sample_matches_manual_sum() {
        let f = stub_forest(ForestKind::Gbdt);
        // x=0 routes left in both trees: 1 + 3 + base 0.25.
        assert!((predict_sample(&f, &[0.0]) - 4.25).abs() < 1e-6);
        // x=1 routes right: -1 - 3 + 0.25.
        assert!((predict_sample(&f, &[1.0]) + 3.75).abs() < 1e-6);
    }

    #[test]
    fn rf_averages() {
        let f = stub_forest(ForestKind::RandomForest);
        assert!((predict_sample(&f, &[0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn predict_dataset_covers_all_rows() {
        let f = stub_forest(ForestKind::Gbdt);
        let m = SampleMatrix::from_vec(3, 1, vec![0.0, 1.0, 0.2]);
        let preds = predict_dataset(&f, &m);
        assert_eq!(preds.len(), 3);
        assert!((preds[0] - 4.25).abs() < 1e-6);
    }
}
