//! Dataset specifications mirroring Table 2 of the paper.

use serde::{Deserialize, Serialize};

use crate::gen;
use crate::matrix::Dataset;

/// Prediction task trained on a dataset.
///
/// The paper's datasets mix binary classification, multi-class classification
/// and regression; GBDT in this reproduction is binary-logistic, so
/// multi-class datasets are binarized (class 0 vs. rest), which preserves the
/// forest shapes in Table 2 (documented substitution, see `DESIGN.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Task {
    /// Labels in {0.0, 1.0}.
    BinaryClassification,
    /// Real-valued labels.
    Regression,
}

/// Ensemble type trained on a dataset (Table 2, "Forest type").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForestKind {
    /// Gradient-boosted decision trees.
    Gbdt,
    /// Random forest (bagging + feature subsampling).
    RandomForest,
}

/// Which synthetic generator produces a dataset's attribute distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeneratorKind {
    /// Gaussian class clusters (physics-style dense tabular data:
    /// Higgs, SUSY, hepmass, ...).
    GaussianClusters,
    /// Mostly-zero high-dimensional data with a small informative subset
    /// (gisette, SVHN, cifar10 pixel-style data).
    SparseHighDim,
    /// Small-integer-valued attributes (covtype, letter).
    LowCardinality,
    /// Piecewise-linear regression targets over dense attributes
    /// (allstate, cup98, year).
    PiecewiseLinear,
}

/// Experiment scale knob (see `DESIGN.md` §6).
///
/// `Paper` reproduces Table 2 verbatim; `Ci` caps sample and tree counts so
/// the full experiment suite runs in seconds on a laptop while preserving
/// every qualitative relationship; `Smoke` is for unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Table 2 verbatim (can take a long time on large datasets).
    Paper,
    /// Samples capped at 20 000, trees capped at 400.
    Ci,
    /// Samples capped at 2 000, trees capped at 40.
    Smoke,
}

impl Scale {
    /// Applies this scale's sample-count cap.
    #[must_use]
    pub fn cap_samples(self, n: usize) -> usize {
        match self {
            Scale::Paper => n,
            Scale::Ci => n.min(20_000),
            Scale::Smoke => n.min(2_000),
        }
    }

    /// Applies this scale's tree-count cap.
    #[must_use]
    pub fn cap_trees(self, n: usize) -> usize {
        match self {
            Scale::Paper => n,
            Scale::Ci => n.min(400),
            Scale::Smoke => n.min(40),
        }
    }

    /// Parses a `--scale` CLI value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "paper" => Some(Scale::Paper),
            "ci" => Some(Scale::Ci),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// One row of the paper's Table 2: a dataset plus the hyperparameters of the
/// forest trained on it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset id, 1-based as in Table 2 (used on the x-axes of Figs. 7/8).
    pub id: usize,
    /// Dataset name (lower-case).
    pub name: &'static str,
    /// Total number of samples before scaling.
    pub n_samples: usize,
    /// Number of attributes per sample.
    pub n_attributes: usize,
    /// Prediction task.
    pub task: Task,
    /// Ensemble type trained on this dataset.
    pub forest: ForestKind,
    /// Maximum number of trees (Table 2, `N_trees`).
    pub n_trees: usize,
    /// Maximum tree depth (Table 2, `D_tree`).
    pub max_depth: usize,
    /// Synthetic generator for the attribute distribution.
    pub generator: GeneratorKind,
    /// Fraction of attribute values injected as missing (`NaN`).
    pub missing_rate: f64,
}

impl DatasetSpec {
    /// The 15 dataset rows of the paper's Table 2, in order.
    #[must_use]
    pub fn table2() -> Vec<DatasetSpec> {
        use ForestKind::{Gbdt, RandomForest};
        use GeneratorKind::{GaussianClusters, LowCardinality, PiecewiseLinear, SparseHighDim};
        use Task::{BinaryClassification, Regression};
        let row = |id,
                   name,
                   n_samples,
                   n_attributes,
                   task,
                   forest,
                   n_trees,
                   max_depth,
                   generator,
                   missing_rate| DatasetSpec {
            id,
            name,
            n_samples,
            n_attributes,
            task,
            forest,
            n_trees,
            max_depth,
            generator,
            missing_rate,
        };
        vec![
            row(1, "hock", 1_993, 4_862, BinaryClassification, Gbdt, 8, 8, SparseHighDim, 0.0),
            row(2, "higgs", 250_000, 28, BinaryClassification, RandomForest, 3_000, 8, GaussianClusters, 0.0),
            row(3, "susy", 1_000_000, 18, BinaryClassification, Gbdt, 2_000, 8, GaussianClusters, 0.0),
            row(4, "svhn", 1_000_000, 3_072, BinaryClassification, Gbdt, 218, 15, SparseHighDim, 0.0),
            row(5, "allstate", 588_318, 130, Regression, RandomForest, 800, 5, PiecewiseLinear, 0.03),
            row(6, "cifar10", 60_000, 3_072, BinaryClassification, Gbdt, 10, 8, SparseHighDim, 0.0),
            row(7, "covtype", 581_012, 54, BinaryClassification, RandomForest, 500, 3, LowCardinality, 0.0),
            row(8, "cup98", 17_535, 481, Regression, Gbdt, 150, 8, PiecewiseLinear, 0.05),
            row(9, "gisette", 13_500, 5_000, BinaryClassification, Gbdt, 20, 20, SparseHighDim, 0.0),
            row(10, "year", 515_345, 90, Regression, RandomForest, 150, 6, PiecewiseLinear, 0.0),
            row(11, "hepmass", 10_500_000, 28, BinaryClassification, Gbdt, 2_000, 10, GaussianClusters, 0.0),
            row(12, "ijcnn1", 49_990, 22, BinaryClassification, RandomForest, 10, 6, GaussianClusters, 0.0),
            row(13, "phishing", 11_055, 68, BinaryClassification, RandomForest, 15, 6, GaussianClusters, 0.0),
            row(14, "aloi", 108_000, 128, BinaryClassification, RandomForest, 2_000, 6, GaussianClusters, 0.0),
            row(15, "letter", 15_000, 16, BinaryClassification, RandomForest, 150, 4, LowCardinality, 0.0),
        ]
    }

    /// Looks up a Table 2 spec by (case-insensitive) name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        let lower = name.to_ascii_lowercase();
        Self::table2().into_iter().find(|s| s.name == lower)
    }

    /// Number of samples after applying `scale`.
    #[must_use]
    pub fn scaled_samples(&self, scale: Scale) -> usize {
        scale.cap_samples(self.n_samples)
    }

    /// Number of trees after applying `scale`.
    #[must_use]
    pub fn scaled_trees(&self, scale: Scale) -> usize {
        scale.cap_trees(self.n_trees)
    }

    /// Deterministic base seed for this dataset's generators.
    #[must_use]
    pub fn seed(&self) -> u64 {
        crate::mix_seed(0x7A40_E000, self.id as u64)
    }

    /// Generates the synthetic dataset at the given scale.
    #[must_use]
    pub fn generate(&self, scale: Scale) -> Dataset {
        gen::generate(self, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_15_rows_in_id_order() {
        let rows = DatasetSpec::table2();
        assert_eq!(rows.len(), 15);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.id, i + 1);
        }
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        let a = DatasetSpec::by_name("Higgs").unwrap();
        assert_eq!(a.id, 2);
        assert_eq!(a.n_trees, 3_000);
        assert_eq!(a.max_depth, 8);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(DatasetSpec::by_name("mnist").is_none());
    }

    #[test]
    fn scale_caps_apply() {
        let higgs = DatasetSpec::by_name("higgs").unwrap();
        assert_eq!(higgs.scaled_samples(Scale::Paper), 250_000);
        assert_eq!(higgs.scaled_samples(Scale::Ci), 20_000);
        assert_eq!(higgs.scaled_trees(Scale::Ci), 400);
        assert_eq!(higgs.scaled_trees(Scale::Smoke), 40);
    }

    #[test]
    fn small_forests_not_capped() {
        let cifar = DatasetSpec::by_name("cifar10").unwrap();
        assert_eq!(cifar.scaled_trees(Scale::Ci), 10);
    }

    #[test]
    fn scale_parse_roundtrip() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("CI"), Some(Scale::Ci));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn seeds_are_distinct_per_dataset() {
        let seeds: Vec<u64> = DatasetSpec::table2().iter().map(DatasetSpec::seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
