//! Statistical helpers for the paper's imbalance metrics.

/// Coefficient of variation: standard deviation over mean.
///
/// Returns 0 for empty input or zero mean. This is the paper's per-block
/// thread-imbalance metric (Fig. 2c: "CV = 49.1 %").
#[must_use]
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

/// Arithmetic mean (0 for empty input).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean (0 for empty input).
///
/// # Panics
///
/// Panics if any value is non-positive.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn cv_matches_hand_computation() {
        // Values 1, 3: mean 2, stddev 1, CV 0.5.
        let cv = coefficient_of_variation(&[1.0, 3.0]);
        assert!((cv - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cv_handles_degenerate_input() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn mean_and_geomean() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
