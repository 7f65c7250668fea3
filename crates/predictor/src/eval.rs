//! Regression-accuracy reporting (`R²`, MAE, residual pairs).

use adrias_telemetry::stats;

/// Accuracy report for one regression evaluation.
///
/// Keeps the raw `(truth, prediction)` pairs so the benches can print
/// actual-vs-predicted residual plots (Figs. 12, 13d, 14b).
///
/// # Examples
///
/// ```
/// use adrias_predictor::RegressionReport;
///
/// let report = RegressionReport::new(&[1.0, 2.0, 3.0], &[1.1, 1.9, 3.2]);
/// assert!(report.r2 > 0.9);
/// assert!(report.mae < 0.2);
/// assert_eq!(report.pairs.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Coefficient of determination.
    pub r2: f32,
    /// Mean absolute error.
    pub mae: f32,
    /// `(truth, prediction)` pairs in evaluation order.
    pub pairs: Vec<(f32, f32)>,
}

impl RegressionReport {
    /// Builds a report from aligned truth/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or their lengths differ.
    pub fn new(truth: &[f32], pred: &[f32]) -> Self {
        assert_eq!(truth.len(), pred.len(), "report inputs must align");
        assert!(!truth.is_empty(), "report needs at least one sample");
        Self {
            r2: stats::r2_score(truth, pred),
            mae: stats::mae(truth, pred),
            pairs: truth.iter().copied().zip(pred.iter().copied()).collect(),
        }
    }

    /// Number of evaluated samples.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the report holds no samples (never true for constructed
    /// reports; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Mean of the absolute truth values, useful for relating MAE to
    /// scale (the paper relates MAEs to median performance).
    #[cfg(test)]
    pub fn truth_scale(&self) -> f32 {
        let vals: Vec<f32> = self.pairs.iter().map(|(t, _)| t.abs()).collect();
        stats::mean(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let r = RegressionReport::new(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(r.r2, 1.0);
        assert_eq!(r.mae, 0.0);
        assert!(!r.is_empty());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn truth_scale_averages_magnitudes() {
        let r = RegressionReport::new(&[-2.0, 4.0], &[0.0, 0.0]);
        assert_eq!(r.truth_scale(), 3.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_inputs_rejected() {
        let _ = RegressionReport::new(&[1.0], &[1.0, 2.0]);
    }
}
