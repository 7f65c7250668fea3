//! QoS-level derivation for latency-critical workloads.
//!
//! The paper defines five p99 QoS levels per store from the observed
//! performance distributions of the trace scenarios (Fig. 10), spanning
//! loose (level 0, easily met even remote) to strict (level 4, barely met
//! even local).

use adrias_telemetry::stats;

/// Derives `n_levels` QoS thresholds from observed p99 samples.
///
/// Level 0 is the loosest (a high quantile of the distribution), the last
/// level the strictest (a low quantile). Thresholds are strictly
/// decreasing across levels for any non-degenerate distribution.
///
/// Degenerate inputs are well-defined rather than panics: an empty
/// sample set or `n_levels == 0` yields an empty vector, and non-finite
/// samples (NaN, ±∞) are ignored — thresholds are derived from the
/// finite subset only. If *no* sample is finite the result is empty.
/// Callers that need to treat "no levels derivable" as an error can
/// check `is_empty()` on the result.
///
/// # Examples
///
/// ```
/// use adrias_orchestrator::qos_levels;
///
/// let p99s: Vec<f32> = (1..=100).map(|i| i as f32 / 10.0).collect();
/// let levels = qos_levels(&p99s, 5);
/// assert_eq!(levels.len(), 5);
/// assert!(levels.windows(2).all(|w| w[0] >= w[1]));
///
/// assert!(qos_levels(&[], 5).is_empty());
/// assert!(qos_levels(&p99s, 0).is_empty());
/// ```
pub fn qos_levels(samples: &[f32], n_levels: usize) -> Vec<f32> {
    if n_levels == 0 {
        return Vec::new();
    }
    // `stats::percentile` compares with `partial_cmp(..).expect(..)`
    // and would panic on NaN; strip every non-finite sample up front so a
    // single corrupt p99 cannot take the whole derivation down.
    let finite: Vec<f32> = samples.iter().copied().filter(|p| p.is_finite()).collect();
    if finite.is_empty() {
        return Vec::new();
    }
    // Quantiles from 90 % (loose) down to 30 % (strict), evenly spaced.
    let hi = 90.0;
    let lo = 30.0;
    (0..n_levels)
        .map(|i| {
            let q = if n_levels == 1 {
                hi
            } else {
                hi - (hi - lo) * i as f64 / (n_levels - 1) as f64
            };
            stats::percentile(&finite, q)
        })
        .collect()
}

/// Counts how many outcomes violate a QoS threshold.
///
/// A sample violates when it is *not known to meet* the threshold:
/// strictly above it, `NaN` (the measurement carries no evidence the
/// deadline was met), or `+∞`. `-∞` trivially meets any threshold and
/// is not counted. A `NaN` threshold means "no QoS constraint" and
/// yields zero violations.
pub fn count_violations(p99s: &[f32], qos: f32) -> usize {
    if qos.is_nan() {
        return 0;
    }
    p99s.iter().filter(|&&p| p.is_nan() || p > qos).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_span_loose_to_strict() {
        let samples: Vec<f32> = (0..1000).map(|i| 1.0 + i as f32 * 0.01).collect();
        let levels = qos_levels(&samples, 5);
        assert_eq!(levels.len(), 5);
        assert!(levels[0] > levels[4]);
        // Loose level admits most samples; strict admits fewer.
        assert!(count_violations(&samples, levels[0]) < count_violations(&samples, levels[4]));
    }

    #[test]
    fn single_level_is_loose() {
        let samples = [1.0, 2.0, 3.0];
        let levels = qos_levels(&samples, 1);
        assert_eq!(levels.len(), 1);
        assert!(levels[0] >= 2.0);
    }

    #[test]
    fn violations_counted_strictly_above() {
        assert_eq!(count_violations(&[1.0, 2.0, 3.0], 2.0), 1);
        assert_eq!(count_violations(&[1.0, 2.0, 3.0], 0.5), 3);
        assert_eq!(count_violations(&[], 1.0), 0);
    }

    #[test]
    fn empty_inputs_yield_empty_levels() {
        assert!(qos_levels(&[], 5).is_empty());
        assert!(qos_levels(&[1.0, 2.0], 0).is_empty());
        assert!(qos_levels(&[], 0).is_empty());
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let clean = [1.0, 2.0, 3.0, 4.0];
        let dirty = [
            f32::NAN,
            1.0,
            f32::INFINITY,
            2.0,
            3.0,
            f32::NEG_INFINITY,
            4.0,
            f32::NAN,
        ];
        assert_eq!(qos_levels(&clean, 5), qos_levels(&dirty, 5));
    }

    #[test]
    fn all_non_finite_yields_empty_levels() {
        assert!(qos_levels(&[f32::NAN, f32::INFINITY], 3).is_empty());
    }

    #[test]
    fn nan_and_inf_outcomes_count_as_violations() {
        // NaN p99: no evidence the deadline was met — that is a violation.
        assert_eq!(count_violations(&[f32::NAN], 10.0), 1);
        assert_eq!(count_violations(&[f32::INFINITY], 10.0), 1);
        assert_eq!(count_violations(&[f32::NEG_INFINITY], 10.0), 0);
        assert_eq!(count_violations(&[1.0, f32::NAN, 20.0], 10.0), 2);
        // NaN threshold: constraint undefined, nothing counted.
        assert_eq!(count_violations(&[1.0, f32::NAN], f32::NAN), 0);
        // +inf threshold admits everything finite or NaN-free.
        assert_eq!(count_violations(&[1.0, 1e30], f32::INFINITY), 0);
    }
}
