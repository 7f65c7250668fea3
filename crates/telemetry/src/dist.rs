//! Seeded samplers for the distributions used by the simulator.
//!
//! The in-tree `adrias_core::rng` provides only uniform draws, so the
//! handful of continuous distributions the workload and interconnect
//! models need (normal, lognormal, exponential) are implemented here via
//! standard transforms (Box–Muller, inverse CDF).

use adrias_core::rng::{unit_f64, Rng};

/// Samples a standard normal deviate via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use adrias_core::rng::SeedableRng;
/// let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(7);
/// let z = adrias_telemetry::dist::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    normal_from_bits(normal_bits(rng))
}

/// The two raw outputs one [`standard_normal`] draw consumes. Drawing
/// them and discarding them skips a deviate: the stream is then where
/// the draw would have left it.
pub fn normal_bits<R: Rng + ?Sized>(rng: &mut R) -> [u64; 2] {
    [rng.next_u64(), rng.next_u64()]
}

/// The Box–Muller deviate of two raw outputs: radius `√(−2 ln u1)` from
/// the first, angle `2π·u2` from the second.
#[inline]
pub fn normal_from_bits([raw1, raw2]: [u64; 2]) -> f64 {
    // Avoid ln(0) by mapping u1 to the half-open (0, 1].
    let u1 = 1.0 - unit_f64(raw1);
    let u2 = unit_f64(raw2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Whether the deviate of `bits` can reach that of `[radius, 0]` (angle
/// 0: the radius itself), decided on integers: the radius grows with the
/// first word, and the cosine is positive only in the first and last
/// quarter turn, top two bits of the second word `00` or `11`. `false`
/// is a proof up to rounding (deviate < reference + 1e-14); `true` is not.
#[inline]
pub fn normal_reaches(bits: [u64; 2], radius: u64) -> bool {
    bits[0] >= radius && matches!(bits[1] >> 62, 0 | 3)
}

/// Samples `N(mean, std_dev²)`.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "std_dev must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Samples a lognormal whose *underlying* normal is `N(mu, sigma²)`.
///
/// Tail-latency samples in the key-value store model are lognormal, which
/// matches the long-tailed response-time distributions measured with
/// memtier in the paper.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples an exponential with the given `rate` (λ) via inverse CDF.
///
/// Used for arrival jitter in scenario generation.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Multiplicative noise factor `max(0, 1 + N(0, rel_std²))`.
///
/// The simulator perturbs every generated counter with a small relative
/// noise so that traces are not perfectly deterministic functions of the
/// workload mix (mirroring measurement noise on real hardware).
pub fn noise_factor<R: Rng + ?Sized>(rng: &mut R, rel_std: f64) -> f64 {
    assert!(rel_std >= 0.0, "std_dev must be non-negative");
    noise_factor_from_bits(normal_bits(rng), rel_std)
}

/// [`noise_factor`] of the two raw outputs its draw consumes
/// ([`normal_bits`]), for callers that draw a step's words before they
/// know whether its deviates are wanted.
#[inline]
pub fn noise_factor_from_bits(bits: [u64; 2], rel_std: f64) -> f64 {
    (1.0 + rel_std * normal_from_bits(bits)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::RngCore;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;

    fn sample_n(f: impl Fn(&mut Xoshiro256pp) -> f64, n: usize) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        (0..n).map(|_| f(&mut rng)).collect()
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_var() {
        let xs = sample_n(standard_normal, 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean drifted: {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance drifted: {var}");
    }

    #[test]
    fn normal_is_shifted_and_scaled() {
        let xs = sample_n(|r| normal(r, 10.0, 2.0), 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_is_positive() {
        let xs = sample_n(|r| lognormal(r, 0.0, 1.0), 1_000);
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_matches_rate() {
        let xs = sample_n(|r| exponential(r, 0.5), 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "exp mean {mean} != 2.0");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn noise_factor_is_non_negative_and_centred() {
        let xs = sample_n(|r| noise_factor(r, 0.05), 5_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(xs.iter().all(|&x| x >= 0.0));
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn skipping_a_draw_leaves_the_stream_where_the_draw_would() {
        let mut drawn = Xoshiro256pp::seed_from_u64(9);
        let mut skipped = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..100 {
            let factor = noise_factor(&mut drawn, 0.02);
            let bits = normal_bits(&mut skipped);
            assert_eq!(factor, noise_factor_from_bits(bits, 0.02));
            assert_eq!(drawn.next_u64(), skipped.next_u64());
        }
    }

    #[test]
    fn the_split_draw_is_the_formula_over_two_uniform_doubles() {
        let mut split = Xoshiro256pp::seed_from_u64(5);
        let mut whole = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..10_000 {
            let u1: f64 = 1.0 - whole.gen::<f64>();
            let u2: f64 = whole.gen();
            let want = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert_eq!(standard_normal(&mut split).to_bits(), want.to_bits());
        }
        assert_eq!(split.next_u64(), whole.next_u64());
    }

    #[test]
    fn a_draw_that_cannot_reach_sits_below_the_reference() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for radius in [0, 1 << 63, 0xE8 << 56, u64::MAX - (1 << 20), u64::MAX] {
            let reference = normal_from_bits([radius, 0]);
            let mut reached = 0;
            for _ in 0..50_000 {
                let bits = normal_bits(&mut rng);
                if normal_reaches(bits, radius) {
                    reached += 1;
                } else {
                    let z = normal_from_bits(bits);
                    assert!(z < reference + 1e-14, "{bits:x?}: {z} vs {reference}");
                }
            }
            assert_eq!(reached == 0, radius > u64::MAX - (1 << 21), "{radius:#x}");
        }
        // The ends of the two kept quarter turns, at the largest radius:
        // just inside is evaluated, just outside is at most rounding
        // above zero.
        for (angle, kept) in [
            ((1 << 62) - 1, true),
            (1 << 62, false),
            ((3 << 62) - 1, false),
            (3 << 62, true),
        ] {
            let bits = [u64::MAX, angle];
            assert_eq!(normal_reaches(bits, 0), kept, "{angle:#x}");
            assert!(kept || normal_from_bits(bits) < 1e-14, "{angle:#x}");
        }
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let a = sample_n(standard_normal, 10);
        let b = sample_n(standard_normal, 10);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let _ = exponential(&mut rng, 0.0);
    }
}
