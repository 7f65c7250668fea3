//! Canonical vectorizable transcendentals (`exp`, `tanh`, `sigmoid`).
//!
//! The standard library routes `f32::exp`/`f32::tanh` through libm,
//! whose argument-reduction branches cannot be expressed as a fixed
//! 8-lane sequence and whose results differ between hosts. This module
//! defines the workspace's *single* formulation instead, written once
//! over [`Lane`]: straight-line IEEE-754 arithmetic (min/max clamp, one
//! round-to-nearest via the 1.5·2²³ shifter, a Cody–Waite split-ln2
//! reduction, a degree-7 polynomial evaluated by Horner with separate
//! multiply and add, one exponent-field scale). Every step is a
//! correctly-rounded per-lane operation with no fused contraction, so
//! every lane type computes the same bits — the property the
//! workspace's bitwise-determinism contract (DESIGN.md §14) rests on.
//!
//! Accuracy: relative error ≤ ~2e-7 over the clamped domain, far below
//! the 8% gradcheck tolerance and invisible to every oracle in the
//! tree; both `tanh` and `sigmoid` stay inside their mathematical
//! ranges ([-1, 1] and (0, 1)) because the final division is correctly
//! rounded toward a quotient strictly below one in magnitude.

use crate::kernels::Lane;

/// Input clamp for [`exp`]: `exp(±87)` spans the full normal `f32`
/// range without overflow, and the clamp keeps the exponent bit-trick
/// in range.
const EXP_CLAMP: f32 = 87.0;

/// Input clamp for [`tanh`]: at |x| = 9, `exp(2x)` is large enough that
/// `(e − 1)/(e + 1)` rounds to exactly ±1.0 in `f32`, so the clamp is
/// invisible in the result.
const TANH_CLAMP: f32 = 9.0;

/// 1.5 · 2²³ — adding then subtracting this forces round-to-nearest-
/// even on any |y| ≤ 2²², turning `y` into the nearest integer-valued
/// float with no branch.
const SHIFTER: f32 = 12_582_912.0;

/// High half of the Cody–Waite split of ln 2 (`0x1.62e4p-1`): its low
/// nine mantissa bits are zero, so `k · LN2_HI` is *exact* for any
/// integer |k| ≤ 2⁹ — the reduction `x − k·LN2_HI` then cancels without
/// rounding, which is what keeps [`exp`] accurate at |x| near the
/// clamp (a single `x·log₂e` product would lose ~2e-6 there to the
/// ulp of the 7-bit-exponent product).
const LN2_HI: f32 = f32::from_bits(0x3f31_7200);

/// Low half of the split: `ln 2 − LN2_HI`.
const LN2_LO: f32 = f32::from_bits(0x35bf_be8e);

/// Degree-7 Taylor coefficients of `e^r` (`1/k!`) on the reduced
/// domain `|r| ≤ ln2/2 ≈ 0.347`, low order first. Truncation error
/// `r⁸/8!` ≤ 6e-9 — below one ulp of the result.
const EXP_POLY: [f32; 8] = [
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
];

/// log₂(e), used only to pick the integer exponent `k`.
const LOG2E: f32 = core::f32::consts::LOG2_E;

/// Canonical `e^x`.
///
/// Clamps to ±[`EXP_CLAMP`] (a NaN input leaves as the clamp, by
/// [`Lane::max`]), picks the integer `k` nearest `x·log₂e` via the
/// shifter trick, Cody–Waite-reduces `r = (x − k·LN2_HI) − k·LN2_LO`
/// (the first product and subtraction are exact, see [`LN2_HI`]),
/// evaluates [`EXP_POLY`] by Horner and applies `2^k` through the
/// exponent field.
#[inline(always)]
pub(crate) fn exp<L: Lane>(x: L) -> L {
    let x = x.max(L::splat(-EXP_CLAMP)).min(L::splat(EXP_CLAMP));
    let shifter = L::splat(SHIFTER);
    let k = x.mul(L::splat(LOG2E)).add(shifter).sub(shifter);
    let r = x.sub(k.mul(L::splat(LN2_HI))).sub(k.mul(L::splat(LN2_LO)));
    let mut p = L::splat(EXP_POLY[7]);
    for &coeff in EXP_POLY[..7].iter().rev() {
        p = p.mul(r).add(L::splat(coeff));
    }
    p.mul(k.exp2i())
}

/// Canonical `tanh(x) = (e^{2x} − 1) / (e^{2x} + 1)`.
#[inline(always)]
pub(crate) fn tanh<L: Lane>(x: L) -> L {
    let t = x.max(L::splat(-TANH_CLAMP)).min(L::splat(TANH_CLAMP));
    let e = exp(t.add(t));
    let one = L::splat(1.0);
    e.sub(one).div(e.add(one))
}

/// Canonical logistic sigmoid `1 / (1 + e^{-x})`.
#[inline(always)]
pub(crate) fn sigmoid<L: Lane>(x: L) -> L {
    let one = L::splat(1.0);
    one.div(one.add(exp(x.neg())))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::{Lane8, Portable};

    fn lane0(f: impl Fn(Portable) -> Portable, x: f32) -> f32 {
        f(Portable::splat(x)).to_array()[0]
    }

    fn exp(x: f32) -> f32 {
        lane0(super::exp, x)
    }

    /// Scalar view of [`super::tanh`], also the gate-sweep oracle's.
    pub(crate) fn tanh(x: f32) -> f32 {
        lane0(super::tanh, x)
    }

    /// Scalar view of [`super::sigmoid`], also the gate-sweep oracle's.
    pub(crate) fn sigmoid(x: f32) -> f32 {
        lane0(super::sigmoid, x)
    }

    #[test]
    fn exp_tracks_libm_closely() {
        let mut x = -87.0f32;
        while x <= 87.0 {
            let want = f64::from(x).exp();
            let got = f64::from(exp(x));
            let rel = ((got - want) / want).abs();
            assert!(rel < 3e-7, "exp({x}): got {got}, want {want}, rel {rel}");
            x += 0.0137;
        }
    }

    #[test]
    fn exp_saturates_gracefully_at_the_clamp() {
        assert_eq!(exp(1e9), exp(87.0));
        assert_eq!(exp(-1e9), exp(-87.0));
        assert!(exp(87.0).is_finite());
        assert!(exp(-87.0) > 0.0);
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn tanh_is_bounded_accurate_and_saturating() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            let got = tanh(x);
            assert!(got.abs() <= 1.0, "tanh({x}) = {got} escapes [-1, 1]");
            let want = f64::from(x).tanh();
            assert!(
                (f64::from(got) - want).abs() < 3e-7,
                "tanh({x}): got {got}, want {want}"
            );
            x += 0.0211;
        }
        assert_eq!(tanh(9.0), 1.0, "clamp edge saturates exactly");
        assert_eq!(tanh(-9.0), -1.0);
        assert_eq!(tanh(0.0), 0.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric_enough() {
        let mut x = -30.0f32;
        while x <= 30.0 {
            let got = sigmoid(x);
            assert!((0.0..=1.0).contains(&got), "sigmoid({x}) = {got}");
            let want = 1.0 / (1.0 + f64::from(-x).exp());
            assert!(
                (f64::from(got) - want).abs() < 3e-7,
                "sigmoid({x}): got {got}, want {want}"
            );
            x += 0.0173;
        }
        assert_eq!(sigmoid(0.0), 0.5);
    }

    #[test]
    fn canonical_min_max_handle_nan_like_avx() {
        // `_mm256_max_ps(a, b)` returns b when a is NaN; the portable
        // lane must do the same so clamped NaN inputs cannot diverge
        // between lane types.
        let lane = Portable::splat;
        assert_eq!(lane(f32::NAN).max(lane(-1.0)).to_array()[0], -1.0);
        assert_eq!(lane(f32::NAN).min(lane(1.0)).to_array()[0], 1.0);
        assert!(exp(f32::NAN).is_finite());
    }
}
