//! Property-based tests for the statistics estimators, driven by the
//! in-tree `adrias_core::prop` harness (deterministic seeds, shrink by
//! halving).
//!
//! The paper's whole evaluation funnels through these few functions
//! (tail percentiles, Pearson's r, R², MAE), so their structural
//! invariants — bounds, monotonicity, scale invariance — are pinned here
//! over randomized inputs rather than hand-picked examples.

use adrias_core::prop::prelude::*;

use adrias_telemetry::stats;

/// `percentile` as it was written before it selected: copy, stable sort,
/// index. The values it reads are the specification.
fn percentile_by_sorting(xs: &[f32], p: f64) -> f32 {
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = (rank - lo as f64) as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

proptest! {
    /// Selection reads the same order statistics a sort does, bit for
    /// bit: lengths up to 10 000, anything from two distinct values
    /// (almost every comparison a tie) to all distinct, `p` at 0, at 100,
    /// on a rank and between ranks — and the in-place pair form agrees
    /// with two separate calls.
    #[test]
    fn percentile_is_bitwise_clone_and_sort(
        raw in prop::collection::vec(0u32..1_000_000, 1..=10_000),
        levels in prop::sample::select(vec![2u32, 17, 1_000, 1_000_000]),
        rank in 0usize..10_000,
        between in prop::sample::select(vec![0.0f64, 0.25, 0.5, 0.999]),
        other in 0.0f64..100.0,
    ) {
        let xs: Vec<f32> = raw.iter().map(|&r| (r % levels) as f32 * 0.37 - 5.0).collect();
        let last = (xs.len() - 1).max(1) as f64;
        let on_rank = (100.0 * (rank as f64 + between) / last).min(100.0);
        for p in [0.0, 100.0, on_rank, other] {
            let (got, want) = (stats::percentile(&xs, p), percentile_by_sorting(&xs, p));
            prop_assert!(got.to_bits() == want.to_bits(), "p{p}: {got} vs sorted {want}");
        }
        let (lo, hi) = if on_rank <= other { (on_rank, other) } else { (other, on_rank) };
        let pair = stats::percentiles_in_place(&mut xs.clone(), [lo, hi]);
        prop_assert_eq!(
            pair.map(f32::to_bits),
            [percentile_by_sorting(&xs, lo), percentile_by_sorting(&xs, hi)].map(f32::to_bits)
        );
    }

    /// Reading the quantiles of a population from its top `m` values
    /// alone gives the full-slice read, bit for bit, for every `m` that
    /// reaches down to the first rank — ties across the cut and `m == n`
    /// included — and `None` for an `m` one short of it.
    #[test]
    fn top_of_a_population_reads_what_the_whole_does(
        raw in prop::collection::vec(0u32..1_000_000, 1..=3_000),
        levels in prop::sample::select(vec![2u32, 17, 1_000_000]),
        lo in 0.0f64..100.0,
        hi in 0.0f64..100.0,
        cut in 0.0f64..1.0,
    ) {
        let xs: Vec<f32> = raw.iter().map(|&r| (r % levels) as f32 * 0.37 - 5.0).collect();
        let n = xs.len();
        let ps = if lo <= hi { [lo, hi, 100.0] } else { [hi, lo, 100.0] };
        let want = stats::percentiles_in_place(&mut xs.clone(), ps).map(f32::to_bits);
        let mut sorted = xs.clone();
        sorted.sort_by(f32::total_cmp);
        let least = n - (ps[0] / 100.0 * (n - 1) as f64).floor() as usize;
        for m in [least, least + ((n - least) as f64 * cut) as usize, n] {
            // Hand the top in arrival order, not sorted.
            let floor = sorted[n - m];
            let mut spare = sorted[n - m..].iter().filter(|&&x| x == floor).count();
            let mut top = Vec::new();
            for &x in &xs {
                if x > floor || (x == floor && spare > 0) {
                    spare -= usize::from(x == floor);
                    top.push(x);
                }
            }
            prop_assert_eq!(top.len(), m);
            let got = stats::percentiles_of_top(&mut top, n, ps).map(|q| q.map(f32::to_bits));
            prop_assert!(got == Some(want), "top {m} of {n}: {got:x?} vs {want:x?}");
        }
        if least > 1 {
            let mut short = sorted[n - least + 1..].to_vec();
            prop_assert_eq!(stats::percentiles_of_top(&mut short, n, ps), None);
        }
    }

    /// A percentile is always bracketed by the sample min and max, and
    /// the extreme percentiles hit them exactly.
    #[test]
    fn percentile_is_bounded_by_min_and_max(
        xs in prop::collection::vec(-1e3f32..1e3, 1..40),
        p in 0.0f64..100.0,
    ) {
        let min = xs.iter().copied().fold(f32::INFINITY, f32::min);
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let v = stats::percentile(&xs, p);
        prop_assert!(v >= min - 1e-3, "p{p} = {v} below min {min}");
        prop_assert!(v <= max + 1e-3, "p{p} = {v} above max {max}");
        prop_assert_eq!(stats::percentile(&xs, 0.0), min);
        prop_assert_eq!(stats::percentile(&xs, 100.0), max);
    }

    /// Percentiles are monotone in `p`.
    #[test]
    fn percentile_is_monotone_in_p(
        xs in prop::collection::vec(-1e3f32..1e3, 1..40),
        a in 0.0f64..100.0,
        b in 0.0f64..100.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            stats::percentile(&xs, lo) <= stats::percentile(&xs, hi) + 1e-3,
            "p{lo} > p{hi}"
        );
    }

    /// Pearson's r stays in `[-1, 1]` and does not move under a positive
    /// affine rescaling of one series.
    #[test]
    fn pearson_is_bounded_and_scale_invariant(
        pairs in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 2..33),
        scale in 0.5f32..4.0,
        shift in -10.0f32..10.0,
    ) {
        let xs: Vec<f32> = pairs.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f32> = pairs.iter().map(|&(_, y)| y).collect();
        let r = stats::pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r), "r = {r} out of [-1, 1]");

        let rescaled: Vec<f32> = xs.iter().map(|&x| scale * x + shift).collect();
        let r2 = stats::pearson(&rescaled, &ys);
        prop_assert!(
            (r - r2).abs() < 1e-3,
            "r changed under affine rescale: {r} vs {r2}"
        );
    }

    /// R² never exceeds 1 (a perfect fit), and a model predicting the
    /// truth exactly achieves it whenever the truth is not constant.
    #[test]
    fn r2_is_at_most_one(
        pairs in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 1..33),
    ) {
        let truth: Vec<f32> = pairs.iter().map(|&(t, _)| t).collect();
        let pred: Vec<f32> = pairs.iter().map(|&(_, p)| p).collect();
        let r2 = stats::r2_score(&truth, &pred);
        prop_assert!(r2 <= 1.0, "R² = {r2} exceeds 1");
        let perfect = stats::r2_score(&truth, &truth);
        prop_assert!(
            perfect == 1.0 || perfect == 0.0,
            "self-R² must be 1 (or 0 for constant truth), got {perfect}"
        );
    }

    /// MAE is non-negative, zero exactly on identical series, and
    /// symmetric in its arguments.
    #[test]
    fn mae_is_a_distance(
        pairs in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 1..33),
    ) {
        let truth: Vec<f32> = pairs.iter().map(|&(t, _)| t).collect();
        let pred: Vec<f32> = pairs.iter().map(|&(_, p)| p).collect();
        let err = stats::mae(&truth, &pred);
        prop_assert!(err >= 0.0, "MAE = {err} is negative");
        prop_assert_eq!(stats::mae(&truth, &truth), 0.0);
        prop_assert_eq!(stats::mae(&truth, &pred), stats::mae(&pred, &truth));
    }
}
