//! The percentile helper against an exact sort, the quartile spread
//! against Python's `statistics.quantiles`, and the closure arithmetic.

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_perfbench::host::segments_s;
use adrias_perfbench::stats::{median, percentile_sorted, quartile_spread, Budget, SegmentFloor};

#[test]
fn percentile_matches_an_exact_count() {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    for len in [1usize, 2, 10, 99, 100, 101, 1000] {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..500u32)).collect();
        v.sort_unstable();
        for q in [0.0, 1.0, 50.0, 90.0, 99.0, 100.0] {
            let p = percentile_sorted(&v, q);
            // Nearest rank: the smallest element with at least q % of
            // the series at or below it.
            let at_or_below = |x: u32| v.iter().filter(|y| **y <= x).count() as f64;
            let need = q / 100.0 * len as f64;
            assert!(at_or_below(p) >= need, "len {len} q {q}");
            if let Some(smaller) = v.iter().rev().find(|y| **y < p) {
                assert!(at_or_below(*smaller) < need.max(1.0), "len {len} q {q}");
            }
        }
    }
}

#[test]
fn median_of_odd_and_even_series() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn quartile_spread_matches_python() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // statistics.quantiles([10.0, 12.0, 11.0, 15.0], n=4) == [10.25, 11.5, 14.25]
    let v = [10.0, 12.0, 11.0, 15.0];
    assert!((quartile_spread(&v) - (14.25 - 10.25) / 11.5).abs() < 1e-12);
}

#[test]
fn attributed_layers_plus_the_residual_equal_the_traced_wall() {
    let budget = Budget {
        arrival: 10.0,
        heap_push: 20.0,
        heap_pop: 30.0,
        decide_self: 40.0,
        forward: 500.0,
        sample: 200.0,
        obs_record: 50.0,
        tail_latency_est: 100.0,
    };
    assert_eq!(budget.attributed(), 950.0);
    assert_eq!(budget.attributed() + budget.unattributed(1000.0), 1000.0);
    assert!((budget.unattributed_frac(1000.0) - 0.05).abs() < 1e-12);
    // Double counting shows as a negative residual.
    assert!(budget.unattributed_frac(900.0) < 0.0);
}

#[test]
fn the_segment_floor_sums_the_fastest_sample_of_each_segment() {
    let mut floor = SegmentFloor::default();
    assert!(floor.fold(&[1.0, 5.0, 2.0]));
    assert!(floor.fold(&[3.0, 4.0, 1.0]));
    assert_eq!(floor.segments(), 3);
    assert_eq!(floor.total_s(), 1.0 + 4.0 + 1.0);
    // A rep cut differently is refused and changes nothing.
    assert!(!floor.fold(&[0.1, 0.1]));
    assert_eq!(floor.total_s(), 6.0);
}

#[test]
fn segments_partition_the_stopwatch() {
    use std::time::{Duration, Instant};
    let start = Instant::now();
    let at = |ms| start + Duration::from_millis(ms);
    let segments = segments_s(start, &[at(0), at(30), at(70)], at(100));
    assert_eq!(segments, [0.0, 0.03, 0.04, 0.03]);
    assert_eq!(segments_s(start, &[], at(100)), [0.1]);
}
