//! Property-based tests on cross-crate invariants, driven by the
//! in-tree `adrias_core::prop` harness (deterministic seeds, shrink
//! by halving).

use adrias_core::prop::prelude::*;

use adrias::nn::Tensor;
use adrias::orchestrator::qos_levels;
use adrias::predictor::dataset::pool_rows;
use adrias::sim::{Interconnect, LinkConfig, ResourcePressure, TestbedConfig};
use adrias::telemetry::stats;
use adrias::telemetry::{Metric, MetricVec};
use adrias::workloads::{ibench, IbenchKind, MemoryMode};

proptest! {
    /// Delivered link throughput never exceeds the cap or the offer, and
    /// latency stays inside the configured band.
    #[test]
    fn link_respects_bounds(offered in 0.0f32..100.0) {
        let link = Interconnect::new(LinkConfig::paper());
        let state = link.evaluate(offered);
        prop_assert!(state.delivered_gbps <= 2.5 + 1e-3);
        prop_assert!(state.delivered_gbps <= offered + 1e-3);
        prop_assert!(state.latency_cycles >= 350.0 - 1e-3);
        prop_assert!(state.latency_cycles <= 900.0 + 1e-3);
        prop_assert!(state.backpressure() <= 1.0 + 1e-6);
    }

    /// Link throughput and latency are monotone in offered load.
    #[test]
    fn link_is_monotone(a in 0.0f32..50.0, b in 0.0f32..50.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let link = Interconnect::new(LinkConfig::paper());
        let s_lo = link.evaluate(lo);
        let s_hi = link.evaluate(hi);
        prop_assert!(s_hi.delivered_gbps >= s_lo.delivered_gbps - 1e-4);
        prop_assert!(s_hi.latency_cycles >= s_lo.latency_cycles - 1e-3);
    }

    /// Percentiles are bounded by the sample extremes and monotone in p.
    #[test]
    fn percentile_bounds_and_monotonicity(
        mut xs in prop::collection::vec(-1e6f32..1e6, 1..200),
        p in 0.0f64..100.0,
        q in 0.0f64..100.0,
    ) {
        let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let vp = stats::percentile(&xs, p);
        prop_assert!(vp >= lo - 1e-3 && vp <= hi + 1e-3);
        let (pl, ph) = if p <= q { (p, q) } else { (q, p) };
        prop_assert!(stats::percentile(&xs, pl) <= stats::percentile(&xs, ph) + 1e-3);
        xs.clear();
    }

    /// Pearson correlation is always within [-1, 1].
    #[test]
    fn pearson_is_bounded(
        xs in prop::collection::vec(-1e3f32..1e3, 2..100),
        ys in prop::collection::vec(-1e3f32..1e3, 2..100),
    ) {
        let n = xs.len().min(ys.len());
        let r = stats::pearson(&xs[..n], &ys[..n]);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&r));
    }

    /// Mean pooling preserves the overall mean of a window.
    #[test]
    fn pooling_preserves_mean(
        values in prop::collection::vec(0.0f32..1e6, 1..240),
        target_len in 1usize..48,
    ) {
        let rows: Vec<MetricVec> = values
            .iter()
            .map(|&v| {
                let mut m = MetricVec::zero();
                m.set(Metric::MemLoads, v);
                m
            })
            .collect();
        let pooled = pool_rows(&rows, target_len.min(rows.len()));
        // Equal-size chunks preserve the mean exactly; ragged chunks
        // approximately (each chunk mean is within the value range).
        let original_mean = stats::mean(&values);
        let pooled_vals: Vec<f32> = pooled.iter().map(|m| m.get(Metric::MemLoads)).collect();
        let pooled_mean = stats::mean(&pooled_vals);
        let spread = values.iter().fold(0.0f32, |acc, &v| acc.max((v - original_mean).abs()));
        prop_assert!((pooled_mean - original_mean).abs() <= spread + 1e-3);
    }

    /// QoS levels are monotonically non-increasing from loose to strict.
    #[test]
    fn qos_levels_are_ordered(
        samples in prop::collection::vec(0.01f32..1e3, 1..200),
        n in 1usize..8,
    ) {
        let levels = qos_levels(&samples, n);
        prop_assert_eq!(levels.len(), n);
        prop_assert!(levels.windows(2).all(|w| w[0] >= w[1] - 1e-4));
    }

    /// Slowdown factors: ≥1 locally, ≥ the isolated penalty remotely, and
    /// monotone in stressor count.
    #[test]
    fn slowdown_invariants(stressors in 0usize..40) {
        let cfg = TestbedConfig::paper();
        let app = adrias::workloads::spark::by_name("pagerank").unwrap();
        let stressor = ibench::profile(IbenchKind::MemBw);
        let pairs: Vec<_> = (0..stressors)
            .map(|_| (stressor.clone(), MemoryMode::Remote))
            .collect();
        let mut refs: Vec<_> = pairs.iter().map(|(w, m)| (w, *m)).collect();
        refs.push((&app, MemoryMode::Remote));
        let p = ResourcePressure::compute(&cfg, refs.iter().copied());
        let local = adrias::sim::slowdown(&app, MemoryMode::Local, &p);
        let remote = adrias::sim::slowdown(&app, MemoryMode::Remote, &p);
        prop_assert!(local >= 1.0 - 1e-5);
        prop_assert!(remote >= app.remote_penalty() * local * 0.999);
    }

    /// Matmul distributes over addition: (A+B)·C = A·C + B·C.
    #[test]
    fn matmul_distributes(
        a in prop::collection::vec(-10.0f32..10.0, 6),
        b in prop::collection::vec(-10.0f32..10.0, 6),
        c in prop::collection::vec(-10.0f32..10.0, 6),
    ) {
        let ta = Tensor::from_vec(2, 3, a);
        let tb = Tensor::from_vec(2, 3, b);
        let tc = Tensor::from_vec(3, 2, c);
        let lhs = (&ta + &tb).matmul(&tc);
        let rhs = &ta.matmul(&tc) + &tb.matmul(&tc);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-2 + 1e-3 * x.abs().max(y.abs()));
        }
    }

    /// Scenario schedules are deterministic in the seed and sorted.
    #[test]
    fn schedules_deterministic(seed in 0u64..1000, max_gap in 20.0f64..60.0) {
        use adrias::scenarios::schedule::{build_schedule, PlacementStyle};
        use adrias::scenarios::ScenarioSpec;
        use adrias::workloads::WorkloadCatalog;

        let spec = ScenarioSpec::new(5.0, max_gap, 400.0, seed);
        let catalog = WorkloadCatalog::paper();
        let a = build_schedule(&spec, &catalog, PlacementStyle::RandomForced);
        let b = build_schedule(&spec, &catalog, PlacementStyle::RandomForced);
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.profile.name(), y.profile.name());
            prop_assert_eq!(x.forced_mode, y.forced_mode);
        }
    }
}
