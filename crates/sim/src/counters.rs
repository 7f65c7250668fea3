//! Synthesis of the Watcher's performance-event samples.
//!
//! Real hardware exposes these events through `perf` and the ThymesisFlow
//! FPGA registers; the simulator synthesizes them from workload demands
//! and the current [`ResourcePressure`], with a small multiplicative
//! noise to mimic measurement jitter.

use adrias_core::rng::Rng;

use adrias_telemetry::{dist, Metric, MetricVec, METRIC_COUNT};
use adrias_workloads::{ResourceDemand, WorkloadProfile};

use crate::config::TestbedConfig;
use crate::interconnect::Interconnect;
use crate::pressure::ResourcePressure;

/// LLC load events per second per demanded core.
const LLC_LOADS_PER_CORE: f32 = 3.0e7;
/// LLC load events per second per MiB of LLC working set.
const LLC_LOADS_PER_LLC_MB: f32 = 1.5e7;
/// Baseline LLC miss ratio of a well-cached application.
const BASE_MISS_RATIO: f32 = 0.08;
/// Additional miss ratio per unit of LLC pressure.
const MISS_RATIO_PER_PRESSURE: f32 = 0.30;
/// Maximum miss ratio.
const MAX_MISS_RATIO: f32 = 0.85;
/// Bytes moved per DRAM load event (cache-line granularity).
const BYTES_PER_MEM_EVENT: f32 = 128.0;
/// Fraction of local DRAM events that are loads (rest are stores).
const MEM_LOAD_FRACTION: f32 = 0.7;
/// Fraction of link flits flowing toward the borrower (reads dominate).
const FLIT_RX_FRACTION: f32 = 0.6;

/// Largest `noise_rel_std` for which a noise factor is certainly finite
/// as `f32` (a Box–Muller deviate is below 9), so `+0.0 × factor` is
/// `+0.0` and its deviate need not be computed.
const MAX_ZERO_SKIP_REL_STD: f64 = 1e30;

/// The counter values before measurement noise: a pure function of the
/// resident workloads, the pressure snapshot `p` and `cfg.link`, so the
/// testbed computes it once per resident-set epoch.
pub fn noiseless<'a>(
    cfg: &TestbedConfig,
    resident: impl Iterator<Item = &'a WorkloadProfile>,
    p: &ResourcePressure,
) -> MetricVec {
    let mut llc_loads = 0.0f32;
    for w in resident {
        llc_loads += llc_loads_of(w.demand());
    }
    over_llc_loads(cfg, llc_loads, p)
}

/// One resident's term of the `LlcLoads` sum.
pub(crate) fn llc_loads_of(d: &ResourceDemand) -> f32 {
    d.cpu_cores * LLC_LOADS_PER_CORE + d.llc_mb * LLC_LOADS_PER_LLC_MB
}

/// [`noiseless`] after its one pass over the residents: `llc_loads` is
/// the in-order sum of their [`llc_loads_of`].
pub(crate) fn over_llc_loads(
    cfg: &TestbedConfig,
    llc_loads: f32,
    p: &ResourcePressure,
) -> MetricVec {
    let miss_ratio = (BASE_MISS_RATIO + MISS_RATIO_PER_PRESSURE * p.llc).min(MAX_MISS_RATIO);
    let llc_misses = llc_loads * miss_ratio;

    // Local DRAM events from aggregate local traffic (includes delivered
    // remote traffic per R3).
    let mem_events = p.local_traffic_gbps * 1e9 / 8.0 / BYTES_PER_MEM_EVENT;
    let mem_loads = mem_events * MEM_LOAD_FRACTION;
    let mem_stores = mem_events * (1.0 - MEM_LOAD_FRACTION);

    let flits = Interconnect::new(cfg.link).flits_per_second(p.link_delivered_gbps);
    let flits_rx = flits * FLIT_RX_FRACTION;
    let flits_tx = flits * (1.0 - FLIT_RX_FRACTION);

    let mut vec = MetricVec::zero();
    vec.set(Metric::LlcLoads, llc_loads);
    vec.set(Metric::LlcMisses, llc_misses);
    vec.set(Metric::MemLoads, mem_loads);
    vec.set(Metric::MemStores, mem_stores);
    vec.set(Metric::LinkFlitsTx, flits_tx);
    vec.set(Metric::LinkFlitsRx, flits_rx);
    vec.set(Metric::LinkLatency, p.link_latency_cycles);
    vec
}

/// The raw generator words one step's measurement noise consumes: a
/// [`dist::normal_bits`] pair per metric, in canonical order.
pub type NoiseWords = [[u64; 2]; METRIC_COUNT];

/// Draws one step's [`NoiseWords`] — `None`, drawing nothing, when
/// `cfg.noise_rel_std` is not positive. Every step draws them whether
/// or not its deviates are computed, so the stream position after a
/// step does not depend on whether anything read its sample.
///
/// # Panics
///
/// Panics if `cfg.noise_rel_std` is NaN.
#[inline]
pub fn draw<R: Rng + ?Sized>(cfg: &TestbedConfig, rng: &mut R) -> Option<NoiseWords> {
    if cfg.noise_rel_std <= 0.0 {
        return None;
    }
    assert!(cfg.noise_rel_std >= 0.0, "std_dev must be non-negative");
    Some(std::array::from_fn(|_| dist::normal_bits(rng)))
}

/// Applies one step's measurement noise, drawn by [`draw`], to the
/// [`noiseless`] counters: multiplicative, relative standard deviation
/// `cfg.noise_rel_std`, one Box–Muller deviate per metric.
///
/// A counter whose noiseless bits are `+0.0` stays `+0.0` under any
/// finite non-negative factor, so its deviate is not computed. On an
/// idle node that is six of the seven.
#[inline]
pub fn apply(cfg: &TestbedConfig, noiseless: &MetricVec, words: &NoiseWords) -> MetricVec {
    let skip_zeros = cfg.noise_rel_std < MAX_ZERO_SKIP_REL_STD;
    let mut values = *noiseless.as_array();
    for (v, &bits) in values.iter_mut().zip(words) {
        if !(skip_zeros && v.to_bits() == 0) {
            *v *= dist::noise_factor_from_bits(bits, cfg.noise_rel_std) as f32;
        }
    }
    MetricVec::from_array(values)
}

/// One step's measured counters: [`apply`] after [`draw`], or the
/// noiseless counters themselves when the configuration has no noise.
pub fn perturb<R: Rng + ?Sized>(
    cfg: &TestbedConfig,
    noiseless: &MetricVec,
    rng: &mut R,
) -> MetricVec {
    match draw(cfg, rng) {
        Some(words) => apply(cfg, noiseless, &words),
        None => *noiseless,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;
    use adrias_telemetry::MetricSample;
    use adrias_workloads::{ibench, spark, IbenchKind, MemoryMode};

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(7)
    }

    fn sample_for(
        pairs: &[(adrias_workloads::WorkloadProfile, MemoryMode)],
        cfg: &TestbedConfig,
    ) -> MetricSample {
        let refs = pairs.iter().map(|(w, m)| (w, *m));
        let p = ResourcePressure::compute(cfg, refs.clone());
        let clean = noiseless(cfg, refs.map(|(w, _)| w), &p);
        MetricSample::new(0.0, perturb(cfg, &clean, &mut rng()))
    }

    #[test]
    fn idle_sample_is_all_zero_but_latency() {
        let cfg = TestbedConfig::noiseless();
        let s = sample_for(&[], &cfg);
        assert_eq!(s.get(Metric::LlcLoads), 0.0);
        assert_eq!(s.get(Metric::MemLoads), 0.0);
        assert_eq!(s.get(Metric::LinkFlitsRx), 0.0);
        assert!((s.get(Metric::LinkLatency) - 350.0).abs() < 5.0);
    }

    #[test]
    fn local_app_generates_no_link_traffic() {
        let cfg = TestbedConfig::noiseless();
        let app = spark::by_name("lr").unwrap();
        let s = sample_for(&[(app, MemoryMode::Local)], &cfg);
        assert!(s.get(Metric::LlcLoads) > 0.0);
        assert!(s.get(Metric::MemLoads) > 0.0);
        assert_eq!(s.get(Metric::LinkFlitsRx), 0.0);
        assert_eq!(s.get(Metric::LinkFlitsTx), 0.0);
    }

    #[test]
    fn remote_app_generates_link_and_local_traffic() {
        let cfg = TestbedConfig::noiseless();
        let app = spark::by_name("lr").unwrap();
        let s = sample_for(&[(app, MemoryMode::Remote)], &cfg);
        assert!(s.get(Metric::LinkFlitsRx) > 0.0);
        assert!(s.get(Metric::LinkFlitsTx) > 0.0);
        // R3: remote traffic traverses local memory controllers.
        assert!(s.get(Metric::MemLoads) > 0.0);
    }

    #[test]
    fn miss_ratio_grows_with_llc_pressure() {
        let cfg = TestbedConfig::noiseless();
        let app = spark::by_name("sort").unwrap();
        let alone = sample_for(&[(app.clone(), MemoryMode::Local)], &cfg);
        let stressor = ibench::profile(IbenchKind::Llc);
        let mut pairs = vec![(app, MemoryMode::Local)];
        pairs.extend((0..16).map(|_| (stressor.clone(), MemoryMode::Local)));
        let contended = sample_for(&pairs, &cfg);
        let ratio_alone = alone.get(Metric::LlcMisses) / alone.get(Metric::LlcLoads);
        let ratio_contended = contended.get(Metric::LlcMisses) / contended.get(Metric::LlcLoads);
        assert!(
            ratio_contended > 2.0 * ratio_alone,
            "miss ratio should inflate: {ratio_alone} -> {ratio_contended}"
        );
    }

    #[test]
    fn load_store_split_is_constant() {
        let cfg = TestbedConfig::noiseless();
        let app = spark::by_name("terasort").unwrap();
        let s = sample_for(&[(app, MemoryMode::Local)], &cfg);
        let ratio = s.get(Metric::MemStores) / s.get(Metric::MemLoads);
        assert!((ratio - 3.0 / 7.0).abs() < 1e-3);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let mut cfg = TestbedConfig::paper();
        cfg.noise_rel_std = 0.05;
        let app = spark::by_name("kmeans").unwrap();
        let noiseless = sample_for(
            &[(app.clone(), MemoryMode::Local)],
            &TestbedConfig::noiseless(),
        );
        let noisy = sample_for(&[(app, MemoryMode::Local)], &cfg);
        let rel = (noisy.get(Metric::LlcLoads) - noiseless.get(Metric::LlcLoads)).abs()
            / noiseless.get(Metric::LlcLoads);
        assert!(rel < 0.3, "noise should be small, got {rel}");
        assert!(rel > 0.0, "noise should actually perturb");
    }
}
