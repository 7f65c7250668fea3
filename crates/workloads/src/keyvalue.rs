//! Latency-critical in-memory key-value stores: Redis and Memcached.
//!
//! The paper drives both stores with `memtier_benchmark` in a closed loop
//! (4 threads × 200 clients, SET:GET 1:10) and studies the 99th/99.9th
//! response-time percentiles (§IV-A). This module models that setup:
//!
//! * [`redis`] / [`memcached`] — LC workload profiles;
//! * [`LoadSpec`] — the memtier-style load description;
//! * [`LatencyEnv`] — the contention environment a request sees;
//! * [`sample_latencies`] / [`tail_latency`] — a lognormal request-latency
//!   generator whose tail inflates with contention, load and (past the
//!   saturation knee) with remote-link pressure, reproducing R4/R5: local
//!   and remote are nearly identical in isolation, but remote collapses
//!   once the channel saturates.

use adrias_core::rng::Rng;

use adrias_telemetry::dist;
use adrias_telemetry::stats;

use crate::profile::{MemoryMode, Sensitivity, WorkloadClass, WorkloadProfile};

/// Ratio between the 99th percentile and the median of the baseline
/// lognormal request-latency distribution (`exp(2.326 · σ₀)` for
/// σ₀ = 0.45).
const BASELINE_P99_OVER_MEDIAN: f32 = 2.85;

/// Baseline lognormal shape parameter.
const BASELINE_SIGMA: f64 = 0.45;

/// The Redis LC profile.
///
/// In-memory stores perform many small reads/writes with poor on-chip
/// locality (pointer chasing), so they are mostly sensitive to
/// memory-bandwidth contention and comparatively cache-insensitive (R6).
pub fn redis() -> WorkloadProfile {
    WorkloadProfile::builder("redis", WorkloadClass::LatencyCritical)
        .base_p99_ms(1.2)
        .base_runtime_s(270.0)
        .cpu_cores(2.0)
        .l2_mb(0.6)
        .llc_mb(4.0)
        .mem_bw_gbps(0.8)
        .footprint_gb(32.0)
        .sensitivity(Sensitivity {
            cpu: 0.15,
            l2: 0.05,
            llc: 0.12,
            mem_bw: 0.55,
        })
        .remote_penalty(1.06)
        .build()
}

/// The Memcached LC profile.
pub fn memcached() -> WorkloadProfile {
    WorkloadProfile::builder("memcached", WorkloadClass::LatencyCritical)
        .base_p99_ms(0.55)
        .base_runtime_s(320.0)
        .cpu_cores(2.0)
        .l2_mb(0.5)
        .llc_mb(3.0)
        .mem_bw_gbps(1.0)
        .footprint_gb(24.0)
        .sensitivity(Sensitivity {
            cpu: 0.12,
            l2: 0.04,
            llc: 0.10,
            mem_bw: 0.45,
        })
        .remote_penalty(1.04)
        .build()
}

/// Both LC profiles, `[redis, memcached]`.
pub fn suite() -> Vec<WorkloadProfile> {
    vec![redis(), memcached()]
}

/// A memtier-style closed-loop load description (§IV-A).
///
/// # Examples
///
/// ```
/// use adrias_workloads::LoadSpec;
///
/// let spec = LoadSpec::paper_default(10_000);
/// assert_eq!(spec.total_clients(), 800);
/// assert_eq!(spec.total_requests(), 8_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    /// Number of load-generation threads.
    pub threads: u32,
    /// Clients per thread.
    pub clients_per_thread: u32,
    /// SET operations per `set_get.1` GET operations.
    pub set_get: (u32, u32),
    /// Requests issued by each client.
    pub requests_per_client: u64,
}

impl LoadSpec {
    /// The paper's configuration: 4 threads × 200 clients, SET:GET 1:10.
    pub fn paper_default(requests_per_client: u64) -> Self {
        Self {
            threads: 4,
            clients_per_thread: 200,
            set_get: (1, 10),
            requests_per_client,
        }
    }

    /// A spec with the same shape but a different client count (used for
    /// the load sweeps of Fig. 3).
    pub fn with_total_clients(mut self, total: u32) -> Self {
        self.threads = 4;
        self.clients_per_thread = (total / 4).max(1);
        self
    }

    /// Total concurrent clients.
    pub fn total_clients(&self) -> u32 {
        self.threads * self.clients_per_thread
    }

    /// Total requests across all clients.
    pub fn total_requests(&self) -> u64 {
        u64::from(self.total_clients()) * self.requests_per_client
    }

    /// Fraction of operations that are SETs.
    pub fn set_fraction(&self) -> f32 {
        let (s, g) = self.set_get;
        s as f32 / (s + g) as f32
    }
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self::paper_default(10_000)
    }
}

/// The contention environment in which requests are served.
///
/// Pressures are dimensionless over-subscription ratios produced by the
/// testbed simulator: `0` means an idle resource, `1` means demand equals
/// capacity. `link_utilization` and `link_latency_cycles` describe the
/// ThymesisFlow channel and only matter in remote mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyEnv {
    /// Memory mode of the store under study.
    pub mode: MemoryMode,
    /// CPU over-subscription pressure.
    pub cpu_pressure: f32,
    /// L2 pressure.
    pub l2_pressure: f32,
    /// LLC pressure.
    pub llc_pressure: f32,
    /// Local memory-bandwidth pressure.
    pub mem_bw_pressure: f32,
    /// Offered/delivered utilization of the remote link (0–1+).
    pub link_utilization: f32,
    /// Average channel latency in cycles (≈350 idle, ≈900 saturated).
    pub link_latency_cycles: f32,
}

impl LatencyEnv {
    /// An idle system in the given memory mode.
    pub fn idle(mode: MemoryMode) -> Self {
        Self {
            mode,
            cpu_pressure: 0.0,
            l2_pressure: 0.0,
            llc_pressure: 0.0,
            mem_bw_pressure: 0.0,
            link_utilization: 0.0,
            link_latency_cycles: 350.0,
        }
    }
}

/// Nominal capacity (operations per second) of a store profile under the
/// paper's default load: ≈30 kops/s for Redis and ≈100 kops/s for
/// Memcached at 800 clients, with headroom before queueing effects bite.
fn capacity_ops(profile: &WorkloadProfile) -> f32 {
    match profile.name() {
        "memcached" => 200_000.0,
        _ => 60_000.0,
    }
}

/// Multiplier applied to the median request latency by the environment.
fn median_inflation(profile: &WorkloadProfile, env: &LatencyEnv) -> f32 {
    let s = profile.sensitivity();
    let mut f = 1.0
        + s.cpu * env.cpu_pressure
        + s.l2 * env.l2_pressure
        + s.llc * env.llc_pressure
        + s.mem_bw * env.mem_bw_pressure;
    if env.mode == MemoryMode::Remote {
        f *= profile.remote_penalty();
    }
    f
}

/// Multiplier applied on top for remote-link effects (R5): negligible
/// until the channel saturates, then growing with both queueing delay
/// (latency ratio) and over-subscription.
fn link_inflation(profile: &WorkloadProfile, env: &LatencyEnv) -> f32 {
    if env.mode == MemoryMode::Local {
        return 1.0;
    }
    // In-memory stores issue small dependent accesses with little
    // bandwidth pressure, so they feel the channel mostly through its
    // queueing delay; over-subscription adds a bounded term (LC services
    // are comparatively resistant to interference, R5).
    let latency_ratio = (env.link_latency_cycles / 350.0).max(1.0);
    let overload = (env.link_utilization - 0.85).clamp(0.0, 1.0);
    1.0 + profile.sensitivity().mem_bw * (0.5 * (latency_ratio - 1.0) + overload)
}

/// Closed-loop load factor: tail latency grows as offered load approaches
/// the store's (possibly degraded) capacity.
fn load_inflation(load: &LoadSpec, degradation: f32) -> f32 {
    // Offered ops/s from a closed loop of `c` clients each waiting for a
    // response taking ~median latency; normalized so the paper's default
    // 800 clients land at the nominal operating point (ρ ≈ 0.5).
    // Closed-loop clients self-limit: each waits for its response before
    // issuing the next request, so effective utilization saturates well
    // below 1 even under heavy degradation.
    let rho_nominal = 0.5 * (load.total_clients() as f32 / 800.0) * degradation;
    let rho = rho_nominal.min(0.9);
    (1.0 - 0.5) / (1.0 - rho)
}

/// The lognormal request-latency model: `(mu, sigma)` of the underlying
/// normal (latency in ms) and the contention factor, which also divides
/// the store's throughput. Contention inflates the median, and the shape
/// widens slightly with total inflation so that p99.9 grows faster than
/// p99 under pressure, as observed with memtier.
fn latency_model(profile: &WorkloadProfile, load: &LoadSpec, env: &LatencyEnv) -> (f64, f64, f32) {
    let median_ms = profile.base_p99_ms() / BASELINE_P99_OVER_MEDIAN;
    let contention = median_inflation(profile, env) * link_inflation(profile, env);
    let inflation = contention * load_inflation(load, contention);
    let mu = f64::from(median_ms * inflation).ln();
    let sigma = BASELINE_SIGMA * (1.0 + 0.15 * f64::from(inflation - 1.0).min(2.0));
    (mu, sigma, contention)
}

/// Samples `n` request latencies (milliseconds) for `profile` under
/// `load` in environment `env`, in draw order.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// use adrias_workloads::keyvalue::{redis, sample_latencies};
/// use adrias_workloads::{LatencyEnv, LoadSpec, MemoryMode};
/// use adrias_core::rng::SeedableRng;
///
/// let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(1);
/// let lat = sample_latencies(
///     &redis(),
///     &LoadSpec::default(),
///     &LatencyEnv::idle(MemoryMode::Local),
///     1000,
///     &mut rng,
/// );
/// assert_eq!(lat.len(), 1000);
/// assert!(lat.iter().all(|&l| l > 0.0));
/// ```
pub fn sample_latencies<R: Rng + ?Sized>(
    profile: &WorkloadProfile,
    load: &LoadSpec,
    env: &LatencyEnv,
    n: usize,
    rng: &mut R,
) -> Vec<f32> {
    assert!(n > 0, "must sample at least one request");
    let (mu, sigma, _) = latency_model(profile, load, env);
    (0..n)
        .map(|_| dist::lognormal(rng, mu, sigma) as f32)
        .collect()
}

/// Tail-latency summary of one measurement interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailLatency {
    /// 99th percentile, ms.
    pub p99_ms: f32,
    /// 99.9th percentile, ms.
    pub p999_ms: f32,
    /// Wall-clock time to serve the whole load, seconds.
    pub total_time_s: f32,
}

/// How far above the screen's reference deviate `z_t` the certifying
/// floor sits: ≫ the ≈ 1e-14 by which rounding can lift a screened-out
/// deviate over `z_t`, ≪ the spacing of the tail.
const SCREEN_MARGIN: f64 = 1e-6;

/// The radius word ([`dist::normal_reaches`]) at which [`tail_latency`]
/// screens `n` draws; `None` when the tail is most of `n`, or when
/// `SCREEN_MARGIN` in `z` is not ≫ 1 ulp of `mu + sigma·z`. Every value
/// returns the same bits; this one costs least.
fn screen_for(mu: f64, sigma: f64, n: usize) -> Option<u64> {
    // p99 reads the top k < n/100 + 2 draws; aim the expected certified
    // count 4·√k above that, so a fallback is rare.
    let k = 0.01 * n as f64 + 2.0;
    let p = (k + 4.0 * k.sqrt()) / n as f64;
    (mu.is_finite() && (1e-3..=1e3).contains(&sigma) && p <= 0.05).then(|| {
        // Invert the normal tail through Q(z) ≈ φ(z)·z/(z² + 1): a fixed
        // point that contracts by ≈ 0.15 a round.
        let c = p * (2.0 * std::f64::consts::PI).sqrt();
        let z = (0..4).fold(2.0f64, |z, _| (-2.0 * (c * (z + 1.0 / z)).ln()).sqrt());
        // radius ≥ z ⇔ u1 ≤ exp(−z²/2), and u1 = 1 − word/2⁶⁴.
        ((1.0 - (-0.5 * z * z).exp()) * 2f64.powi(64)) as u64
    })
}

/// p99 and p99.9 of `n` lognormal draws, all `2n` words consumed, only
/// the draws that can reach `screen` evaluated; with no screen every
/// draw is kept, which is sample-and-select. `None` when fewer draws
/// were certified than p99 reads.
///
/// Exact (DESIGN.md §12): latency is monotone in the deviate; a draw
/// screened out has `z < z_t + SCREEN_MARGIN`, so its latency is at most
/// `floor`, and every kept one is at least `floor`: the kept values are
/// the top `kept.len()` of all `n`, ties being the same bits.
fn tail_quantiles<R: Rng + ?Sized>(
    (mu, sigma): (f64, f64),
    n: usize,
    screen: Option<u64>,
    rng: &mut R,
) -> Option<[f32; 2]> {
    assert!(sigma >= 0.0, "std_dev must be non-negative");
    let latency_ms = |z: f64| (mu + sigma * z).exp() as f32;
    let floor = screen.map(|t| latency_ms(dist::normal_from_bits([t, 0]) + SCREEN_MARGIN));
    let mut kept = Vec::with_capacity(if screen.is_some() { n / 32 + 16 } else { n });
    for _ in 0..n {
        let bits = dist::normal_bits(rng);
        if screen.is_some_and(|t| !dist::normal_reaches(bits, t)) {
            continue;
        }
        let ms = latency_ms(dist::normal_from_bits(bits));
        if floor.is_none_or(|floor| ms >= floor) {
            kept.push(ms);
        }
    }
    stats::percentiles_of_top(&mut kept, n, [99.0, 99.9])
}

/// [`tail_quantiles`] under `screen`; if that certified too few, the
/// same draws again from the saved stream position, all evaluated.
fn exact_tail<R: Rng + Clone>(
    shape: (f64, f64),
    n: usize,
    screen: Option<u64>,
    rng: &mut R,
) -> [f32; 2] {
    let entry = rng.clone();
    tail_quantiles(shape, n, screen, rng).unwrap_or_else(|| {
        *rng = entry;
        tail_quantiles(shape, n, None, rng).expect("every draw kept holds every rank")
    })
}

/// Measures tail latency for `profile` under `load` in `env`, using
/// `samples` simulated requests: bit for bit the p99 and p99.9 of
/// [`sample_latencies`], and the same stream position after, evaluating
/// only the draws that can reach the tail.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn tail_latency<R: Rng + Clone>(
    profile: &WorkloadProfile,
    load: &LoadSpec,
    env: &LatencyEnv,
    samples: usize,
    rng: &mut R,
) -> TailLatency {
    assert!(samples > 0, "must sample at least one request");
    let (mu, sigma, contention) = latency_model(profile, load, env);
    let [p99_ms, p999_ms] = exact_tail((mu, sigma), samples, screen_for(mu, sigma, samples), rng);
    let throughput = capacity_ops(profile) / contention;
    TailLatency {
        p99_ms,
        p999_ms,
        total_time_s: load.total_requests() as f32 / throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::prop::prelude::*;
    use adrias_core::rng::{RngCore, SeedableRng, Xoshiro256pp};

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(0xAD41A5)
    }

    #[test]
    fn profiles_are_latency_critical() {
        for p in suite() {
            assert!(p.is_latency_critical());
            assert!(p.base_p99_ms() > 0.0);
        }
    }

    #[test]
    fn load_spec_counts() {
        let spec = LoadSpec::paper_default(40_000);
        assert_eq!(spec.total_clients(), 800);
        assert_eq!(spec.total_requests(), 32_000_000);
        assert!((spec.set_fraction() - 1.0 / 11.0).abs() < 1e-6);
    }

    #[test]
    fn local_and_remote_idle_p99_are_close() {
        // R4: in isolation, local and remote tail-latency curves overlap.
        let mut r = rng();
        let spec = LoadSpec::default();
        let local = tail_latency(
            &redis(),
            &spec,
            &LatencyEnv::idle(MemoryMode::Local),
            20_000,
            &mut r,
        );
        let remote = tail_latency(
            &redis(),
            &spec,
            &LatencyEnv::idle(MemoryMode::Remote),
            20_000,
            &mut r,
        );
        let ratio = remote.p99_ms / local.p99_ms;
        assert!(
            (0.95..=1.25).contains(&ratio),
            "idle remote/local p99 ratio {ratio}"
        );
    }

    #[test]
    fn saturated_link_hurts_remote_much_more() {
        // R5: past the saturation knee remote collapses, local does not.
        let mut r = rng();
        let spec = LoadSpec::default();
        let mut env = LatencyEnv::idle(MemoryMode::Remote);
        env.link_utilization = 1.0;
        env.link_latency_cycles = 900.0;
        let saturated = tail_latency(&redis(), &spec, &env, 20_000, &mut r);
        let idle = tail_latency(
            &redis(),
            &spec,
            &LatencyEnv::idle(MemoryMode::Remote),
            20_000,
            &mut r,
        );
        assert!(
            saturated.p99_ms > 1.5 * idle.p99_ms,
            "saturation should inflate p99: {} vs {}",
            saturated.p99_ms,
            idle.p99_ms
        );
    }

    #[test]
    fn membw_pressure_dominates_cache_pressure_for_stores() {
        // R6: in-memory databases react to memBw, not LLC, contention.
        let mut r = rng();
        let spec = LoadSpec::default();
        let mut cache_env = LatencyEnv::idle(MemoryMode::Local);
        cache_env.llc_pressure = 1.0;
        let mut bw_env = LatencyEnv::idle(MemoryMode::Local);
        bw_env.mem_bw_pressure = 1.0;
        let cache = tail_latency(&memcached(), &spec, &cache_env, 20_000, &mut r);
        let bw = tail_latency(&memcached(), &spec, &bw_env, 20_000, &mut r);
        assert!(bw.p99_ms > cache.p99_ms);
    }

    #[test]
    fn more_clients_mean_higher_tail() {
        let mut r = rng();
        let light = LoadSpec::default().with_total_clients(200);
        let heavy = LoadSpec::default().with_total_clients(1400);
        let env = LatencyEnv::idle(MemoryMode::Local);
        let l = tail_latency(&redis(), &light, &env, 20_000, &mut r);
        let h = tail_latency(&redis(), &heavy, &env, 20_000, &mut r);
        assert!(h.p99_ms > l.p99_ms);
    }

    #[test]
    fn p999_exceeds_p99() {
        let (spec, env) = (LoadSpec::default(), LatencyEnv::idle(MemoryMode::Local));
        let t = tail_latency(&redis(), &spec, &env, 50_000, &mut rng());
        let mean = stats::mean(&sample_latencies(&redis(), &spec, &env, 50_000, &mut rng()));
        assert!(t.p999_ms > t.p99_ms);
        assert!(t.p99_ms > mean);
        assert!(t.total_time_s > 0.0);
    }

    #[test]
    fn idle_p99_is_near_calibrated_value() {
        let mut r = rng();
        let t = tail_latency(
            &redis(),
            &LoadSpec::default(),
            &LatencyEnv::idle(MemoryMode::Local),
            50_000,
            &mut r,
        );
        let ratio = t.p99_ms / redis().base_p99_ms();
        assert!(
            (0.8..=1.3).contains(&ratio),
            "calibration drifted: p99 {} vs base {}",
            t.p99_ms,
            redis().base_p99_ms()
        );
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_samples_rejected() {
        let mut r = rng();
        let _ = sample_latencies(
            &redis(),
            &LoadSpec::default(),
            &LatencyEnv::idle(MemoryMode::Local),
            0,
            &mut r,
        );
    }

    /// The measurement as the parent made it: every draw evaluated, in
    /// draw order, then selected from. The specification.
    fn by_sampling(
        profile: &WorkloadProfile,
        load: &LoadSpec,
        env: &LatencyEnv,
        n: usize,
        rng: &mut Xoshiro256pp,
    ) -> [u32; 3] {
        let mut lat = sample_latencies(profile, load, env, n, rng);
        let [p99, p999] = stats::percentiles_in_place(&mut lat, [99.0, 99.9]);
        let (_, _, contention) = latency_model(profile, load, env);
        let total = load.total_requests() as f32 / (capacity_ops(profile) / contention);
        [p99, p999, total].map(f32::to_bits)
    }

    fn bits(t: TailLatency) -> [u32; 3] {
        [t.p99_ms, t.p999_ms, t.total_time_s].map(f32::to_bits)
    }

    /// Idle local, idle remote, a saturated link, every pressure at 3.
    fn envs() -> Vec<LatencyEnv> {
        let mut saturated = LatencyEnv::idle(MemoryMode::Remote);
        saturated.link_utilization = 1.0;
        saturated.link_latency_cycles = 900.0;
        let pressed = LatencyEnv {
            cpu_pressure: 3.0,
            l2_pressure: 3.0,
            llc_pressure: 3.0,
            mem_bw_pressure: 3.0,
            link_utilization: 3.0,
            ..saturated
        };
        vec![
            LatencyEnv::idle(MemoryMode::Local),
            LatencyEnv::idle(MemoryMode::Remote),
            saturated,
            pressed,
        ]
    }

    const SIZES: [usize; 12] = [
        1, 2, 3, 99, 100, 101, 500, 1_000, 2_000, 4_000, 8_000, 20_000,
    ];

    proptest! {
        /// `tail_latency` is the parent's sample-and-select bit for bit,
        /// and leaves the generator where it did — through the screen
        /// the function picks, with no screen, through one so tight that
        /// nothing is certified (the fallback), and through any other.
        #[test]
        fn tail_latency_is_bitwise_sample_and_select(
            seed in 0u64..u64::MAX,
            store in prop::sample::select(suite()),
            env in prop::sample::select(envs()),
            any_screen in 0u64..u64::MAX,
        ) {
            let load = LoadSpec::default();
            let (mu, sigma, _) = latency_model(&store, &load, &env);
            for n in SIZES {
                let mut oracle_rng = Xoshiro256pp::seed_from_u64(seed);
                let want = by_sampling(&store, &load, &env, n, &mut oracle_rng);
                let after = oracle_rng.next_u64();

                let mut r = Xoshiro256pp::seed_from_u64(seed);
                let got = bits(tail_latency(&store, &load, &env, n, &mut r));
                prop_assert!(got == want, "n = {n}: {got:x?} vs sampled {want:x?}");
                prop_assert!(r.next_u64() == after, "n = {n}: stream position");

                // Word 0 only drops the negative-cosine half; word MAX
                // certifies nothing.
                for screen in [None, Some(0), Some(any_screen), Some(u64::MAX)] {
                    let mut r = Xoshiro256pp::seed_from_u64(seed);
                    let got = exact_tail((mu, sigma), n, screen, &mut r).map(f32::to_bits);
                    prop_assert!(got == want[..2], "n = {n}, screen {screen:x?}");
                    prop_assert!(r.next_u64() == after, "n = {n}, screen {screen:x?}");
                }
            }
        }
    }

    /// The fallback is not only forced (above) but reached: at the
    /// screen the function picks, some seeds certify fewer draws than
    /// p99 reads — about one call in 6 000 at 500 samples (one of these
    /// 4 000), one in 70 000 at 8 000. Those calls too return the
    /// sampled bits.
    #[test]
    fn the_fallback_is_reached_and_exact() {
        let (store, load, env) = (
            redis(),
            LoadSpec::default(),
            LatencyEnv::idle(MemoryMode::Remote),
        );
        let (mu, sigma, _) = latency_model(&store, &load, &env);
        let n = 500;
        let screen = screen_for(mu, sigma, n);
        assert!(screen.is_some());
        let mut fell_back = 0;
        for seed in 0..4_000 {
            let rng = || Xoshiro256pp::seed_from_u64(seed);
            if tail_quantiles((mu, sigma), n, screen, &mut rng()).is_none() {
                fell_back += 1;
                let got = tail_latency(&store, &load, &env, n, &mut rng());
                let want = by_sampling(&store, &load, &env, n, &mut rng());
                assert_eq!(bits(got), want, "seed {seed}");
            }
        }
        assert!(
            (1..400).contains(&fell_back),
            "{fell_back} of 4000 fell back"
        );
    }

    #[test]
    fn small_or_degenerate_measurements_are_not_screened() {
        assert!(screen_for(0.0, 0.45, 8_000).is_some());
        assert_eq!(screen_for(0.0, 0.45, 100), None);
        for (mu, sigma) in [
            (f64::NAN, 0.45),
            (f64::INFINITY, 0.45),
            (0.0, 0.0),
            (0.0, f64::NAN),
        ] {
            assert_eq!(screen_for(mu, sigma, 8_000), None, "({mu}, {sigma})");
        }
    }

    /// A non-finite or absurd environment ends exactly as it did when
    /// every draw was evaluated: the same panic, or the same bits.
    #[test]
    fn a_non_finite_environment_ends_as_sampling_does() {
        fn ending(
            run: impl FnOnce() -> [u32; 3] + std::panic::UnwindSafe,
        ) -> Result<[u32; 3], String> {
            std::panic::catch_unwind(run).map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .expect("a string panic")
            })
        }
        let few_clients = LoadSpec::default().with_total_clients(4);
        let mut cases = Vec::new();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e6] {
            for mode in MemoryMode::BOTH {
                let mut env = LatencyEnv::idle(mode);
                env.cpu_pressure = bad;
                cases.push(env);
                let mut env = LatencyEnv::idle(mode);
                env.link_latency_cycles = bad;
                cases.push(env);
            }
        }
        let mut panics = Vec::new();
        for env in cases {
            for load in [LoadSpec::default(), few_clients] {
                for n in [1, 2, 8_000] {
                    let want = ending(|| by_sampling(&redis(), &load, &env, n, &mut rng()));
                    let got = ending(|| bits(tail_latency(&redis(), &load, &env, n, &mut rng())));
                    assert_eq!(got, want, "{env:?}, {n} samples");
                    panics.extend(got.err());
                }
            }
        }
        panics.sort();
        panics.dedup();
        assert_eq!(panics, ["non-NaN samples", "std_dev must be non-negative"]);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_samples_rejected_by_the_measurement_too() {
        let env = LatencyEnv::idle(MemoryMode::Local);
        let _ = tail_latency(&redis(), &LoadSpec::default(), &env, 0, &mut rng());
    }
}
