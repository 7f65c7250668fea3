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

/// Samples `n` request latencies (milliseconds) for `profile` under
/// `load` in environment `env`.
///
/// The distribution is lognormal; contention inflates the median, and the
/// shape parameter widens slightly with total inflation so that p99.9
/// grows faster than p99 under pressure, as observed with memtier.
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
    let median_ms = profile.base_p99_ms() / BASELINE_P99_OVER_MEDIAN;
    let contention = median_inflation(profile, env) * link_inflation(profile, env);
    let inflation = contention * load_inflation(load, contention);
    let mu = f64::from(median_ms * inflation).ln();
    let sigma = BASELINE_SIGMA * (1.0 + 0.15 * f64::from(inflation - 1.0).min(2.0));
    (0..n)
        .map(|_| dist::lognormal(rng, mu, sigma) as f32)
        .collect()
}

/// Tail-latency summary of one measurement interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailLatency {
    /// Mean response time, ms.
    pub mean_ms: f32,
    /// 99th percentile, ms.
    pub p99_ms: f32,
    /// 99.9th percentile, ms.
    pub p999_ms: f32,
    /// Wall-clock time to serve the whole load, seconds.
    pub total_time_s: f32,
}

/// Measures tail latency for `profile` under `load` in `env`, using
/// `samples` simulated requests.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn tail_latency<R: Rng + ?Sized>(
    profile: &WorkloadProfile,
    load: &LoadSpec,
    env: &LatencyEnv,
    samples: usize,
    rng: &mut R,
) -> TailLatency {
    let mut lat = sample_latencies(profile, load, env, samples, rng);
    let contention = median_inflation(profile, env) * link_inflation(profile, env);
    let throughput = capacity_ops(profile) / contention;
    // The mean sums in draw order, so it is read before the samples are
    // partitioned.
    let mean_ms = stats::mean(&lat);
    let [p99_ms, p999_ms] = stats::percentiles_in_place(&mut lat, [99.0, 99.9]);
    TailLatency {
        mean_ms,
        p99_ms,
        p999_ms,
        total_time_s: load.total_requests() as f32 / throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;

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
        let mut r = rng();
        let t = tail_latency(
            &redis(),
            &LoadSpec::default(),
            &LatencyEnv::idle(MemoryMode::Local),
            50_000,
            &mut r,
        );
        assert!(t.p999_ms > t.p99_ms);
        assert!(t.p99_ms > t.mean_ms);
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
}
