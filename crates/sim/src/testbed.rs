//! The stateful testbed: deployments, progress and completions.

use std::fmt;

use adrias_core::rng::SeedableRng;
use adrias_core::rng::Xoshiro256pp;

use adrias_telemetry::{MetricSample, MetricVec};
use adrias_workloads::{LatencyEnv, MemoryMode, WorkloadClass, WorkloadProfile};

use crate::config::TestbedConfig;
use crate::contention::slowdown;
use crate::counters;
use crate::pressure::ResourcePressure;

/// Opaque handle identifying one deployment on the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeploymentId(u64);

impl DeploymentId {
    /// The raw sequence number behind the handle (stable within a run;
    /// used as the deployment's track id in trace exports).
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DeploymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dep-{}", self.0)
    }
}

/// Accumulated environment statistics over a deployment's residency.
#[derive(Debug, Clone, Copy, Default)]
struct EnvAccumulator {
    steps: u32,
    cpu: f64,
    l2: f64,
    llc: f64,
    mem_bw: f64,
    link_util: f64,
    link_lat: f64,
    slowdown: f64,
}

impl EnvAccumulator {
    fn push(&mut self, p: &ResourcePressure, sd: f32) {
        self.steps += 1;
        self.cpu += f64::from(p.cpu);
        self.l2 += f64::from(p.l2);
        self.llc += f64::from(p.llc);
        self.mem_bw += f64::from(p.mem_bw);
        self.link_util += f64::from(p.link_utilization);
        self.link_lat += f64::from(p.link_latency_cycles);
        self.slowdown += f64::from(sd);
    }

    /// The completion-time average. A deployment completes inside the
    /// progress loop of a step, after that step's `push`, so `steps` is
    /// at least 1 here.
    fn average_env(&self, mode: MemoryMode) -> LatencyEnv {
        debug_assert!(self.steps > 0, "averaged before the first step");
        let n = f64::from(self.steps);
        LatencyEnv {
            mode,
            cpu_pressure: (self.cpu / n) as f32,
            l2_pressure: (self.l2 / n) as f32,
            llc_pressure: (self.llc / n) as f32,
            mem_bw_pressure: (self.mem_bw / n) as f32,
            link_utilization: (self.link_util / n) as f32,
            link_latency_cycles: (self.link_lat / n) as f32,
        }
    }

    fn mean_slowdown(&self) -> f32 {
        if self.steps == 0 {
            1.0
        } else {
            (self.slowdown / f64::from(self.steps)) as f32
        }
    }
}

/// One application resident on the testbed.
#[derive(Debug, Clone)]
pub struct Deployment {
    id: DeploymentId,
    profile: WorkloadProfile,
    mode: MemoryMode,
    arrived_s: f64,
    duration_s: f32,
    work_done_s: f64,
    env: EnvAccumulator,
    /// Slowdown under the current epoch's pressure; meaningful only
    /// while [`Testbed`]'s epoch memo is valid.
    slowdown: f32,
}

impl Deployment {
    /// The deployment handle.
    pub fn id(&self) -> DeploymentId {
        self.id
    }

    /// The deployed workload.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The memory mode the orchestrator chose.
    pub fn mode(&self) -> MemoryMode {
        self.mode
    }

    /// Arrival time, seconds.
    pub fn arrived_s(&self) -> f64 {
        self.arrived_s
    }

    /// Nominal work to complete, seconds of isolated execution.
    pub fn duration_s(&self) -> f32 {
        self.duration_s
    }

    /// Completed work, seconds of isolated-equivalent execution.
    pub fn work_done_s(&self) -> f64 {
        self.work_done_s
    }

    /// Whether progress is scaled by contention (BE) or wall-clock
    /// (LC services and micro-benchmarks run for a fixed duration).
    fn contended_progress(&self) -> bool {
        self.profile.class() == WorkloadClass::BestEffort
    }

    /// Whether the nominal work is done (the deployment leaves at the
    /// end of the step that gets it here).
    fn is_complete(&self) -> bool {
        self.work_done_s >= f64::from(self.duration_s)
    }
}

/// Record of one finished application.
#[derive(Debug, Clone)]
pub struct CompletedApp {
    /// Deployment handle.
    pub id: DeploymentId,
    /// The workload that ran, moved out of its deployment.
    pub profile: WorkloadProfile,
    /// Memory mode it ran in.
    pub mode: MemoryMode,
    /// Arrival time, seconds.
    pub arrived_s: f64,
    /// Completion time, seconds.
    pub finished_s: f64,
    /// Wall-clock runtime, seconds.
    pub runtime_s: f64,
    /// Mean slowdown factor experienced while resident.
    pub mean_slowdown: f32,
    /// Environment averaged over the whole residency (for LC tail
    /// latency evaluation).
    pub average_env: LatencyEnv,
}

/// Output of one 1-second simulation step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Simulation time after the step, seconds.
    pub time_s: f64,
    /// The Watcher sample generated for this step.
    pub sample: MetricSample,
    /// Pressure snapshot used during the step.
    pub pressure: ResourcePressure,
    /// Applications that finished during the step.
    pub finished: Vec<CompletedApp>,
}

/// The disaggregated-memory testbed simulator.
///
/// Advances in fixed 1-second steps; see the crate docs for the model.
///
/// # Examples
///
/// ```
/// use adrias_sim::{Testbed, TestbedConfig};
/// use adrias_workloads::{spark, MemoryMode};
///
/// let mut tb = Testbed::new(TestbedConfig::noiseless(), 1);
/// let gmm = spark::by_name("gmm").unwrap();
/// let id = tb.deploy(gmm.clone(), MemoryMode::Local);
/// let mut finished = None;
/// for _ in 0..200 {
///     let report = tb.step();
///     if let Some(done) = report.finished.into_iter().find(|c| c.id == id) {
///         finished = Some(done);
///         break;
///     }
/// }
/// let done = finished.expect("gmm finishes in isolation");
/// assert!((done.runtime_s - gmm.base_runtime_s() as f64).abs() < 2.0);
/// ```
#[derive(Debug)]
pub struct Testbed {
    cfg: TestbedConfig,
    time_s: f64,
    next_id: u64,
    /// Resident deployments in strictly increasing id order: ids are
    /// issued in increasing order, so a deployment is a `push`, and
    /// every removal keeps the order.
    resident: Vec<Deployment>,
    rng: Xoshiro256pp,
    link_bytes_total: f64,
    /// What a step derives from (resident set, `cfg.link`) alone, kept
    /// until either changes: `deploy_for`, `remove`, `set_link` and any
    /// completion drop it. While it is `Some`, every resident's
    /// `slowdown` field belongs to it too.
    epoch: Option<Epoch>,
}

/// The memoised part of a step.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    pressure: ResourcePressure,
    /// [`counters::noiseless`] under `pressure`.
    counters: MetricVec,
}

impl Testbed {
    /// Simulation step length, seconds.
    pub const STEP_S: f64 = 1.0;

    /// Creates a testbed with the given configuration and RNG seed.
    pub fn new(cfg: TestbedConfig, seed: u64) -> Self {
        Self {
            cfg,
            time_s: 0.0,
            next_id: 0,
            resident: Vec::new(),
            rng: Xoshiro256pp::seed_from_u64(seed),
            link_bytes_total: 0.0,
            epoch: None,
        }
    }

    /// The testbed configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Replaces the ThymesisFlow channel parameters in place.
    ///
    /// This is the fault-injection hook: a degradation schedule can
    /// spike `base_latency_cycles`, collapse `effective_cap_gbps`, or
    /// flap between healthy and degraded parameter sets mid-run. The
    /// change takes effect from the next [`Testbed::step`]; resident
    /// deployments, accumulated environment averages, and the noise RNG
    /// stream are untouched, so a schedule that restores the original
    /// `LinkConfig` converges back to the healthy trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `link` is degenerate (non-positive capacity, or a
    /// saturated latency below the base latency) — the same invariants
    /// the interconnect model asserts.
    pub fn set_link(&mut self, link: crate::config::LinkConfig) {
        assert!(
            link.effective_cap_gbps > 0.0,
            "link capacity must be positive"
        );
        assert!(
            link.saturated_latency_cycles >= link.base_latency_cycles,
            "saturated latency below base latency"
        );
        self.cfg.link = link;
        self.epoch = None;
    }

    /// Current simulation time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Cumulative bytes delivered over the ThymesisFlow link.
    pub fn link_bytes_total(&self) -> f64 {
        self.link_bytes_total
    }

    /// Deploys `profile` in `mode` with its nominal duration.
    pub fn deploy(&mut self, profile: WorkloadProfile, mode: MemoryMode) -> DeploymentId {
        let duration = profile.base_runtime_s();
        self.deploy_for(profile, mode, duration)
    }

    /// Deploys `profile` in `mode` for an explicit `duration_s` (used for
    /// open-ended micro-benchmarks in scenario traces).
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not strictly positive.
    pub fn deploy_for(
        &mut self,
        profile: WorkloadProfile,
        mode: MemoryMode,
        duration_s: f32,
    ) -> DeploymentId {
        assert!(duration_s > 0.0, "duration must be positive");
        let id = DeploymentId(self.next_id);
        self.next_id += 1;
        self.resident.push(Deployment {
            id,
            profile,
            mode,
            arrived_s: self.time_s,
            duration_s,
            work_done_s: 0.0,
            env: EnvAccumulator::default(),
            slowdown: 0.0,
        });
        self.epoch = None;
        id
    }

    /// Position of `id` in the id-ordered resident store.
    fn position(&self, id: DeploymentId) -> Option<usize> {
        self.resident.binary_search_by_key(&id, |d| d.id).ok()
    }

    /// Removes a deployment before completion; returns it if resident.
    /// Removing an id that is not resident changes nothing.
    pub fn remove(&mut self, id: DeploymentId) -> Option<Deployment> {
        let at = self.position(id)?;
        self.epoch = None;
        Some(self.resident.remove(at))
    }

    /// Whether `id` is still resident.
    pub fn is_resident(&self, id: DeploymentId) -> bool {
        self.position(id).is_some()
    }

    /// Number of resident deployments.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Iterates over resident deployments in id order. Ids are strictly
    /// increasing along the iteration, and this order is what the
    /// simulation is defined over: the f32 pressure and counter sums add
    /// their terms in it, and a step reports its completions in it
    /// (which fixes the order downstream consumers draw random numbers
    /// in).
    pub fn resident(&self) -> impl Iterator<Item = &Deployment> + '_ {
        self.resident.iter()
    }

    /// A deployment by id, if resident.
    pub fn deployment(&self, id: DeploymentId) -> Option<&Deployment> {
        self.position(id).map(|at| &self.resident[at])
    }

    /// Pressure snapshot for the current resident set.
    pub fn pressure(&self) -> ResourcePressure {
        match &self.epoch {
            Some(epoch) => epoch.pressure,
            None => {
                let placements = self.resident.iter().map(|d| (&d.profile, d.mode));
                ResourcePressure::compute(&self.cfg, placements)
            }
        }
    }

    /// Instantaneous slowdown factor of a resident deployment.
    pub fn slowdown_of(&self, id: DeploymentId) -> Option<f32> {
        let d = self.deployment(id)?;
        Some(if self.epoch.is_some() {
            d.slowdown
        } else {
            slowdown(&d.profile, d.mode, &self.pressure())
        })
    }

    /// Advances the simulation by one second.
    ///
    /// Computes the pressure for the current resident set, advances every
    /// deployment's progress, collects completions (with sub-second
    /// completion-time interpolation) and synthesizes the Watcher sample.
    /// Pressure, noiseless counters and slowdowns are reused from the
    /// previous step while the resident set and link are what they were;
    /// the noise draws and every accumulator still run once per second.
    pub fn step(&mut self) -> StepReport {
        let warm = self.epoch.is_some();
        let Epoch { pressure, counters } = self.epoch.unwrap_or_else(|| {
            let pressure = self.pressure();
            let profiles = self.resident.iter().map(|d| &d.profile);
            Epoch {
                pressure,
                counters: counters::noiseless(&self.cfg, profiles, &pressure),
            }
        });
        self.epoch = Some(Epoch { pressure, counters });
        let sample = MetricSample::new(
            self.time_s + Self::STEP_S,
            counters::perturb(&self.cfg, &counters, &mut self.rng),
        );
        self.link_bytes_total += f64::from(pressure.link_delivered_gbps) * 1e9 / 8.0 * Self::STEP_S;

        // Completion instants of this step, in id order; stays empty (no
        // allocation) on a step that finishes nothing.
        let mut finished_at: Vec<f64> = Vec::new();
        let step_start = self.time_s;
        for d in &mut self.resident {
            if !warm {
                d.slowdown = slowdown(&d.profile, d.mode, &pressure);
            }
            let sd = d.slowdown;
            d.env.push(&pressure, sd);
            let rate = if d.contended_progress() {
                1.0 / f64::from(sd)
            } else {
                1.0
            };
            let before = d.work_done_s;
            d.work_done_s += rate * Self::STEP_S;
            if d.is_complete() {
                // Interpolate the in-step completion instant.
                let need = f64::from(d.duration_s) - before;
                let frac = if rate > 0.0 {
                    (need / rate).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                finished_at.push(step_start + frac * Self::STEP_S);
            }
        }
        let finished = if finished_at.is_empty() {
            Vec::new()
        } else {
            self.epoch = None;
            // One in-order compaction pass: the completed deployments
            // leave in id order, pairing up with `finished_at`.
            self.resident
                .extract_if(.., |d| d.is_complete())
                .zip(finished_at)
                .map(|(d, finished_s)| CompletedApp {
                    id: d.id,
                    mode: d.mode,
                    arrived_s: d.arrived_s,
                    finished_s,
                    runtime_s: finished_s - d.arrived_s,
                    mean_slowdown: d.env.mean_slowdown(),
                    average_env: d.env.average_env(d.mode),
                    profile: d.profile,
                })
                .collect()
        };
        self.time_s += Self::STEP_S;
        StepReport {
            time_s: self.time_s,
            sample,
            pressure,
            finished,
        }
    }

    /// Runs `profile` to completion in isolation on an otherwise empty
    /// testbed and returns its completion record together with the 1 Hz
    /// metric samples captured while it ran.
    ///
    /// This is how application *signatures* are captured (§V-B2) and how
    /// the isolation experiments of Figs. 3–4 are executed.
    ///
    /// # Panics
    ///
    /// Panics if other applications are resident.
    pub fn run_isolated(
        &mut self,
        profile: WorkloadProfile,
        mode: MemoryMode,
    ) -> (CompletedApp, Vec<MetricSample>) {
        assert!(
            self.resident.is_empty(),
            "run_isolated requires an empty testbed"
        );
        let id = self.deploy(profile, mode);
        let mut samples = Vec::new();
        loop {
            let report = self.step();
            samples.push(report.sample);
            if let Some(done) = report.finished.into_iter().find(|c| c.id == id) {
                return (done, samples);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_workloads::{ibench, spark, IbenchKind};

    fn testbed() -> Testbed {
        Testbed::new(TestbedConfig::noiseless(), 99)
    }

    #[test]
    fn isolated_local_run_matches_base_runtime() {
        let mut tb = testbed();
        let app = spark::by_name("wordcount").unwrap();
        let (done, samples) = tb.run_isolated(app.clone(), MemoryMode::Local);
        assert!((done.runtime_s - f64::from(app.base_runtime_s())).abs() <= 1.0);
        assert_eq!(samples.len(), done.finished_s.ceil() as usize);
        assert!((done.mean_slowdown - 1.0).abs() < 1e-3);
    }

    #[test]
    fn isolated_remote_run_suffers_penalty() {
        let mut tb = testbed();
        let app = spark::by_name("nweight").unwrap();
        let (done, _) = tb.run_isolated(app.clone(), MemoryMode::Remote);
        let ratio = done.runtime_s / f64::from(app.base_runtime_s());
        assert!(
            (ratio - f64::from(app.remote_penalty())).abs() < 0.1,
            "remote/local ratio {ratio} vs penalty {}",
            app.remote_penalty()
        );
    }

    #[test]
    fn co_located_apps_slow_each_other_down() {
        let mut tb = testbed();
        let app = spark::by_name("sort").unwrap();
        let stressor = ibench::profile(IbenchKind::Llc);
        for _ in 0..16 {
            tb.deploy_for(stressor.clone(), MemoryMode::Local, 3600.0);
        }
        let id = tb.deploy(app.clone(), MemoryMode::Local);
        let mut runtime = None;
        for _ in 0..2000 {
            let report = tb.step();
            if let Some(done) = report.finished.iter().find(|c| c.id == id) {
                runtime = Some(done.runtime_s);
                break;
            }
        }
        let runtime = runtime.expect("app should finish");
        assert!(
            runtime > 1.5 * f64::from(app.base_runtime_s()),
            "contended runtime {runtime} vs base {}",
            app.base_runtime_s()
        );
    }

    #[test]
    fn lc_services_run_wall_clock_durations() {
        let mut tb = testbed();
        let redis = adrias_workloads::keyvalue::redis();
        let id = tb.deploy_for(redis, MemoryMode::Remote, 30.0);
        let mut done = None;
        for _ in 0..40 {
            let report = tb.step();
            if let Some(c) = report.finished.into_iter().find(|c| c.id == id) {
                done = Some(c);
                break;
            }
        }
        let done = done.expect("LC session ends after its duration");
        assert!((done.runtime_s - 30.0).abs() < 1.0);
        assert_eq!(done.average_env.mode, MemoryMode::Remote);
    }

    #[test]
    fn remove_prevents_completion() {
        let mut tb = testbed();
        let app = spark::by_name("gmm").unwrap();
        let id = tb.deploy(app, MemoryMode::Local);
        tb.step();
        assert!(tb.is_resident(id));
        let removed = tb.remove(id).expect("was resident");
        assert_eq!(removed.id(), id);
        assert!(!tb.is_resident(id));
        assert_eq!(tb.resident_count(), 0);
    }

    #[test]
    fn link_traffic_accumulates_only_for_remote() {
        let mut tb = testbed();
        let app = spark::by_name("lr").unwrap();
        tb.deploy(app.clone(), MemoryMode::Local);
        for _ in 0..10 {
            tb.step();
        }
        assert_eq!(tb.link_bytes_total(), 0.0);

        let mut tb2 = testbed();
        tb2.deploy(app, MemoryMode::Remote);
        for _ in 0..10 {
            tb2.step();
        }
        assert!(tb2.link_bytes_total() > 0.0);
    }

    #[test]
    fn deployment_ids_are_unique_and_ordered() {
        let mut tb = testbed();
        let app = spark::by_name("gmm").unwrap();
        let a = tb.deploy(app.clone(), MemoryMode::Local);
        let b = tb.deploy(app, MemoryMode::Remote);
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(tb.resident_count(), 2);
        assert_eq!(tb.deployment(a).unwrap().mode(), MemoryMode::Local);
        assert_eq!(tb.deployment(b).unwrap().mode(), MemoryMode::Remote);
    }

    #[test]
    fn slowdown_of_reports_current_factor() {
        let mut tb = testbed();
        let app = spark::by_name("nweight").unwrap();
        let id = tb.deploy(app.clone(), MemoryMode::Remote);
        let sd = tb.slowdown_of(id).unwrap();
        assert!((sd - app.remote_penalty()).abs() < 0.05);
        assert!(tb.slowdown_of(DeploymentId(999)).is_none());
    }

    #[test]
    #[should_panic(expected = "empty testbed")]
    fn run_isolated_requires_empty_testbed() {
        let mut tb = testbed();
        let app = spark::by_name("gmm").unwrap();
        tb.deploy(app.clone(), MemoryMode::Local);
        let _ = tb.run_isolated(app, MemoryMode::Local);
    }

    #[test]
    fn time_advances_one_second_per_step() {
        let mut tb = testbed();
        assert_eq!(tb.time_s(), 0.0);
        tb.step();
        tb.step();
        assert_eq!(tb.time_s(), 2.0);
    }
}
