//! The stateful testbed: deployments, progress and completions.

use std::fmt;

use adrias_core::rng::SeedableRng;
use adrias_core::rng::Xoshiro256pp;

use adrias_telemetry::{MetricSample, MetricVec};
use adrias_workloads::{LatencyEnv, MemoryMode, ResourceDemand, WorkloadClass, WorkloadProfile};

use crate::config::TestbedConfig;
use crate::contention::Kin;
use crate::counters;
use crate::pressure::{NodeDemand, ResourcePressure};

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

/// Pressure summed over every step since one arrival instant. All the
/// deployments admitted at that instant share it: each would add the
/// same six terms in the same order from `0.0`, so the sums are taken
/// once and read at completion.
#[derive(Debug, Clone, Copy, Default)]
struct ArrivalEnv {
    steps: u32,
    cpu: f64,
    l2: f64,
    llc: f64,
    mem_bw: f64,
    link_util: f64,
    link_lat: f64,
}

impl ArrivalEnv {
    fn push(&mut self, p: &ResourcePressure) {
        self.steps += 1;
        self.cpu += f64::from(p.cpu);
        self.l2 += f64::from(p.l2);
        self.llc += f64::from(p.llc);
        self.mem_bw += f64::from(p.mem_bw);
        self.link_util += f64::from(p.link_utilization);
        self.link_lat += f64::from(p.link_latency_cycles);
    }

    /// The completion-time average. A deployment completes inside the
    /// progress loop of a step, after that step's `push`, so `steps` is
    /// at least 1 here.
    fn average(&self, mode: MemoryMode) -> LatencyEnv {
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
}

/// What the pressure and counter folds read of a resident.
#[derive(Debug, Clone, Copy)]
struct Load {
    demand: ResourceDemand,
    mode: MemoryMode,
}

/// What the progress loop reads and writes of a resident. These differ
/// between residents that share everything else: `work_done_s` by
/// duration, the slowdown sum by which epochs the residency spanned.
#[derive(Debug, Clone, Copy)]
struct Progress {
    work_done_s: f64,
    slowdown_sum: f64,
    duration_s: f32,
    /// Index into `Testbed::kins`.
    kin: u32,
    /// Index into `Testbed::arrivals`.
    arrival: u32,
    /// Index into `Testbed::cold`.
    slot: u32,
}

/// A [`Kin`] with what the progress loop needs of it under the current
/// epoch's pressure; `slowdown` and `rate` are meaningful only while
/// [`Testbed`]'s epoch memo is valid.
#[derive(Debug, Clone, Copy)]
struct KinRate {
    kin: Kin,
    /// Whether progress is scaled by contention (BE) or wall-clock (LC
    /// services and micro-benchmarks run for a fixed duration).
    contended: bool,
    slowdown: f32,
    /// Work done per second: `1 / slowdown` if `contended`, else 1.
    rate: f64,
}

/// Index-stable, reference-counted entries. An entry whose last
/// reference leaves is the next one reused, so the table never holds
/// more entries than were referenced at once.
#[derive(Debug)]
struct Shared<T> {
    /// `(references, value)`; zero references marks a free entry.
    entries: Vec<(u32, T)>,
    free: Vec<u32>,
}

impl<T> Shared<T> {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value` under one reference.
    fn insert(&mut self, value: T) -> u32 {
        if let Some(at) = self.free.pop() {
            self.entries[at as usize] = (1, value);
            return at;
        }
        let at = u32::try_from(self.entries.len()).expect("fewer than 2^32 entries");
        self.entries.push((1, value));
        // Room to free every entry, so that `release` never allocates.
        self.free.reserve(self.entries.len());
        at
    }

    /// The entry with a holder whose value `is` what is looked for.
    fn find(&self, is: impl Fn(&T) -> bool) -> Option<u32> {
        let held = |(refs, value): &(u32, T)| *refs > 0 && is(value);
        self.entries.iter().position(held).map(|at| at as u32)
    }

    /// Takes one more reference to the live entry `at`.
    fn acquire(&mut self, at: u32) -> u32 {
        self.entries[at as usize].0 += 1;
        at
    }

    /// Drops one reference; whether it was the last.
    fn release(&mut self, at: u32) -> bool {
        let refs = &mut self.entries[at as usize].0;
        *refs -= 1;
        if *refs == 0 {
            self.free.push(at);
        }
        *refs == 0
    }

    /// The values that have a holder.
    fn live_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let live = self.entries.iter_mut().filter(|(refs, _)| *refs > 0);
        live.map(|(_, value)| value)
    }
}

impl<T> std::ops::Index<u32> for Shared<T> {
    type Output = T;

    fn index(&self, at: u32) -> &T {
        &self.entries[at as usize].1
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
    /// The Watcher sample generated for this step: the counters with
    /// this step's measurement noise when `sampled`, the noiseless
    /// counters otherwise. Only a sampled step's value is a
    /// measurement; an unsampled one is for nothing to read.
    pub sample: MetricSample,
    /// Whether the step computed its noise: `true` for
    /// [`Testbed::step`], `false` for [`Testbed::step_unsampled`].
    pub sampled: bool,
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
    /// The residents in strictly increasing id order — ids are issued in
    /// increasing order, so a deployment is a `push`, and every removal
    /// keeps the order — split by reader: `loads[i]` and `progress[i]`
    /// are the same resident.
    loads: Vec<Load>,
    progress: Vec<Progress>,
    /// What only admission, completion and the by-id readers touch, at
    /// `Progress::slot`: completions never move it.
    cold: Shared<Option<Deployment>>,
    /// Environment sums, one per arrival instant that still has a
    /// resident.
    arrivals: Shared<ArrivalEnv>,
    /// The entry of `arrivals` for `time_s`, once something arrived; it
    /// is held open by a reference of its own until the next step, so
    /// everything admitted at one `time_s` shares it whatever left in
    /// between.
    arriving: Option<u32>,
    /// One entry per distinct `(Kin, contended)` among the residents.
    kins: Shared<KinRate>,
    /// `(position, completion instant)` of the current step's
    /// completions, in id order; empty between steps.
    finished_at: Vec<(usize, f64)>,
    rng: Xoshiro256pp,
    link_bytes_total: f64,
    /// What a step derives from (resident set, `cfg.link`) alone, kept
    /// until either changes: `deploy_for`, `remove`, `set_link` and any
    /// completion drop it. While it is `Some`, every kin's `slowdown`
    /// and `rate` belong to it too.
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
            loads: Vec::new(),
            progress: Vec::new(),
            cold: Shared::new(),
            arrivals: Shared::new(),
            arriving: None,
            kins: Shared::new(),
            finished_at: Vec::new(),
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
        let kin = Kin::of(&profile, mode);
        let contended = profile.class() == WorkloadClass::BestEffort;
        let kin = match self.kins.find(|k| k.contended == contended && k.kin == kin) {
            Some(at) => self.kins.acquire(at),
            None => self.kins.insert(KinRate {
                kin,
                contended,
                slowdown: 0.0,
                rate: 0.0,
            }),
        };
        let arrival = match self.arriving {
            Some(open) => open,
            // Under the tick's own reference, given up at its step.
            None => *self
                .arriving
                .insert(self.arrivals.insert(ArrivalEnv::default())),
        };
        self.arrivals.acquire(arrival);
        self.loads.push(Load {
            demand: *profile.demand(),
            mode,
        });
        let slot = self.cold.insert(Some(Deployment {
            id,
            profile,
            mode,
            arrived_s: self.time_s,
            duration_s,
        }));
        self.progress.push(Progress {
            work_done_s: 0.0,
            slowdown_sum: 0.0,
            duration_s,
            kin,
            arrival,
            slot,
        });
        self.epoch = None;
        id
    }

    /// The cold record of the resident `p`.
    fn deployment_of(&self, p: &Progress) -> &Deployment {
        self.cold[p.slot]
            .as_ref()
            .expect("a resident's slot is full")
    }

    /// Position of `id` in the id-ordered resident store.
    fn position(&self, id: DeploymentId) -> Option<usize> {
        let id_of = |p: &Progress| self.deployment_of(p).id;
        self.progress.binary_search_by_key(&id, id_of).ok()
    }

    /// Gives back what `p`, already out of the id-ordered arrays, holds
    /// of the shared tables.
    fn retire(&mut self, p: &Progress) -> Deployment {
        self.kins.release(p.kin);
        self.arrivals.release(p.arrival);
        self.cold.release(p.slot);
        let slot = &mut self.cold.entries[p.slot as usize].1;
        slot.take().expect("a resident's slot is full")
    }

    /// Removes a deployment before completion; returns it if resident.
    /// Removing an id that is not resident changes nothing.
    pub fn remove(&mut self, id: DeploymentId) -> Option<Deployment> {
        let at = self.position(id)?;
        self.epoch = None;
        self.loads.remove(at);
        let p = self.progress.remove(at);
        Some(self.retire(&p))
    }

    /// Whether `id` is still resident.
    pub fn is_resident(&self, id: DeploymentId) -> bool {
        self.position(id).is_some()
    }

    /// Number of resident deployments.
    pub fn resident_count(&self) -> usize {
        self.progress.len()
    }

    /// Iterates over resident deployments in id order. Ids are strictly
    /// increasing along the iteration, and this order is what the
    /// simulation is defined over: the f32 pressure and counter sums add
    /// their terms in it, and a step reports its completions in it
    /// (which fixes the order downstream consumers draw random numbers
    /// in). The records yielded are the cold third of the store — what
    /// a step reads and writes every second is kept apart from them.
    pub fn resident(&self) -> impl Iterator<Item = &Deployment> + '_ {
        self.progress.iter().map(|p| self.deployment_of(p))
    }

    /// The resident admitted last: the latest [`Testbed::deploy_for`]'s
    /// until it leaves. The caller that moved a profile in reads it
    /// back here, at the end of the id-ordered store, with no search.
    pub fn latest(&self) -> Option<&Deployment> {
        self.progress.last().map(|p| self.deployment_of(p))
    }

    /// A deployment by id, if resident.
    pub fn deployment(&self, id: DeploymentId) -> Option<&Deployment> {
        self.position(id)
            .map(|at| self.deployment_of(&self.progress[at]))
    }

    /// Pressure and noiseless counters of the current resident set, in
    /// two passes over the load records: [`ResourcePressure::compute`]
    /// and [`counters::noiseless`] with their first passes taken
    /// together, each sum adding the terms it always did in id order.
    fn fold(&self) -> Epoch {
        let mut node = NodeDemand::default();
        let mut llc_loads = 0.0f32;
        for load in &self.loads {
            node.add(&load.demand);
            llc_loads += counters::llc_loads_of(&load.demand);
        }
        let placements = self.loads.iter().map(|load| (&load.demand, load.mode));
        let pressure = ResourcePressure::over_node_demand(&self.cfg, node, placements);
        Epoch {
            pressure,
            counters: counters::over_llc_loads(&self.cfg, llc_loads, &pressure),
        }
    }

    /// Starts the memo for the current resident set and link: the fold,
    /// and every live kin's slowdown and progress rate under its
    /// pressure.
    fn open_epoch(&mut self) -> Epoch {
        let epoch = self.fold();
        for k in self.kins.live_mut() {
            k.slowdown = k.kin.slowdown(&epoch.pressure);
            k.rate = if k.contended {
                1.0 / f64::from(k.slowdown)
            } else {
                1.0
            };
        }
        self.epoch = Some(epoch);
        epoch
    }

    /// Pressure snapshot for the current resident set.
    pub fn pressure(&self) -> ResourcePressure {
        self.epoch.unwrap_or_else(|| self.fold()).pressure
    }

    /// Instantaneous slowdown factor of a resident deployment.
    pub fn slowdown_of(&self, id: DeploymentId) -> Option<f32> {
        let kin = &self.kins[self.progress[self.position(id)?].kin];
        Some(if self.epoch.is_some() {
            kin.slowdown
        } else {
            kin.kin.slowdown(&self.pressure())
        })
    }

    /// Advances the simulation by one second.
    ///
    /// Computes the pressure for the current resident set, advances every
    /// deployment's progress, collects completions (with sub-second
    /// completion-time interpolation) and synthesizes the Watcher sample.
    /// Pressure, noiseless counters and one slowdown per kin are reused
    /// from the previous step while the resident set and link are what
    /// they were; the noise draws and every accumulator — per arrival
    /// instant for the environment, per resident for progress — still run
    /// once per second.
    pub fn step(&mut self) -> StepReport {
        self.advance(true)
    }

    /// [`Testbed::step`] for a second whose sample nothing reads: it
    /// draws the same noise words, so every later step is what it would
    /// have been, but computes no deviate, and reports the noiseless
    /// counters with `sampled` false. Everything else the report and
    /// the testbed hold is bit for bit what `step` gives.
    pub fn step_unsampled(&mut self) -> StepReport {
        self.advance(false)
    }

    fn advance(&mut self, sampled: bool) -> StepReport {
        let Epoch { pressure, counters } = match self.epoch {
            Some(epoch) => epoch,
            None => self.open_epoch(),
        };
        let measured = match counters::draw(&self.cfg, &mut self.rng) {
            Some(words) if sampled => counters::apply(&self.cfg, &counters, &words),
            _ => counters,
        };
        let sample = MetricSample::new(self.time_s + Self::STEP_S, measured);
        self.link_bytes_total += f64::from(pressure.link_delivered_gbps) * 1e9 / 8.0 * Self::STEP_S;
        // What arrives after this step starts its own sums.
        if let Some(open) = self.arriving.take() {
            self.arrivals.release(open);
        }
        for env in self.arrivals.live_mut() {
            env.push(&pressure);
        }

        let step_start = self.time_s;
        for (at, p) in self.progress.iter_mut().enumerate() {
            let KinRate { slowdown, rate, .. } = self.kins[p.kin];
            p.slowdown_sum += f64::from(slowdown);
            let before = p.work_done_s;
            p.work_done_s += rate * Self::STEP_S;
            // Done: the deployment leaves at the end of this step.
            if p.work_done_s >= f64::from(p.duration_s) {
                // Interpolate the in-step completion instant.
                let need = f64::from(p.duration_s) - before;
                let frac = if rate > 0.0 {
                    (need / rate).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                self.finished_at
                    .push((at, step_start + frac * Self::STEP_S));
            }
        }
        // A step that finishes nothing moves and allocates nothing.
        let finished = if self.finished_at.is_empty() {
            Vec::new()
        } else {
            self.take_finished()
        };
        self.time_s += Self::STEP_S;
        StepReport {
            time_s: self.time_s,
            sample,
            sampled,
            pressure,
            finished,
        }
    }

    /// Takes the residents listed in `finished_at` out of the store as
    /// the step's report, in one allocation, and compacts the two
    /// id-ordered arrays: the survivors between two completions move
    /// down in one piece.
    fn take_finished(&mut self) -> Vec<CompletedApp> {
        let (len, n) = (self.progress.len(), self.finished_at.len());
        let mut finished = Vec::with_capacity(n);
        for i in 0..n {
            let (at, finished_s) = self.finished_at[i];
            let next = self.finished_at.get(i + 1).map_or(len, |next| next.0);
            let p = self.progress[at];
            let env = self.arrivals[p.arrival];
            let d = self.retire(&p);
            finished.push(CompletedApp {
                id: d.id,
                mode: d.mode,
                arrived_s: d.arrived_s,
                finished_s,
                runtime_s: finished_s - d.arrived_s,
                mean_slowdown: (p.slowdown_sum / f64::from(env.steps)) as f32,
                average_env: env.average(d.mode),
                profile: d.profile,
            });
            // `i` residents before `at` have left, and now `at`.
            self.loads.copy_within(at + 1..next, at - i);
            self.progress.copy_within(at + 1..next, at - i);
        }
        self.loads.truncate(len - n);
        self.progress.truncate(len - n);
        self.finished_at.clear();
        self.epoch = None;
        finished
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
            self.progress.is_empty(),
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

    /// The two records a step streams over stay as small as what it
    /// reads of them; anything else a resident carries belongs in the
    /// cold `Deployment`.
    #[test]
    fn hot_records_stay_small() {
        assert!(std::mem::size_of::<Load>() <= 24);
        assert!(std::mem::size_of::<Progress>() <= 32);
    }

    /// A kin is what `slowdown` and the progress rate read, by bit
    /// pattern: equal fields share one whatever the name, and one
    /// differing bit, `stacking`, the class or the mode each make another.
    #[test]
    fn kin_is_keyed_on_what_slowdown_reads_not_on_the_name() {
        use adrias_workloads::Sensitivity;
        let build = |name: &'static str, class, llc_bits: u32, stacking| {
            let sensitivity = Sensitivity {
                llc: f32::from_bits(llc_bits),
                ..Sensitivity::default()
            };
            let builder = WorkloadProfile::builder(name, class).sensitivity(sensitivity);
            builder.stacking(stacking).build()
        };
        let (be, lc) = (WorkloadClass::BestEffort, WorkloadClass::LatencyCritical);
        let half = 0.5f32.to_bits();
        let mut tb = testbed();
        let mut kin_after = |profile: WorkloadProfile, mode| {
            let id = tb.deploy_for(profile, mode, 5.0);
            let at = tb.position(id).unwrap();
            (tb.progress[at].kin, tb.kins.entries.len())
        };
        let (local, remote) = (MemoryMode::Local, MemoryMode::Remote);
        // (profile, mode) → (its kin, kins in the table).
        for (profile, mode, want) in [
            (build("a", be, half, false), local, (0, 1)),
            (build("b", be, half, false), local, (0, 1)),
            (build("a", be, half ^ 1, false), local, (1, 2)),
            (build("a", be, half, true), local, (2, 3)),
            (build("a", lc, half, false), local, (3, 4)),
            (build("a", be, half, false), remote, (4, 5)),
            (build("c", lc, half, false), local, (3, 5)),
        ] {
            assert_eq!(kin_after(profile, mode), want);
        }
    }

    /// Neither shared table outgrows the resident count: an entry whose
    /// last holder left is the next one handed out, also within a tick.
    #[test]
    fn shared_entries_are_reused_once_their_last_holder_leaves() {
        let mut tb = testbed();
        let apps = spark::suite();
        for round in 0..50 {
            let id = tb.deploy_for(apps[round % apps.len()].clone(), MemoryMode::Remote, 2.0);
            assert!(tb.remove(id).is_some());
            if round % 3 == 0 {
                tb.step();
            }
        }
        let sizes = |tb: &Testbed| {
            let (cold, arrivals, kins) = (&tb.cold, &tb.arrivals, &tb.kins);
            [
                cold.entries.len(),
                arrivals.entries.len(),
                kins.entries.len(),
            ]
        };
        assert_eq!(sizes(&tb), [1, 1, 1]);
        // Four arrivals a second that stay 1–3 s: at most 12 resident,
        // from at most 3 instants, however long it goes on.
        for second in 0..200 {
            for i in 0..4 {
                let app = ibench::all_profiles()[(second + i) % 4].clone();
                tb.deploy_for(app, MemoryMode::Local, 1.0 + ((second + i) % 3) as f32);
            }
            tb.step();
            assert!(tb.resident_count() <= 12);
        }
        let within = sizes(&tb)
            .iter()
            .zip([12, 3, 4])
            .all(|(&len, most)| len <= most);
        assert!(within, "{:?}", sizes(&tb));
    }

    /// An unsampled step draws what a sampled one does: a testbed that
    /// skips the deviates of every third step reports every other step
    /// bit for bit as one that measures them all, and a skipped step
    /// differs only in its sample — the noiseless counters, which a
    /// testbed without noise reports — and its flag.
    #[test]
    fn unsampled_steps_leave_every_later_sample_where_it_was() {
        let noisy = TestbedConfig::paper();
        let clean_cfg = TestbedConfig {
            noise_rel_std: 0.0,
            ..noisy
        };
        let mut measured = Testbed::new(noisy, 5);
        let mut skipping = Testbed::new(noisy, 5);
        let mut clean = Testbed::new(clean_cfg, 5);
        let apps = spark::suite();
        for second in 0..600 {
            if second % 41 == 0 {
                let app = &apps[second % apps.len()];
                let mode = MemoryMode::BOTH[second % 2];
                for tb in [&mut measured, &mut skipping, &mut clean] {
                    tb.deploy_for(app.clone(), mode, 30.0 + (second % 90) as f32);
                }
            }
            let want = measured.step();
            let noiseless = clean.step().sample;
            let got = if second % 3 == 0 {
                skipping.step_unsampled()
            } else {
                skipping.step()
            };
            assert_eq!(got.sampled, second % 3 != 0);
            let sample = if got.sampled { want.sample } else { noiseless };
            let bits = |s: &MetricSample| s.vec().as_array().map(f32::to_bits);
            assert_eq!(bits(&got.sample), bits(&sample));
            let rest = |r: &StepReport| format!("{:?}", (r.time_s, r.pressure, &r.finished));
            assert_eq!(rest(&got), rest(&want));
        }
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
