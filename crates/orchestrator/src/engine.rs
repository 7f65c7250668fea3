//! The deployment engine: drives an arrival stream against the testbed
//! under a policy and records everything the evaluation needs.
//! [`run_stream_hooked`] is the only way to run it.

use adrias_core::rng::SeedableRng;
use adrias_core::rng::Xoshiro256pp;
use adrias_core::Name;

use adrias_sim::{DeploymentId, LinkConfig, StepReport, Testbed, TestbedConfig};
use adrias_telemetry::{MetricSample, MetricVec, Watcher, WindowStamp};
use adrias_workloads::keyvalue::tail_latency;
use adrias_workloads::{LoadSpec, MemoryMode, WorkloadClass, WorkloadProfile};

use crate::event::{EventHeap, EventKind};
use crate::policy::{DecisionContext, ExplainedDecision, Policy};

/// One entry of an arrival schedule.
#[derive(Debug, Clone)]
pub struct ScheduledArrival {
    /// Arrival time, seconds from scenario start.
    pub at_s: f64,
    /// The workload to deploy.
    pub profile: WorkloadProfile,
    /// Residency override (used for open-ended iBench stressors);
    /// `None` uses the profile's nominal duration.
    pub duration_s: Option<f32>,
    /// When set, bypasses the policy (random placement during trace
    /// collection; interference stressors in orchestration runs).
    pub forced_mode: Option<MemoryMode>,
}

impl ScheduledArrival {
    /// A policy-decided arrival with the profile's nominal duration.
    pub fn new(at_s: f64, profile: WorkloadProfile) -> Self {
        Self {
            at_s,
            profile,
            duration_s: None,
            forced_mode: None,
        }
    }

    /// Forces the memory mode, bypassing the policy.
    pub fn with_mode(mut self, mode: MemoryMode) -> Self {
        self.forced_mode = Some(mode);
        self
    }

    /// Overrides the residency duration.
    pub fn with_duration(mut self, duration_s: f32) -> Self {
        self.duration_s = Some(duration_s);
        self
    }
}

/// One link-degradation fault: at `at_s` the testbed's ThymesisFlow
/// channel parameters are replaced wholesale with `link`.
///
/// A schedule of these models the failure modes catalogued for
/// disaggregated fabrics — latency spikes (`base_latency_cycles` up),
/// throughput collapse (`effective_cap_gbps` down), and link flapping
/// (alternating degraded/healthy entries). Restoring the original
/// `LinkConfig` in a later event heals the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Sim time at which the fault takes effect, seconds.
    pub at_s: f64,
    /// The link parameters in force from `at_s` onward.
    pub link: LinkConfig,
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Watcher history window handed to policies, seconds: a decision
    /// at tick `T` sees the samples of the steps taken at ticks
    /// `T − history_window_s … T − 1`, once that many are recorded, and
    /// no window before then. `0` means no window at all: every
    /// decision sees `None` and takes its warm-up rule.
    pub history_window_s: usize,
    /// After the last arrival, keep stepping until every deployment
    /// finishes, at most this many extra seconds.
    pub max_drain_s: f64,
    /// Requests sampled per LC measurement when computing tail latency.
    pub lc_latency_samples: usize,
    /// Active p99 QoS constraint handed to policies, milliseconds.
    pub qos_p99_ms: Option<f32>,
    /// RNG seed for LC latency sampling.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            history_window_s: 120,
            max_drain_s: 2400.0,
            lc_latency_samples: 8000,
            qos_p99_ms: None,
            seed: 7,
        }
    }
}

/// Outcome of one finished application.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Workload name (the profile's handle).
    pub name: Name,
    /// Workload class.
    pub class: WorkloadClass,
    /// Mode it ran in.
    pub mode: MemoryMode,
    /// Whether the mode came from the policy (vs forced).
    pub policy_decided: bool,
    /// Arrival time, seconds.
    pub arrived_s: f64,
    /// Completion time, seconds.
    pub finished_s: f64,
    /// Wall-clock runtime, seconds (the BE performance metric).
    pub runtime_s: f64,
    /// Mean slowdown experienced.
    pub mean_slowdown: f32,
    /// p99 response time, ms (LC only).
    pub p99_ms: Option<f32>,
    /// p99.9 response time, ms (LC only).
    pub p999_ms: Option<f32>,
    /// Time to serve the configured load, seconds (LC only).
    pub lc_total_time_s: Option<f32>,
}

/// What one engine run produced: its outcomes and totals. Nothing in
/// it grows with simulated time; the 1 Hz metric trace is kept only by
/// an attached [`crate::Trace`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the policy that ran.
    pub policy: Name,
    /// Finished applications in completion order.
    pub outcomes: Vec<AppOutcome>,
    /// Total bytes moved over the ThymesisFlow link.
    pub link_bytes: f64,
    /// Final simulation time, seconds.
    pub end_time_s: f64,
    /// Arrivals that never completed within the drain budget.
    pub unfinished: usize,
}

impl RunReport {
    /// Outcomes of policy-decided applications of one class.
    pub fn decided_of_class(&self, class: WorkloadClass) -> impl Iterator<Item = &AppOutcome> {
        self.outcomes
            .iter()
            .filter(move |o| o.class == class && o.policy_decided)
    }

    /// `(local, remote)` placement counts over policy-decided apps.
    pub fn placement_counts(&self) -> (usize, usize) {
        let mut local = 0;
        let mut remote = 0;
        for o in self.outcomes.iter().filter(|o| o.policy_decided) {
            match o.mode {
                MemoryMode::Local => local += 1,
                MemoryMode::Remote => remote += 1,
            }
        }
        (local, remote)
    }

    /// Fraction of policy-decided apps placed on remote memory.
    pub fn offload_fraction(&self) -> f32 {
        let (local, remote) = self.placement_counts();
        let total = local + remote;
        if total == 0 {
            0.0
        } else {
            remote as f32 / total as f32
        }
    }
}

/// Hooks the engine invokes while driving a run.
///
/// [`run_stream_hooked`] is generic over the observer and every hook
/// defaults to an empty inlined method, so a run under `()` compiles to
/// the bare loop — tracing costs nothing unless an observer is
/// attached. Observers compose: a pair `(A, B)` is an observer that
/// hands every hook to `A` then `B`, and `&mut T` observes for `T`, so
/// each concern stays one small impl and
/// `(&mut tracker, ObservedRun::with_qos(obs, qos))` rides one run.
pub trait EngineObserver {
    /// Called once per placement (policy-decided *and* forced), right
    /// after the deployment id is assigned.
    fn on_decision(
        &mut self,
        at_s: f64,
        id: DeploymentId,
        profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        decision: &ExplainedDecision,
        policy_name: &str,
    ) {
        let _ = (at_s, id, profile, history, decision, policy_name);
    }

    /// Called once per simulated second with the testbed's step report.
    /// Its `sample` is a measurement only where
    /// [`EngineObserver::reads_samples`] holds.
    fn on_step(&mut self, report: &StepReport) {
        let _ = report;
    }

    /// Whether [`EngineObserver::on_step`] reads a report's `sample`.
    /// `true` by default: every second is then measured. An observer
    /// that returns `false` promises not to, and the engine then skips
    /// the noise deviates of every second no decision can read
    /// ([`run_stream_hooked`] states the rule); those reports carry
    /// `sampled: false` and the noiseless counters. The `history` handed
    /// to [`EngineObserver::on_decision`] is what the decision read, so
    /// it is always measured, and nothing else a hook sees changes, nor
    /// any bit of the run.
    fn reads_samples(&self) -> bool {
        true
    }

    /// Called when an application finishes, with its full outcome.
    fn on_complete(&mut self, id: DeploymentId, outcome: &AppOutcome) {
        let _ = (id, outcome);
    }

    /// Called once after the run, with the final report and the time of
    /// the last scheduled arrival (for drain-time accounting).
    fn on_run_end(&mut self, report: &RunReport, last_arrival_s: f64) {
        let _ = (report, last_arrival_s);
    }

    /// Called once per admission, right after
    /// [`EngineObserver::on_decision`], with the causal-lifecycle
    /// coordinates: the raw arrival instant, the admitting watcher tick
    /// (`decided_s`), and the decision lane — `"fast"`, `"direct"`, or
    /// `"forced"` for arrivals that bypass the policy.
    fn on_admitted(
        &mut self,
        id: DeploymentId,
        arrived_s: f64,
        decided_s: f64,
        profile: &WorkloadProfile,
        decision: &ExplainedDecision,
        lane: &'static str,
    ) {
        let _ = (id, arrived_s, decided_s, profile, decision, lane);
    }

    /// Called when a link fault takes effect, with its effective tick.
    fn on_fault(&mut self, at_s: f64) {
        let _ = at_s;
    }

    /// Called when the drain deadline expires, ending the run with
    /// admitted work still resident.
    fn on_deadline(&mut self, at_s: f64) {
        let _ = at_s;
    }

    /// Called once at run start with the arrival stream's source label
    /// ([`ArrivalStream::source_label`]).
    fn on_stream(&mut self, label: &'static str) {
        let _ = label;
    }

    /// `true` when the observer wants host wall-clock self-profiling.
    /// The engine then times its phases (heap push/pop, policy decide,
    /// model forward, watcher sampling) and reports them through
    /// [`EngineObserver::on_wall`]. Defaults to off, so the unprofiled
    /// loop never touches the host clock.
    fn wall_profiling(&self) -> bool {
        false
    }

    /// Receives accumulated wall nanoseconds for one engine phase,
    /// identified by a collapsed-stack label (`"engine;heap;push"`,
    /// `"engine;decide;fast"`, ...). Only called when
    /// [`EngineObserver::wall_profiling`] returns `true`.
    fn on_wall(&mut self, label: &str, ns: u64) {
        let _ = (label, ns);
    }
}

/// The no-op observer: every hook is an empty default method, and it
/// reads no sample.
impl EngineObserver for () {
    fn reads_samples(&self) -> bool {
        false
    }
}

/// Every [`EngineObserver`] hook, handed to each of `$part` in order.
/// Wall profiling is on when any part asks for it, and `on_wall`
/// reaches only the parts that asked; samples are read when any part
/// reads them.
macro_rules! forward_hooks {
    ($self:ident => $($part:expr),+) => {
        fn on_decision(
            &mut $self,
            at_s: f64,
            id: DeploymentId,
            profile: &WorkloadProfile,
            history: Option<&[MetricVec]>,
            decision: &ExplainedDecision,
            policy_name: &str,
        ) {
            $($part.on_decision(at_s, id, profile, history, decision, policy_name);)+
        }

        fn on_step(&mut $self, report: &StepReport) {
            $($part.on_step(report);)+
        }

        fn reads_samples(&$self) -> bool {
            false $(|| $part.reads_samples())+
        }

        fn on_complete(&mut $self, id: DeploymentId, outcome: &AppOutcome) {
            $($part.on_complete(id, outcome);)+
        }

        fn on_run_end(&mut $self, report: &RunReport, last_arrival_s: f64) {
            $($part.on_run_end(report, last_arrival_s);)+
        }

        fn on_admitted(
            &mut $self,
            id: DeploymentId,
            arrived_s: f64,
            decided_s: f64,
            profile: &WorkloadProfile,
            decision: &ExplainedDecision,
            lane: &'static str,
        ) {
            $($part.on_admitted(id, arrived_s, decided_s, profile, decision, lane);)+
        }

        fn on_fault(&mut $self, at_s: f64) {
            $($part.on_fault(at_s);)+
        }

        fn on_deadline(&mut $self, at_s: f64) {
            $($part.on_deadline(at_s);)+
        }

        fn on_stream(&mut $self, label: &'static str) {
            $($part.on_stream(label);)+
        }

        fn wall_profiling(&$self) -> bool {
            false $(|| $part.wall_profiling())+
        }

        fn on_wall(&mut $self, label: &str, ns: u64) {
            $(if $part.wall_profiling() {
                $part.on_wall(label, ns);
            })+
        }
    };
}

impl<A: EngineObserver, B: EngineObserver> EngineObserver for (A, B) {
    forward_hooks!(self => self.0, self.1);
}

impl<T: EngineObserver + ?Sized> EngineObserver for &mut T {
    forward_hooks!(self => (**self));
}

/// The load specification used to measure a store's tail latency,
/// mirroring the paper: 10 k requests/client for Redis, 40 k for
/// Memcached (≈30 k and ≈100 k ops/s respectively).
pub fn lc_load_spec(profile: &WorkloadProfile) -> LoadSpec {
    match profile.name() {
        "memcached" => LoadSpec::paper_default(40_000),
        _ => LoadSpec::paper_default(10_000),
    }
}

/// A pull-based stream of arrivals consumed by the event engine, so a
/// million-arrival run never materialises its schedule: the engine
/// holds at most a handful of future arrivals in its heap and pulls
/// the next one on demand.
///
/// [`ScheduleStream`] adapts a pre-built `&[ScheduledArrival]` slice
/// onto this trait; [`GeneratedStream`] adapts any
/// [`adrias_workloads::ArrivalSource`] (Poisson, diurnal, MMPP, trace
/// replay, closed-loop think time).
pub trait ArrivalStream {
    /// Pulls the next arrival. `None` means nothing is available right
    /// now, which is final iff [`ArrivalStream::is_exhausted`] also
    /// holds (a closed-loop source with every client in flight returns
    /// `None` transiently).
    fn next_arrival(&mut self) -> Option<ScheduledArrival>;

    /// Completion feedback at `finished_s`. Returns `true` when the
    /// completion made a new arrival available (closed-loop sources);
    /// open-loop streams ignore it.
    fn on_complete(&mut self, finished_s: f64) -> bool {
        let _ = finished_s;
        false
    }

    /// Whether [`ArrivalStream::on_complete`] can ever return `true`.
    /// `false` by default, like `on_complete`'s own default: the stream
    /// promises that arrivals come only from pulls, so a busy node's
    /// seconds long before the next arrival are read by no decision.
    /// [`run_stream_hooked`] panics when a stream that declared `false`
    /// admits an arrival on a completion. Closed-loop streams return
    /// `true`.
    fn admits_on_complete(&self) -> bool {
        false
    }

    /// `true` once no further arrival can ever be produced.
    fn is_exhausted(&self) -> bool;

    /// The instant of the final arrival when it is known upfront
    /// (pre-built schedules), anchoring the drain deadline. `None` for
    /// generated streams — the engine then extends the deadline from
    /// the last pulled arrival.
    fn final_arrival_hint(&self) -> Option<f64> {
        None
    }

    /// Discards every remaining arrival and returns how many there
    /// were — drain-deadline accounting for [`RunReport::unfinished`].
    fn drain_remaining(&mut self) -> usize;

    /// Short static label naming where this traffic came from, recorded
    /// on the engine's run span. Pre-built schedule slices report
    /// `"schedule"`; generated streams forward their source's
    /// [`adrias_workloads::ArrivalSource::label`].
    fn source_label(&self) -> &'static str {
        "schedule"
    }
}

/// [`ArrivalStream`] over a pre-built sorted schedule slice.
pub struct ScheduleStream<'a> {
    arrivals: &'a [ScheduledArrival],
    next: usize,
}

impl<'a> ScheduleStream<'a> {
    /// Wraps `arrivals`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by time.
    pub fn new(arrivals: &'a [ScheduledArrival]) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0].at_s <= w[1].at_s),
            "arrivals must be sorted by time"
        );
        Self { arrivals, next: 0 }
    }
}

impl ArrivalStream for ScheduleStream<'_> {
    fn next_arrival(&mut self) -> Option<ScheduledArrival> {
        let a = self.arrivals.get(self.next)?.clone();
        self.next += 1;
        Some(a)
    }

    fn is_exhausted(&self) -> bool {
        self.next == self.arrivals.len()
    }

    fn final_arrival_hint(&self) -> Option<f64> {
        // `map_or(0.0, ..)` anchors an empty schedule's drain deadline
        // at t = 0.
        Some(self.arrivals.last().map_or(0.0, |a| a.at_s))
    }

    fn drain_remaining(&mut self) -> usize {
        let n = self.arrivals.len() - self.next;
        self.next = self.arrivals.len();
        n
    }
}

/// [`ArrivalStream`] over an [`adrias_workloads::ArrivalSource`]: each
/// emitted instant is turned into a [`ScheduledArrival`] by the
/// `spawn` factory, which receives the submission index and instant
/// (the factory's `at_s` is overwritten with the source's instant).
pub struct GeneratedStream<S, F> {
    source: S,
    spawn: F,
    issued: u64,
}

impl<S, F> GeneratedStream<S, F>
where
    S: adrias_workloads::ArrivalSource,
    F: FnMut(u64, f64) -> ScheduledArrival,
{
    /// Couples `source` with the arrival factory `spawn`.
    pub fn new(source: S, spawn: F) -> Self {
        Self {
            source,
            spawn,
            issued: 0,
        }
    }

    /// Total arrivals issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl<S, F> ArrivalStream for GeneratedStream<S, F>
where
    S: adrias_workloads::ArrivalSource,
    F: FnMut(u64, f64) -> ScheduledArrival,
{
    fn next_arrival(&mut self) -> Option<ScheduledArrival> {
        let t = self.source.next_time()?;
        let idx = self.issued;
        self.issued += 1;
        let mut a = (self.spawn)(idx, t);
        a.at_s = t;
        Some(a)
    }

    fn on_complete(&mut self, finished_s: f64) -> bool {
        self.source.on_complete(finished_s)
    }

    fn admits_on_complete(&self) -> bool {
        self.source.admits_on_complete()
    }

    fn is_exhausted(&self) -> bool {
        self.source.exhausted()
    }

    fn drain_remaining(&mut self) -> usize {
        let mut n = 0;
        while self.source.next_time().is_some() {
            n += 1;
        }
        n
    }

    fn source_label(&self) -> &'static str {
        self.source.label()
    }
}

/// Converts a testbed completion into an [`AppOutcome`], measuring LC
/// tail latency from `lc_rng`.
fn completed_outcome(
    done: adrias_sim::CompletedApp,
    policy_decided: bool,
    engine_cfg: &EngineConfig,
    lc_rng: &mut Xoshiro256pp,
) -> AppOutcome {
    let profile = &done.profile;
    let (p99, p999, total) = if profile.is_latency_critical() {
        let spec = lc_load_spec(profile);
        let tl = tail_latency(
            profile,
            &spec,
            &done.average_env,
            engine_cfg.lc_latency_samples,
            lc_rng,
        );
        (Some(tl.p99_ms), Some(tl.p999_ms), Some(tl.total_time_s))
    } else {
        (None, None, None)
    };
    AppOutcome {
        name: profile.name_handle().clone(),
        class: profile.class(),
        mode: done.mode,
        policy_decided,
        arrived_s: done.arrived_s,
        finished_s: done.finished_s,
        runtime_s: done.runtime_s,
        mean_slowdown: done.mean_slowdown,
        p99_ms: p99,
        p999_ms: p999,
        lc_total_time_s: total,
    }
}

/// Event payload for the discrete-event engine core.
enum EventPayload {
    /// Admit this arrival at the event's tick.
    Arrival(ScheduledArrival),
    /// Replace the link parameters.
    Fault(LinkConfig),
    /// The 1 Hz watcher tick: step the testbed, sample, decide whether
    /// to continue.
    Sample,
    /// Fold the oldest queued testbed completion into the report. The
    /// record waits in a FIFO beside the heap: finish events of one
    /// tick pop in push order before anything later, and carrying the
    /// record in the payload would grow every event the heap moves.
    Finish,
    /// The drain budget expired; account for undelivered arrivals.
    Deadline,
}

/// Runs the engine: drives `stream` on a fresh testbed under `policy`,
/// applying `faults` and reporting to `obs`.
///
/// This is the only run function. A pre-built schedule is a
/// [`ScheduleStream`], an un-faulted run passes `&[]`, an unobserved one
/// `&mut ()`, an observed one [`crate::ObservedRun::with_qos`], and
/// observers that ride together go in as a tuple.
///
/// Events pop in `(time, kind-rank, seq)` order from a deterministic
/// heap, which is the whole ordering contract: per instant the rank
/// admits arrivals first (consulting the policy unless the arrival
/// forces a mode), applies faults second, then takes the 1 Hz watcher
/// sample (which steps the testbed and feeds the Watcher), folds
/// completions in after the sample that surfaced them — LC completions
/// get their tail latency measured from the contention environment
/// averaged over their residency — and judges the drain deadline last;
/// `seq` keeps same-rank events in push order. Same-seed runs are
/// therefore bit-identical regardless of worker count or host. A tick
/// that would be the very next pop is taken in place instead of being
/// pushed and popped, which no handler and no hook can tell apart.
///
/// A fault takes effect at the first watcher tick at or after its
/// `at_s`. Arrivals are pulled lazily: at most one future open-loop
/// arrival lives in the heap (plus at most one per closed-loop
/// completion), so heap occupancy is O(residents), not O(arrivals).
/// The run keeps nothing per simulated second: the Watcher ring is
/// O(window), the outcomes and the `decided` flags O(arrivals). A
/// caller that wants the 1 Hz trace attaches a [`crate::Trace`].
///
/// A second's sample is measured only where something can read it. The
/// step at tick `k` is taken unsampled ([`Testbed::step_unsampled`]:
/// the same noise words drawn, no deviate computed) when all of these
/// hold, and measured otherwise:
///
/// * `obs` reads no sample ([`EngineObserver::reads_samples`]);
/// * no decision can read it. A decision at tick `T` pops before the
///   watcher tick at `T` (arrivals rank first), so its window holds the
///   steps at `T − window … T − 1`, and step `k` is in it iff
///   `k + window ≥ T`. Step `k` is therefore unread when the one
///   arrival in the heap is due at `T` with `k + window < T`, or when
///   none is;
/// * no arrival can appear before that `T` other than by a pull after
///   an arrival: the node is idle (so no completion comes before the
///   next admission), or the stream cannot admit on a completion
///   ([`ArrivalStream::admits_on_complete`]).
///
/// Every later arrival of such a stream is due at or after `T`, and
/// every step a decision reads was measured as it would have been with
/// every second measured, so the report is bit for bit the same either
/// way.
///
/// The run ends at a watcher tick (natural idle or drain deadline).
/// From then on the `stopped` flag lets pending arrival and fault
/// events drain without effect (arrivals count as unfinished), while
/// completions surfaced by the final step are still folded in.
///
/// # Panics
///
/// Panics if `faults` is not sorted by time.
pub fn run_stream_hooked<O: EngineObserver>(
    testbed_cfg: TestbedConfig,
    engine_cfg: EngineConfig,
    stream: &mut dyn ArrivalStream,
    faults: &[FaultEvent],
    policy: &mut dyn Policy,
    obs: &mut O,
) -> RunReport {
    assert!(
        faults.windows(2).all(|w| w[0].at_s <= w[1].at_s),
        "faults must be sorted by time"
    );
    let mut testbed = Testbed::new(testbed_cfg, engine_cfg.seed);
    let mut watcher = Watcher::new(engine_cfg.history_window_s.max(1));
    let mut lc_rng = Xoshiro256pp::seed_from_u64(engine_cfg.seed ^ 0x1C);
    let mut outcomes = Vec::new();
    let mut history_buf: Vec<MetricVec> = Vec::with_capacity(engine_cfg.history_window_s);
    // The Watcher stamp `history_buf` was filled at.
    let mut filled_at: Option<WindowStamp> = None;
    // Whether the policy placed deployment `id.index()`: the testbed
    // numbers deployments densely from 0 in admission order.
    let mut decided: Vec<bool> = Vec::new();
    let mut finishing: std::collections::VecDeque<adrias_sim::CompletedApp> = Default::default();

    let final_hint = stream.final_arrival_hint();
    let mut pulled = Pulled::default();
    let mut skipped = 0usize;
    let mut drained = 0usize;
    let mut stopped = false;

    let profiling = obs.wall_profiling();
    let reads_samples = obs.reads_samples();
    let admits_on_complete = stream.admits_on_complete();
    let window_s = engine_cfg.history_window_s as f64;
    policy.set_wall_profiling(profiling);
    // Fixed for the run, so asked once rather than per arrival.
    let policy_name: Name = policy.name().to_owned().into();
    let policy_lane = policy.lane();
    let decide_frame = format!("engine;decide;{policy_lane}");
    obs.on_stream(stream.source_label());
    let mut sample_wall_ns = 0u64;

    let mut heap: EventHeap<EventPayload> = EventHeap::new();
    if profiling {
        heap.enable_wall_profiling();
    }
    for f in faults {
        // Effective tick: the first watcher instant with `at_s <= t`,
        // i.e. ceil — same-tick faults keep slice order via seq, so the
        // last one wins.
        heap.push(
            f.at_s.ceil(),
            EventKind::FaultApply,
            EventPayload::Fault(f.link),
        );
    }
    pulled.pull(&mut heap, stream, 0.0);
    heap.push(0.0, EventKind::WatcherSample, EventPayload::Sample);

    heap.run_until_idle(|heap, ev| match ev.payload {
        EventPayload::Arrival(arrival) => {
            pulled.in_heap -= 1;
            if stopped {
                skipped += 1;
            } else {
                // Consult the policy (or the forced mode), deploy at the
                // current testbed instant, and record the placement.
                let now = testbed.time_s();
                // The window moves once a second, arrivals come in
                // bursts: copy it only when its stamp moved.
                let stamp = watcher.window_stamp(engine_cfg.history_window_s);
                if stamp.is_some() && stamp != filled_at {
                    filled_at = watcher.history_fill(engine_cfg.history_window_s, &mut history_buf);
                }
                let history: Option<&[MetricVec]> = stamp.map(|_| history_buf.as_slice());
                let profile = &arrival.profile;
                let t0 = profiling.then(std::time::Instant::now);
                let (decision, lane, frame) = match arrival.forced_mode {
                    Some(mode) => (
                        ExplainedDecision {
                            rule: adrias_obs::DecisionRule::Forced,
                            ..ExplainedDecision::bare(mode)
                        },
                        "forced",
                        "engine;decide;forced",
                    ),
                    None => {
                        let ctx = DecisionContext {
                            profile,
                            history,
                            qos_p99_ms: engine_cfg.qos_p99_ms,
                            stamp,
                        };
                        let decision = policy.decide_explained(&ctx);
                        (decision, policy_lane, decide_frame.as_str())
                    }
                };
                if let Some(t0) = t0 {
                    // Split decide time into the model forward (reported
                    // by the policy) and everything around it,
                    // collapsed-stack style.
                    let total = t0.elapsed().as_nanos() as u64;
                    let forward = policy.take_forward_wall_ns();
                    obs.on_wall(frame, total.saturating_sub(forward));
                    if forward > 0 {
                        obs.on_wall("engine;decide;forward", forward);
                    }
                }
                let duration = arrival.duration_s.unwrap_or(profile.base_runtime_s());
                // The arrival is ours: its profile moves into the
                // testbed, and the hooks read it back from there.
                let id = testbed.deploy_for(arrival.profile, decision.mode, duration);
                let profile = testbed.latest().expect("just deployed").profile();
                obs.on_decision(now, id, profile, history, &decision, &policy_name);
                obs.on_admitted(id, arrival.at_s, now, profile, &decision, lane);
                debug_assert_eq!(id.index() as usize, decided.len());
                decided.push(arrival.forced_mode.is_none());
            }
            // Open-loop pull-ahead: keep exactly one future arrival in
            // the heap.
            if !stopped && pulled.in_heap == 0 {
                pulled.pull(heap, stream, testbed.time_s());
            }
        }
        EventPayload::Fault(link) => {
            if !stopped {
                testbed.set_link(link);
                obs.on_fault(ev.time_s);
            }
        }
        EventPayload::Sample => {
            // Ticks are taken in place for as long as the next one would
            // be the next event to pop anyway — nothing in the heap due
            // at or before it, which a `Finish` pushed below always is —
            // so a quiet second costs no heap round trip.
            let mut tick_s = ev.time_s;
            loop {
                let t0 = profiling.then(std::time::Instant::now);
                let unread = !reads_samples
                    && (!admits_on_complete || testbed.resident_count() == 0)
                    && pulled.unread(tick_s, window_s);
                let report = if unread {
                    testbed.step_unsampled()
                } else {
                    testbed.step()
                };
                watcher.record(report.sample);
                if let Some(t0) = t0 {
                    sample_wall_ns += t0.elapsed().as_nanos() as u64;
                }
                obs.on_step(&report);
                // Completions pop at this tick's own instant (rank
                // orders them after the sample, before the next tick's
                // arrivals), in report order, which fixes the lc_rng
                // consumption order.
                for done in report.finished {
                    finishing.push_back(done);
                    heap.push(tick_s, EventKind::DeploymentFinish, EventPayload::Finish);
                }
                tick_s = testbed.time_s();
                let pending = pulled.in_heap > 0 || !stream.is_exhausted();
                let deadline_s = final_hint.unwrap_or(pulled.last_s) + engine_cfg.max_drain_s;
                if !pending && testbed.resident_count() == 0 {
                    stopped = true; // natural idle: the heap drains out
                    break;
                } else if tick_s >= deadline_s {
                    stopped = true;
                    heap.push(tick_s, EventKind::DrainDeadline, EventPayload::Deadline);
                    break;
                } else if heap.peek().is_some_and(|(due_s, _)| due_s <= tick_s) {
                    heap.push(tick_s, EventKind::WatcherSample, EventPayload::Sample);
                    break;
                }
            }
        }
        EventPayload::Finish => {
            // Always folded in, even after the stop tick: the final
            // step's completions are processed before the run ends.
            let done = finishing
                .pop_front()
                .expect("a completion per finish event");
            let id = done.id;
            let finished_s = done.finished_s;
            let policy_decided = decided[id.index() as usize];
            let outcome = completed_outcome(done, policy_decided, &engine_cfg, &mut lc_rng);
            obs.on_complete(id, &outcome);
            outcomes.push(outcome);
            let admitted = stream.on_complete(finished_s);
            assert!(
                admits_on_complete || !admitted,
                "an arrival stream admitted on a completion after declaring it cannot \
                 (ArrivalStream::admits_on_complete is false)"
            );
            if admitted && !stopped {
                // A closed-loop client became ready; admit it. Bounded
                // by the client count, so heap occupancy stays small.
                pulled.pull(heap, stream, testbed.time_s());
            }
        }
        EventPayload::Deadline => {
            obs.on_deadline(ev.time_s);
            drained = stream.drain_remaining();
        }
    });

    if profiling {
        let (push_ns, pop_ns) = heap.wall_ns();
        obs.on_wall("engine;heap;push", push_ns);
        obs.on_wall("engine;heap;pop", pop_ns);
        obs.on_wall("engine;sample", sample_wall_ns);
    }

    let report = RunReport {
        policy: policy_name,
        outcomes,
        link_bytes: testbed.link_bytes_total(),
        end_time_s: testbed.time_s(),
        unfinished: testbed.resident_count() + skipped + drained,
    };
    obs.on_run_end(&report, final_hint.unwrap_or(pulled.last_s));
    report
}

/// The arrivals a run has pulled from its stream.
#[derive(Debug, Default)]
struct Pulled {
    /// Arrival events in the heap.
    in_heap: usize,
    /// The latest `at_s` pulled: the drain deadline's anchor when the
    /// stream gives no final hint.
    last_s: f64,
    /// The latest tick an arrival was pushed at. Arrivals in the heap
    /// are due at or after the current tick and popped ones were due at
    /// or before it, so while one is in the heap this is its tick.
    last_tick_s: f64,
}

impl Pulled {
    /// Pulls one arrival from `stream` into the heap. The event tick is
    /// `ceil(at_s)` — the first watcher instant with `at_s <= tick` —
    /// clamped to `floor_s` so closed-loop submissions scheduled behind
    /// the post-step clock (a completion at `t + 0.4` thinking for less
    /// than the step remainder) land on the current tick rather than in
    /// the past.
    fn pull(
        &mut self,
        heap: &mut EventHeap<EventPayload>,
        stream: &mut dyn ArrivalStream,
        floor_s: f64,
    ) {
        if let Some(a) = stream.next_arrival() {
            self.last_s = self.last_s.max(a.at_s);
            let tick = a.at_s.ceil().max(floor_s);
            self.last_tick_s = self.last_tick_s.max(tick);
            heap.push(tick, EventKind::Arrival, EventPayload::Arrival(a));
            self.in_heap += 1;
        }
    }

    /// Whether no arrival in the heap can read the step at `tick_s`
    /// through a `window_s` history: none is there, or the one that is
    /// comes more than `window_s` after it.
    fn unread(&self, tick_s: f64, window_s: f64) -> bool {
        match self.in_heap {
            0 => true,
            1 => tick_s + window_s < self.last_tick_s,
            _ => false,
        }
    }
}

/// Runs `profile` isolated on an empty testbed in `mode` and returns its
/// outcome paired with the metric trace — the signature-capture primitive
/// and the Figs. 3–4 isolation experiment.
pub fn run_isolated(
    testbed_cfg: TestbedConfig,
    engine_cfg: EngineConfig,
    profile: WorkloadProfile,
    mode: MemoryMode,
) -> (AppOutcome, Vec<MetricSample>) {
    let mut testbed = Testbed::new(testbed_cfg, engine_cfg.seed);
    let mut lc_rng = Xoshiro256pp::seed_from_u64(engine_cfg.seed ^ 0x150);
    let (done, trace) = testbed.run_isolated(profile, mode);
    let outcome = completed_outcome(done, false, &engine_cfg, &mut lc_rng);
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{AllLocalPolicy, AllRemotePolicy, RoundRobinPolicy};
    use crate::{ObservedRun, Trace};
    use adrias_workloads::{ibench, spark, IbenchKind};

    fn quick_engine() -> EngineConfig {
        EngineConfig {
            lc_latency_samples: 2000,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn empty_schedule_terminates_immediately() {
        let mut policy = AllLocalPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&[]),
            &[],
            &mut policy,
            &mut (),
        );
        assert!(report.outcomes.is_empty());
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn single_be_app_completes_with_base_runtime() {
        let app = spark::by_name("wordcount").unwrap();
        let arrivals = [ScheduledArrival::new(0.0, app.clone())];
        let mut policy = AllLocalPolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut trace,
        );
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.policy_decided);
        assert_eq!(o.mode, MemoryMode::Local);
        assert!((o.runtime_s - f64::from(app.base_runtime_s())).abs() <= 1.5);
        assert_eq!(report.unfinished, 0);
        assert!(!trace.is_empty());
    }

    #[test]
    fn forced_modes_bypass_policy() {
        let app = spark::by_name("gmm").unwrap();
        let arrivals = [ScheduledArrival::new(0.0, app).with_mode(MemoryMode::Remote)];
        let mut policy = AllLocalPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        assert_eq!(report.outcomes[0].mode, MemoryMode::Remote);
        assert!(!report.outcomes[0].policy_decided);
        assert_eq!(report.placement_counts(), (0, 0));
    }

    #[test]
    fn lc_outcomes_carry_tail_latency() {
        let redis = adrias_workloads::keyvalue::redis();
        let arrivals = [ScheduledArrival::new(0.0, redis).with_duration(40.0)];
        let mut policy = AllRemotePolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        let o = &report.outcomes[0];
        assert!(o.p99_ms.unwrap() > 0.0);
        assert!(o.p999_ms.unwrap() >= o.p99_ms.unwrap());
        assert!(o.lc_total_time_s.unwrap() > 0.0);
    }

    #[test]
    fn round_robin_alternates_across_schedule() {
        let app = spark::by_name("gmm").unwrap();
        let arrivals: Vec<ScheduledArrival> = (0..4)
            .map(|i| ScheduledArrival::new(i as f64 * 5.0, app.clone()))
            .collect();
        let mut policy = RoundRobinPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        assert_eq!(report.placement_counts(), (2, 2));
        assert!((report.offload_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn remote_apps_generate_link_traffic_local_do_not() {
        let app = spark::by_name("lr").unwrap();
        let mut all_local = AllLocalPolicy::new();
        let local_report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&[ScheduledArrival::new(0.0, app.clone())]),
            &[],
            &mut all_local,
            &mut (),
        );
        assert_eq!(local_report.link_bytes, 0.0);

        let mut all_remote = AllRemotePolicy::new();
        let remote_report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&[ScheduledArrival::new(0.0, app)]),
            &[],
            &mut all_remote,
            &mut (),
        );
        assert!(remote_report.link_bytes > 0.0);
    }

    #[test]
    fn trace_windows_are_extractable() {
        let app = spark::by_name("sort").unwrap();
        let stressor = ibench::profile(IbenchKind::MemBw);
        let arrivals = vec![
            ScheduledArrival::new(0.0, stressor)
                .with_mode(MemoryMode::Local)
                .with_duration(400.0),
            ScheduledArrival::new(150.0, app),
        ];
        let mut policy = AllLocalPolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut trace,
        );
        let o = report
            .outcomes
            .iter()
            .find(|o| o.name == "sort")
            .expect("sort finished");
        let hist = trace.history_before(o.arrived_s, 120).expect("window");
        assert_eq!(hist.len(), 120);
        assert!(trace.history_before(50.0, 120).is_none());
        let fut = trace
            .mean_between(o.arrived_s, o.arrived_s + 120.0)
            .expect("future mean");
        assert!(fut.get(adrias_telemetry::Metric::LlcLoads) > 0.0);
    }

    #[test]
    fn drain_budget_bounds_runtime() {
        let stressor = ibench::profile(IbenchKind::Cpu);
        let arrivals = [ScheduledArrival::new(0.0, stressor)
            .with_mode(MemoryMode::Local)
            .with_duration(100_000.0)];
        let cfg = EngineConfig {
            max_drain_s: 50.0,
            ..quick_engine()
        };
        let mut policy = AllLocalPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            cfg,
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        assert!(report.end_time_s <= 60.0);
        assert_eq!(report.unfinished, 1);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_arrivals_rejected() {
        let app = spark::by_name("gmm").unwrap();
        let arrivals = vec![
            ScheduledArrival::new(10.0, app.clone()),
            ScheduledArrival::new(5.0, app),
        ];
        let mut policy = AllLocalPolicy::new();
        let _ = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_unfaulted_run() {
        let app = spark::by_name("lr").unwrap();
        let arrivals = [ScheduledArrival::new(0.0, app)];
        let run = |faults: &[FaultEvent]| {
            let mut policy = AllRemotePolicy::new();
            let mut obs = adrias_obs::Observer::default();
            let mut trace = Trace::default();
            let report = run_stream_hooked(
                TestbedConfig::paper(),
                quick_engine(),
                &mut ScheduleStream::new(&arrivals),
                faults,
                &mut policy,
                &mut (&mut trace, ObservedRun::with_qos(&mut obs, None)),
            );
            (
                format!("{report:?} {trace:?}"),
                adrias_obs::export::to_jsonl_events(&obs),
            )
        };
        assert_eq!(run(&[]), run(&[]));
        let (plain_report, plain_events) = run(&[]);
        let mut policy = AllRemotePolicy::new();
        let mut trace = Trace::default();
        let unfaulted = run_stream_hooked(
            TestbedConfig::paper(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut trace,
        );
        assert_eq!(plain_report, format!("{unfaulted:?} {trace:?}"));
        assert!(!plain_events.is_empty());
    }

    #[test]
    fn throughput_collapse_slows_remote_apps() {
        let app = spark::by_name("lr").unwrap();
        let arrivals = [ScheduledArrival::new(0.0, app)];
        let run = |faults: &[FaultEvent]| {
            let mut policy = AllRemotePolicy::new();
            let mut obs = adrias_obs::Observer::default();
            run_stream_hooked(
                TestbedConfig::noiseless(),
                quick_engine(),
                &mut ScheduleStream::new(&arrivals),
                faults,
                &mut policy,
                &mut ObservedRun::with_qos(&mut obs, None),
            )
        };
        let healthy = run(&[]);
        let collapsed = run(&[FaultEvent {
            at_s: 0.0,
            link: LinkConfig {
                effective_cap_gbps: 0.25,
                base_latency_cycles: 850.0,
                saturated_latency_cycles: 1700.0,
                remote_latency_ns: 2400.0,
                ..LinkConfig::paper()
            },
        }]);
        assert!(
            collapsed.outcomes[0].runtime_s > healthy.outcomes[0].runtime_s,
            "collapsed link {} vs healthy {}",
            collapsed.outcomes[0].runtime_s,
            healthy.outcomes[0].runtime_s
        );
    }

    #[test]
    fn healing_fault_restores_the_link() {
        // Flap: degrade at t=0, heal at t=5; a local app is unaffected
        // either way, but a remote app started after the heal sees the
        // healthy link again.
        let app = spark::by_name("lr").unwrap();
        let degraded = LinkConfig {
            effective_cap_gbps: 0.25,
            remote_latency_ns: 2400.0,
            ..LinkConfig::paper()
        };
        let flap = [
            FaultEvent {
                at_s: 0.0,
                link: degraded,
            },
            FaultEvent {
                at_s: 5.0,
                link: LinkConfig::paper(),
            },
        ];
        let arrivals = [ScheduledArrival::new(10.0, app.clone())];
        let mut policy = AllRemotePolicy::new();
        let mut obs = adrias_obs::Observer::default();
        let flapped = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &flap,
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, None),
        );
        let mut policy = AllRemotePolicy::new();
        let healthy = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        assert!(
            (flapped.outcomes[0].runtime_s - healthy.outcomes[0].runtime_s).abs() < 1.0,
            "healed link should behave like the healthy one: {} vs {}",
            flapped.outcomes[0].runtime_s,
            healthy.outcomes[0].runtime_s
        );
    }

    #[test]
    #[should_panic(expected = "faults must be sorted")]
    fn unsorted_faults_rejected() {
        let faults = [
            FaultEvent {
                at_s: 10.0,
                link: LinkConfig::paper(),
            },
            FaultEvent {
                at_s: 5.0,
                link: LinkConfig::paper(),
            },
        ];
        let mut policy = AllLocalPolicy::new();
        let mut obs = adrias_obs::Observer::default();
        let _ = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&[]),
            &faults,
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, None),
        );
    }

    #[test]
    fn repeated_runs_of_a_mixed_schedule_are_byte_identical() {
        let app = spark::by_name("gmm").unwrap();
        let lc = adrias_workloads::keyvalue::redis();
        let arrivals = vec![
            ScheduledArrival::new(0.0, app.clone()),
            ScheduledArrival::new(2.5, lc).with_duration(40.0),
            ScheduledArrival::new(2.5, app.clone()).with_mode(MemoryMode::Remote),
            ScheduledArrival::new(30.0, app),
        ];
        let run = || {
            let mut policy = RoundRobinPolicy::new();
            let mut trace = Trace::default();
            let report = run_stream_hooked(
                TestbedConfig::paper(),
                quick_engine(),
                &mut ScheduleStream::new(&arrivals),
                &[],
                &mut policy,
                &mut trace,
            );
            format!("{report:?} {trace:?}")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uniform_stream_matches_the_equivalent_schedule_slice() {
        // The streamed uniform source and a pre-materialised
        // `times_until` schedule draw identical gap sequences from the
        // same seed, so the two entry points must produce bit-identical
        // reports — the "ScheduledArrival path implements the same
        // trait" contract.
        use adrias_core::rng::SeedableRng;
        let app = spark::by_name("lr").unwrap();
        let process = adrias_workloads::ArrivalProcess::new(4.0, 9.0);
        let horizon = 120.0;
        let seed = 11u64;

        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let schedule: Vec<ScheduledArrival> = process
            .times_until(horizon, &mut rng)
            .into_iter()
            .map(|t| ScheduledArrival::new(t, app.clone()))
            .collect();
        assert!(schedule.len() > 5);
        let mut policy = RoundRobinPolicy::new();
        let mut scheduled_trace = Trace::default();
        let scheduled = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut scheduled_trace,
        );

        let mut stream = GeneratedStream::new(process.source(horizon, seed), |_, t| {
            ScheduledArrival::new(t, app.clone())
        });
        let mut policy = RoundRobinPolicy::new();
        let mut streamed_trace = Trace::default();
        let streamed = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut stream,
            &[],
            &mut policy,
            &mut streamed_trace,
        );
        assert_eq!(stream.issued(), schedule.len() as u64);
        assert_eq!(format!("{scheduled:?}"), format!("{streamed:?}"));
        assert_eq!(scheduled_trace, streamed_trace);
    }

    #[test]
    fn poisson_stream_drives_the_event_engine_end_to_end() {
        let app = spark::by_name("gmm").unwrap();
        let source = adrias_workloads::PoissonSource::new(0.2, 300.0, 5);
        let mut stream = GeneratedStream::new(source, |_, t| ScheduledArrival::new(t, app.clone()));
        let mut policy = RoundRobinPolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut stream,
            &[],
            &mut policy,
            &mut trace,
        );
        assert!(!report.outcomes.is_empty());
        assert_eq!(report.outcomes.len() as u64, stream.issued());
        assert_eq!(report.unfinished, 0);
        // Every second of the run is sampled exactly once.
        assert_eq!(trace.len(), report.end_time_s.ceil() as usize);
    }

    /// Tracks peak concurrent residency through the observer hooks.
    #[derive(Default)]
    struct ConcurrencyProbe {
        live: usize,
        peak: usize,
    }

    impl EngineObserver for ConcurrencyProbe {
        fn on_decision(
            &mut self,
            _at_s: f64,
            _id: DeploymentId,
            _profile: &WorkloadProfile,
            _history: Option<&[MetricVec]>,
            _decision: &ExplainedDecision,
            _policy_name: &str,
        ) {
            self.live += 1;
            self.peak = self.peak.max(self.live);
        }

        fn on_complete(&mut self, _id: DeploymentId, _outcome: &AppOutcome) {
            self.live -= 1;
        }
    }

    #[test]
    fn closed_loop_stream_caps_concurrent_residency_at_client_count() {
        let app = spark::by_name("lr").unwrap();
        let clients = 3usize;
        let source = adrias_workloads::ClosedLoopSource::new(clients, 2.0, 6.0, 400.0, 17);
        let mut stream = GeneratedStream::new(source, |_, t| {
            // Short BE jobs so clients cycle many times.
            ScheduledArrival::new(t, app.clone()).with_duration(12.0)
        });
        let mut policy = RoundRobinPolicy::new();
        let mut probe = ConcurrencyProbe::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            quick_engine(),
            &mut stream,
            &[],
            &mut policy,
            &mut probe,
        );
        assert!(
            stream.issued() > clients as u64 * 3,
            "clients barely cycled: {}",
            stream.issued()
        );
        assert!(
            probe.peak <= clients,
            "{} concurrent residents with {clients} closed-loop clients",
            probe.peak
        );
        assert_eq!(report.outcomes.len() as u64, stream.issued());
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn isolated_run_matches_testbed_isolation() {
        let app = spark::by_name("nweight").unwrap();
        let (outcome, trace) = run_isolated(
            TestbedConfig::noiseless(),
            quick_engine(),
            app.clone(),
            MemoryMode::Remote,
        );
        let ratio = outcome.runtime_s / f64::from(app.base_runtime_s());
        assert!((ratio - f64::from(app.remote_penalty())).abs() < 0.1);
        assert_eq!(trace.len(), outcome.finished_s.ceil() as usize);
    }

    /// The ticks whose step was measured, under an observer that says
    /// whether it reads samples; it checks that every step taken with a
    /// resident on the node was measured when asked to.
    #[derive(Debug, Default)]
    struct SampledTicks {
        reads: bool,
        busy_measured: bool,
        live: usize,
        steps: u64,
        sampled: Vec<u64>,
        rules: Vec<adrias_obs::DecisionRule>,
    }

    impl EngineObserver for SampledTicks {
        fn on_decision(
            &mut self,
            _at_s: f64,
            _id: DeploymentId,
            _profile: &WorkloadProfile,
            _history: Option<&[MetricVec]>,
            decision: &ExplainedDecision,
            _policy_name: &str,
        ) {
            self.live += 1;
            self.rules.push(decision.rule);
        }

        fn on_step(&mut self, report: &StepReport) {
            self.steps += 1;
            // A step's completions fold in after it, so `live` counts
            // every resident the step advanced.
            assert!(!self.busy_measured || self.live == 0 || report.sampled);
            if report.sampled {
                self.sampled.push(report.time_s as u64 - 1);
            }
        }

        fn on_complete(&mut self, _id: DeploymentId, _outcome: &AppOutcome) {
            self.live -= 1;
        }

        fn reads_samples(&self) -> bool {
            self.reads
        }
    }

    /// A decision at tick `T` reads the steps taken at `T − 120 … T − 1`
    /// and no other: exactly those are measured before an arrival after
    /// an idle stretch, and none after it, while the node is busy with
    /// nothing left to arrive. An observer that reads samples has every
    /// step measured, and the report is the same either way.
    #[test]
    fn only_the_window_before_an_arrival_is_measured() {
        let lr = spark::by_name("lr").unwrap();
        for at_s in [500.0, 499.5] {
            let arrivals = [ScheduledArrival::new(at_s, lr.clone()).with_duration(30.0)];
            let run = |reads| {
                let mut ticks = SampledTicks {
                    reads,
                    ..SampledTicks::default()
                };
                let report = run_stream_hooked(
                    TestbedConfig::paper(),
                    quick_engine(),
                    &mut ScheduleStream::new(&arrivals),
                    &[],
                    &mut RoundRobinPolicy::new(),
                    &mut ticks,
                );
                (format!("{report:?}"), ticks)
            };
            let (unread, read) = (run(false), run(true));
            assert_eq!(unread.0, read.0);
            assert_eq!(unread.1.sampled, (380..500).collect::<Vec<u64>>());
            assert_eq!(read.1.sampled.len() as u64, read.1.steps);
            assert_eq!(unread.1.steps, 530);
        }
    }

    /// A closed-loop stream admits on completions, so every second with
    /// a resident is measured; its idle think time is measured only in
    /// the window before the next submission.
    #[test]
    fn a_closed_loop_stream_measures_its_busy_seconds() {
        let app = spark::by_name("lr").unwrap();
        let source = adrias_workloads::ClosedLoopSource::new(1, 300.0, 300.0, 2_000.0, 3);
        let mut stream = GeneratedStream::new(source, |_, t| {
            ScheduledArrival::new(t, app.clone()).with_duration(30.0)
        });
        let mut ticks = SampledTicks {
            busy_measured: true,
            ..SampledTicks::default()
        };
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            quick_engine(),
            &mut stream,
            &[],
            &mut RoundRobinPolicy::new(),
            &mut ticks,
        );
        assert!(report.outcomes.len() >= 5);
        // Per 330 s cycle: 30 busy seconds and the 120 before the next
        // submission.
        assert!(ticks.sampled.len() as u64 * 2 < ticks.steps, "{ticks:?}");
    }

    /// A zero window is no window: every Adrias decision takes the
    /// warm-up rule instead of pooling an empty matrix, and no second
    /// is read by a decision.
    #[test]
    fn a_zero_window_runs_adrias_on_the_warmup_rule() {
        let gmm = spark::by_name("gmm").unwrap();
        let arrivals: Vec<ScheduledArrival> = (0..6)
            .map(|i| ScheduledArrival::new(f64::from(i) * 150.0, gmm.clone()))
            .collect();
        let mut policy = crate::test_support::policy_with_beta(0.7);
        let mut ticks = SampledTicks::default();
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            EngineConfig {
                history_window_s: 0,
                ..quick_engine()
            },
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut ticks,
        );
        assert_eq!((report.outcomes.len(), report.unfinished), (6, 0));
        assert_eq!(ticks.rules, [adrias_obs::DecisionRule::WarmupDefault; 6]);
        assert!(ticks.sampled.is_empty());
    }
}
