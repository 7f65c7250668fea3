//! Benchmark-side timing wrappers around the three surfaces the engine
//! is generic over: [`TimedStream`] (an `ArrivalStream`), [`TimedPolicy`]
//! (a `Policy`) and [`TimedObserver`] (an `EngineObserver`).
//!
//! They forward every call unchanged, so a wrapped run's outcomes are
//! bit-identical to a bare run's (checked on every traced pass).
//! Everything is kept in accumulators; spans are retained in memory for
//! the first [`SPAN_ARRIVALS`] arrivals only and written after the run.

use std::cell::Cell;
use std::time::Instant;

use adrias_orchestrator::{
    AppOutcome, ArrivalStream, DecisionContext, EngineObserver, ExplainedDecision, Policy,
    RunReport, ScheduledArrival,
};
use adrias_sim::{DeploymentId, StepReport};
use adrias_telemetry::{MetricVec, WindowStamp};
use adrias_workloads::{MemoryMode, WorkloadProfile};

/// Spans are kept for arrivals with an index below this.
pub const SPAN_ARRIVALS: u64 = 4096;

/// What a span covers. The discriminant is the low three bits of the
/// span id (`arrival index * 8 + kind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `ArrivalStream::next_arrival` — the root span of an arrival.
    Pull = 0,
    /// `Policy::decide_explained`.
    Decide = 1,
    /// The model forward inside a decide, as the policy's own timer
    /// reports it: a duration only, drawn from the decide's start.
    Forward = 2,
    /// `EngineObserver::on_decision`.
    OnDecision = 3,
    /// `EngineObserver::on_admitted`.
    OnAdmitted = 4,
    /// `EngineObserver::on_complete`.
    OnComplete = 5,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Pull => "workloads.arrival.pull",
            SpanKind::Decide => "orchestrator.decide",
            SpanKind::Forward => "predictor.forward",
            SpanKind::OnDecision => "obs.on_decision",
            SpanKind::OnAdmitted => "obs.on_admitted",
            SpanKind::OnComplete => "obs.on_complete",
        }
    }
}

/// One recorded span. All spans of one arrival share `trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Arrival index (equal to the deployment index).
    pub trace: u64,
    /// What was timed.
    pub kind: SpanKind,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<SpanKind>,
    /// Start, ns since the traced pass began.
    pub start_ns: u64,
    /// End, ns since the traced pass began.
    pub end_ns: u64,
}

impl Span {
    /// One JSONL line: name, ids, start and end.
    pub fn to_json(&self) -> String {
        let id = |kind: SpanKind| self.trace * 8 + kind as u64;
        let parent = self
            .parent
            .map_or_else(|| "null".to_owned(), |p| id(p).to_string());
        format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.kind.name(),
            id(self.kind),
            parent,
            self.trace,
            self.start_ns,
            self.end_ns
        )
    }
}

/// State the three wrappers of one traced pass share: the pass's clock
/// origin and how many arrivals the stream has handed out.
#[derive(Debug)]
pub struct TraceClock {
    epoch: Instant,
    pulled: Cell<u64>,
}

impl TraceClock {
    /// Starts the clock.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
            pulled: Cell::new(0),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

/// Times `ArrivalStream::next_arrival`: source draw, catalog pick and
/// profile clone.
pub struct TimedStream<'a> {
    inner: &'a mut dyn ArrivalStream,
    clock: &'a TraceClock,
    /// Wall nanoseconds inside `next_arrival`.
    pub ns: u64,
    /// `next_arrival` calls, the final `None` included.
    pub calls: u64,
    /// Pull spans of the first arrivals.
    pub spans: Vec<Span>,
}

impl<'a> TimedStream<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn ArrivalStream, clock: &'a TraceClock) -> Self {
        Self {
            inner,
            clock,
            ns: 0,
            calls: 0,
            spans: Vec::new(),
        }
    }
}

impl ArrivalStream for TimedStream<'_> {
    fn next_arrival(&mut self) -> Option<ScheduledArrival> {
        let t0 = Instant::now();
        let arrival = self.inner.next_arrival();
        let t1 = Instant::now();
        self.ns += t1.duration_since(t0).as_nanos() as u64;
        self.calls += 1;
        if arrival.is_some() {
            let trace = self.clock.pulled.get();
            self.clock.pulled.set(trace + 1);
            if trace < SPAN_ARRIVALS {
                self.spans.push(Span {
                    trace,
                    kind: SpanKind::Pull,
                    parent: None,
                    start_ns: self.clock.ns(t0),
                    end_ns: self.clock.ns(t1),
                });
            }
        }
        arrival
    }

    fn on_complete(&mut self, finished_s: f64) -> bool {
        self.inner.on_complete(finished_s)
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }

    fn final_arrival_hint(&self) -> Option<f64> {
        self.inner.final_arrival_hint()
    }

    fn drain_remaining(&mut self) -> usize {
        self.inner.drain_remaining()
    }

    fn source_label(&self) -> &'static str {
        self.inner.source_label()
    }
}

/// Times `Policy::decide_explained` — the operator-visible placement
/// latency — and counts forecast-cache hits from outside: a decision
/// whose `ctx.stamp` equals the previous decision's reuses the memoised
/// forecast.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Policy,
    clock: &'a TraceClock,
    last_stamp: Option<WindowStamp>,
    /// Start of the latest decide and its arrival index, for the forward
    /// span the engine asks for right after.
    last_decide: (u64, u64),
    /// One latency per decide call, ns.
    pub latencies_ns: Vec<u32>,
    /// Decisions whose stamp equalled the previous decision's.
    pub stamp_hits: u64,
    /// Decisions on a fresh stamp: the forecast is computed in full.
    pub stamp_misses: u64,
    /// Decide and forward spans of the first arrivals.
    pub spans: Vec<Span>,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Policy, clock: &'a TraceClock) -> Self {
        Self {
            inner,
            clock,
            last_stamp: None,
            last_decide: (0, 0),
            latencies_ns: Vec::new(),
            stamp_hits: 0,
            stamp_misses: 0,
            spans: Vec::new(),
        }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        self.decide_explained(ctx).mode
    }

    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        let t0 = Instant::now();
        let decision = self.inner.decide_explained(ctx);
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos();
        self.latencies_ns
            .push(u32::try_from(ns).unwrap_or(u32::MAX));
        if ctx.stamp.is_some() {
            if ctx.stamp == self.last_stamp {
                self.stamp_hits += 1;
            } else {
                self.stamp_misses += 1;
            }
        }
        self.last_stamp = ctx.stamp;
        // The engine admits arrival k before it pulls arrival k + 1, so
        // the arrival being decided is the latest one pulled.
        let trace = self.clock.pulled.get().saturating_sub(1);
        self.last_decide = (trace, self.clock.ns(t0));
        if trace < SPAN_ARRIVALS {
            self.spans.push(Span {
                trace,
                kind: SpanKind::Decide,
                parent: Some(SpanKind::Pull),
                start_ns: self.clock.ns(t0),
                end_ns: self.clock.ns(t1),
            });
        }
        decision
    }

    fn lane(&self) -> &'static str {
        self.inner.lane()
    }

    fn set_wall_profiling(&mut self, enabled: bool) {
        self.inner.set_wall_profiling(enabled);
    }

    fn take_forward_wall_ns(&mut self) -> u64 {
        let ns = self.inner.take_forward_wall_ns();
        let (trace, start_ns) = self.last_decide;
        if ns > 0 && trace < SPAN_ARRIVALS {
            self.spans.push(Span {
                trace,
                kind: SpanKind::Forward,
                parent: Some(SpanKind::Decide),
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        ns
    }
}

/// Wall nanoseconds the engine's own profiler reported through
/// `EngineObserver::on_wall`, by frame, with call counts where the
/// engine reports once per decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineFrames {
    /// `engine;heap;push`.
    pub heap_push_ns: u64,
    /// `engine;heap;pop`.
    pub heap_pop_ns: u64,
    /// Σ `engine;decide;<lane>`: decide time outside the model forward.
    pub decide_self_ns: u64,
    /// `engine;decide;<lane>` reports for policy-decided arrivals.
    pub decided_calls: u64,
    /// `engine;decide;forced` reports.
    pub forced_calls: u64,
    /// `engine;decide;forward`: the policy's prediction call, on either
    /// lane.
    pub forward_ns: u64,
    /// `engine;sample`: `Testbed::step` + `Watcher::record` + the
    /// `samples` push, summed over the run.
    pub sample_ns: u64,
}

/// What a [`TimedObserver`] counted and timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverCounts {
    /// The engine's self-profiler frames.
    pub frames: EngineFrames,
    /// `on_decision` calls: arrivals placed.
    pub decisions: u64,
    /// `on_complete` calls.
    pub completions: u64,
    /// `on_complete` calls carrying a p99: LC completions, by
    /// `(redis, memcached)`.
    pub lc_completions: (u64, u64),
    /// `on_step` calls: simulated seconds.
    pub steps: u64,
    /// Σ residents over steps.
    pub resident_steps: u64,
    /// Wall ns inside the inner per-arrival hooks (`on_decision`,
    /// `on_admitted`, `on_complete`, `on_run_end`).
    pub hook_ns: u64,
    /// Wall ns inside the inner `on_step`.
    pub on_step_ns: u64,
}

/// Counts engine events, collects the engine's `on_wall` frames and, when
/// `time_hooks` is set, times the wrapped observer's hooks.
pub struct TimedObserver<'a, O> {
    inner: O,
    clock: &'a TraceClock,
    time_hooks: bool,
    residents: u64,
    /// Everything counted and timed so far.
    pub counts: ObserverCounts,
    /// Hook spans of the first arrivals.
    pub spans: Vec<Span>,
}

impl<'a, O: EngineObserver> TimedObserver<'a, O> {
    /// Wraps `inner`. `time_hooks` is off for the no-op `()` observer,
    /// where there is nothing to time.
    pub fn new(inner: O, clock: &'a TraceClock, time_hooks: bool) -> Self {
        Self {
            inner,
            clock,
            time_hooks,
            residents: 0,
            counts: ObserverCounts::default(),
            spans: Vec::new(),
        }
    }

    /// Calls into the inner observer, timed when asked.
    fn timed(&mut self, f: impl FnOnce(&mut O)) -> Option<(Instant, Instant)> {
        if !self.time_hooks {
            f(&mut self.inner);
            return None;
        }
        let t0 = Instant::now();
        f(&mut self.inner);
        let t1 = Instant::now();
        self.counts.hook_ns += t1.duration_since(t0).as_nanos() as u64;
        Some((t0, t1))
    }

    /// Runs one per-arrival hook of the inner observer and keeps its span.
    fn hook(&mut self, trace: u64, kind: SpanKind, f: impl FnOnce(&mut O)) {
        if let Some((t0, t1)) = self.timed(f) {
            if trace < SPAN_ARRIVALS {
                self.spans.push(Span {
                    trace,
                    kind,
                    parent: Some(SpanKind::Pull),
                    start_ns: self.clock.ns(t0),
                    end_ns: self.clock.ns(t1),
                });
            }
        }
    }
}

impl<O: EngineObserver> EngineObserver for TimedObserver<'_, O> {
    fn on_decision(
        &mut self,
        at_s: f64,
        id: DeploymentId,
        profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        decision: &ExplainedDecision,
        policy_name: &str,
    ) {
        self.counts.decisions += 1;
        self.residents += 1;
        self.hook(id.index(), SpanKind::OnDecision, |o| {
            o.on_decision(at_s, id, profile, history, decision, policy_name)
        });
    }

    fn on_step(&mut self, report: &StepReport) {
        self.counts.steps += 1;
        self.counts.resident_steps += self.residents;
        if self.time_hooks {
            let t0 = Instant::now();
            self.inner.on_step(report);
            self.counts.on_step_ns += t0.elapsed().as_nanos() as u64;
        } else {
            self.inner.on_step(report);
        }
    }

    fn on_complete(&mut self, id: DeploymentId, outcome: &AppOutcome) {
        self.counts.completions += 1;
        self.residents -= 1;
        if outcome.p99_ms.is_some() {
            if outcome.name == "memcached" {
                self.counts.lc_completions.1 += 1;
            } else {
                self.counts.lc_completions.0 += 1;
            }
        }
        self.hook(id.index(), SpanKind::OnComplete, |o| {
            o.on_complete(id, outcome)
        });
    }

    fn on_run_end(&mut self, report: &RunReport, last_arrival_s: f64) {
        self.timed(|o| o.on_run_end(report, last_arrival_s));
    }

    fn on_admitted(
        &mut self,
        id: DeploymentId,
        arrived_s: f64,
        decided_s: f64,
        profile: &WorkloadProfile,
        decision: &ExplainedDecision,
        lane: &'static str,
    ) {
        self.hook(id.index(), SpanKind::OnAdmitted, |o| {
            o.on_admitted(id, arrived_s, decided_s, profile, decision, lane)
        });
    }

    fn on_fault(&mut self, at_s: f64) {
        self.inner.on_fault(at_s);
    }

    fn on_deadline(&mut self, at_s: f64) {
        self.inner.on_deadline(at_s);
    }

    fn on_stream(&mut self, label: &'static str) {
        self.inner.on_stream(label);
    }

    fn wall_profiling(&self) -> bool {
        true
    }

    fn on_wall(&mut self, label: &str, ns: u64) {
        let f = &mut self.counts.frames;
        match label {
            "engine;heap;push" => f.heap_push_ns += ns,
            "engine;heap;pop" => f.heap_pop_ns += ns,
            "engine;sample" => f.sample_ns += ns,
            "engine;decide;forward" => f.forward_ns += ns,
            "engine;decide;forced" => {
                f.decide_self_ns += ns;
                f.forced_calls += 1;
            }
            lane if lane.starts_with("engine;decide;") => {
                f.decide_self_ns += ns;
                f.decided_calls += 1;
            }
            other => panic!("unknown engine profiler frame {other:?}"),
        }
    }
}
