//! Bridges the engine's [`EngineObserver`] hooks onto an
//! [`adrias_obs::Observer`]: decisions land in the audit trail, steps
//! feed the sim metrics, completions become trace spans on per-app
//! tracks, and the run itself becomes the root span on track 0.
//!
//! Per-step metrics accumulate in a lookup-free
//! [`adrias_sim::obs::SimMetrics`] held by [`ObservedRun`] and are
//! folded into the registry once at the end of the run, keeping the
//! per-simulated-second observation cost to plain arithmetic.

use adrias_core::Name;
use adrias_obs::{
    BurnConfig, DecisionInput, LifecycleSpan, Observer, SloBurnMonitor, WindowSummary,
};
use adrias_sim::obs::SimMetrics;
use adrias_sim::{DeploymentId, StepReport};
use adrias_telemetry::MetricVec;
use adrias_workloads::{WorkloadClass, WorkloadProfile};

use crate::engine::{AppOutcome, EngineObserver, RunReport};
use crate::policy::ExplainedDecision;

/// One observed engine run: borrows the [`Observer`] that collects the
/// audit trail, traces, lifecycle spans, flight recorder and registry,
/// plus the per-run sim accumulator. Pass one to
/// [`crate::engine::run_stream_hooked`] to observe that run.
pub struct ObservedRun<'a> {
    obs: &'a mut Observer,
    sim: SimMetrics,
    burn: Option<SloBurnMonitor>,
    /// The run's policy name (one run, one policy), shared by every
    /// audit record.
    policy: Option<Name>,
    /// Watcher ticks seen so far (`on_step` calls) — the span clock.
    ticks: u64,
    /// Took-effect pop counts, flushed as `engine.events_popped.*`.
    admitted: u64,
    faults: u64,
    finishes: u64,
    deadlines: u64,
    source: &'static str,
}

impl<'a> ObservedRun<'a> {
    /// Wraps an observer for one engine run; when `qos_p99_ms` (the
    /// run's [`crate::EngineConfig::qos_p99_ms`]) is set,
    /// LC completions additionally feed an [`SloBurnMonitor`] whose
    /// alerts land in the trace, the registry and `obs.burn`.
    pub fn with_qos(obs: &'a mut Observer, qos_p99_ms: Option<f32>) -> Self {
        Self {
            obs,
            sim: SimMetrics::new(),
            burn: qos_p99_ms.map(|q| SloBurnMonitor::new(q, BurnConfig::default())),
            policy: None,
            ticks: 0,
            admitted: 0,
            faults: 0,
            finishes: 0,
            deadlines: 0,
            source: "schedule",
        }
    }
}

impl EngineObserver for ObservedRun<'_> {
    fn on_decision(
        &mut self,
        at_s: f64,
        id: DeploymentId,
        profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        decision: &ExplainedDecision,
        policy_name: &str,
    ) {
        let policy = self
            .policy
            .get_or_insert_with(|| policy_name.to_owned().into())
            .clone();
        self.obs.record_decision(DecisionInput {
            at_s,
            deployment_id: id.index(),
            app: profile.name_handle().clone(),
            class: profile.class(),
            window: history.map_or_else(WindowSummary::empty, WindowSummary::of_rows),
            pred_local: decision.pred_local,
            pred_remote: decision.pred_remote,
            rule: decision.rule,
            chosen: decision.mode,
            policy,
        });
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
        self.admitted += 1;
        self.obs
            .flight
            .record("arrival", decided_s, Some(id.index()));
        self.obs
            .registry
            .observe("orchestrator.queue_wait_s", decided_s - arrived_s);
        self.obs.spans.open(LifecycleSpan {
            deployment_id: id.index(),
            app: profile.name_handle().clone(),
            class: profile.class().label(),
            mode: decision.mode.label(),
            rule: decision.rule.tag(),
            lane,
            arrived_s,
            decided_s,
            opened_tick: self.ticks,
            finished_s: decided_s,
            samples: 0,
            drained: false,
        });
    }

    fn on_fault(&mut self, at_s: f64) {
        self.faults += 1;
        self.obs.flight.record("fault", at_s, None);
    }

    fn on_deadline(&mut self, at_s: f64) {
        self.deadlines += 1;
        self.obs.flight.record("deadline", at_s, None);
    }

    fn on_stream(&mut self, label: &'static str) {
        self.source = label;
    }

    fn wall_profiling(&self) -> bool {
        self.obs.wall_ns.is_some()
    }

    fn on_wall(&mut self, label: &str, ns: u64) {
        if let Some(totals) = &mut self.obs.wall_ns {
            *totals.entry(label.to_owned()).or_default() += ns;
        }
    }

    fn on_step(&mut self, report: &StepReport) {
        self.sim.record(report);
        self.obs.flight.record("sample", self.ticks as f64, None);
        self.ticks += 1;
    }

    fn on_complete(&mut self, id: DeploymentId, outcome: &AppOutcome) {
        self.finishes += 1;
        self.obs
            .flight
            .record("finish", outcome.finished_s, Some(id.index()));
        self.obs
            .spans
            .close(id.index(), outcome.finished_s, self.ticks, false);
        let mut args = vec![
            ("mode", outcome.mode.label().into()),
            ("class", outcome.class.label().into()),
            ("slowdown", outcome.mean_slowdown.into()),
        ];
        if let Some(p99) = outcome.p99_ms {
            args.push(("p99_ms", p99.into()));
            self.obs
                .registry
                .observe("orchestrator.lc.p99_ms", f64::from(p99));
            if let Some(burn) = &mut self.burn {
                for event in burn.observe(outcome.finished_s, p99) {
                    self.obs.record_burn(event);
                    self.obs.flight.record("burn", event.at_s, None);
                }
            }
        }
        if outcome.class == WorkloadClass::BestEffort {
            self.obs
                .registry
                .observe("orchestrator.be.runtime_s", outcome.runtime_s);
        }
        // Track 0 is the engine; each deployment gets its own track so
        // residencies render as parallel rows in a timeline viewer.
        self.obs.tracer.span(
            outcome.name.clone(),
            "app",
            outcome.arrived_s,
            outcome.finished_s,
            id.index() + 1,
            args,
        );
    }

    fn on_run_end(&mut self, report: &RunReport, last_arrival_s: f64) {
        self.sim.flush(&mut self.obs.registry);
        self.obs.spans.drain_open(report.end_time_s, self.ticks);
        self.obs.tracer.span(
            "engine.run",
            "engine",
            0.0,
            report.end_time_s,
            0,
            vec![
                ("policy", report.policy.clone().into()),
                ("source", self.source.into()),
                ("outcomes", (report.outcomes.len() as f64).into()),
                ("unfinished", (report.unfinished as f64).into()),
            ],
        );
        // Took-effect event counts, one counter per heap event kind.
        self.obs
            .registry
            .counter_add("engine.events_popped.arrival", self.admitted);
        self.obs
            .registry
            .counter_add("engine.events_popped.fault", self.faults);
        self.obs
            .registry
            .counter_add("engine.events_popped.sample", self.ticks);
        self.obs
            .registry
            .counter_add("engine.events_popped.finish", self.finishes);
        self.obs
            .registry
            .counter_add("engine.events_popped.deadline", self.deadlines);
        if let Some(burn) = &self.burn {
            for (window_s, rate) in burn.rates() {
                self.obs
                    .registry
                    .gauge_set(&format!("slo.burn.rate.{window_s:.0}s"), rate);
            }
        }
        self.obs
            .registry
            .gauge_set("engine.end_time_s", report.end_time_s);
        // Watcher ticks processed: one sample per simulated second.
        self.obs
            .registry
            .gauge_set("engine.ticks", self.ticks as f64);
        self.obs
            .registry
            .gauge_set("engine.link_bytes", report.link_bytes);
        self.obs.registry.gauge_set(
            "orchestrator.drain_s",
            (report.end_time_s - last_arrival_s).max(0.0),
        );
        self.obs
            .registry
            .counter_add("orchestrator.unfinished", report.unfinished as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinPolicy;
    use crate::engine::{run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival};
    use crate::Trace;
    use adrias_obs::{export, ObsConfig};
    use adrias_sim::TestbedConfig;
    use adrias_workloads::{ibench, spark, IbenchKind, MemoryMode};

    fn schedule() -> Vec<ScheduledArrival> {
        let gmm = spark::by_name("gmm").unwrap();
        let sort = spark::by_name("sort").unwrap();
        let stressor = ibench::profile(IbenchKind::MemBw);
        vec![
            ScheduledArrival::new(0.0, stressor)
                .with_mode(MemoryMode::Local)
                .with_duration(60.0),
            ScheduledArrival::new(5.0, gmm),
            ScheduledArrival::new(12.0, sort),
        ]
    }

    fn engine() -> EngineConfig {
        EngineConfig {
            lc_latency_samples: 1000,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn every_placement_is_audited_exactly_once() {
        let mut obs = Observer::new(ObsConfig::default());
        let mut policy = RoundRobinPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine(),
            &mut ScheduleStream::new(&schedule()),
            &[],
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, None),
        );
        // One audit record per arrival: 2 policy-decided + 1 forced.
        assert_eq!(obs.audit.len(), 3);
        let forced: Vec<_> = obs
            .audit
            .records()
            .iter()
            .filter(|r| r.input.rule == adrias_obs::DecisionRule::Forced)
            .collect();
        assert_eq!(forced.len(), 1);
        assert_eq!(obs.registry.counter("orchestrator.decisions"), 3);
        // Deployment ids in the trail are unique.
        let mut ids: Vec<u64> = obs
            .audit
            .records()
            .iter()
            .map(|r| r.input.deployment_id)
            .collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        // Every completion produced an app span plus the run root span.
        let spans = obs
            .tracer
            .iter()
            .filter(|e| matches!(e.kind, adrias_obs::TraceKind::Span { .. }))
            .count();
        assert_eq!(spans, report.outcomes.len() + 1);
        assert_eq!(
            obs.registry.counter("sim.completions") as usize,
            report.outcomes.len()
        );
        assert!(obs.registry.gauge("orchestrator.drain_s").is_some());
    }

    #[test]
    fn observed_run_report_matches_unobserved() {
        let mut obs = Observer::new(ObsConfig::default());
        let mut p1 = RoundRobinPolicy::new();
        let observed = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine(),
            &mut ScheduleStream::new(&schedule()),
            &[],
            &mut p1,
            &mut ObservedRun::with_qos(&mut obs, None),
        );
        let mut p2 = RoundRobinPolicy::new();
        let plain = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine(),
            &mut ScheduleStream::new(&schedule()),
            &[],
            &mut p2,
            &mut (),
        );
        assert_eq!(observed.end_time_s, plain.end_time_s);
        assert_eq!(observed.outcomes.len(), plain.outcomes.len());
        for (a, b) in observed.outcomes.iter().zip(&plain.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.mode, b.mode);
            assert_eq!(a.runtime_s.to_bits(), b.runtime_s.to_bits());
            assert_eq!(a.mean_slowdown.to_bits(), b.mean_slowdown.to_bits());
        }
        assert_eq!(observed.link_bytes.to_bits(), plain.link_bytes.to_bits());
    }

    #[test]
    fn same_seed_runs_export_identical_bytes() {
        let run = || {
            let mut obs = Observer::new(ObsConfig::default());
            let mut policy = RoundRobinPolicy::new();
            let _ = run_stream_hooked(
                TestbedConfig::default(),
                engine(),
                &mut ScheduleStream::new(&schedule()),
                &[],
                &mut policy,
                &mut ObservedRun::with_qos(&mut obs, None),
            );
            (
                export::to_jsonl_events(&obs),
                export::to_jsonl_decisions(&obs),
                export::to_jsonl_metrics(&obs),
                export::to_chrome_trace(&obs),
                export::to_jsonl_spans(&obs),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn lifecycle_spans_and_event_counters_record() {
        let mut obs = Observer::new(ObsConfig::default());
        let mut policy = RoundRobinPolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine(),
            &mut ScheduleStream::new(&schedule()),
            &[],
            &mut policy,
            &mut (&mut trace, ObservedRun::with_qos(&mut obs, None)),
        );
        // One closed lifecycle tree per outcome, none left open.
        assert_eq!(obs.spans.len(), report.outcomes.len());
        assert_eq!(obs.spans.open_count(), 0);
        let forced: Vec<_> = obs.spans.records().filter(|r| r.lane == "forced").collect();
        assert_eq!(forced.len(), 1, "the stressor bypassed the policy");
        assert!(obs
            .spans
            .records()
            .all(|r| !r.drained && r.finished_s >= r.decided_s && r.decided_s >= r.arrived_s));
        // Took-effect counters match the run report.
        assert_eq!(
            obs.registry.counter("engine.events_popped.arrival") as usize,
            3
        );
        assert_eq!(
            obs.registry.counter("engine.events_popped.finish") as usize,
            report.outcomes.len()
        );
        assert_eq!(
            obs.registry.counter("engine.events_popped.sample") as usize,
            trace.len()
        );
        assert_eq!(obs.registry.gauge("engine.ticks"), Some(trace.len() as f64));
        assert_eq!(obs.registry.counter("engine.events_popped.fault"), 0);
        assert_eq!(obs.registry.counter("engine.events_popped.deadline"), 0);
        // The admission sketch saw every arrival; slowdown every finish.
        let wait = obs.registry.sketch("orchestrator.queue_wait_s").unwrap();
        assert_eq!(wait.count(), 3);
        let slow = obs.registry.sketch("sim.slowdown").unwrap();
        assert_eq!(slow.count() as usize, report.outcomes.len());
        // The flight recorder kept the arrival→finish interleaving.
        assert!(obs.flight.pushed() > 0);
        let kinds: Vec<&str> = obs.flight.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"arrival") && kinds.contains(&"finish"));
        // The run span names its traffic source.
        let chrome = export::to_chrome_trace(&obs);
        assert!(chrome.contains(r#""source":"schedule""#));
    }

    #[test]
    fn wall_frames_accumulate_only_when_recorded() {
        let mut off = Observer::new(ObsConfig::default());
        let mut run = ObservedRun::with_qos(&mut off, None);
        assert!(!run.wall_profiling());
        run.on_wall("engine;heap;push", 5_000_000);
        assert_eq!(off.wall_ns, None);

        let mut on = Observer::new(ObsConfig { record_wall: true });
        let mut run = ObservedRun::with_qos(&mut on, None);
        assert!(run.wall_profiling());
        run.on_wall("engine;heap;push", 5_000_000);
        run.on_wall("engine;heap;push", 2_500_000);
        assert_eq!(on.wall_ns.unwrap()["engine;heap;push"], 7_500_000);
        assert!(
            on.tracer.is_empty(),
            "wall time never becomes a trace event"
        );
    }
}
