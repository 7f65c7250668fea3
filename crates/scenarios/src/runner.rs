//! The orchestration-evaluation runner (Figs. 16–17 of the paper).
//!
//! Replays the same scenario corpus under several policies and
//! aggregates runtimes, placements, tail latencies and link traffic.

use adrias_core::thread::map_chunks;
use adrias_obs::Observer;
use adrias_orchestrator::engine::{
    run_stream_hooked, EngineConfig, EngineObserver, FaultEvent, RunReport, ScheduleStream,
    ScheduledArrival,
};
use adrias_orchestrator::{ObservedRun, Policy};
use adrias_sim::TestbedConfig;
use adrias_workloads::{MemoryMode, WorkloadCatalog, WorkloadClass};

use crate::schedule::{build_schedule, PlacementStyle};
use crate::spec::ScenarioSpec;

/// Aggregated result of one policy over a scenario corpus.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Policy name.
    pub policy: String,
    /// Per-scenario engine reports.
    pub reports: Vec<RunReport>,
}

impl PolicyOutcome {
    /// All policy-decided BE runtimes, every application pooled (the
    /// Fig. 16 distributions).
    pub fn all_be_runtimes(&self) -> Vec<f32> {
        self.reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::BestEffort))
            .map(|o| o.runtime_s as f32)
            .collect()
    }

    /// `(local, remote)` placement counts for one application.
    pub fn placements(&self, app: &str) -> (usize, usize) {
        let mut local = 0;
        let mut remote = 0;
        for o in self
            .reports
            .iter()
            .flat_map(|r| r.outcomes.iter())
            .filter(|o| o.policy_decided && o.name == app)
        {
            match o.mode {
                MemoryMode::Local => local += 1,
                MemoryMode::Remote => remote += 1,
            }
        }
        (local, remote)
    }

    /// Overall fraction of policy-decided apps placed remote.
    pub fn offload_fraction(&self) -> f32 {
        let (mut local, mut remote) = (0usize, 0usize);
        for r in &self.reports {
            let (l, m) = r.placement_counts();
            local += l;
            remote += m;
        }
        if local + remote == 0 {
            0.0
        } else {
            remote as f32 / (local + remote) as f32
        }
    }

    /// All p99 measurements for one LC application, ms.
    pub fn lc_p99s(&self, app: &str) -> Vec<f32> {
        self.reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::LatencyCritical))
            .filter(|o| o.name == app)
            .filter_map(|o| o.p99_ms)
            .collect()
    }

    /// Number of LC deployments of `app` that violate `qos` and the
    /// number placed remote, `(violations, offloads, total)`.
    pub fn lc_qos_stats(&self, app: &str, qos_p99_ms: f32) -> (usize, usize, usize) {
        let mut violations = 0;
        let mut offloads = 0;
        let mut total = 0;
        for o in self
            .reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::LatencyCritical))
            .filter(|o| o.name == app)
        {
            total += 1;
            if o.mode == MemoryMode::Remote {
                offloads += 1;
            }
            if o.p99_ms.is_some_and(|p| p > qos_p99_ms) {
                violations += 1;
            }
        }
        (violations, offloads, total)
    }

    /// Total bytes moved over the link across the corpus.
    pub fn total_link_bytes(&self) -> f64 {
        self.reports.iter().map(|r| r.link_bytes).sum()
    }
}

/// One scenario replay, described: everything that fixes a run except
/// the policy deciding it and the observer watching it.
///
/// This is the one place a [`ScenarioSpec`] is lowered onto the engine —
/// the arrival schedule, the engine seed derived from the scenario seed
/// and the [`EngineConfig`] defaults — so two replays of one description
/// differ in nothing but what the policy does with them.
#[derive(Debug, Clone, Copy)]
pub struct Replay<'a> {
    /// Testbed conditions.
    pub testbed: TestbedConfig,
    /// Catalog the arrivals are drawn from.
    pub catalog: &'a WorkloadCatalog,
    /// The arrival scenario.
    pub spec: ScenarioSpec,
    /// Who places each arrival: the policy, or the schedule itself.
    pub style: PlacementStyle,
    /// Active p99 QoS constraint handed to policies, milliseconds.
    pub qos_p99_ms: Option<f32>,
    /// Link faults, sorted by time (`&[]` for a healthy run).
    pub faults: &'a [FaultEvent],
}

impl<'a> Replay<'a> {
    /// An un-faulted, QoS-less replay of `spec` with every arrival left
    /// to the policy; override fields with struct-update syntax.
    pub fn new(testbed: TestbedConfig, catalog: &'a WorkloadCatalog, spec: ScenarioSpec) -> Self {
        Self {
            testbed,
            catalog,
            spec,
            style: PlacementStyle::PolicyDecided,
            qos_p99_ms: None,
            faults: &[],
        }
    }

    /// The arrival schedule this description lowers to.
    pub fn schedule(&self) -> Vec<ScheduledArrival> {
        build_schedule(&self.spec, self.catalog, self.style)
    }

    /// The engine configuration this description lowers to: the
    /// defaults, the QoS constraint, and the engine's sub-stream of the
    /// scenario seed (the schedule generator draws from the seed
    /// itself, the testbed noise and LC latency draws from this tweak).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            seed: self.spec.seed ^ 0xE6E,
            qos_p99_ms: self.qos_p99_ms,
            ..EngineConfig::default()
        }
    }

    /// The full observer for this replay — audit trail, metrics and
    /// spans into `obs` — with its SLO burn monitor on the constraint
    /// the policies see.
    pub fn observed<'o>(&self, obs: &'o mut Observer) -> ObservedRun<'o> {
        ObservedRun::with_qos(obs, self.qos_p99_ms)
    }

    /// Replays the scenario under `policy`, watched by `obs` (`&mut ()`
    /// for an unobserved run, [`Replay::observed`] for the audit trail,
    /// metrics and spans; observers that ride together go in as a
    /// tuple). The report does not depend on the observer.
    pub fn run<O: EngineObserver>(&self, policy: &mut dyn Policy, obs: &mut O) -> RunReport {
        run_stream_hooked(
            self.testbed,
            self.engine_config(),
            &mut ScheduleStream::new(&self.schedule()),
            self.faults,
            policy,
            obs,
        )
    }
}

/// Replays `specs` under each policy produced by `make_policy`.
///
/// `make_policy(i)` is called once per (policy index, scenario) pair,
/// so every scenario starts from identical policy state and results
/// are independent of `threads`; every policy sees the *identical*
/// arrival schedules (same seeds, same forced iBench modes). Scenarios
/// of one policy run in parallel across `threads` workers. Policies of
/// different types compare as `Box<dyn Policy + Send>`.
///
/// # Panics
///
/// Panics if `specs` is empty, `n_policies` is zero or `threads` is zero.
pub fn run_comparison<F, P>(
    testbed_cfg: TestbedConfig,
    catalog: &WorkloadCatalog,
    specs: &[ScenarioSpec],
    n_policies: usize,
    qos_p99_ms: Option<f32>,
    threads: usize,
    make_policy: F,
) -> Vec<PolicyOutcome>
where
    F: Fn(usize) -> P + Sync,
    P: Policy + Send,
{
    assert!(!specs.is_empty(), "no scenarios to run");
    assert!(n_policies > 0, "no policies to compare");
    assert!(threads > 0, "need at least one worker thread");
    (0..n_policies)
        .map(|pi| {
            let reports: Vec<RunReport> = map_chunks(specs, threads, |chunk| {
                chunk
                    .iter()
                    .map(|&spec| {
                        // Fresh policy state per scenario: placements
                        // depend only on (policy, spec), never on how
                        // specs were chunked across workers.
                        let replay = Replay {
                            qos_p99_ms,
                            ..Replay::new(testbed_cfg, catalog, spec)
                        };
                        replay.run(&mut make_policy(pi), &mut ())
                    })
                    .collect()
            });
            PolicyOutcome {
                policy: reports[0].policy.to_string(),
                reports,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_orchestrator::{AllLocalPolicy, AllRemotePolicy, RandomPolicy, RoundRobinPolicy};
    use adrias_telemetry::stats;

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new(5.0, 25.0, 700.0, 11),
            ScenarioSpec::new(5.0, 45.0, 700.0, 12),
        ]
    }

    fn make(i: usize) -> Box<dyn Policy + Send> {
        match i {
            0 => Box::new(AllLocalPolicy::new()),
            1 => Box::new(AllRemotePolicy::new()),
            2 => Box::new(RandomPolicy::new(99)),
            _ => Box::new(RoundRobinPolicy::new()),
        }
    }

    #[test]
    fn comparison_runs_all_policies_on_same_schedules() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            4,
            Some(5.0),
            2,
            make,
        );
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].policy, "All-Local");
        assert_eq!(outcomes[1].policy, "All-Remote");
        // Same arrivals → same number of decided apps across policies.
        let counts: Vec<usize> = outcomes
            .iter()
            .map(|o| {
                let (l, r) = (o.offload_fraction(), ());
                let _ = (l, r);
                o.reports
                    .iter()
                    .map(|rep| {
                        let (l, r) = rep.placement_counts();
                        l + r
                    })
                    .sum()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn all_local_never_offloads_all_remote_always() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            None,
            2,
            make,
        );
        assert_eq!(outcomes[0].offload_fraction(), 0.0);
        assert_eq!(outcomes[1].offload_fraction(), 1.0);
    }

    #[test]
    fn remote_heavy_policies_move_more_link_bytes() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            None,
            2,
            make,
        );
        assert!(
            outcomes[1].total_link_bytes() > outcomes[0].total_link_bytes(),
            "All-Remote must move more data than All-Local"
        );
    }

    #[test]
    fn all_remote_hurts_be_runtimes() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            None,
            2,
            make,
        );
        let local_median = stats::median(&outcomes[0].all_be_runtimes());
        let remote_median = stats::median(&outcomes[1].all_be_runtimes());
        assert!(
            remote_median > local_median,
            "remote median {remote_median} vs local {local_median}"
        );
    }

    #[test]
    fn observed_scenario_matches_comparison_run() {
        let spec = ScenarioSpec::new(5.0, 25.0, 700.0, 11);
        let catalog = WorkloadCatalog::paper();
        let mut obs = adrias_obs::Observer::new(adrias_obs::ObsConfig::default());
        let replay = Replay::new(TestbedConfig::noiseless(), &catalog, spec);
        let observed = replay.run(&mut RoundRobinPolicy::new(), &mut replay.observed(&mut obs));
        // Every arrival — forced stressors included — is audited once.
        assert_eq!(
            obs.audit.len(),
            observed.outcomes.len() + observed.unfinished
        );
        let plain = run_comparison(
            TestbedConfig::noiseless(),
            &catalog,
            &[spec],
            1,
            None,
            1,
            |_| RoundRobinPolicy::new(),
        );
        assert_eq!(plain[0].policy, "Round-Robin");
        let plain = &plain[0].reports[0];
        assert_eq!(observed.end_time_s.to_bits(), plain.end_time_s.to_bits());
        assert_eq!(observed.link_bytes.to_bits(), plain.link_bytes.to_bits());
    }

    /// The description is the whole run: its schedule and engine
    /// configuration handed to the engine by hand give the report
    /// `run` gives, and a fault or a forced placement style in the
    /// description reaches the engine.
    #[test]
    fn a_replay_is_its_schedule_and_engine_config() {
        let catalog = WorkloadCatalog::paper();
        let spec = ScenarioSpec::new(5.0, 25.0, 700.0, 11);
        let faults = [FaultEvent {
            at_s: 100.0,
            link: adrias_sim::LinkConfig {
                effective_cap_gbps: 0.25,
                ..adrias_sim::LinkConfig::paper()
            },
        }];
        let healthy = Replay {
            qos_p99_ms: Some(5.0),
            ..Replay::new(TestbedConfig::noiseless(), &catalog, spec)
        };
        let engine = healthy.engine_config();
        assert_eq!(engine.qos_p99_ms, Some(5.0));
        assert_ne!(engine.seed, spec.seed);
        assert_eq!(
            EngineConfig {
                seed: 7,
                qos_p99_ms: None,
                ..engine
            },
            EngineConfig::default()
        );

        let by_hand = run_stream_hooked(
            healthy.testbed,
            engine,
            &mut ScheduleStream::new(&healthy.schedule()),
            &[],
            &mut RoundRobinPolicy::new(),
            &mut (),
        );
        let run = healthy.run(&mut RoundRobinPolicy::new(), &mut ());
        assert_eq!(format!("{run:?}"), format!("{by_hand:?}"));

        let faulted = Replay {
            faults: &faults,
            ..healthy
        }
        .run(&mut RoundRobinPolicy::new(), &mut ());
        assert_ne!(faulted.link_bytes.to_bits(), run.link_bytes.to_bits());

        let forced = Replay {
            style: PlacementStyle::RandomForced,
            ..healthy
        }
        .run(&mut RoundRobinPolicy::new(), &mut ());
        assert_eq!(forced.placement_counts(), (0, 0));
        assert_ne!(run.placement_counts(), (0, 0));
    }

    #[test]
    fn qos_stats_count_consistently() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            Some(3.0),
            1,
            make,
        );
        for outcome in &outcomes {
            for app in ["redis", "memcached"] {
                let (v, o, t) = outcome.lc_qos_stats(app, 3.0);
                assert!(v <= t);
                assert!(o <= t);
                assert_eq!(outcome.lc_p99s(app).len(), t);
            }
        }
    }
}
