//! On-line signature capture (§V-C).
//!
//! "When a new workload is deployed on the system, if Adrias does not
//! own any prior information regarding its application signature, it
//! schedules it on the remote memory, captures and stores the respective
//! metrics." [`AdriasPolicy`] already implements the remote-first rule;
//! this module implements the *capture* half: after a scenario runs,
//! extract the metric sequences observed during the residency of every
//! unknown remote-mode application and turn them into signatures the
//! policy can store for subsequent arrivals.
//!
//! Captured signatures are noisier than the offline isolated-remote ones
//! (they include co-runner traffic), which is exactly the trade-off the
//! paper accepts for unknown applications until a retraining pass
//! happens.

use adrias_obs::{CaptureRecord, CaptureSkip, Observer};
use adrias_workloads::{AppSignature, MemoryMode, WorkloadClass};

use crate::adrias::AdriasPolicy;
use crate::engine::RunReport;
use crate::trace::Trace;

/// Extracts candidate signatures for applications the policy does not
/// know yet, from one finished engine run and the [`Trace`] that rode
/// it, together with one [`CaptureRecord`] per completed deployment
/// explaining what happened to it — stored, or skipped and why.
///
/// A candidate is produced for the **first completed remote-mode
/// deployment** of each unknown BE/LC application; the signature rows
/// are the trace rows covering its residency. Every other outcome
/// gets an audit record with the first skip reason that applied, in
/// rule order: interference stressor, not remote, already known,
/// duplicate in this run, empty residency clip (a residency that rounds
/// to zero trace rows — previously a silent drop).
pub fn capture_unknown_signatures_audited(
    report: &RunReport,
    trace: &Trace,
    is_known: impl Fn(&str) -> bool,
) -> (Vec<AppSignature>, Vec<CaptureRecord>) {
    let mut captured: Vec<AppSignature> = Vec::new();
    let mut records: Vec<CaptureRecord> = Vec::with_capacity(report.outcomes.len());
    for (i, o) in report.outcomes.iter().enumerate() {
        let lo = (o.arrived_s.floor() as usize).min(trace.len());
        let hi = (o.finished_s.ceil() as usize).min(trace.len());
        let skip = if o.class == WorkloadClass::Interference {
            Some(CaptureSkip::Interference)
        } else if o.mode != MemoryMode::Remote {
            Some(CaptureSkip::NotRemote)
        } else if is_known(&o.name) {
            Some(CaptureSkip::AlreadyKnown)
        } else if captured.iter().any(|s| o.name == s.app_name()) {
            Some(CaptureSkip::DuplicateInRun)
        } else if hi <= lo {
            Some(CaptureSkip::EmptyResidency)
        } else {
            None
        };
        let co_runners = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(j, other)| {
                *j != i && other.arrived_s < o.finished_s && other.finished_s > o.arrived_s
            })
            .count();
        records.push(CaptureRecord {
            app: o.name.clone(),
            arrived_s: o.arrived_s,
            finished_s: o.finished_s,
            rows: hi.saturating_sub(lo),
            co_runners,
            skip,
        });
        if skip.is_none() {
            captured.push(AppSignature::new(
                o.name.to_string(),
                trace.rows()[lo..hi].to_vec(),
            ));
        }
    }
    (captured, records)
}

/// Extracts candidate signatures for applications the policy does not
/// know yet, from one finished engine run.
///
/// The unaudited form of [`capture_unknown_signatures_audited`]: same
/// signatures, no per-outcome records.
pub fn capture_unknown_signatures(
    report: &RunReport,
    trace: &Trace,
    is_known: impl Fn(&str) -> bool,
) -> Vec<AppSignature> {
    capture_unknown_signatures_audited(report, trace, is_known).0
}

/// Runs the full §V-C loop on a policy: capture signatures for every
/// application the policy did not know in `report` (rows from its
/// `trace`), store them, and return how many were added.
pub fn absorb_signatures(policy: &mut AdriasPolicy, report: &RunReport, trace: &Trace) -> usize {
    let captured = capture_unknown_signatures(report, trace, |name| policy.knows(name));
    let count = captured.len();
    for sig in captured {
        policy.store_signature(sig);
    }
    count
}

/// [`absorb_signatures`] with an audit trail: every completed
/// deployment's capture attempt lands in the observer (stored captures
/// and skip reasons alike) before the stored signatures are absorbed
/// into the policy. Returns how many signatures were added.
pub fn absorb_signatures_observed(
    policy: &mut AdriasPolicy,
    report: &RunReport,
    trace: &Trace,
    obs: &mut Observer,
) -> usize {
    let (captured, records) =
        capture_unknown_signatures_audited(report, trace, |name| policy.knows(name));
    for record in records {
        obs.record_capture(record);
    }
    let count = captured.len();
    for sig in captured {
        policy.store_signature(sig);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::AllRemotePolicy;
    use crate::engine::{run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival};
    use adrias_sim::TestbedConfig;
    use adrias_workloads::spark;

    fn remote_run(apps: &[&str]) -> (RunReport, Trace) {
        let arrivals: Vec<ScheduledArrival> = apps
            .iter()
            .enumerate()
            .map(|(i, name)| ScheduledArrival::new(i as f64 * 10.0, spark::by_name(name).unwrap()))
            .collect();
        let mut policy = AllRemotePolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            EngineConfig {
                lc_latency_samples: 500,
                ..EngineConfig::default()
            },
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut trace,
        );
        (report, trace)
    }

    #[test]
    fn captures_only_unknown_remote_apps() {
        let (report, trace) = remote_run(&["gmm", "pca", "gmm"]);
        let sigs = capture_unknown_signatures(&report, &trace, |name| name == "pca");
        assert_eq!(sigs.len(), 1, "gmm once, pca skipped as known");
        assert_eq!(sigs[0].app_name(), "gmm");
        assert!(!sigs[0].is_empty());
    }

    #[test]
    fn captured_rows_cover_the_residency() {
        let (report, trace) = remote_run(&["wordcount"]);
        let sigs = capture_unknown_signatures(&report, &trace, |_| false);
        let outcome = &report.outcomes[0];
        let expected = (outcome.finished_s.ceil() - outcome.arrived_s.floor()) as usize;
        assert!(
            (sigs[0].len() as i64 - expected as i64).abs() <= 1,
            "signature rows {} vs residency {}",
            sigs[0].len(),
            expected
        );
    }

    #[test]
    fn local_mode_apps_are_not_captured() {
        use crate::baselines::AllLocalPolicy;
        let arrivals = vec![ScheduledArrival::new(0.0, spark::by_name("gmm").unwrap())];
        let mut policy = AllLocalPolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            EngineConfig::default(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut trace,
        );
        assert!(capture_unknown_signatures(&report, &trace, |_| false).is_empty());
    }

    #[test]
    fn duplicate_arrivals_capture_once() {
        let (report, trace) = remote_run(&["lda", "lda", "lda"]);
        let sigs = capture_unknown_signatures(&report, &trace, |_| false);
        assert_eq!(sigs.len(), 1);
    }

    #[test]
    fn audited_capture_reports_every_outcome_with_skip_reasons() {
        let (report, trace) = remote_run(&["gmm", "pca", "gmm"]);
        let (sigs, records) =
            capture_unknown_signatures_audited(&report, &trace, |name| name == "pca");
        assert_eq!(sigs.len(), 1);
        assert_eq!(records.len(), report.outcomes.len());
        // Records follow completion order; find each app's verdict.
        let skip_of = |app: &str| -> Vec<Option<CaptureSkip>> {
            records
                .iter()
                .filter(|r| r.app == app)
                .map(|r| r.skip)
                .collect()
        };
        assert_eq!(skip_of("pca"), vec![Some(CaptureSkip::AlreadyKnown)]);
        let gmm = skip_of("gmm");
        assert!(gmm.contains(&None), "first gmm completion is stored");
        assert!(
            gmm.contains(&Some(CaptureSkip::DuplicateInRun)),
            "second gmm completion is a duplicate"
        );
        for r in &records {
            if r.skip.is_none() {
                assert!(r.rows >= 1, "stored captures carry their row count");
            }
            assert!(r.finished_s >= r.arrived_s);
        }
    }

    /// Regression: a residency that clips to zero trace rows used to be
    /// a silent `continue`; it must now surface as an
    /// [`CaptureSkip::EmptyResidency`] audit record.
    #[test]
    fn empty_residency_clip_is_reported_not_silently_dropped() {
        use crate::engine::AppOutcome;
        use adrias_workloads::WorkloadClass;
        // Hand-built report: the trace is empty (e.g. truncated), so the
        // only outcome's residency clips to zero rows.
        let report = RunReport {
            policy: "test".into(),
            outcomes: vec![AppOutcome {
                name: "ghost".into(),
                class: WorkloadClass::BestEffort,
                mode: MemoryMode::Remote,
                policy_decided: true,
                arrived_s: 10.0,
                finished_s: 12.0,
                runtime_s: 2.0,
                mean_slowdown: 1.0,
                p99_ms: None,
                p999_ms: None,
                lc_total_time_s: None,
            }],
            link_bytes: 0.0,
            end_time_s: 12.0,
            unfinished: 0,
        };
        let (sigs, records) =
            capture_unknown_signatures_audited(&report, &Trace::default(), |_| false);
        assert!(sigs.is_empty());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].skip, Some(CaptureSkip::EmptyResidency));
        assert_eq!(records[0].rows, 0);
        assert_eq!(records[0].co_runners, 0);
    }

    /// The §V-C round trip under interference: an unknown app captured
    /// remote-first amid a co-runner must round-trip through
    /// `store_signature` and, on a clean re-run, produce the same
    /// decision as a policy seeded with the offline isolated-remote
    /// signature.
    #[test]
    fn captured_signature_round_trips_to_the_same_decision_as_offline() {
        use crate::engine::{run_isolated, run_stream_hooked, EngineConfig, ScheduleStream};
        use crate::online::absorb_signatures_observed;
        use crate::test_support::policy_with_beta;
        use crate::ObservedRun;
        use adrias_obs::{DecisionRule, Observer};
        use adrias_workloads::{ibench, IbenchKind};

        let engine = EngineConfig {
            lc_latency_samples: 500,
            ..EngineConfig::default()
        };
        let schedule = vec![
            ScheduledArrival::new(0.0, ibench::profile(IbenchKind::MemBw))
                .with_mode(MemoryMode::Local)
                .with_duration(400.0),
            ScheduledArrival::new(150.0, spark::by_name("pca").unwrap()),
        ];

        // Run 1: pca is unknown → remote-first capture under the
        // stressor.
        let mut policy = policy_with_beta(0.7);
        let mut obs = Observer::default();
        let mut run_trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut (
                &mut run_trace,
                ObservedRun::with_qos(&mut obs, engine.qos_p99_ms),
            ),
        );
        let pca = report.outcomes.iter().find(|o| o.name == "pca").unwrap();
        assert_eq!(pca.mode, MemoryMode::Remote, "unknown app goes remote");
        let added = absorb_signatures_observed(&mut policy, &report, &run_trace, &mut obs);
        assert_eq!(added, 1);
        assert!(policy.knows("pca"));
        let stored = obs
            .adapt
            .captures()
            .iter()
            .find(|c| c.app == "pca" && c.skip.is_none())
            .expect("stored capture is audited");
        assert!(stored.co_runners >= 1, "captured amid a co-runner");
        assert!(stored.rows >= 1);

        // Clean re-run: pca is now known, so the β-slack rule decides.
        let mut obs2 = Observer::default();
        let _ = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs2, engine.qos_p99_ms),
        );
        let captured_rec = obs2
            .audit
            .records()
            .iter()
            .find(|r| r.input.app == "pca")
            .expect("audited");
        assert!(matches!(
            captured_rec.input.rule,
            DecisionRule::BetaSlack { .. }
        ));

        // Same re-run with the offline isolated-remote signature.
        let (_, trace) = run_isolated(
            TestbedConfig::noiseless(),
            engine,
            spark::by_name("pca").unwrap(),
            MemoryMode::Remote,
        );
        let mut offline_policy = policy_with_beta(0.7);
        offline_policy.store_signature(AppSignature::new(
            "pca",
            trace.iter().map(|s| *s.vec()).collect(),
        ));
        let mut obs3 = Observer::default();
        let _ = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut offline_policy,
            &mut ObservedRun::with_qos(&mut obs3, engine.qos_p99_ms),
        );
        let offline_rec = obs3
            .audit
            .records()
            .iter()
            .find(|r| r.input.app == "pca")
            .expect("audited");
        assert!(matches!(
            offline_rec.input.rule,
            DecisionRule::BetaSlack { .. }
        ));
        assert_eq!(
            captured_rec.input.chosen, offline_rec.input.chosen,
            "captured and offline signatures must agree on placement"
        );
    }

    #[test]
    fn co_runner_counts_cover_overlapping_residencies() {
        // gmm and pca arrive 10 s apart and overlap; each sees one
        // co-runner.
        let (report, trace) = remote_run(&["gmm", "pca"]);
        let (_, records) = capture_unknown_signatures_audited(&report, &trace, |_| false);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.co_runners, 1, "app {} overlaps its peer", r.app);
        }
    }
}
