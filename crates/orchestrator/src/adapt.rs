//! The online-adaptation loop closed: forecast-residual tracking,
//! deterministic drift detection, and the audited model hot-swap gate.
//!
//! §V-C of the paper leaves the online story at "capture unknown
//! signatures and retrain periodically". This module makes that loop
//! observable and evidence-driven:
//!
//! 1. [`ResidualTracker`] rides along an engine run (as an
//!    [`EngineObserver`]) and records, for every policy decision that
//!    carried a prediction, the predicted-vs-realised slowdown residual
//!    once the deployment finishes — plus the system-state forecast
//!    error of the Ŝ window each decision consulted. Residuals feed
//!    per-stream [`PageHinkley`] detectors, so a sustained shift in
//!    forecast quality (a drifted interconnect, new co-runner mix)
//!    surfaces as typed [`DriftEvent`]s instead of silently rotting the
//!    placement quality.
//! 2. On drift, [`fine_tune_candidate`] derives a versioned candidate
//!    model by continuing training on records harvested from the live
//!    run ([`harvest_perf_records`]).
//! 3. [`gate_swap`] evaluates candidate against incumbent on a held-out
//!    slice and either hot-swaps the policy's model (emitting a
//!    [`ModelSwapRecord`] with before/after accuracy) or rejects the
//!    candidate with reasons. A rejected candidate changes nothing.
//!
//! Everything here is deterministic: the tracker's joins are keyed by
//! deployment id, the detectors are pure folds over completion order,
//! fine-tuning uses the worker-invariant minibatch reduction, and the
//! holdout split is index-based. Same-seed runs produce byte-identical
//! drift events and swap records at any worker count.

use std::collections::HashMap;

use adrias_obs::{
    DriftConfig, DriftEvent, ModelSwapRecord, Observer, PageHinkley, Sketch, SwapVerdict,
};
use adrias_predictor::dataset::{PerfRecord, HISTORY_S};
use adrias_predictor::{PerfDataset, PerfModel, SystemStateModel};
use adrias_sim::DeploymentId;
use adrias_telemetry::{MetricVec, METRIC_COUNT};
use adrias_workloads::{WorkloadClass, WorkloadProfile};

use crate::adrias::AdriasPolicy;
use crate::engine::{AppOutcome, EngineObserver, RunReport};
use crate::policy::ExplainedDecision;
use crate::trace::Trace;

/// Which of the policy's two performance models an adaptation action
/// targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelTarget {
    /// The best-effort execution-time model.
    BestEffort,
    /// The latency-critical p99 model.
    LatencyCritical,
}

impl ModelTarget {
    /// Stable export tag.
    pub fn tag(self) -> &'static str {
        match self {
            ModelTarget::BestEffort => "be",
            ModelTarget::LatencyCritical => "lc",
        }
    }
}

/// Residual-tracking parameters.
#[derive(Debug, Clone, Copy)]
pub struct ResidualConfig {
    /// Page–Hinkley parameters shared by all three residual streams.
    pub drift: DriftConfig,
    /// Forecast horizon for the system-state check, seconds (the
    /// paper's Ŝ predicts the 120 s mean).
    pub horizon_s: usize,
}

impl Default for ResidualConfig {
    fn default() -> Self {
        Self {
            drift: DriftConfig::default(),
            horizon_s: 120,
        }
    }
}

/// A decision whose prediction awaits its realised outcome.
#[derive(Debug, Clone, Copy)]
struct PendingPrediction {
    class: WorkloadClass,
    predicted: f32,
}

/// Accumulates forecast residuals over one or more engine runs and
/// detects sustained error shifts.
///
/// Follows the [`adrias_sim::obs::SimMetrics`] idiom: hooks accumulate
/// into plain local state during the run; [`ResidualTracker::flush`]
/// pays the registry/observer accesses once per run. The Page–Hinkley
/// state deliberately survives flushes, so drift that builds across
/// phase boundaries is still caught.
#[derive(Debug)]
pub struct ResidualTracker {
    cfg: ResidualConfig,
    pending: HashMap<u64, PendingPrediction>,
    be_err: Sketch,
    lc_err: Sketch,
    sys_err: Sketch,
    be_ph: PageHinkley,
    lc_ph: PageHinkley,
    sys_ph: PageHinkley,
    drifts: Vec<DriftEvent>,
    /// Decision-time history windows awaiting the end-of-run forecast
    /// check: `(decision time, window rows)`.
    sys_checks: Vec<(f64, Vec<MetricVec>)>,
}

impl ResidualTracker {
    /// Creates an empty tracker.
    pub fn new(cfg: ResidualConfig) -> Self {
        Self {
            cfg,
            pending: HashMap::new(),
            be_err: Sketch::new(),
            lc_err: Sketch::new(),
            sys_err: Sketch::new(),
            be_ph: PageHinkley::new("be.rel_err", cfg.drift),
            lc_ph: PageHinkley::new("lc.rel_err", cfg.drift),
            sys_ph: PageHinkley::new("system.rel_err", cfg.drift),
            drifts: Vec::new(),
            sys_checks: Vec::new(),
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &ResidualConfig {
        &self.cfg
    }

    /// Records one policy decision: remembers the prediction backing
    /// the chosen mode (if any) for the residual join at completion,
    /// and the consulted history window for the end-of-run forecast
    /// check.
    pub fn record_decision(
        &mut self,
        at_s: f64,
        id: u64,
        class: WorkloadClass,
        history: Option<&[MetricVec]>,
        decision: &ExplainedDecision,
    ) {
        if let Some(predicted) = decision.predicted(decision.mode) {
            self.pending
                .insert(id, PendingPrediction { class, predicted });
            if let Some(window) = history {
                self.sys_checks.push((at_s, window.to_vec()));
            }
        }
    }

    /// Joins a completed deployment with its pending prediction and
    /// folds the relative residual into the per-class sketch and
    /// drift detector.
    pub fn record_completion(&mut self, id: u64, outcome: &AppOutcome) {
        let Some(pending) = self.pending.remove(&id) else {
            return;
        };
        let realised = match pending.class {
            WorkloadClass::LatencyCritical => match outcome.p99_ms {
                Some(p99) => p99,
                None => return,
            },
            _ => outcome.runtime_s as f32,
        };
        if realised <= 0.0 {
            return;
        }
        let rel_err = f64::from((pending.predicted - realised).abs() / realised);
        let (errs, ph) = match pending.class {
            WorkloadClass::LatencyCritical => (&mut self.lc_err, &mut self.lc_ph),
            _ => (&mut self.be_err, &mut self.be_ph),
        };
        errs.observe(rel_err);
        if let Some(event) = ph.observe(rel_err, outcome.finished_s) {
            self.drifts.push(event);
        }
    }

    /// Scores the system-state forecaster against the run's realised
    /// trace (a [`Trace`] that rode the same run): one worker-invariant
    /// batched forward pass over every decision-time window, compared to
    /// the actual mean state over the following horizon. Call once after
    /// the run, before [`ResidualTracker::flush`].
    pub fn score_system_forecasts(&mut self, trace: &Trace, system_model: &mut SystemStateModel) {
        let checks = std::mem::take(&mut self.sys_checks);
        if checks.is_empty() {
            return;
        }
        let windows: Vec<&[MetricVec]> = checks.iter().map(|(_, w)| w.as_slice()).collect();
        let forecasts = system_model.predict_batch(&windows);
        for ((at_s, _), forecast) in checks.iter().zip(&forecasts) {
            let Some(actual) = trace.mean_between(*at_s, *at_s + self.cfg.horizon_s as f64) else {
                continue;
            };
            let rel_err = rel_l2(forecast, &actual);
            self.sys_err.observe(rel_err);
            if let Some(event) = self.sys_ph.observe(rel_err, *at_s) {
                self.drifts.push(event);
            }
        }
    }

    /// Residuals tracked so far (BE + LC joins).
    pub fn residuals_tracked(&self) -> u64 {
        self.be_err.count() + self.lc_err.count()
    }

    /// Drift events accumulated since the last flush.
    pub fn pending_drifts(&self) -> &[DriftEvent] {
        &self.drifts
    }

    /// Folds the accumulated residual sketches into the observer's
    /// registry (under `adapt.residual.*`), records the drift events,
    /// and returns them. Sketches reset so a later flush never
    /// double-counts; the Page–Hinkley detectors keep their state.
    pub fn flush(&mut self, obs: &mut Observer) -> Vec<DriftEvent> {
        for (name, errs) in [
            ("adapt.residual.be.rel_err", &mut self.be_err),
            ("adapt.residual.lc.rel_err", &mut self.lc_err),
            ("adapt.residual.system.rel_err", &mut self.sys_err),
        ] {
            obs.registry.merge_sketch(name, &std::mem::take(errs));
        }
        let drifts = std::mem::take(&mut self.drifts);
        for event in &drifts {
            obs.record_drift(*event);
        }
        drifts
    }
}

/// Relative L2 distance between a forecast and the realised mean state,
/// folded in fixed metric order (deterministic).
fn rel_l2(pred: &MetricVec, actual: &MetricVec) -> f64 {
    let p = pred.as_array();
    let a = actual.as_array();
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for i in 0..METRIC_COUNT {
        let d = f64::from(p[i]) - f64::from(a[i]);
        num += d * d;
        den += f64::from(a[i]) * f64::from(a[i]);
    }
    num.sqrt() / den.sqrt().max(1e-9)
}

/// The tracker rides an engine run as one half of an observer pair —
/// `(&mut tracker, ObservedRun::with_qos(obs, qos))` — and reads the
/// two hooks it joins on. It only *reads* engine state, so decisions
/// are bit-identical to an untracked run.
impl EngineObserver for ResidualTracker {
    fn on_decision(
        &mut self,
        at_s: f64,
        id: DeploymentId,
        profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        decision: &ExplainedDecision,
        _policy_name: &str,
    ) {
        self.record_decision(at_s, id.index(), profile.class(), history, decision);
    }

    fn on_complete(&mut self, id: DeploymentId, outcome: &AppOutcome) {
        self.record_completion(id.index(), outcome);
    }
}

/// Harvests the performance records of one workload class from a
/// finished run and its [`Trace`], outcomes filtered by `keep` — the
/// offline trace collection keeps every outcome, the live capture
/// buffer the fine-tuning pass trains on only the policy-decided ones.
/// A record needs the full [`HISTORY_S`]-second window before arrival
/// and at least one trace sample after it; early arrivals are dropped.
/// BE performance is the wall-clock runtime, LC performance the
/// measured p99; an outcome without a positive one yields no record.
pub fn harvest_perf_records<'r>(
    report: &'r RunReport,
    trace: &'r Trace,
    class: WorkloadClass,
    keep: impl Fn(&AppOutcome) -> bool + 'r,
) -> impl Iterator<Item = PerfRecord> + 'r {
    report
        .outcomes
        .iter()
        .filter(move |o| o.class == class && keep(o))
        .filter_map(move |o| {
            let perf = match class {
                WorkloadClass::LatencyCritical => o.p99_ms?,
                _ => o.runtime_s as f32,
            };
            if perf <= 0.0 {
                return None;
            }
            Some(PerfRecord {
                app: o.name.to_string(),
                mode: o.mode,
                history: trace.history_before(o.arrived_s, HISTORY_S)?,
                future_120: trace.mean_between(o.arrived_s, o.arrived_s + 120.0)?,
                future_exec: trace.mean_between(o.arrived_s, o.finished_s)?,
                perf,
            })
        })
}

/// Derives a fine-tuned candidate from an incumbent: clones the weights
/// and continues training for `epochs` epochs on `dataset` (fresh Adam
/// state, normalizers refit on the capture buffer — the standard
/// incremental-fit semantics of [`PerfModel::train`]). The candidate's
/// version is the incumbent's plus one.
pub fn fine_tune_candidate(
    incumbent: &PerfModel,
    dataset: &PerfDataset,
    epochs: usize,
) -> PerfModel {
    let mut candidate = incumbent.clone();
    candidate.set_epochs(epochs);
    let s_hats: Vec<Option<MetricVec>> = dataset
        .records()
        .iter()
        .map(|r| Some(r.future_120))
        .collect();
    candidate.train(dataset, &s_hats);
    candidate.set_version(incumbent.version() + 1);
    candidate
}

/// Swap-gate parameters.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Minimum relative held-out MAE improvement the candidate must
    /// show: swap iff `(mae_inc − mae_cand) / mae_inc ≥ min_margin`.
    pub min_margin: f32,
    /// Every k-th harvested record is held out for the gate
    /// ([`PerfDataset::split_holdout`]).
    pub holdout_every: usize,
    /// Epoch budget for the fine-tuning pass.
    pub fine_tune_epochs: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            min_margin: 0.02,
            holdout_every: 4,
            fine_tune_epochs: 10,
        }
    }
}

/// Evaluates `candidate` against the policy's incumbent model on a
/// held-out slice and either hot-swaps it in or rejects it, recording a
/// [`ModelSwapRecord`] either way.
///
/// Both models are scored by held-out MAE in original units (seconds
/// for BE, milliseconds for LC); the gate margin is the relative MAE
/// improvement. A candidate below `min_margin` is rejected with
/// reasons and the policy is left untouched.
pub fn gate_swap(
    policy: &mut AdriasPolicy,
    target: ModelTarget,
    candidate: PerfModel,
    holdout: &PerfDataset,
    at_s: f64,
    min_margin: f32,
    obs: &mut Observer,
) -> SwapVerdict {
    let s_hats: Vec<Option<MetricVec>> = holdout
        .records()
        .iter()
        .map(|r| Some(r.future_120))
        .collect();
    // `evaluate` needs `&mut`; score clones so the deployed incumbent
    // and the swappable candidate stay untouched by evaluation.
    let mut inc_eval = match target {
        ModelTarget::BestEffort => policy.be_model().clone(),
        ModelTarget::LatencyCritical => policy.lc_model().clone(),
    };
    let incumbent_version = inc_eval.version();
    let inc = inc_eval.evaluate(holdout, &s_hats);
    let mut cand_eval = candidate.clone();
    let cand = cand_eval.evaluate(holdout, &s_hats);

    let gate_margin = if inc.mae > 0.0 {
        (inc.mae - cand.mae) / inc.mae
    } else {
        0.0
    };
    let mut reasons = Vec::new();
    if !gate_margin.is_finite() || gate_margin < min_margin {
        reasons.push(format!(
            "held-out MAE improvement {gate_margin:.4} below required {min_margin:.4} \
             (incumbent {:.4}, candidate {:.4} over {} records)",
            inc.mae,
            cand.mae,
            holdout.len()
        ));
    }
    let verdict = if reasons.is_empty() {
        SwapVerdict::Swapped
    } else {
        SwapVerdict::Rejected
    };
    let record = ModelSwapRecord {
        at_s,
        target: target.tag(),
        verdict,
        incumbent_version,
        candidate_version: candidate.version(),
        incumbent_mae: inc.mae,
        candidate_mae: cand.mae,
        incumbent_r2: inc.r2,
        candidate_r2: cand.r2,
        gate_margin,
        reasons,
    };
    if verdict == SwapVerdict::Swapped {
        match target {
            ModelTarget::BestEffort => policy.swap_be_model(candidate),
            ModelTarget::LatencyCritical => policy.swap_lc_model(candidate),
        }
    }
    obs.record_swap(record);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ExplainedDecision, Policy};
    use crate::test_support::{metric_row, policy_with_beta, small_be_dataset, trained_parts};
    use adrias_obs::DecisionRule;
    use adrias_workloads::MemoryMode;

    fn be_decision(predicted: f32) -> ExplainedDecision {
        ExplainedDecision {
            mode: MemoryMode::Remote,
            rule: DecisionRule::BetaSlack { beta: 0.7 },
            pred_local: Some(predicted * 1.2),
            pred_remote: Some(predicted),
        }
    }

    fn be_outcome(id: usize, finished_s: f64, runtime_s: f64) -> AppOutcome {
        AppOutcome {
            name: format!("app{id}").into(),
            class: WorkloadClass::BestEffort,
            mode: MemoryMode::Remote,
            policy_decided: true,
            arrived_s: finished_s - runtime_s,
            finished_s,
            runtime_s,
            mean_slowdown: 1.0,
            p99_ms: None,
            p999_ms: None,
            lc_total_time_s: None,
        }
    }

    #[test]
    fn residual_join_fires_drift_on_sustained_error_shift() {
        let cfg = ResidualConfig {
            drift: DriftConfig {
                min_samples: 4,
                delta: 0.05,
                lambda: 0.5,
            },
            ..ResidualConfig::default()
        };
        let mut tracker = ResidualTracker::new(cfg);
        // Phase 1: accurate predictions (5 % residual).
        for i in 0..6u64 {
            tracker.record_decision(
                i as f64,
                i,
                WorkloadClass::BestEffort,
                None,
                &be_decision(100.0),
            );
            tracker.record_completion(i, &be_outcome(i as usize, 10.0 + i as f64, 95.0));
        }
        assert!(tracker.pending_drifts().is_empty(), "no drift while stable");
        // Phase 2: the world shifted — predictions are now 2× off.
        for i in 6..14u64 {
            tracker.record_decision(
                i as f64,
                i,
                WorkloadClass::BestEffort,
                None,
                &be_decision(100.0),
            );
            tracker.record_completion(i, &be_outcome(i as usize, 10.0 + i as f64, 210.0));
        }
        assert!(
            !tracker.pending_drifts().is_empty(),
            "sustained 2x residuals must fire the detector"
        );
        let event = tracker.pending_drifts()[0];
        assert_eq!(event.stream, "be.rel_err");
        assert!(event.stat > event.threshold);

        let mut obs = Observer::default();
        let drained = tracker.flush(&mut obs);
        assert_eq!(drained.len(), obs.adapt.drifts().len());
        assert!(tracker.pending_drifts().is_empty());
        let errs = obs
            .registry
            .sketch("adapt.residual.be.rel_err")
            .expect("flushed");
        assert_eq!(errs.count(), 14);
        // A second flush with nothing new records nothing extra.
        let again = tracker.flush(&mut obs);
        assert!(again.is_empty());
        assert_eq!(
            obs.registry
                .sketch("adapt.residual.be.rel_err")
                .unwrap()
                .count(),
            14
        );
    }

    #[test]
    fn completions_without_pending_predictions_are_ignored() {
        let mut tracker = ResidualTracker::new(ResidualConfig::default());
        tracker.record_completion(99, &be_outcome(99, 10.0, 50.0));
        assert_eq!(tracker.residuals_tracked(), 0);
    }

    #[test]
    fn gate_rejects_a_deliberately_worse_candidate() {
        let mut policy = policy_with_beta(0.7);
        let ds = small_be_dataset();
        let (_, holdout) = ds.split_holdout(3).expect("holdout");
        // A candidate fine-tuned for zero epochs keeps the incumbent's
        // weights but refits normalizers on the tiny capture set —
        // deliberately no better; with margin demanded, it must lose.
        // Harsher: a freshly-seeded barely-trained model.
        let mut worse = PerfModel::new(adrias_predictor::PerfModelConfig {
            epochs: 1,
            ..*policy.be_model().config()
        });
        let s_hats: Vec<Option<MetricVec>> =
            ds.records().iter().map(|r| Some(r.future_120)).collect();
        worse.train(&ds, &s_hats);
        worse.set_version(7);

        let mut obs = Observer::default();
        let before = policy.be_model().version();
        let verdict = gate_swap(
            &mut policy,
            ModelTarget::BestEffort,
            worse,
            &holdout,
            100.0,
            0.02,
            &mut obs,
        );
        assert_eq!(verdict, SwapVerdict::Rejected);
        assert_eq!(policy.be_model().version(), before, "policy untouched");
        assert_eq!(obs.adapt.swaps().len(), 1);
        let rec = &obs.adapt.swaps()[0];
        assert_eq!(rec.verdict, SwapVerdict::Rejected);
        assert_eq!(rec.candidate_version, 7);
        assert!(!rec.reasons.is_empty(), "rejections must carry reasons");
        assert!(rec.candidate_mae >= rec.incumbent_mae * 0.98);
    }

    #[test]
    fn gate_swaps_a_genuinely_better_candidate() {
        // Incumbent: barely trained on the capture distribution.
        // Candidate: the well-trained reference model.
        let (system_model, be_model, lc_model, signatures) = trained_parts();
        let ds = small_be_dataset();
        let (train, holdout) = ds.split_holdout(3).expect("holdout");
        let s_hats: Vec<Option<MetricVec>> =
            train.records().iter().map(|r| Some(r.future_120)).collect();
        let mut weak = PerfModel::new(adrias_predictor::PerfModelConfig {
            epochs: 1,
            ..*be_model.config()
        });
        weak.train(&train, &s_hats);
        let mut policy = AdriasPolicy::new(
            system_model.clone(),
            weak,
            lc_model.clone(),
            signatures.clone(),
            0.7,
            2.0,
        );
        let mut better = be_model.clone();
        better.set_version(1);

        let mut obs = Observer::default();
        let verdict = gate_swap(
            &mut policy,
            ModelTarget::BestEffort,
            better,
            &holdout,
            200.0,
            0.02,
            &mut obs,
        );
        assert_eq!(verdict, SwapVerdict::Swapped);
        assert_eq!(policy.be_model().version(), 1);
        let rec = &obs.adapt.swaps()[0];
        assert_eq!(rec.verdict, SwapVerdict::Swapped);
        assert!(rec.reasons.is_empty());
        assert!(
            rec.candidate_mae < rec.incumbent_mae,
            "swap implies measurable held-out improvement: {} vs {}",
            rec.candidate_mae,
            rec.incumbent_mae
        );
        assert!(rec.gate_margin >= 0.02);

        // The swapped-in model drives decisions exactly like a policy
        // built with it from scratch.
        let mut reference = policy_with_beta(0.7);
        let history = vec![metric_row(0.0); HISTORY_S];
        let gmm = adrias_workloads::spark::by_name("gmm").unwrap();
        let ctx = crate::policy::DecisionContext {
            profile: &gmm,
            history: Some(&history),
            qos_p99_ms: None,
            stamp: None,
        };
        let swapped = policy.decide_explained(&ctx);
        let fresh = reference.decide_explained(&ctx);
        assert_eq!(swapped.mode, fresh.mode);
        assert_eq!(
            swapped.pred_local.map(f32::to_bits),
            fresh.pred_local.map(f32::to_bits)
        );
        assert_eq!(
            swapped.pred_remote.map(f32::to_bits),
            fresh.pred_remote.map(f32::to_bits)
        );
    }

    #[test]
    fn fine_tune_bumps_version_and_keeps_incumbent_untouched() {
        let (_, be_model, _, _) = trained_parts();
        let ds = small_be_dataset();
        let candidate = fine_tune_candidate(be_model, &ds, 2);
        assert_eq!(candidate.version(), be_model.version() + 1);
        assert_eq!(be_model.config().epochs, 80, "incumbent config untouched");
        assert!(candidate.is_trained());
    }

    #[test]
    fn harvested_records_mirror_policy_decided_outcomes() {
        use crate::baselines::AllRemotePolicy;
        use crate::engine::{run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival};
        use adrias_sim::TestbedConfig;
        use adrias_workloads::{ibench, spark, IbenchKind};

        let arrivals = vec![
            ScheduledArrival::new(0.0, ibench::profile(IbenchKind::MemBw))
                .with_mode(MemoryMode::Local)
                .with_duration(400.0),
            ScheduledArrival::new(150.0, spark::by_name("gmm").unwrap()),
        ];
        let mut policy = AllRemotePolicy::new();
        let mut trace = Trace::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            EngineConfig::default(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut trace,
        );
        let decided = |o: &AppOutcome| o.policy_decided;
        let records: Vec<PerfRecord> =
            harvest_perf_records(&report, &trace, WorkloadClass::BestEffort, decided).collect();
        // Only gmm qualifies: policy-decided BE with a full 120 s
        // history window before arrival.
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.app, "gmm");
        assert_eq!(r.history.len(), HISTORY_S);
        assert!(r.perf > 0.0);
        assert_eq!(r.mode, MemoryMode::Remote);
        // The stressor is forced, not policy-decided.
        assert_eq!(
            harvest_perf_records(&report, &trace, WorkloadClass::Interference, decided).count(),
            0
        );
    }
}
