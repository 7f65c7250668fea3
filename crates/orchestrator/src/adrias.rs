//! The Adrias policy: prediction-driven memory-mode selection.

use std::sync::Arc;

use adrias_core::Name;
use adrias_predictor::dataset::{pool_rows_into, SEQ_LEN};
use adrias_predictor::{PerfModel, PerfScratch, SystemScratch, SystemStateModel};
use adrias_telemetry::{MetricVec, WindowStamp};
use adrias_workloads::{AppSignature, MemoryMode, WorkloadClass};

use adrias_obs::DecisionRule;

use crate::lane::HistoryLane;
use crate::policy::{DecisionContext, ExplainedDecision, Policy};

/// The β-slack placement rule for best-effort applications (§V-C):
/// stay **local** iff the predicted local runtime beats the predicted
/// remote runtime by more than the slack factor, `t̂_local < β · t̂_remote`.
/// Ties (exact equality) offload, trading the tolerated slowdown for
/// freed local memory.
pub fn be_rule(pred_local_s: f32, pred_remote_s: f32, beta: f32) -> MemoryMode {
    if pred_local_s < beta * pred_remote_s {
        MemoryMode::Local
    } else {
        MemoryMode::Remote
    }
}

/// The QoS-threshold placement rule for latency-critical applications
/// (§V-C): offload **remote** iff the predicted remote tail latency
/// still meets the constraint, `p̂99_remote ≤ QoS`. Exactly at the
/// threshold the prediction satisfies the SLO, so the app offloads.
pub fn lc_rule(pred_remote_p99_ms: f32, qos_p99_ms: f32) -> MemoryMode {
    if pred_remote_p99_ms <= qos_p99_ms {
        MemoryMode::Remote
    } else {
        MemoryMode::Local
    }
}

/// The deep-learning-driven orchestration policy (§V-C).
///
/// Holds the trained system-state model, the two universal performance
/// models (one for BE, one for LC) and the application-signature store.
/// Placement rules:
///
/// * **Unknown app** (no signature): schedule **remote**, so a signature
///   can be captured from an isolated-remote profile run.
/// * **BE**: `local` iff `t̂_local < β · t̂_remote`, else `remote`.
/// * **LC**: `remote` iff `p̂99_remote ≤ QoS`, else `local`.
/// * During Watcher warm-up (no full history window) known apps fall
///   back to local, the safe default.
///
/// A forecast miss runs the perf model's history branch on a helper
/// thread beside the `Ŝ` forecast when the host has a second core (the
/// private `lane` module); the answer is the single-threaded one, bit
/// for bit.
pub struct AdriasPolicy {
    name: String,
    system_model: SystemStateModel,
    /// Shared with the history lane's helper, never cloned for it.
    be_model: Arc<PerfModel>,
    lc_model: Arc<PerfModel>,
    /// The signature store: one entry per known application, in name
    /// order, looked up once per decision. It holds a catalog's few
    /// dozen names, so a scan comparing name handles beats a tree
    /// search comparing their text.
    apps: Vec<(Name, KnownApp)>,
    beta: f32,
    default_qos_p99_ms: f32,
    /// Test-only fault injection: when set, the LC branch ignores the
    /// QoS threshold and offloads unconditionally. Exists so the
    /// adversarial fuzzer can prove its QoS oracle detects a genuinely
    /// broken policy; see [`AdriasPolicy::set_test_qos_bypass`].
    test_qos_bypass: bool,
    /// Whether to time model forwards (host wall clock) for the engine
    /// self-profiler; see [`Policy::take_forward_wall_ns`].
    wall_profile: bool,
    /// Accumulated forward wall nanoseconds since the last drain: the
    /// deciding thread's wall over each whole prediction, the helper's
    /// history branch overlapped inside it.
    forward_wall_ns: u64,
    /// What decisions have computed from the current Watcher window.
    record: StampRecord,
    /// The Watcher window pooled to [`SEQ_LEN`] rows, once per miss,
    /// for both models.
    pooled: Vec<MetricVec>,
    sys_scratch: SystemScratch,
    be_scratch: PerfScratch,
    lc_scratch: PerfScratch,
    lane: HistoryLane,
}

/// One known application: its captured signature and the
/// signature-branch features (`h_k`, `1 × hidden`) through each perf
/// model, computed when the signature is stored (or a model swapped) —
/// the signature LSTMs never run on the decision path.
#[derive(Debug, Clone)]
struct KnownApp {
    signature: AppSignature,
    be_h_k: Vec<f32>,
    lc_h_k: Vec<f32>,
}

/// The entry of the signature store `apps` for `app`, found by handle.
fn known<'a>(apps: &'a [(Name, KnownApp)], app: &Name) -> Option<&'a KnownApp> {
    apps.iter()
        .find(|(name, _)| name == app)
        .map(|(_, known)| known)
}

/// The signature-branch features of `signature` through `model`.
fn signature_features(
    model: &PerfModel,
    scratch: &mut PerfScratch,
    signature: &AppSignature,
) -> Vec<f32> {
    let window = model.normalized_signature_window(signature);
    model.signature_features_into(&window, scratch).to_vec()
}

/// Everything a decision memoises, keyed **once** on the
/// [`WindowStamp`] of the Watcher window it was computed from — equal
/// stamps guarantee bit-identical windows (see
/// [`DecisionContext::stamp`]). Each slot fills on first use under that
/// stamp; a different stamp empties them all. The buffers keep their
/// capacity across resets, so steady-state decisions allocate nothing.
///
/// Besides the stamp, a slot depends on a perf model (`h_s`, `heads`)
/// and on a stored signature (`heads`): [`AdriasPolicy::swap_be_model`] /
/// [`AdriasPolicy::swap_lc_model`] and [`AdriasPolicy::store_signature`]
/// empty exactly those.
#[derive(Debug, Default)]
struct StampRecord {
    stamp: Option<WindowStamp>,
    /// The system-state forecast `Ŝ`.
    s_hat: Option<MetricVec>,
    /// History-branch features `h_s` (`1 × hidden`) through the BE
    /// (`[0]`) and LC (`[1]`) perf model; empty until computed.
    h_s: [Vec<f32>; 2],
    /// The prediction head's `(local, remote)` per application and
    /// class, in first-decision order. Arrivals sharing a stamp come
    /// from a catalog of a few dozen names, so a scan beats hashing.
    heads: Vec<(Name, WorkloadClass, (f32, f32))>,
}

impl StampRecord {
    /// Empties every slot unless the record already belongs to `stamp`.
    fn rekey(&mut self, stamp: WindowStamp) {
        if self.stamp != Some(stamp) {
            self.stamp = Some(stamp);
            self.s_hat = None;
            self.h_s.iter_mut().for_each(Vec::clear);
            self.heads.clear();
        }
    }

    /// Empties what came through the BE (`lc == false`) or LC perf
    /// model.
    fn forget_model(&mut self, lc: bool) {
        self.h_s[usize::from(lc)].clear();
        self.heads.retain(|(_, class, _)| is_lc(*class) != lc);
    }
}

/// Which perf model scores `class`: LC services the LC model,
/// everything else the BE model.
fn is_lc(class: WorkloadClass) -> bool {
    class == WorkloadClass::LatencyCritical
}

impl std::fmt::Debug for AdriasPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AdriasPolicy(beta={}, {} signatures)",
            self.beta,
            self.apps.len()
        )
    }
}

impl AdriasPolicy {
    /// Builds the policy from trained models and the signature store.
    ///
    /// # Panics
    ///
    /// Panics if any model is untrained, `beta` is outside `(0, 1]`, or
    /// the QoS constraint is not positive.
    pub fn new(
        system_model: SystemStateModel,
        be_model: PerfModel,
        lc_model: PerfModel,
        signatures: Vec<AppSignature>,
        beta: f32,
        default_qos_p99_ms: f32,
    ) -> Self {
        assert!(system_model.is_trained(), "system-state model untrained");
        assert!(be_model.is_trained(), "BE performance model untrained");
        assert!(lc_model.is_trained(), "LC performance model untrained");
        assert!(
            beta > 0.0 && beta <= 1.0,
            "beta must be in (0, 1], got {beta}"
        );
        assert!(default_qos_p99_ms > 0.0, "QoS constraint must be positive");
        let sys_scratch = system_model.make_scratch();
        let be_scratch = be_model.make_scratch();
        let lc_scratch = lc_model.make_scratch();
        let mut policy = Self {
            name: format!("Adrias(b={beta})"),
            system_model,
            be_model: Arc::new(be_model),
            lc_model: Arc::new(lc_model),
            apps: Vec::new(),
            beta,
            default_qos_p99_ms,
            test_qos_bypass: false,
            wall_profile: false,
            forward_wall_ns: 0,
            record: StampRecord::default(),
            pooled: Vec::with_capacity(SEQ_LEN),
            sys_scratch,
            be_scratch,
            lc_scratch,
            lane: HistoryLane::new(),
        };
        for signature in signatures {
            policy.store_signature(signature);
        }
        policy
    }

    /// **Test-only** fault injection: when enabled, latency-critical
    /// decisions offload remote unconditionally, *ignoring* the QoS
    /// threshold — a deliberately broken policy. The audit trail still
    /// records the `QosThreshold` rule with the real predictions, so a
    /// violating decision is visible as `chosen = remote` with
    /// `pred_remote > qos` (negative margin).
    ///
    /// This exists so the adversarial fuzzer can prove its differential
    /// QoS oracle finds and shrinks a real counterexample. Never enable
    /// it outside that self-check.
    #[doc(hidden)]
    pub fn set_test_qos_bypass(&mut self, enabled: bool) {
        self.test_qos_bypass = enabled;
    }

    /// Visits every `f32` buffer of the three models and their decision
    /// scratches — the history lane's included, once it exists — by name
    /// (see [`PerfModel::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        self.system_model.visit_storage(f);
        self.be_model.visit_storage(f);
        self.lc_model.visit_storage(f);
        self.sys_scratch.visit_storage(f);
        self.be_scratch.visit_storage(f);
        self.lc_scratch.visit_storage(f);
        self.lane.visit_storage(f);
    }

    /// How many history branches of forecast misses ran on the lane's
    /// helper thread and how many on the deciding thread, in that order.
    pub fn history_branches(&self) -> (u64, u64) {
        self.lane.branches()
    }

    #[cfg(test)]
    pub(crate) fn history_lane_mut(&mut self) -> &mut HistoryLane {
        &mut self.lane
    }

    /// The slack parameter β.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// The default p99 QoS constraint, milliseconds.
    pub fn default_qos_p99_ms(&self) -> f32 {
        self.default_qos_p99_ms
    }

    /// Whether a signature is stored for `app`.
    pub fn knows(&self, app: &str) -> bool {
        self.apps.iter().any(|(name, _)| **name == *app)
    }

    /// Stores (or replaces) a captured signature.
    ///
    /// Also runs each performance model's signature LSTM branch on the
    /// normalized window and stores the resulting `h_k` features, so
    /// a decision never touches signature data — or the signature
    /// LSTMs — at decision time.
    pub fn store_signature(&mut self, signature: AppSignature) {
        let name = Name::from(signature.app_name().to_owned());
        // Predictions memoised from the signature this one replaces.
        self.record.heads.retain(|(app, ..)| *app != name);
        let app = KnownApp {
            be_h_k: signature_features(&self.be_model, &mut self.be_scratch, &signature),
            lc_h_k: signature_features(&self.lc_model, &mut self.lc_scratch, &signature),
            signature,
        };
        match self.apps.binary_search_by(|(known, _)| known.cmp(&name)) {
            Ok(at) => self.apps[at].1 = app,
            Err(at) => self.apps.insert(at, (name, app)),
        }
    }

    /// The trained best-effort performance model currently deployed.
    pub fn be_model(&self) -> &PerfModel {
        &self.be_model
    }

    /// The trained latency-critical performance model currently deployed.
    pub fn lc_model(&self) -> &PerfModel {
        &self.lc_model
    }

    /// The trained system-state forecaster.
    pub fn system_model(&self) -> &SystemStateModel {
        &self.system_model
    }

    /// The stored application signatures, sorted by name.
    pub fn signatures(&self) -> Vec<&AppSignature> {
        self.apps.iter().map(|(_, app)| &app.signature).collect()
    }

    /// Hot-swaps the best-effort performance model for `model`.
    ///
    /// Everything derived from the old model is rebuilt: the prediction
    /// scratches, the history lane's included (they snapshot batch-norm
    /// running stats), the per-app signature features (the new model may
    /// normalize differently), and what decisions memoised through it. Decisions after the swap
    /// are exactly what a policy constructed with `model` would make.
    ///
    /// # Panics
    ///
    /// Panics if `model` is untrained.
    pub fn swap_be_model(&mut self, model: PerfModel) {
        assert!(model.is_trained(), "cannot swap in an untrained BE model");
        self.be_model = Arc::new(model);
        self.be_scratch = self.be_model.make_scratch();
        self.lane.swap_model(false, &self.be_model);
        self.record.forget_model(false);
        for (_, app) in &mut self.apps {
            app.be_h_k = signature_features(&self.be_model, &mut self.be_scratch, &app.signature);
        }
    }

    /// Hot-swaps the latency-critical performance model; see
    /// [`AdriasPolicy::swap_be_model`] for the rebuild guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `model` is untrained.
    pub fn swap_lc_model(&mut self, model: PerfModel) {
        assert!(model.is_trained(), "cannot swap in an untrained LC model");
        self.lc_model = Arc::new(model);
        self.lc_scratch = self.lc_model.make_scratch();
        self.lane.swap_model(true, &self.lc_model);
        self.record.forget_model(true);
        for (_, app) in &mut self.apps {
            app.lc_h_k = signature_features(&self.lc_model, &mut self.lc_scratch, &app.signature);
        }
    }

    /// Predicted performance (execution time for BE, p99 for LC) for one
    /// mode, or `None` when no history window or signature is available.
    ///
    /// Uncached, allocating and on one thread: the forecast and the perf
    /// model run in full on every call ([`SystemStateModel::predict`]
    /// and [`PerfModel::predict`], each on a scratch of the call's own)
    /// and nothing memoised is read or written. That makes it the oracle the
    /// decision path is pinned against — every prediction
    /// [`Policy::decide_explained`] reports must equal this one bit for
    /// bit (`tests/fastpath_parity.rs`).
    pub fn predict_perf(&self, ctx: &DecisionContext<'_>, mode: MemoryMode) -> Option<f32> {
        let history = ctx.history?;
        let signature = &known(&self.apps, ctx.profile.name_handle())?.signature;
        let s_hat = self.system_model.predict(history);
        let model = if is_lc(ctx.profile.class()) {
            &self.lc_model
        } else {
            &self.be_model
        };
        Some(model.predict(history, signature, mode, Some(&s_hat)))
    }

    /// Predicted `(local, remote)` performance, or `None` when no
    /// history window or signature is available — the per-decision
    /// prediction.
    ///
    /// Every stage is memoised on [`DecisionContext::stamp`] — the
    /// forecast `Ŝ`, the history features of the perf model in charge,
    /// and the head's answer for this application — so a repeated
    /// `(stamp, application)` costs two lookups, and whatever does run
    /// goes through preallocated scratch: the steady-state decision
    /// makes no heap allocations. Each entry is bit-identical to the
    /// corresponding [`AdriasPolicy::predict_perf`] call.
    pub fn predict_perf_both(&mut self, ctx: &DecisionContext<'_>) -> Option<(f32, f32)> {
        self.predict(ctx).ok()
    }

    /// [`AdriasPolicy::predict_perf_both`], or the decision to fall back
    /// on when there is nothing to predict from. The one signature-table
    /// lookup of a decision happens here.
    fn predict(&mut self, ctx: &DecisionContext<'_>) -> Result<(f32, f32), ExplainedDecision> {
        let Some(app) = known(&self.apps, ctx.profile.name_handle()) else {
            // Unknown application: remote-first to capture a signature.
            return Err(ExplainedDecision {
                rule: DecisionRule::UnknownRemoteFirst,
                ..ExplainedDecision::bare(MemoryMode::Remote)
            });
        };
        let Some(history) = ctx.history else {
            // Watcher warm-up: play safe.
            return Err(ExplainedDecision {
                rule: DecisionRule::WarmupDefault,
                ..ExplainedDecision::bare(MemoryMode::Local)
            });
        };
        let t0 = self.wall_profile.then(std::time::Instant::now);
        let class = ctx.profile.class();
        let lc = is_lc(class);
        let (model, scratch, h_k) = if lc {
            (&self.lc_model, &mut self.lc_scratch, &app.lc_h_k)
        } else {
            (&self.be_model, &mut self.be_scratch, &app.be_h_k)
        };
        // A stamp vouches that the window is the one the record was
        // filled from. A stamp-less context can make no such promise: it
        // computes everything on a blank record of its own, reading and
        // leaving nothing.
        let mut unkeyed = StampRecord::default();
        let record = match ctx.stamp {
            Some(stamp) => {
                self.record.rekey(stamp);
                &mut self.record
            }
            None => &mut unkeyed,
        };
        let name = ctx.profile.name_handle();
        let memoised = record
            .heads
            .iter()
            .find(|(app, c, _)| *c == class && app == name);
        let preds = match memoised {
            Some(&(.., preds)) => preds,
            None => {
                let h_s = &mut record.h_s[usize::from(lc)];
                // Both branches read the window pooled once.
                if record.s_hat.is_none() || h_s.is_empty() {
                    pool_rows_into(history, SEQ_LEN, &mut self.pooled);
                }
                let pooled = &self.pooled;
                let s_hat = match record.s_hat {
                    Some(s_hat) => {
                        if h_s.is_empty() {
                            self.lane.inline(model, pooled, scratch, h_s);
                        }
                        s_hat
                    }
                    // The forecast here, the history branch beside it.
                    // (Both slots fill on a stamp's first miss, so `h_s`
                    // is empty already.)
                    None => {
                        h_s.clear();
                        let (system_model, sys_scratch) =
                            (&self.system_model, &mut self.sys_scratch);
                        self.lane.overlap(
                            [&self.be_model, &self.lc_model],
                            lc,
                            pooled,
                            scratch,
                            h_s,
                            || system_model.predict_into(pooled, sys_scratch),
                        )
                    }
                };
                record.s_hat = Some(s_hat);
                let [local, remote] = model.predict_both_from_features(
                    h_s,
                    h_k,
                    [MemoryMode::Local, MemoryMode::Remote],
                    Some(&s_hat),
                    scratch,
                );
                record.heads.push((name.clone(), class, (local, remote)));
                (local, remote)
            }
        };
        if let Some(t0) = t0 {
            self.forward_wall_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok(preds)
    }
}

impl Policy for AdriasPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn lane(&self) -> &'static str {
        "fast"
    }

    fn set_wall_profiling(&mut self, enabled: bool) {
        self.wall_profile = enabled;
    }

    fn take_forward_wall_ns(&mut self) -> u64 {
        std::mem::take(&mut self.forward_wall_ns)
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        self.decide_explained(ctx).mode
    }

    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        let (pred_local, pred_remote) = match self.predict(ctx) {
            Ok(preds) => preds,
            Err(fallback) => return fallback,
        };
        let (mode, rule) = match ctx.profile.class() {
            WorkloadClass::LatencyCritical => {
                let qos = ctx.qos_p99_ms.unwrap_or(self.default_qos_p99_ms);
                let mode = if self.test_qos_bypass {
                    MemoryMode::Remote
                } else {
                    lc_rule(pred_remote, qos)
                };
                (mode, DecisionRule::QosThreshold { qos_p99_ms: qos })
            }
            _ => (
                be_rule(pred_local, pred_remote, self.beta),
                DecisionRule::BetaSlack { beta: self.beta },
            ),
        };
        ExplainedDecision {
            mode,
            rule,
            pred_local: Some(pred_local),
            pred_remote: Some(pred_remote),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{metric_row, policy_with_beta};
    use adrias_predictor::dataset::HISTORY_S;
    use adrias_telemetry::MetricVec;
    use adrias_workloads::{keyvalue, spark, WorkloadProfile};

    fn ctx_for<'a>(
        profile: &'a WorkloadProfile,
        history: &'a [MetricVec],
        qos: Option<f32>,
    ) -> DecisionContext<'a> {
        DecisionContext {
            profile,
            history: Some(history),
            qos_p99_ms: qos,
            stamp: None,
        }
    }

    #[test]
    fn unknown_apps_go_remote_first() {
        let mut policy = policy_with_beta(0.9);
        let unknown = spark::by_name("pca").unwrap();
        let history = vec![metric_row(0.0); HISTORY_S];
        assert!(!policy.knows("pca"));
        assert_eq!(
            policy.decide(&ctx_for(&unknown, &history, None)),
            MemoryMode::Remote
        );
        policy.store_signature(AppSignature::new("pca", vec![metric_row(0.2); 10]));
        assert!(policy.knows("pca"));
    }

    #[test]
    fn warmup_defaults_to_local_for_known_apps() {
        let mut policy = policy_with_beta(0.9);
        let gmm = spark::by_name("gmm").unwrap();
        let ctx = DecisionContext {
            profile: &gmm,
            history: None,
            qos_p99_ms: None,
            stamp: None,
        };
        assert_eq!(policy.decide(&ctx), MemoryMode::Local);
    }

    #[test]
    fn beta_governs_be_offloading() {
        let history = vec![metric_row(0.0); HISTORY_S];
        let gmm = spark::by_name("gmm").unwrap();
        let nweight = spark::by_name("nweight").unwrap();

        // β = 1: nweight (2× remote penalty) must stay local. gmm's
        // margin (5 %) is within model error, so it is not asserted —
        // the paper itself attributes β = 1 behaving like All-Local
        // partly to "implicit accuracy errors".
        let mut strict = policy_with_beta(1.0);
        assert_eq!(
            strict.decide(&ctx_for(&nweight, &history, None)),
            MemoryMode::Local
        );

        // β = 0.7: tolerate ≈43 % degradation → offload gmm (1.05×) but
        // never nweight (2×).
        let mut relaxed = policy_with_beta(0.7);
        assert_eq!(
            relaxed.decide(&ctx_for(&gmm, &history, None)),
            MemoryMode::Remote
        );
        assert_eq!(
            relaxed.decide(&ctx_for(&nweight, &history, None)),
            MemoryMode::Local
        );

        // The predicted remote/local ratio must separate the two apps.
        let ctx_g = ctx_for(&gmm, &history, None);
        let ratio_gmm = relaxed.predict_perf(&ctx_g, MemoryMode::Remote).unwrap()
            / relaxed.predict_perf(&ctx_g, MemoryMode::Local).unwrap();
        let ctx_n = ctx_for(&nweight, &history, None);
        let ratio_nweight = relaxed.predict_perf(&ctx_n, MemoryMode::Remote).unwrap()
            / relaxed.predict_perf(&ctx_n, MemoryMode::Local).unwrap();
        assert!(
            ratio_nweight > ratio_gmm + 0.3,
            "ratios should separate: nweight {ratio_nweight} vs gmm {ratio_gmm}"
        );
    }

    #[test]
    fn lc_follows_qos_constraint() {
        let mut policy = policy_with_beta(0.8);
        let redis = keyvalue::redis();
        let history = vec![metric_row(0.0); HISTORY_S];
        // Loose QoS (10 ms): predicted remote p99 ≈ 2.4 ms fits → remote.
        assert_eq!(
            policy.decide(&ctx_for(&redis, &history, Some(10.0))),
            MemoryMode::Remote
        );
        // Strict QoS (1.5 ms): remote violates → local.
        assert_eq!(
            policy.decide(&ctx_for(&redis, &history, Some(1.5))),
            MemoryMode::Local
        );
    }

    #[test]
    fn explained_decisions_carry_rule_and_predictions() {
        let mut policy = policy_with_beta(0.7);
        let history = vec![metric_row(0.0); HISTORY_S];
        let gmm = spark::by_name("gmm").unwrap();

        // BE with history: β-slack rule with both predictions.
        let explained = policy.decide_explained(&ctx_for(&gmm, &history, None));
        assert_eq!(explained.rule, DecisionRule::BetaSlack { beta: 0.7 });
        assert!(explained.pred_local.is_some() && explained.pred_remote.is_some());
        assert_eq!(
            explained.mode,
            policy.decide(&ctx_for(&gmm, &history, None))
        );

        // Warm-up: no history window.
        let warm = policy.decide_explained(&DecisionContext {
            profile: &gmm,
            history: None,
            qos_p99_ms: None,
            stamp: None,
        });
        assert_eq!(warm.rule, DecisionRule::WarmupDefault);
        assert_eq!(warm.mode, MemoryMode::Local);

        // Unknown app: remote-first.
        let unknown = spark::by_name("pca").unwrap();
        let rf = policy.decide_explained(&ctx_for(&unknown, &history, None));
        assert_eq!(rf.rule, DecisionRule::UnknownRemoteFirst);
        assert_eq!(rf.mode, MemoryMode::Remote);

        // LC: QoS rule carries the active constraint.
        let redis = keyvalue::redis();
        let lc = policy.decide_explained(&ctx_for(&redis, &history, Some(10.0)));
        assert_eq!(lc.rule, DecisionRule::QosThreshold { qos_p99_ms: 10.0 });
        assert!(lc.pred_remote.is_some());
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_rejected() {
        // Cheap construction path: reuse trained models from a valid
        // policy is expensive, so validate via a fresh policy with bad β.
        let _ = policy_with_beta(1.5);
    }

    #[test]
    fn forecast_cache_keys_on_window_stamp() {
        let mut policy = policy_with_beta(0.7);
        let gmm = spark::by_name("gmm").unwrap();
        let nweight = spark::by_name("nweight").unwrap();
        let history = vec![metric_row(0.0); HISTORY_S];
        // (stamp, Ŝ filled, h_s filled [BE, LC], heads) of the record.
        let slots = |p: &AdriasPolicy| {
            let r = &p.record;
            (
                r.stamp,
                r.s_hat.is_some(),
                [!r.h_s[0].is_empty(), !r.h_s[1].is_empty()],
                r.heads.len(),
            )
        };
        let blank = (None, false, [false, false], 0);

        // Stamp-less contexts leave the record alone.
        let _ = policy.decide(&ctx_for(&gmm, &history, None));
        assert_eq!(slots(&policy), blank);

        // The first stamped decision keys the record and fills what it
        // needed: Ŝ, the BE model's h_s, one head...
        let s1 = WindowStamp {
            source: 7,
            version: 1,
        };
        let ctx = DecisionContext {
            profile: &gmm,
            history: Some(&history),
            qos_p99_ms: None,
            stamp: Some(s1),
        };
        let d1 = policy.decide_explained(&ctx);
        assert_eq!(slots(&policy), (Some(s1), true, [true, false], 1));

        // ...a repeat with the same stamp is served from it, a second
        // application adds its own head, and a stamp-less context in
        // between neither sees nor disturbs any of it...
        let d2 = policy.decide_explained(&ctx);
        assert_eq!(d1, d2);
        let _ = policy.decide(&ctx_for(&nweight, &history, None));
        assert_eq!(slots(&policy), (Some(s1), true, [true, false], 1));
        let _ = policy.decide(&DecisionContext {
            profile: &nweight,
            ..ctx
        });
        assert_eq!(slots(&policy), (Some(s1), true, [true, false], 2));

        // ...and a version bump empties every slot and re-keys it. The
        // window contents are unchanged here, so the decision must be
        // too.
        let s2 = WindowStamp {
            source: 7,
            version: 2,
        };
        let d3 = policy.decide_explained(&DecisionContext {
            stamp: Some(s2),
            ..ctx
        });
        assert_eq!(slots(&policy), (Some(s2), true, [true, false], 1));
        assert_eq!(d1, d3);
    }
}
