//! The scheduling-policy abstraction.

use adrias_obs::DecisionRule;
use adrias_telemetry::{MetricVec, WindowStamp};
use adrias_workloads::{MemoryMode, WorkloadProfile};

/// Everything a policy may consult when placing one arriving workload.
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext<'a> {
    /// The arriving workload.
    pub profile: &'a WorkloadProfile,
    /// The Watcher's 1 Hz history window (`None` during warm-up, before
    /// the window has filled).
    pub history: Option<&'a [MetricVec]>,
    /// The active p99 QoS constraint for latency-critical workloads,
    /// milliseconds.
    pub qos_p99_ms: Option<f32>,
    /// Identity of the Watcher state `history` was taken from, when the
    /// caller can vouch for it (see [`WindowStamp`]): two contexts with
    /// equal stamps **must** carry bit-identical `history` windows.
    /// Prediction-driven policies key their forecast memoisation on it;
    /// `None` disables caching for this decision (always safe).
    pub stamp: Option<WindowStamp>,
}

/// A placement decision together with the evidence behind it, as
/// consumed by the decision audit trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainedDecision {
    /// The chosen placement.
    pub mode: MemoryMode,
    /// Which rule fired (β-slack, QoS threshold, warmup default, ...).
    pub rule: DecisionRule,
    /// Predicted execution time (BE) or p99 (LC) under local placement,
    /// when the policy produced one.
    pub pred_local: Option<f32>,
    /// Predicted execution time (BE) or p99 (LC) under remote
    /// placement, when the policy produced one.
    pub pred_remote: Option<f32>,
}

impl ExplainedDecision {
    /// An unexplained decision from a static baseline (no predictions).
    pub fn bare(mode: MemoryMode) -> Self {
        Self {
            mode,
            rule: DecisionRule::Static,
            pred_local: None,
            pred_remote: None,
        }
    }

    /// The prediction backing `mode`, when the policy produced one —
    /// the value the residual tracker compares against the realised
    /// performance once the deployment finishes.
    pub fn predicted(&self, mode: MemoryMode) -> Option<f32> {
        match mode {
            MemoryMode::Local => self.pred_local,
            MemoryMode::Remote => self.pred_remote,
        }
    }
}

/// A memory-mode placement policy.
///
/// Policies are consulted once per arrival and must return a mode
/// immediately (placement is L1 orchestration: static, decided at
/// deployment time).
pub trait Policy {
    /// Human-readable policy name (used in figure legends).
    fn name(&self) -> &str;

    /// Chooses the memory mode for one arriving workload.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode;

    /// Chooses a mode and explains the choice for the audit trail.
    ///
    /// The default wraps [`Policy::decide`] as a static decision;
    /// prediction-driven policies override this with the real rule and
    /// predictions, and their `decide` must stay consistent with it
    /// (same mode for the same context).
    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        ExplainedDecision::bare(self.decide(ctx))
    }

    /// The decision lane this policy runs on, as recorded in lifecycle
    /// spans: `"fast"` (memoised forward path) or `"direct"` (no
    /// prediction involved — the default for baselines). The engine
    /// tags forced placements as `"forced"` without consulting the
    /// policy.
    fn lane(&self) -> &'static str {
        "direct"
    }

    /// Asks the policy to time its model-forward work (host wall
    /// clock) for the engine self-profiler. Default: ignored.
    fn set_wall_profiling(&mut self, _enabled: bool) {}

    /// Drains the wall nanoseconds spent in model forwards since the
    /// last call. Default: always 0 (nothing measured).
    fn take_forward_wall_ns(&mut self) -> u64 {
        0
    }
}

/// A boxed policy is the policy: every method forwards, so a
/// `Box<dyn Policy + Send>` is the one sum type heterogeneous
/// comparisons need and nothing the inner policy reports is erased.
impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        (**self).decide(ctx)
    }

    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        (**self).decide_explained(ctx)
    }

    fn lane(&self) -> &'static str {
        (**self).lane()
    }

    fn set_wall_profiling(&mut self, enabled: bool) {
        (**self).set_wall_profiling(enabled);
    }

    fn take_forward_wall_ns(&mut self) -> u64 {
        (**self).take_forward_wall_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{metric_row, policy_with_beta};
    use adrias_predictor::dataset::HISTORY_S;
    use adrias_workloads::spark;

    struct Always(MemoryMode);

    impl Policy for Always {
        fn name(&self) -> &str {
            "always"
        }

        fn decide(&mut self, _ctx: &DecisionContext<'_>) -> MemoryMode {
            self.0
        }
    }

    #[test]
    fn trait_objects_work() {
        let app = spark::by_name("gmm").unwrap();
        let ctx = DecisionContext {
            profile: &app,
            history: None,
            qos_p99_ms: None,
            stamp: None,
        };
        let mut p: Box<dyn Policy> = Box::new(Always(MemoryMode::Remote));
        assert_eq!(p.decide(&ctx), MemoryMode::Remote);
        assert_eq!(p.name(), "always");
    }

    /// A box forwards the whole trait, not just `name` and `decide`:
    /// the hand-written sum types this impl replaced answered
    /// `Static` / `None` / `"direct"` for an Adrias policy inside.
    #[test]
    fn a_boxed_adrias_policy_keeps_its_rule_predictions_and_lane() {
        let gmm = spark::by_name("gmm").unwrap();
        let history = vec![metric_row(0.0); HISTORY_S];
        let ctx = DecisionContext {
            profile: &gmm,
            history: Some(&history),
            qos_p99_ms: None,
            stamp: None,
        };
        let want = policy_with_beta(0.7).decide_explained(&ctx);
        assert_eq!(want.rule, DecisionRule::BetaSlack { beta: 0.7 });
        assert!(want.pred_local.is_some() && want.pred_remote.is_some());

        let mut boxed: Box<dyn Policy + Send> = Box::new(policy_with_beta(0.7));
        assert_eq!(boxed.decide_explained(&ctx), want);
        assert_eq!(boxed.decide(&ctx), want.mode);
        assert_eq!(boxed.lane(), "fast");
        assert_eq!(boxed.name(), "Adrias(b=0.7)");
        boxed.set_wall_profiling(true);
        boxed.decide(&ctx);
        assert!(boxed.take_forward_wall_ns() > 0);
    }

    #[test]
    fn predicted_selects_the_prediction_for_the_mode() {
        let d = ExplainedDecision {
            mode: MemoryMode::Remote,
            rule: DecisionRule::Static,
            pred_local: Some(10.0),
            pred_remote: Some(12.0),
        };
        assert_eq!(d.predicted(MemoryMode::Local), Some(10.0));
        assert_eq!(d.predicted(MemoryMode::Remote), Some(12.0));
        assert_eq!(
            ExplainedDecision::bare(MemoryMode::Local).predicted(MemoryMode::Local),
            None
        );
    }

    #[test]
    fn default_lane_and_profiling_hooks_are_inert() {
        let mut p = Always(MemoryMode::Local);
        assert_eq!(p.lane(), "direct");
        p.set_wall_profiling(true);
        assert_eq!(p.take_forward_wall_ns(), 0);
    }

    #[test]
    fn default_explained_decision_is_static() {
        let app = spark::by_name("gmm").unwrap();
        let ctx = DecisionContext {
            profile: &app,
            history: None,
            qos_p99_ms: None,
            stamp: None,
        };
        let mut p = Always(MemoryMode::Local);
        let explained = p.decide_explained(&ctx);
        assert_eq!(explained.mode, MemoryMode::Local);
        assert_eq!(explained.rule, DecisionRule::Static);
        assert_eq!(explained.pred_local, None);
        assert_eq!(explained.pred_remote, None);
    }
}
