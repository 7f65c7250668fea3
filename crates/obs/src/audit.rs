//! The orchestration decision audit trail.
//!
//! Every placement decision the engine makes — Adrias' β-slack rule for
//! best-effort apps, the QoS-threshold rule for latency-critical ones,
//! warmup defaults, static baselines — is captured as one
//! [`DecisionRecord`]: what arrived, what the Watcher window looked
//! like, what the predictor forecast for each [`MemoryMode`], the
//! normalised margin of the rule, and whether that margin was inside a
//! configurable *near-flip* band. Near-flip decisions are the ones a
//! slightly different model (or a slightly different β) would reverse;
//! surfacing them is the point of the audit.

use std::fmt;

use adrias_core::Name;
use adrias_telemetry::{Metric, MetricVec, StateWindow};
use adrias_workloads::{MemoryMode, WorkloadClass};

/// The rule that produced a decision, with its tunable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionRule {
    /// Best-effort rule: local iff `t̂_local < β · t̂_remote`.
    BetaSlack {
        /// The slack factor β.
        beta: f32,
    },
    /// Latency-critical rule: remote iff `p̂99_remote ≤ QoS`.
    QosThreshold {
        /// The QoS target on tail latency, milliseconds.
        qos_p99_ms: f32,
    },
    /// Workload unknown to the policy — placed remote-first.
    UnknownRemoteFirst,
    /// Not enough history to predict — warmup default placement.
    WarmupDefault,
    /// A static baseline policy (all-local, all-remote, random...).
    Static,
    /// Placement forced by the schedule (e.g. interference injectors).
    Forced,
}

impl DecisionRule {
    /// Stable lowercase tag used in exports.
    pub fn tag(&self) -> &'static str {
        match self {
            DecisionRule::BetaSlack { .. } => "beta_slack",
            DecisionRule::QosThreshold { .. } => "qos_threshold",
            DecisionRule::UnknownRemoteFirst => "unknown_remote_first",
            DecisionRule::WarmupDefault => "warmup_default",
            DecisionRule::Static => "static",
            DecisionRule::Forced => "forced",
        }
    }

    /// The rule's tunable parameter (β or the QoS target), if any.
    pub fn parameter(&self) -> Option<f32> {
        match self {
            DecisionRule::BetaSlack { beta } => Some(*beta),
            DecisionRule::QosThreshold { qos_p99_ms } => Some(*qos_p99_ms),
            _ => None,
        }
    }
}

impl fmt::Display for DecisionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionRule::BetaSlack { beta } => write!(f, "beta_slack(beta={beta})"),
            DecisionRule::QosThreshold { qos_p99_ms } => {
                write!(f, "qos_threshold(qos_p99_ms={qos_p99_ms})")
            }
            other => f.write_str(other.tag()),
        }
    }
}

/// Compact summary of the Watcher history the policy saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Number of 1 Hz rows in the window.
    pub rows: usize,
    /// Column means over the window (zero vector when empty).
    pub mean: MetricVec,
}

impl WindowSummary {
    /// Summarises a [`StateWindow`].
    pub fn of(window: &StateWindow) -> Self {
        Self {
            rows: window.len(),
            mean: window.mean_vec(),
        }
    }

    /// Summarises raw history rows as handed to the policy. Computes
    /// the same f64-accumulated column means as [`StateWindow`] without
    /// cloning the window (this runs on every orchestrator decision).
    pub fn of_rows(rows: &[MetricVec]) -> Self {
        if rows.is_empty() {
            return Self::empty();
        }
        let mut acc = [0.0f64; Metric::ALL.len()];
        for row in rows {
            for (a, &v) in acc.iter_mut().zip(row.as_array()) {
                *a += f64::from(v);
            }
        }
        let mut mean = MetricVec::zero();
        for m in Metric::ALL {
            mean.set(m, (acc[m.index()] / rows.len() as f64) as f32);
        }
        Self {
            rows: rows.len(),
            mean,
        }
    }

    /// An empty summary (no history available).
    pub fn empty() -> Self {
        Self {
            rows: 0,
            mean: MetricVec::zero(),
        }
    }

    /// `(short_name, mean)` pairs in canonical metric order.
    pub fn named_means(&self) -> impl Iterator<Item = (&'static str, f32)> + '_ {
        Metric::ALL
            .into_iter()
            .map(|m| (m.short_name(), self.mean.get(m)))
    }
}

/// Everything the engine knows at the moment a decision is taken.
///
/// This is the observer-facing input; [`AuditTrail::record`] turns it
/// into a numbered [`DecisionRecord`] with the margin analysis applied.
#[derive(Debug, Clone)]
pub struct DecisionInput {
    /// Simulation time of the arrival, seconds.
    pub at_s: f64,
    /// Deployment id assigned by the testbed.
    pub deployment_id: u64,
    /// Workload name (e.g. `in-memory-analytics`): the profile's own
    /// handle, so per-decision recording never allocates for it.
    pub app: Name,
    /// Workload class.
    pub class: WorkloadClass,
    /// Summary of the Watcher history handed to the policy.
    pub window: WindowSummary,
    /// Predicted execution time (BE) or p99 (LC) under local placement,
    /// if the policy produced one.
    pub pred_local: Option<f32>,
    /// Predicted execution time (BE) or p99 (LC) under remote placement,
    /// if the policy produced one.
    pub pred_remote: Option<f32>,
    /// The rule that fired.
    pub rule: DecisionRule,
    /// The chosen placement.
    pub chosen: MemoryMode,
    /// The policy that decided (e.g. `adrias`, `all-local`).
    pub policy: Name,
}

/// One audited decision, as exported to JSONL.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// Zero-based decision sequence number within the run.
    pub seq: u64,
    /// The decision input, verbatim.
    pub input: DecisionInput,
    /// Normalised signed margin of the rule, when computable:
    /// positive means the chosen side won with room to spare, values
    /// near zero mean the decision nearly flipped.
    ///
    /// - β-slack: `(β·t̂_remote − t̂_local) / (β·t̂_remote)`
    /// - QoS: `(QoS − p̂99_remote) / QoS`
    pub margin: Option<f32>,
    /// Whether `|margin|` fell within the trail's near-flip band.
    pub near_flip: bool,
}

/// Near-flip band on the normalised decision margin: decisions within
/// 5 % of flipping are flagged.
pub const NEAR_FLIP_BAND: f32 = 0.05;

/// Collects [`DecisionRecord`]s for one engine run, flagging decisions
/// whose absolute normalised margin is `≤` [`NEAR_FLIP_BAND`].
///
/// # Examples
///
/// ```
/// use adrias_obs::audit::{AuditTrail, DecisionInput, DecisionRule, WindowSummary};
/// use adrias_workloads::{MemoryMode, WorkloadClass};
///
/// let mut trail = AuditTrail::new();
/// trail.record(DecisionInput {
///     at_s: 3.0,
///     deployment_id: 0,
///     app: "gmm".into(),
///     class: WorkloadClass::BestEffort,
///     window: WindowSummary::empty(),
///     pred_local: Some(100.0),
///     pred_remote: Some(104.0),
///     rule: DecisionRule::BetaSlack { beta: 1.0 },
///     chosen: MemoryMode::Local,
///     policy: "adrias".into(),
/// });
/// let rec = &trail.records()[0];
/// assert!(rec.near_flip); // 100 vs 104: ~3.8% margin, inside the 5% band
/// ```
#[derive(Debug, Clone, Default)]
pub struct AuditTrail {
    records: Vec<DecisionRecord>,
}

impl AuditTrail {
    /// Creates an empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the margin for `input` and appends a record.
    pub fn record(&mut self, input: DecisionInput) {
        let margin = margin_of(&input);
        let near_flip = margin.is_some_and(|m| m.abs() <= NEAR_FLIP_BAND);
        self.records.push(DecisionRecord {
            seq: self.records.len() as u64,
            input,
            margin,
            near_flip,
        });
    }

    /// All records in decision order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records flagged as near-flip, in decision order.
    pub fn near_flips(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter().filter(|r| r.near_flip)
    }
}

/// Normalised signed margin for a decision, when the rule admits one.
fn margin_of(input: &DecisionInput) -> Option<f32> {
    match input.rule {
        DecisionRule::BetaSlack { beta } => {
            let (local, remote) = (input.pred_local?, input.pred_remote?);
            let denom = beta * remote;
            if denom == 0.0 {
                return None;
            }
            Some((denom - local) / denom)
        }
        DecisionRule::QosThreshold { qos_p99_ms } => {
            let remote = input.pred_remote?;
            if qos_p99_ms == 0.0 {
                return None;
            }
            Some((qos_p99_ms - remote) / qos_p99_ms)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_rows_matches_state_window_summary() {
        let rows: Vec<MetricVec> = (0..120)
            .map(|t| {
                let mut v = MetricVec::zero();
                for m in Metric::ALL {
                    v.set(m, 1e8 + t as f32 * 31.0 + m.index() as f32);
                }
                v
            })
            .collect();
        let direct = WindowSummary::of_rows(&rows);
        let via_window = WindowSummary::of(&StateWindow::new(rows.clone()));
        assert_eq!(direct.rows, via_window.rows);
        for m in Metric::ALL {
            assert_eq!(
                direct.mean.get(m).to_bits(),
                via_window.mean.get(m).to_bits()
            );
        }
        assert_eq!(WindowSummary::of_rows(&[]), WindowSummary::empty());
    }

    fn input(rule: DecisionRule, local: Option<f32>, remote: Option<f32>) -> DecisionInput {
        DecisionInput {
            at_s: 1.0,
            deployment_id: 7,
            app: "gmm".into(),
            class: WorkloadClass::BestEffort,
            window: WindowSummary::empty(),
            pred_local: local,
            pred_remote: remote,
            rule,
            chosen: MemoryMode::Local,
            policy: "adrias".into(),
        }
    }

    #[test]
    fn beta_slack_margin_is_normalised_and_signed() {
        let mut trail = AuditTrail::new();
        // local clearly wins: margin (1.2·100 − 60) / 120 = 0.5
        trail.record(input(
            DecisionRule::BetaSlack { beta: 1.2 },
            Some(60.0),
            Some(100.0),
        ));
        // local barely loses: margin (100 − 101) / 100 = −0.01 → near flip
        trail.record(input(
            DecisionRule::BetaSlack { beta: 1.0 },
            Some(101.0),
            Some(100.0),
        ));
        let recs = trail.records();
        assert!((recs[0].margin.unwrap() - 0.5).abs() < 1e-6);
        assert!(!recs[0].near_flip);
        assert!((recs[1].margin.unwrap() + 0.01).abs() < 1e-6);
        assert!(recs[1].near_flip);
        assert_eq!(trail.near_flips().count(), 1);
    }

    #[test]
    fn qos_margin_uses_remote_prediction_only() {
        let mut trail = AuditTrail::new();
        trail.record(input(
            DecisionRule::QosThreshold { qos_p99_ms: 200.0 },
            None,
            Some(150.0),
        ));
        assert!((trail.records()[0].margin.unwrap() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn rules_without_predictions_have_no_margin() {
        let mut trail = AuditTrail::new();
        for rule in [
            DecisionRule::UnknownRemoteFirst,
            DecisionRule::WarmupDefault,
            DecisionRule::Static,
            DecisionRule::Forced,
        ] {
            trail.record(input(rule, None, None));
        }
        assert!(trail
            .records()
            .iter()
            .all(|r| r.margin.is_none() && !r.near_flip));
        assert_eq!(trail.len(), 4);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let mut trail = AuditTrail::new();
        for _ in 0..3 {
            trail.record(input(DecisionRule::Static, None, None));
        }
        let seqs: Vec<u64> = trail.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn rule_tags_and_parameters() {
        assert_eq!(DecisionRule::BetaSlack { beta: 1.1 }.tag(), "beta_slack");
        assert_eq!(DecisionRule::BetaSlack { beta: 1.1 }.parameter(), Some(1.1));
        assert_eq!(DecisionRule::Forced.parameter(), None);
        assert_eq!(
            DecisionRule::QosThreshold { qos_p99_ms: 5.0 }.to_string(),
            "qos_threshold(qos_p99_ms=5)"
        );
    }
}
