//! Online-adaptation observability: capture audits, forecast-residual
//! drift detection, and audited model hot-swaps (§V-C).
//!
//! The online loop — remote-first capture of unknown applications,
//! residual tracking against the live workload, drift-triggered
//! fine-tuning — was previously invisible: skipped captures vanished in
//! a `continue` and a model could silently go stale. This module gives
//! every step a typed record:
//!
//! * [`CaptureRecord`] — one per completed application considered for
//!   signature capture, successful or skipped (with a [`CaptureSkip`]
//!   reason);
//! * [`DriftEvent`] — emitted by the deterministic [`PageHinkley`]
//!   detector when a residual stream's mean shifts upward;
//! * [`ModelSwapRecord`] — the verdict of the swap gate: candidate vs
//!   incumbent held-out accuracy, version ids, gate margin, and the
//!   reasons for a rejection.
//!
//! Everything here is a pure function of the (deterministic) simulation
//! stream, so the `adaptation.jsonl` export inherits the byte-identity
//! guarantees of the other exports.

use adrias_core::Name;

/// Why a completed application was *not* captured as a new signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSkip {
    /// iBench interference pods are never captured.
    Interference,
    /// The application did not run in remote mode, so its counters are
    /// not a remote-mode signature.
    NotRemote,
    /// A signature for this application is already stored.
    AlreadyKnown,
    /// An earlier completion in the same run already captured this
    /// application.
    DuplicateInRun,
    /// The residency window clips to zero Watcher rows (the application
    /// arrived after the last recorded sample) — previously a silent
    /// drop.
    EmptyResidency,
}

impl CaptureSkip {
    /// Stable lowercase tag used by the exports.
    pub fn tag(self) -> &'static str {
        match self {
            CaptureSkip::Interference => "interference",
            CaptureSkip::NotRemote => "not_remote",
            CaptureSkip::AlreadyKnown => "already_known",
            CaptureSkip::DuplicateInRun => "duplicate_in_run",
            CaptureSkip::EmptyResidency => "empty_residency",
        }
    }

    /// All skip reasons, in export-tag order (used by the validator).
    pub const ALL: [CaptureSkip; 5] = [
        CaptureSkip::Interference,
        CaptureSkip::NotRemote,
        CaptureSkip::AlreadyKnown,
        CaptureSkip::DuplicateInRun,
        CaptureSkip::EmptyResidency,
    ];
}

/// One signature-capture attempt: the residency window the capture saw,
/// how many Watcher rows it yielded, how many other applications were
/// co-resident (captured signatures are contaminated by co-runners),
/// and the skip reason if nothing was captured.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureRecord {
    /// Application name.
    pub app: Name,
    /// Residency window start, sim seconds.
    pub arrived_s: f64,
    /// Residency window end, sim seconds.
    pub finished_s: f64,
    /// Watcher rows captured into the signature (0 when skipped).
    pub rows: usize,
    /// Other applications whose residency overlapped this window.
    pub co_runners: usize,
    /// `None` for a successful capture, the reason otherwise.
    pub skip: Option<CaptureSkip>,
}

/// A drift detection on one residual stream: the Page–Hinkley statistic
/// crossed its threshold, i.e. the stream's running mean shifted upward
/// relative to its own history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Sim time at which the detector fired.
    pub at_s: f64,
    /// Residual stream tag (e.g. `be.rel_err`, `lc.rel_err`,
    /// `sys.forecast_err`).
    pub stream: &'static str,
    /// Samples the detector had consumed when it fired.
    pub samples: u64,
    /// Running mean of the stream at the firing point.
    pub mean: f64,
    /// The Page–Hinkley statistic `m_t − min m_t` at the firing point.
    pub stat: f64,
    /// The configured threshold `λ` it crossed.
    pub threshold: f64,
}

/// The swap gate's verdict on a candidate model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapVerdict {
    /// The candidate replaced the incumbent.
    Swapped,
    /// The incumbent survived; see [`ModelSwapRecord::reasons`].
    Rejected,
}

impl SwapVerdict {
    /// Stable lowercase tag used by the exports.
    pub fn tag(self) -> &'static str {
        match self {
            SwapVerdict::Swapped => "swapped",
            SwapVerdict::Rejected => "rejected",
        }
    }
}

/// The audited outcome of one gated model-swap attempt: candidate vs
/// incumbent accuracy on the held-out slice, their version ids, the
/// gate margin, and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSwapRecord {
    /// Sim time of the gate evaluation.
    pub at_s: f64,
    /// Which model was challenged (`be` or `lc`).
    pub target: &'static str,
    /// The gate's decision.
    pub verdict: SwapVerdict,
    /// Version id of the incumbent model.
    pub incumbent_version: u64,
    /// Version id of the candidate model.
    pub candidate_version: u64,
    /// Incumbent mean absolute error on the held-out slice.
    pub incumbent_mae: f32,
    /// Candidate mean absolute error on the held-out slice.
    pub candidate_mae: f32,
    /// Incumbent R² on the held-out slice.
    pub incumbent_r2: f32,
    /// Candidate R² on the held-out slice.
    pub candidate_r2: f32,
    /// Relative held-out MAE improvement of the candidate,
    /// `(incumbent − candidate) / incumbent`.
    pub gate_margin: f32,
    /// Human-readable reasons for the verdict (non-empty on rejection).
    pub reasons: Vec<String>,
}

/// Page–Hinkley detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Minimum samples before the detector may fire (the running mean
    /// needs a baseline).
    pub min_samples: u64,
    /// Magnitude tolerance `δ`: per-sample slack subtracted from the
    /// deviation, so small fluctuations never accumulate.
    pub delta: f64,
    /// Detection threshold `λ` on the statistic `m_t − min m_t`.
    pub lambda: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            min_samples: 8,
            delta: 0.05,
            lambda: 1.0,
        }
    }
}

/// A deterministic Page–Hinkley mean-shift detector over one residual
/// stream.
///
/// Maintains `m_t = Σ_i (x_i − x̄_i − δ)` and its running minimum
/// `M_t`; drift is declared when `m_t − M_t > λ` (after
/// [`DriftConfig::min_samples`]). The state is a pure fold over the
/// observed values, so two identical streams produce identical events —
/// no randomness, no wall clock. After firing, the detector resets and
/// starts accumulating a fresh baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PageHinkley {
    cfg: DriftConfig,
    stream: &'static str,
    samples: u64,
    mean: f64,
    m: f64,
    m_min: f64,
}

impl PageHinkley {
    /// Creates a detector for the residual stream named `stream`.
    pub fn new(stream: &'static str, cfg: DriftConfig) -> Self {
        Self {
            cfg,
            stream,
            samples: 0,
            mean: 0.0,
            m: 0.0,
            m_min: 0.0,
        }
    }

    /// The stream tag this detector watches.
    pub fn stream(&self) -> &'static str {
        self.stream
    }

    /// Samples consumed since construction or the last firing.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Running mean of the current window.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current value of the statistic `m_t − min m_t`.
    pub fn stat(&self) -> f64 {
        self.m - self.m_min
    }

    /// Folds one residual into the detector. Returns the typed
    /// [`DriftEvent`] (stamped `at_s`) if the threshold was crossed,
    /// after which the detector resets.
    pub fn observe(&mut self, x: f64, at_s: f64) -> Option<DriftEvent> {
        self.samples += 1;
        self.mean += (x - self.mean) / self.samples as f64;
        self.m += x - self.mean - self.cfg.delta;
        self.m_min = self.m_min.min(self.m);
        if self.samples >= self.cfg.min_samples && self.stat() > self.cfg.lambda {
            let event = DriftEvent {
                at_s,
                stream: self.stream,
                samples: self.samples,
                mean: self.mean,
                stat: self.stat(),
                threshold: self.cfg.lambda,
            };
            self.reset();
            return Some(event);
        }
        None
    }

    /// Clears all accumulated state (fresh baseline).
    pub fn reset(&mut self) {
        self.samples = 0;
        self.mean = 0.0;
        self.m = 0.0;
        self.m_min = 0.0;
    }

    /// Captures the accumulated fold state so a detector can be
    /// persisted (or handed across a flush boundary) and resumed later
    /// with [`PageHinkley::restore`]. The configuration and stream tag
    /// are construction-time identity, not accumulated state, and are
    /// deliberately not part of the snapshot.
    pub fn snapshot(&self) -> PageHinkleyState {
        PageHinkleyState {
            samples: self.samples,
            mean: self.mean,
            m: self.m,
            m_min: self.m_min,
        }
    }

    /// Restores state captured by [`PageHinkley::snapshot`]. A detector
    /// that observes a residual stream, is snapshotted, recreated and
    /// restored mid-stream emits exactly the events the uninterrupted
    /// detector would have — the fold is pure, so the snapshot is the
    /// whole state.
    pub fn restore(&mut self, state: PageHinkleyState) {
        self.samples = state.samples;
        self.mean = state.mean;
        self.m = state.m;
        self.m_min = state.m_min;
    }
}

/// Opaque accumulated state of a [`PageHinkley`] detector, captured by
/// [`PageHinkley::snapshot`] and re-applied with
/// [`PageHinkley::restore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageHinkleyState {
    samples: u64,
    mean: f64,
    m: f64,
    m_min: f64,
}

/// The adaptation audit log: capture attempts, drift events, and model
/// swaps, in insertion (sim-time) order. Exported as
/// `adaptation.jsonl`.
#[derive(Debug, Clone, Default)]
pub struct AdaptationLog {
    captures: Vec<CaptureRecord>,
    drifts: Vec<DriftEvent>,
    swaps: Vec<ModelSwapRecord>,
}

impl AdaptationLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one capture attempt.
    pub fn record_capture(&mut self, record: CaptureRecord) {
        self.captures.push(record);
    }

    /// Appends one drift event.
    pub fn record_drift(&mut self, event: DriftEvent) {
        self.drifts.push(event);
    }

    /// Appends one swap-gate verdict.
    pub fn record_swap(&mut self, record: ModelSwapRecord) {
        self.swaps.push(record);
    }

    /// All capture attempts so far.
    pub fn captures(&self) -> &[CaptureRecord] {
        &self.captures
    }

    /// All drift events so far.
    pub fn drifts(&self) -> &[DriftEvent] {
        &self.drifts
    }

    /// All swap-gate verdicts so far.
    pub fn swaps(&self) -> &[ModelSwapRecord] {
        &self.swaps
    }

    /// Total records across the three kinds.
    pub fn len(&self) -> usize {
        self.captures.len() + self.drifts.len() + self.swaps.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_stream_never_fires() {
        let mut ph = PageHinkley::new("be.rel_err", DriftConfig::default());
        for i in 0..200 {
            // Small fluctuation around 0.1, amplitude below delta.
            let x = 0.1 + 0.02 * if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(ph.observe(x, i as f64), None, "fired at sample {i}");
        }
        assert_eq!(ph.samples(), 200);
    }

    #[test]
    fn mean_shift_fires_once_and_resets() {
        let mut ph = PageHinkley::new("be.rel_err", DriftConfig::default());
        for i in 0..20 {
            assert_eq!(ph.observe(0.1, i as f64), None);
        }
        let mut fired = None;
        for i in 20..40 {
            if let Some(e) = ph.observe(1.2, i as f64) {
                fired = Some(e);
                break;
            }
        }
        let e = fired.expect("a 12x mean shift must fire");
        assert_eq!(e.stream, "be.rel_err");
        assert!(e.stat > e.threshold);
        assert!(e.mean > 0.1, "mean must have moved: {}", e.mean);
        // Post-fire the detector restarted from a clean baseline.
        assert_eq!(ph.samples(), 0);
        assert_eq!(ph.stat(), 0.0);
    }

    #[test]
    fn min_samples_gates_early_firing() {
        let cfg = DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        };
        let mut ph = PageHinkley::new("lc.rel_err", cfg);
        for i in 0..49 {
            // Huge residuals, but the baseline window is not over.
            assert_eq!(ph.observe(5.0, i as f64), None);
        }
    }

    #[test]
    fn identical_streams_produce_identical_events() {
        let run = || {
            let mut ph = PageHinkley::new("sys.forecast_err", DriftConfig::default());
            let mut events = Vec::new();
            for i in 0..60 {
                let x = if i < 30 { 0.05 } else { 0.9 };
                if let Some(e) = ph.observe(x, i as f64) {
                    events.push(e);
                }
            }
            events
        };
        assert_eq!(run(), run());
    }

    adrias_core::proptest! {
        #[test]
        fn chunked_feeding_with_snapshot_restore_matches_one_shot(
            raw in adrias_core::prop::collection::vec(0.0f64..2.0, 1..120),
            cuts in adrias_core::prop::collection::vec(0usize..120, 0..4),
        ) {
            // Quantise the residuals so chunking cannot hide behind
            // float noise: the streams must be *identical*, and so must
            // the emitted events.
            let stream: Vec<f64> = raw.iter().map(|x| (x * 8.0).round() / 8.0).collect();

            // One-shot: a single detector folds the whole stream.
            let mut whole = PageHinkley::new("be.rel_err", DriftConfig::default());
            let mut expected = Vec::new();
            for (i, &x) in stream.iter().enumerate() {
                if let Some(e) = whole.observe(x, i as f64) {
                    expected.push(e);
                }
            }

            // Chunked: at every cut point the detector is snapshotted,
            // dropped, and a fresh one restored from the snapshot —
            // the flush/restore path a persisted detector would take.
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunked = PageHinkley::new("be.rel_err", DriftConfig::default());
            let mut got = Vec::new();
            for (i, &x) in stream.iter().enumerate() {
                if cuts.contains(&i) {
                    let state = chunked.snapshot();
                    chunked = PageHinkley::new("be.rel_err", DriftConfig::default());
                    chunked.restore(state);
                }
                if let Some(e) = chunked.observe(x, i as f64) {
                    got.push(e);
                }
            }

            adrias_core::prop_assert_eq!(got, expected);
            adrias_core::prop_assert_eq!(chunked.snapshot(), whole.snapshot());
        }
    }

    #[test]
    fn snapshot_restore_round_trips_mid_window() {
        let mut ph = PageHinkley::new("lc.rel_err", DriftConfig::default());
        for i in 0..5 {
            assert_eq!(ph.observe(0.2 + 0.1 * i as f64, i as f64), None);
        }
        let state = ph.snapshot();
        let mut resumed = PageHinkley::new("lc.rel_err", DriftConfig::default());
        resumed.restore(state);
        assert_eq!(resumed.samples(), ph.samples());
        assert_eq!(resumed.mean(), ph.mean());
        assert_eq!(resumed.stat(), ph.stat());
        assert_eq!(resumed.snapshot(), state);
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(CaptureSkip::EmptyResidency.tag(), "empty_residency");
        assert_eq!(CaptureSkip::DuplicateInRun.tag(), "duplicate_in_run");
        assert_eq!(SwapVerdict::Swapped.tag(), "swapped");
        assert_eq!(SwapVerdict::Rejected.tag(), "rejected");
        for skip in CaptureSkip::ALL {
            assert!(!skip.tag().is_empty());
        }
    }

    #[test]
    fn log_counts_all_three_kinds() {
        let mut log = AdaptationLog::new();
        assert!(log.is_empty());
        log.record_capture(CaptureRecord {
            app: "pca".into(),
            arrived_s: 10.0,
            finished_s: 90.0,
            rows: 80,
            co_runners: 2,
            skip: None,
        });
        log.record_drift(DriftEvent {
            at_s: 100.0,
            stream: "be.rel_err",
            samples: 12,
            mean: 0.6,
            stat: 1.4,
            threshold: 1.0,
        });
        log.record_swap(ModelSwapRecord {
            at_s: 101.0,
            target: "be",
            verdict: SwapVerdict::Rejected,
            incumbent_version: 0,
            candidate_version: 1,
            incumbent_mae: 4.0,
            candidate_mae: 4.2,
            incumbent_r2: 0.9,
            candidate_r2: 0.88,
            gate_margin: -0.05,
            reasons: vec!["held-out MAE regressed".into()],
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.captures().len(), 1);
        assert_eq!(log.drifts().len(), 1);
        assert_eq!(log.swaps().len(), 1);
    }
}
