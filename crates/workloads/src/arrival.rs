//! Application arrival processes for scenario generation.
//!
//! The paper's trace-collection scenarios spawn a new application after a
//! random interval drawn uniformly from `{5, X}` seconds, with `X`
//! ranging from 20 (heavily congested) to 60 (relaxed) — §V-B1. That
//! uniform process ([`ArrivalProcess`]) is what the committed corpora
//! replay.
//!
//! For production-traffic evaluation the module additionally provides a
//! family of *streaming* generators behind the [`ArrivalSource`] trait,
//! consumed one instant at a time by the event-heap engine so a
//! million-arrival run never materialises its schedule:
//!
//! * [`UniformSource`] — the paper's uniform-gap process, streamed;
//! * [`PoissonSource`] — homogeneous Poisson (exponential gaps, CV ≈ 1);
//! * [`DiurnalSource`] — rate-modulated Poisson following a sinusoidal
//!   day/night profile, sampled by Lewis–Shedler thinning;
//! * [`MmppSource`] — bursty 2-state Markov-modulated Poisson (CV > 1);
//! * [`TraceSource`] — replay of a recorded arrival-instant trace;
//! * [`ClosedLoopSource`] — N think-time clients whose next submission
//!   depends on completion feedback ([`ArrivalSource::on_complete`]).
//!
//! Every generator owns its own seeded PRNG stream, so its emitted
//! instants are bitwise reproducible from the seed alone.

use adrias_core::rng::{Rng, RngCore, SeedableRng, Xoshiro256pp};

/// A uniform-interval arrival process.
///
/// # Examples
///
/// ```
/// use adrias_workloads::ArrivalProcess;
/// use adrias_core::rng::SeedableRng;
///
/// let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(3);
/// let arrivals = ArrivalProcess::new(5.0, 40.0);
/// let times = arrivals.times_until(300.0, &mut rng);
/// assert!(!times.is_empty());
/// assert!(times.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalProcess {
    min_interval_s: f64,
    max_interval_s: f64,
}

impl ArrivalProcess {
    /// Creates a process with inter-arrival times uniform in
    /// `[min_interval_s, max_interval_s]`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not `0 < min <= max`.
    pub fn new(min_interval_s: f64, max_interval_s: f64) -> Self {
        assert!(
            min_interval_s > 0.0 && min_interval_s <= max_interval_s,
            "invalid arrival bounds [{min_interval_s}, {max_interval_s}]"
        );
        Self {
            min_interval_s,
            max_interval_s,
        }
    }

    /// The paper's `{5, max}` convention.
    pub fn paper(max_interval_s: f64) -> Self {
        Self::new(5.0, max_interval_s)
    }

    /// Lower inter-arrival bound, seconds.
    pub fn min_interval_s(&self) -> f64 {
        self.min_interval_s
    }

    /// Upper inter-arrival bound, seconds.
    pub fn max_interval_s(&self) -> f64 {
        self.max_interval_s
    }

    /// Samples the next inter-arrival gap.
    pub fn next_interval<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.min_interval_s..=self.max_interval_s)
    }

    /// All arrival instants in the half-open horizon `[0, horizon_s)`,
    /// starting from an initial gap at time zero.
    ///
    /// The horizon boundary is exclusive: an instant that lands exactly
    /// on `horizon_s` is *not* emitted, so `times_until(h, _)` composed
    /// with `times_until` from `h` onward never double-counts a
    /// boundary arrival.
    pub fn times_until<R: Rng + ?Sized>(&self, horizon_s: f64, rng: &mut R) -> Vec<f64> {
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += self.next_interval(rng);
            // Half-open [0, horizon): `>=`, never `>`, so a gap sequence
            // summing exactly to the horizon excludes the boundary hit.
            if t >= horizon_s {
                return out;
            }
            out.push(t);
        }
    }

    /// Streams this process as an [`ArrivalSource`] over `[0, horizon_s)`
    /// with its own PRNG seeded from `seed`.
    pub fn source(&self, horizon_s: f64, seed: u64) -> UniformSource {
        UniformSource {
            process: *self,
            horizon_s,
            t: 0.0,
            rng: Xoshiro256pp::seed_from_u64(seed),
            done: false,
        }
    }

    /// Expected number of arrivals per hour.
    pub fn expected_hourly_rate(&self) -> f64 {
        3600.0 / ((self.min_interval_s + self.max_interval_s) / 2.0)
    }
}

/// A stream of application arrival instants, consumed one at a time by
/// the event-heap engine.
///
/// Open-loop sources (Poisson, diurnal, MMPP, uniform, trace replay)
/// emit a fixed instant sequence independent of the system; the
/// closed-loop source reacts to completion feedback. Implementations
/// must be bitwise deterministic: the exact emitted sequence is a pure
/// function of the constructor arguments (seed included) and the
/// sequence of [`ArrivalSource::on_complete`] calls.
pub trait ArrivalSource {
    /// The next arrival instant, seconds. `None` means nothing is
    /// available *right now* — which is final iff
    /// [`ArrivalSource::exhausted`] also reports `true` (a closed-loop
    /// source with every client in flight returns `None` transiently).
    fn next_time(&mut self) -> Option<f64>;

    /// Completion feedback: an application spawned by this source
    /// finished at `finished_s`. Returns `true` when the completion made
    /// a new arrival available (closed-loop think-time clients); open-
    /// loop sources ignore the call and return `false`.
    fn on_complete(&mut self, finished_s: f64) -> bool {
        let _ = finished_s;
        false
    }

    /// Whether [`ArrivalSource::on_complete`] can ever return `true`.
    /// `false` — the default, matching `on_complete`'s — promises that
    /// no completion makes an arrival available, so an engine may take
    /// a busy node's seconds as ones no upcoming decision reads; a
    /// source that returns `true` from `on_complete` after declaring
    /// `false` makes the engine panic. Closed-loop sources return `true`.
    fn admits_on_complete(&self) -> bool {
        false
    }

    /// `true` once no further arrival can ever be produced.
    fn exhausted(&self) -> bool;

    /// Short static label naming the generator family, recorded on the
    /// engine's run span so exports say where traffic came from.
    fn label(&self) -> &'static str {
        "generated"
    }
}

/// Draws an exponential gap with the given rate from `rng`.
///
/// `u` is uniform in `[0, 1)`, so `1 - u` is in `(0, 1]` and the gap is
/// finite and non-negative.
fn exp_gap<R: RngCore + ?Sized>(rng: &mut R, rate_per_s: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate_per_s
}

/// The paper's uniform-gap process streamed over `[0, horizon_s)`.
/// Built by [`ArrivalProcess::source`].
#[derive(Debug, Clone)]
pub struct UniformSource {
    process: ArrivalProcess,
    horizon_s: f64,
    t: f64,
    rng: Xoshiro256pp,
    done: bool,
}

impl ArrivalSource for UniformSource {
    fn next_time(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        self.t += self.process.next_interval(&mut self.rng);
        if self.t >= self.horizon_s {
            self.done = true;
            return None;
        }
        Some(self.t)
    }

    fn exhausted(&self) -> bool {
        self.done
    }

    fn label(&self) -> &'static str {
        "uniform"
    }
}

/// Homogeneous Poisson arrivals at `rate_per_s` over `[0, horizon_s)`:
/// i.i.d. exponential gaps, so the gap mean is `1/λ` and the gap
/// coefficient of variation is 1.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    rate_per_s: f64,
    horizon_s: f64,
    t: f64,
    rng: Xoshiro256pp,
    done: bool,
}

impl PoissonSource {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not strictly positive or `horizon_s` is
    /// negative.
    pub fn new(rate_per_s: f64, horizon_s: f64, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        assert!(horizon_s >= 0.0, "horizon must be non-negative");
        Self {
            rate_per_s,
            horizon_s,
            t: 0.0,
            rng: Xoshiro256pp::seed_from_u64(seed),
            done: false,
        }
    }

    /// The configured rate, arrivals per second.
    pub fn rate_per_s(&self) -> f64 {
        self.rate_per_s
    }
}

impl ArrivalSource for PoissonSource {
    fn next_time(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        self.t += exp_gap(&mut self.rng, self.rate_per_s);
        if self.t >= self.horizon_s {
            self.done = true;
            return None;
        }
        Some(self.t)
    }

    fn exhausted(&self) -> bool {
        self.done
    }

    fn label(&self) -> &'static str {
        "poisson"
    }
}

/// Diurnal rate-modulated Poisson arrivals: the instantaneous rate is
/// `λ(t) = base · (1 + amplitude · sin(2πt / period))`, sampled exactly
/// by Lewis–Shedler thinning against the peak rate
/// `λ_max = base · (1 + amplitude)`.
#[derive(Debug, Clone)]
pub struct DiurnalSource {
    base_rate_per_s: f64,
    amplitude: f64,
    period_s: f64,
    horizon_s: f64,
    t: f64,
    rng: Xoshiro256pp,
    done: bool,
}

impl DiurnalSource {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics if `base_rate_per_s` or `period_s` is not strictly
    /// positive, or `amplitude` is outside `[0, 1]`.
    pub fn new(
        base_rate_per_s: f64,
        amplitude: f64,
        period_s: f64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        assert!(base_rate_per_s > 0.0, "base rate must be positive");
        assert!((0.0..=1.0).contains(&amplitude), "amplitude outside [0,1]");
        assert!(period_s > 0.0, "period must be positive");
        Self {
            base_rate_per_s,
            amplitude,
            period_s,
            horizon_s,
            t: 0.0,
            rng: Xoshiro256pp::seed_from_u64(seed),
            done: false,
        }
    }

    /// The instantaneous rate at `t_s`, arrivals per second.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        let phase = core::f64::consts::TAU * t_s / self.period_s;
        self.base_rate_per_s * (1.0 + self.amplitude * phase.sin())
    }
}

impl ArrivalSource for DiurnalSource {
    fn next_time(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        let peak = self.base_rate_per_s * (1.0 + self.amplitude);
        loop {
            // Candidate from the homogeneous peak-rate process; accept
            // with probability λ(t)/λ_max (thinning).
            self.t += exp_gap(&mut self.rng, peak);
            if self.t >= self.horizon_s {
                self.done = true;
                return None;
            }
            if self.rng.gen_bool(self.rate_at(self.t) / peak) {
                return Some(self.t);
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.done
    }

    fn label(&self) -> &'static str {
        "diurnal"
    }
}

/// Bursty 2-state Markov-modulated Poisson process: arrivals at
/// `rates[state]` while the hidden state holds, with exponentially
/// distributed sojourns of mean `mean_sojourn_s[state]`. Mixing a slow
/// and a fast state makes the gap coefficient of variation exceed 1 —
/// the burstiness knob open Poisson arrivals lack.
#[derive(Debug, Clone)]
pub struct MmppSource {
    rates: [f64; 2],
    switch_rate: [f64; 2],
    state: usize,
    horizon_s: f64,
    t: f64,
    rng: Xoshiro256pp,
    done: bool,
}

impl MmppSource {
    /// Creates the source starting in state 0.
    ///
    /// # Panics
    ///
    /// Panics if any rate or mean sojourn is not strictly positive.
    pub fn new(rates: [f64; 2], mean_sojourn_s: [f64; 2], horizon_s: f64, seed: u64) -> Self {
        assert!(
            rates.iter().all(|r| *r > 0.0),
            "MMPP state rates must be positive"
        );
        assert!(
            mean_sojourn_s.iter().all(|s| *s > 0.0),
            "MMPP sojourns must be positive"
        );
        Self {
            rates,
            switch_rate: [1.0 / mean_sojourn_s[0], 1.0 / mean_sojourn_s[1]],
            state: 0,
            horizon_s,
            t: 0.0,
            rng: Xoshiro256pp::seed_from_u64(seed),
            done: false,
        }
    }
}

impl ArrivalSource for MmppSource {
    fn next_time(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        loop {
            // Competing exponentials: next arrival in the current state
            // vs the state switch. Memorylessness makes the redraw after
            // a switch exact.
            let arrival_in = exp_gap(&mut self.rng, self.rates[self.state]);
            let switch_in = exp_gap(&mut self.rng, self.switch_rate[self.state]);
            if arrival_in <= switch_in {
                self.t += arrival_in;
                if self.t >= self.horizon_s {
                    self.done = true;
                    return None;
                }
                return Some(self.t);
            }
            self.t += switch_in;
            if self.t >= self.horizon_s {
                self.done = true;
                return None;
            }
            self.state = 1 - self.state;
        }
    }

    fn exhausted(&self) -> bool {
        self.done
    }

    fn label(&self) -> &'static str {
        "mmpp"
    }
}

/// Replays a recorded arrival-instant trace (e.g. the arrivals observed
/// in an earlier engine run — see `adrias_scenarios::traces`).
#[derive(Debug, Clone)]
pub struct TraceSource {
    times: Vec<f64>,
    next: usize,
}

impl TraceSource {
    /// Creates a replay source over `times`.
    ///
    /// # Panics
    ///
    /// Panics if `times` is not sorted non-decreasingly.
    pub fn new(times: Vec<f64>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times must be sorted"
        );
        Self { times, next: 0 }
    }

    /// Number of instants left to replay.
    pub fn remaining(&self) -> usize {
        self.times.len() - self.next
    }
}

impl ArrivalSource for TraceSource {
    fn next_time(&mut self) -> Option<f64> {
        let t = *self.times.get(self.next)?;
        self.next += 1;
        Some(t)
    }

    fn exhausted(&self) -> bool {
        self.next == self.times.len()
    }

    fn label(&self) -> &'static str {
        "trace"
    }
}

/// A closed-loop think-time arrival process: `clients` independent
/// clients each submit one application, wait for its completion
/// (reported via [`ArrivalSource::on_complete`]), think for a uniform
/// `[think_min_s, think_max_s]` interval, and submit again — so at most
/// `clients` submissions are ever in flight, the classic closed-loop
/// concurrency invariant. Clients whose next submission would land at
/// or beyond `horizon_s` retire.
#[derive(Debug, Clone)]
pub struct ClosedLoopSource {
    clients: usize,
    think_min_s: f64,
    think_max_s: f64,
    horizon_s: f64,
    /// Pending submission instants, sorted descending so the earliest
    /// pops from the back.
    ready: Vec<f64>,
    in_flight: usize,
    issued: u64,
    rng: Xoshiro256pp,
}

impl ClosedLoopSource {
    /// Creates the source; every client starts with an initial think
    /// interval, so first submissions stagger over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero or the think bounds are not
    /// `0 <= min <= max`.
    pub fn new(
        clients: usize,
        think_min_s: f64,
        think_max_s: f64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(
            think_min_s >= 0.0 && think_min_s <= think_max_s,
            "invalid think bounds [{think_min_s}, {think_max_s}]"
        );
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut ready: Vec<f64> = (0..clients)
            .map(|_| rng.gen_range(think_min_s..=think_max_s))
            .filter(|t| *t < horizon_s)
            .collect();
        ready.sort_by(|a, b| b.total_cmp(a));
        Self {
            clients,
            think_min_s,
            think_max_s,
            horizon_s,
            ready,
            in_flight: 0,
            issued: 0,
            rng,
        }
    }

    /// The configured client count — the hard concurrency ceiling.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Submissions currently awaiting completion feedback.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total submissions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl ArrivalSource for ClosedLoopSource {
    fn next_time(&mut self) -> Option<f64> {
        let t = self.ready.pop()?;
        self.in_flight += 1;
        self.issued += 1;
        Some(t)
    }

    fn on_complete(&mut self, finished_s: f64) -> bool {
        if self.in_flight == 0 {
            return false;
        }
        self.in_flight -= 1;
        let next = finished_s + self.rng.gen_range(self.think_min_s..=self.think_max_s);
        if next >= self.horizon_s {
            return false;
        }
        // Keep the descending order so the earliest instant stays at the
        // back; client counts are small, so a linear insert is fine.
        let pos = self
            .ready
            .iter()
            .position(|r| *r < next)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, next);
        true
    }

    fn admits_on_complete(&self) -> bool {
        true
    }

    fn exhausted(&self) -> bool {
        self.ready.is_empty() && self.in_flight == 0
    }

    fn label(&self) -> &'static str {
        "closed_loop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;

    #[test]
    fn intervals_respect_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let p = ArrivalProcess::paper(20.0);
        for _ in 0..1000 {
            let dt = p.next_interval(&mut rng);
            assert!((5.0..=20.0).contains(&dt));
        }
    }

    #[test]
    fn heavy_scenarios_spawn_more_apps() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let heavy = ArrivalProcess::paper(20.0).times_until(3600.0, &mut rng);
        let relaxed = ArrivalProcess::paper(60.0).times_until(3600.0, &mut rng);
        assert!(
            heavy.len() > relaxed.len(),
            "heavy {} <= relaxed {}",
            heavy.len(),
            relaxed.len()
        );
    }

    #[test]
    fn hourly_rate_matches_mean_interval() {
        let p = ArrivalProcess::paper(40.0);
        // Mean gap 22.5 s → 160 arrivals/hour.
        assert!((p.expected_hourly_rate() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn times_are_sorted_and_bounded() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let times = ArrivalProcess::paper(30.0).times_until(600.0, &mut rng);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times.iter().all(|&t| t < 600.0));
    }

    /// The horizon is half-open: a degenerate process whose gaps are
    /// exactly 5 s lands an arrival precisely on a multiple-of-5
    /// horizon, and that boundary instant must be excluded — `[0, 15)`
    /// keeps 5 and 10 only, however the gap arithmetic rounds.
    #[test]
    fn horizon_boundary_is_excluded() {
        let p = ArrivalProcess::new(5.0, 5.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let times = p.times_until(15.0, &mut rng);
        assert_eq!(times, vec![5.0, 10.0]);
        // The streaming form agrees with the batch form.
        let mut src = p.source(15.0, 77);
        let mut streamed = Vec::new();
        while let Some(t) = src.next_time() {
            streamed.push(t);
        }
        assert!(src.exhausted());
        assert_eq!(streamed, vec![5.0, 10.0]);
        // Zero-width horizon yields nothing at all.
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert!(p.times_until(0.0, &mut rng).is_empty());
        assert!(
            p.times_until(5.0, &mut rng).is_empty(),
            "first gap == horizon"
        );
    }

    #[test]
    #[should_panic(expected = "invalid arrival bounds")]
    fn rejects_inverted_bounds() {
        let _ = ArrivalProcess::new(10.0, 5.0);
    }

    fn collect<S: ArrivalSource>(src: &mut S) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(t) = src.next_time() {
            out.push(t);
        }
        out
    }

    #[test]
    fn poisson_times_are_sorted_seeded_and_bounded() {
        let mut a = PoissonSource::new(0.5, 2000.0, 42);
        let mut b = PoissonSource::new(0.5, 2000.0, 42);
        let ta = collect(&mut a);
        let tb = collect(&mut b);
        assert_eq!(ta.len(), tb.len());
        assert!(ta.iter().zip(&tb).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
        assert!(ta.iter().all(|t| *t < 2000.0));
        assert!(a.exhausted());
        // Roughly rate·horizon arrivals.
        assert!((ta.len() as f64 - 1000.0).abs() < 150.0, "got {}", ta.len());
    }

    #[test]
    fn mmpp_switches_states_and_stays_bounded() {
        let mut src = MmppSource::new([0.2, 8.0], [50.0, 50.0], 4000.0, 3);
        let times = collect(&mut src);
        assert!(src.exhausted());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| *t < 4000.0));
        // Far more than the slow state alone (0.2/s · 4000 s = 800 would
        // be the all-fast bound; all-slow is 800·0.025). A mixed run
        // sits in between.
        assert!(times.len() > 1000, "only {} arrivals", times.len());
    }

    #[test]
    fn trace_source_replays_exactly() {
        let mut src = TraceSource::new(vec![1.0, 4.0, 4.0, 9.5]);
        assert_eq!(src.remaining(), 4);
        assert_eq!(collect(&mut src), vec![1.0, 4.0, 4.0, 9.5]);
        assert!(src.exhausted());
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "trace times must be sorted")]
    fn trace_source_rejects_unsorted_times() {
        let _ = TraceSource::new(vec![5.0, 1.0]);
    }

    #[test]
    fn every_source_reports_its_family_label() {
        assert_eq!(
            ArrivalProcess::paper(20.0).source(10.0, 1).label(),
            "uniform"
        );
        assert_eq!(PoissonSource::new(0.5, 10.0, 1).label(), "poisson");
        assert_eq!(
            DiurnalSource::new(0.5, 0.5, 60.0, 10.0, 1).label(),
            "diurnal"
        );
        assert_eq!(
            MmppSource::new([0.2, 8.0], [50.0, 50.0], 10.0, 1).label(),
            "mmpp"
        );
        assert_eq!(TraceSource::new(vec![1.0]).label(), "trace");
        assert_eq!(
            ClosedLoopSource::new(1, 1.0, 2.0, 10.0, 1).label(),
            "closed_loop"
        );
    }

    #[test]
    fn closed_loop_caps_concurrency_at_client_count() {
        let mut src = ClosedLoopSource::new(4, 1.0, 3.0, 500.0, 9);
        let mut in_flight = Vec::new();
        // Drive the loop: each submission "runs" for 7 s then completes.
        while let Some(t) = src.next_time() {
            in_flight.push(t + 7.0);
            assert!(src.in_flight() <= src.clients());
            if src.in_flight() == src.clients() {
                in_flight.sort_by(|a, b| b.total_cmp(a));
                let done = in_flight.pop().unwrap();
                assert!(src.on_complete(done) || done + 1.0 >= 500.0);
            }
        }
        while let Some(done) = in_flight.pop() {
            src.on_complete(done);
        }
        assert!(src.exhausted());
        assert!(src.issued() > 50, "only {} submissions", src.issued());
    }
}
