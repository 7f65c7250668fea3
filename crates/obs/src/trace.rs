//! Deterministic structured tracing.
//!
//! Every event is stamped with the **simulation clock**, never the wall
//! clock, so a trace is a pure function of the run's seeds: two runs of
//! the same seeded scenario produce byte-identical exports regardless of
//! host speed or worker count (the determinism contract pinned by
//! `tests/determinism_ws.rs`). Events live in a bounded ring: when the
//! ring is full the oldest event is evicted and an explicit overflow
//! counter records the loss, so exports are bounded and truncation is
//! always visible.
//!
//! Wall-clock timing is supported, but deliberately quarantined: it is
//! accumulated per label in a side table ([`Tracer::wall_totals`]) that
//! never appears in the deterministic exports — only in the
//! human-readable run report, clearly marked as host-dependent.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use adrias_core::Name;

/// One argument attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A numeric argument.
    Num(f64),
    /// A string argument.
    Str(Name),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Num(v)
    }
}

impl From<f32> for ArgValue {
    fn from(v: f32) -> Self {
        ArgValue::Num(f64::from(v))
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v.into())
    }
}

impl From<Name> for ArgValue {
    fn from(v: Name) -> Self {
        ArgValue::Str(v)
    }
}

/// The temporal shape of one event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// A closed interval on the sim clock, `[t0_s, t1_s]`.
    Span {
        /// Start, sim seconds.
        t0_s: f64,
        /// End, sim seconds.
        t1_s: f64,
    },
    /// A point event on the sim clock.
    Instant {
        /// Event time, sim seconds.
        at_s: f64,
    },
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name: a static label (e.g. `engine.run`, `decision`) or an
    /// application's name handle.
    pub name: Name,
    /// Category (e.g. `engine`, `decision`, `app`).
    pub cat: &'static str,
    /// Temporal shape.
    pub kind: TraceKind,
    /// Track id for timeline viewers; `0` is the engine track, each
    /// deployment gets its own.
    pub track: u64,
    /// Attached arguments, in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Bounded, deterministic event recorder.
///
/// # Examples
///
/// ```
/// use adrias_obs::trace::Tracer;
///
/// let mut tr = Tracer::new(128);
/// tr.span("engine.run", "engine", 0.0, 42.0, 0, vec![]);
/// tr.instant("deploy", "decision", 3.0, 0, vec![("app", "gmm".into())]);
/// assert_eq!(tr.len(), 2);
/// assert_eq!(tr.dropped(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    wall_totals: BTreeMap<String, f64>,
    record_wall: bool,
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            wall_totals: BTreeMap::new(),
            record_wall: false,
        }
    }

    /// Enables wall-clock accumulation (host-dependent; kept out of the
    /// deterministic exports).
    pub fn with_wall_clock(mut self) -> Self {
        self.record_wall = true;
        self
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted due to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Records a closed span `[t0_s, t1_s]` on the sim clock.
    pub fn span(
        &mut self,
        name: impl Into<Name>,
        cat: &'static str,
        t0_s: f64,
        t1_s: f64,
        track: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            kind: TraceKind::Span { t0_s, t1_s },
            track,
            args,
        });
    }

    /// Records a point event on the sim clock.
    pub fn instant(
        &mut self,
        name: impl Into<Name>,
        cat: &'static str,
        at_s: f64,
        track: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            kind: TraceKind::Instant { at_s },
            track,
            args,
        });
    }

    /// Runs `f`, accumulating its wall-clock time under `label` when
    /// wall-clock recording is enabled. The measurement never enters the
    /// deterministic exports.
    pub fn time_wall<R>(&mut self, label: &str, f: impl FnOnce() -> R) -> R {
        if !self.record_wall {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        *self.wall_totals.entry(label.to_owned()).or_insert(0.0) += ms;
        out
    }

    /// Whether wall-clock accumulation is enabled.
    pub fn wall_enabled(&self) -> bool {
        self.record_wall
    }

    /// Adds `ns` nanoseconds of externally measured wall time under
    /// `label`. No-op unless wall-clock recording is enabled. Lets hot
    /// loops time themselves with a raw `Instant` and deposit the total
    /// once, instead of paying a closure call per iteration.
    pub fn add_wall_ns(&mut self, label: &str, ns: u64) {
        if !self.record_wall {
            return;
        }
        *self.wall_totals.entry(label.to_owned()).or_insert(0.0) += ns as f64 / 1e6;
    }

    /// Accumulated wall-clock milliseconds per label (host-dependent;
    /// empty unless [`Tracer::with_wall_clock`] was used).
    pub fn wall_totals(&self) -> &BTreeMap<String, f64> {
        &self.wall_totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overflow_evicts_oldest_and_counts() {
        let mut tr = Tracer::new(3);
        for t in 0..5 {
            tr.instant("e", "test", f64::from(t), 0, vec![]);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let first = tr.events().next().unwrap();
        assert_eq!(first.kind, TraceKind::Instant { at_s: 2.0 });
    }

    #[test]
    fn spans_and_instants_retain_args() {
        let mut tr = Tracer::new(8);
        tr.span("run", "engine", 0.0, 10.0, 0, vec![("n", 4.0.into())]);
        tr.instant("done", "engine", 10.0, 1, vec![("app", "gmm".into())]);
        let events: Vec<_> = tr.events().collect();
        assert_eq!(events[0].args[0], ("n", ArgValue::Num(4.0)));
        assert_eq!(events[1].args[0], ("app", ArgValue::Str("gmm".into())));
        assert_eq!(events[1].track, 1);
    }

    #[test]
    fn wall_clock_is_opt_in_and_side_channel() {
        let mut off = Tracer::new(4);
        off.time_wall("work", || std::hint::black_box(1 + 1));
        assert!(off.wall_totals().is_empty());

        let mut on = Tracer::new(4).with_wall_clock();
        on.time_wall("work", || std::hint::black_box((0..1000u64).sum::<u64>()));
        assert!(on.wall_totals().contains_key("work"));
        // And no trace *events* were produced either way.
        assert!(on.is_empty());
    }

    #[test]
    fn add_wall_ns_respects_the_opt_in_gate() {
        let mut off = Tracer::new(4);
        off.add_wall_ns("engine;heap;push", 5_000_000);
        assert!(off.wall_totals().is_empty());
        assert!(!off.wall_enabled());

        let mut on = Tracer::new(4).with_wall_clock();
        assert!(on.wall_enabled());
        on.add_wall_ns("engine;heap;push", 5_000_000);
        on.add_wall_ns("engine;heap;push", 2_500_000);
        let ms = on.wall_totals()["engine;heap;push"];
        assert!((ms - 7.5).abs() < 1e-9, "accumulated {ms} ms");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tracer::new(0);
    }
}
