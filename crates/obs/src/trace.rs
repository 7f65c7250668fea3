//! Deterministic structured tracing.
//!
//! Every event is stamped with the **simulation clock**, never the wall
//! clock, so a trace is a pure function of the run's seeds: two runs of
//! the same seeded scenario produce byte-identical exports regardless of
//! host speed or worker count (the determinism contract pinned by
//! `tests/determinism_ws.rs`). Events live in a bounded [`Ring`], so
//! exports are bounded and truncation is always visible.
//!
//! Host wall-clock time never touches the tracer: the self-profiler's
//! totals live on [`crate::Observer::wall_ns`], outside the
//! deterministic exports.

use adrias_core::Name;

use crate::ring::Ring;

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

/// Bounded, deterministic event recorder: a [`Ring`] of events plus
/// its `span` / `instant` recorders.
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
pub type Tracer = Ring<TraceEvent>;

impl Ring<TraceEvent> {
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
        let first = tr.iter().next().unwrap();
        assert_eq!(first.kind, TraceKind::Instant { at_s: 2.0 });
    }

    #[test]
    fn spans_and_instants_retain_args() {
        let mut tr = Tracer::new(8);
        tr.span("run", "engine", 0.0, 10.0, 0, vec![("n", 4.0.into())]);
        tr.instant("done", "engine", 10.0, 1, vec![("app", "gmm".into())]);
        let events: Vec<_> = tr.iter().collect();
        assert_eq!(events[0].args[0], ("n", ArgValue::Num(4.0)));
        assert_eq!(events[1].args[0], ("app", ArgValue::Str("gmm".into())));
        assert_eq!(events[1].track, 1);
    }

    #[test]
    fn wall_clock_is_opt_in_and_side_channel() {
        use crate::{ObsConfig, Observer};
        assert_eq!(Observer::default().wall_ns, None);
        let obs = Observer::new(ObsConfig { record_wall: true });
        assert_eq!(obs.wall_ns, Some(Default::default()));
        // The wall table sits beside the tracer, never in it.
        assert!(obs.tracer.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tracer::new(0);
    }
}
