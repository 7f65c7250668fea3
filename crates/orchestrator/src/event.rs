//! Deterministic event heap for the discrete-event engine.
//!
//! The engine's future is a binary min-heap of typed events with a
//! *total* order: `(time, kind rank, insertion sequence)`. Two events
//! never compare equal — the monotone sequence number breaks every
//! remaining tie — so pop order is a pure function of the push history,
//! independent of heap internals, worker counts, or seeds. That is the
//! property the bitwise-parity suite leans on.
//!
//! Equal-time semantics (rank order): arrivals are admitted before a
//! fault at the same instant reshapes the link, the watcher samples the
//! post-admission state, deployment completions are folded in after the
//! sample that produced them, and the drain deadline is judged last.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event taxonomy, ranked for equal-time ordering (lower pops first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A scheduled application arrival.
    Arrival,
    /// A link-fault application ([`crate::engine::FaultEvent`]).
    FaultApply,
    /// A 1 Hz watcher sample tick — the testbed step boundary.
    WatcherSample,
    /// An application completion surfaced by the testbed step.
    DeploymentFinish,
    /// The drain budget expired; stop admitting work.
    DrainDeadline,
}

impl EventKind {
    /// The equal-time rank: Arrival < FaultApply < WatcherSample <
    /// DeploymentFinish < DrainDeadline.
    pub fn rank(self) -> u8 {
        match self {
            EventKind::Arrival => 0,
            EventKind::FaultApply => 1,
            EventKind::WatcherSample => 2,
            EventKind::DeploymentFinish => 3,
            EventKind::DrainDeadline => 4,
        }
    }
}

/// A scheduled event: an instant, a kind, and an engine-defined payload.
#[derive(Debug, Clone)]
pub struct Event<P> {
    /// Simulated instant, seconds.
    pub time_s: f64,
    /// Taxonomy entry deciding equal-time order.
    pub kind: EventKind,
    /// Monotone insertion index, assigned by [`EventHeap::push`];
    /// the final tie-breaker.
    pub seq: u64,
    /// Engine payload carried to the handler.
    pub payload: P,
}

/// Internal ordering wrapper: `BinaryHeap` is a max-heap, so the
/// comparison is reversed to pop the smallest key first.
struct HeapEntry<P>(Event<P>);

impl<P> HeapEntry<P> {
    fn key(&self) -> (f64, u8, u64) {
        (self.0.time_s, self.0.kind.rank(), self.0.seq)
    }
}

impl<P> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<P> Eq for HeapEntry<P> {}

impl<P> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (ta, ka, sa) = self.key();
        let (tb, kb, sb) = other.key();
        // total_cmp gives a total order on f64 (NaN-free by the push
        // assert); reversed so the min key is the heap max.
        ta.total_cmp(&tb)
            .then_with(|| ka.cmp(&kb))
            .then_with(|| sa.cmp(&sb))
            .reverse()
    }
}

/// Deterministic event queue: pops in `(time, kind-rank, seq)` order
/// regardless of push order.
pub struct EventHeap<P> {
    heap: BinaryHeap<HeapEntry<P>>,
    next_seq: u64,
    /// Pops per kind, indexed by [`EventKind::rank`].
    pop_counts: [u64; 5],
    profile_wall: bool,
    push_wall_ns: u64,
    pop_wall_ns: u64,
}

impl<P> Default for EventHeap<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventHeap<P> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pop_counts: [0; 5],
            profile_wall: false,
            push_wall_ns: 0,
            pop_wall_ns: 0,
        }
    }

    /// Switches on wall-clock self-profiling of push/pop. Off by
    /// default: the timing syscalls cost more than the heap operations
    /// they measure, so the engine enables this only when the observer
    /// asks for a profile. Never affects pop order or counts.
    pub fn enable_wall_profiling(&mut self) {
        self.profile_wall = true;
    }

    /// Accumulated `(push, pop)` wall nanoseconds; zeros unless
    /// [`EventHeap::enable_wall_profiling`] was called.
    pub fn wall_ns(&self) -> (u64, u64) {
        (self.push_wall_ns, self.pop_wall_ns)
    }

    /// Schedules `payload` at `time_s`, assigning the next sequence
    /// number. Returns the assigned sequence.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is NaN — a NaN key would poison the total
    /// order the parity contract depends on.
    pub fn push(&mut self, time_s: f64, kind: EventKind, payload: P) -> u64 {
        assert!(!time_s.is_nan(), "event time must not be NaN");
        let t0 = self.profile_wall.then(std::time::Instant::now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Event {
            time_s,
            kind,
            seq,
            payload,
        }));
        if let Some(t0) = t0 {
            self.push_wall_ns += t0.elapsed().as_nanos() as u64;
        }
        seq
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<P>> {
        let t0 = self.profile_wall.then(std::time::Instant::now);
        let ev = self.heap.pop().map(|e| e.0);
        if let Some(ev) = &ev {
            self.pop_counts[usize::from(ev.kind.rank())] += 1;
        }
        if let Some(t0) = t0 {
            self.pop_wall_ns += t0.elapsed().as_nanos() as u64;
        }
        ev
    }

    /// Events of `kind` popped so far.
    pub fn pop_count(&self, kind: EventKind) -> u64 {
        self.pop_counts[usize::from(kind.rank())]
    }

    /// Pops per kind, indexed by [`EventKind::rank`].
    pub fn pop_counts(&self) -> [u64; 5] {
        self.pop_counts
    }

    /// The `(time, kind)` of the earliest event without removing it.
    pub fn peek(&self) -> Option<(f64, EventKind)> {
        // BinaryHeap::peek is the max entry == our min key.
        self.heap.peek().map(|e| (e.0.time_s, e.0.kind))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains the heap through `handler` until no events remain —
    /// run-until-idle semantics. The handler may push further events.
    /// Returns the number of [`EventKind::WatcherSample`] events
    /// popped (a floor on the engine's tick count: it takes the ticks
    /// of a quiet span in place); an empty heap returns 0 without
    /// invoking the handler.
    pub fn run_until_idle<F: FnMut(&mut Self, Event<P>)>(&mut self, mut handler: F) -> u64 {
        let mut ticks = 0;
        while let Some(ev) = self.pop() {
            if ev.kind == EventKind::WatcherSample {
                ticks += 1;
            }
            handler(self, ev);
        }
        ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_rank_then_seq_order() {
        let mut h = EventHeap::new();
        h.push(2.0, EventKind::Arrival, "late-arrival");
        h.push(1.0, EventKind::DrainDeadline, "deadline");
        h.push(1.0, EventKind::Arrival, "arrival-a");
        h.push(1.0, EventKind::FaultApply, "fault");
        h.push(1.0, EventKind::Arrival, "arrival-b");
        let order: Vec<_> = std::iter::from_fn(|| h.pop()).map(|e| e.payload).collect();
        assert_eq!(
            order,
            vec![
                "arrival-a",
                "arrival-b",
                "fault",
                "deadline",
                "late-arrival"
            ]
        );
    }

    #[test]
    fn empty_heap_run_until_idle_is_zero_ticks() {
        let mut h: EventHeap<()> = EventHeap::new();
        let ticks = h.run_until_idle(|_, _| panic!("handler must not run"));
        assert_eq!(ticks, 0);
    }

    #[test]
    fn run_until_idle_counts_watcher_samples_including_rescheduled() {
        let mut h = EventHeap::new();
        h.push(0.0, EventKind::WatcherSample, 0u32);
        let ticks = h.run_until_idle(|heap, ev| {
            if ev.kind == EventKind::WatcherSample && ev.payload < 3 {
                heap.push(ev.time_s + 1.0, EventKind::WatcherSample, ev.payload + 1);
            }
        });
        assert_eq!(ticks, 4);
    }

    #[test]
    fn pop_counts_track_each_kind() {
        let mut h = EventHeap::new();
        h.push(0.0, EventKind::Arrival, ());
        h.push(0.0, EventKind::Arrival, ());
        h.push(1.0, EventKind::WatcherSample, ());
        h.push(2.0, EventKind::DeploymentFinish, ());
        assert_eq!(h.pop_counts(), [0; 5], "pushes alone count nothing");
        while h.pop().is_some() {}
        assert_eq!(h.pop_count(EventKind::Arrival), 2);
        assert_eq!(h.pop_count(EventKind::WatcherSample), 1);
        assert_eq!(h.pop_count(EventKind::DeploymentFinish), 1);
        assert_eq!(h.pop_count(EventKind::FaultApply), 0);
        assert_eq!(h.pop_counts(), [2, 0, 1, 1, 0]);
    }

    #[test]
    fn wall_profiling_is_opt_in_and_order_preserving() {
        let mut plain = EventHeap::new();
        plain.push(1.0, EventKind::Arrival, "a");
        plain.pop();
        assert_eq!(plain.wall_ns(), (0, 0), "profiling off by default");

        let mut profiled = EventHeap::new();
        profiled.enable_wall_profiling();
        for t in (0..50).rev() {
            profiled.push(f64::from(t), EventKind::Arrival, t);
        }
        let order: Vec<_> = std::iter::from_fn(|| profiled.pop())
            .map(|e| e.payload)
            .collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
        let (push_ns, pop_ns) = profiled.wall_ns();
        assert!(push_ns > 0 && pop_ns > 0, "timings accumulated");
    }

    #[test]
    #[should_panic(expected = "event time must not be NaN")]
    fn nan_times_are_rejected() {
        let mut h = EventHeap::new();
        h.push(f64::NAN, EventKind::Arrival, ());
    }
}
