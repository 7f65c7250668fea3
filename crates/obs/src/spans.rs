//! Causal lifecycle spans: one span tree per deployment.
//!
//! The flat tracer answers "what happened when"; the span store answers
//! "what happened to *this deployment*". Every admitted deployment gets
//! a four-node tree keyed by its deployment id:
//!
//! ```text
//! lifecycle (root)                arrival .. finish
//! ├── queue                       arrival .. admission tick
//! ├── decision (zero-width)       the policy ruling + lane
//! └── resident                    admission .. finish, watcher samples
//! ```
//!
//! Span ids are derived from the deployment id (`id * 4 + phase`), so
//! the tree is reconstructible from any single line and ids never
//! depend on ring state. All timestamps are **sim clock**, so the
//! export (`spans.jsonl`, see [`crate::export::to_jsonl_spans`]) is
//! byte-identical across same-seed runs and worker counts — the same
//! contract the flat exports carry.
//!
//! Closed records live in a bounded [`Ring`] whose drop count the meta
//! line reports, so a million-arrival run stays bounded.

use std::collections::BTreeMap;

use adrias_core::Name;

use crate::ring::Ring;

/// Child-phase offsets inside one deployment's span-id block.
pub mod phase {
    /// Root span offset: the whole lifecycle.
    pub const LIFECYCLE: u64 = 0;
    /// Queue-wait child: raw arrival to admission tick.
    pub const QUEUE: u64 = 1;
    /// Decision child: zero-width, carries the rule and the lane.
    pub const DECISION: u64 = 2;
    /// Residency child: admission to finish, carries the sample count.
    pub const RESIDENT: u64 = 3;
}

/// One deployment's complete (closed) lifecycle record.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleSpan {
    /// The deployment id the tree is keyed by.
    pub deployment_id: u64,
    /// Application name.
    pub app: Name,
    /// Workload class tag (e.g. `"BE"` / `"LC"`).
    pub class: &'static str,
    /// Chosen memory mode tag (`"local"` / `"remote"`).
    pub mode: &'static str,
    /// The decision rule tag that fired (see `DecisionRule::tag`).
    pub rule: &'static str,
    /// The decision lane (`"fast"` / `"direct"` / `"forced"`).
    pub lane: &'static str,
    /// Raw scheduled arrival instant, sim seconds.
    pub arrived_s: f64,
    /// Admission instant (the decision tick), sim seconds.
    pub decided_s: f64,
    /// Engine tick counter at admission.
    pub opened_tick: u64,
    /// Completion (or drain) instant, sim seconds.
    pub finished_s: f64,
    /// Watcher samples elapsed while resident.
    pub samples: u64,
    /// Whether the run ended before the deployment finished.
    pub drained: bool,
}

impl LifecycleSpan {
    /// The root span id of this deployment's tree.
    pub fn root_id(&self) -> u64 {
        self.deployment_id * 4 + phase::LIFECYCLE
    }
}

/// Bounded store of per-deployment lifecycle span trees.
///
/// Spans open at admission, close at completion (or get force-closed as
/// `drained` at run end). Closed records go into a [`Ring`], each beside
/// the 0-based engine run it closed in; the store dereferences to that
/// ring, so `len`, `dropped` and `iter` speak of closed records.
#[derive(Debug, Clone)]
pub struct SpanStore {
    open: BTreeMap<u64, LifecycleSpan>,
    closed: Ring<(u64, LifecycleSpan)>,
    /// Engine runs drained so far.
    run: u64,
}

impl SpanStore {
    /// Creates a store retaining at most `capacity` closed records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            open: BTreeMap::new(),
            closed: Ring::new(capacity),
            run: 0,
        }
    }

    /// Deployments admitted but not yet closed.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Opens a deployment's tree at admission; the finish fields are
    /// stamped by [`SpanStore::close`].
    pub fn open(&mut self, span: LifecycleSpan) {
        self.open.insert(span.deployment_id, span);
    }

    /// Closes a deployment's tree: stamps the finish instant and the
    /// elapsed sample count, then moves the record into the closed
    /// ring. Unknown ids are ignored.
    pub fn close(&mut self, deployment_id: u64, finished_s: f64, closed_tick: u64, drained: bool) {
        let Some(mut span) = self.open.remove(&deployment_id) else {
            return;
        };
        span.finished_s = finished_s;
        span.samples = closed_tick.saturating_sub(span.opened_tick);
        span.drained = drained;
        self.closed.push((self.run, span));
    }

    /// Ends an engine run: force-closes every still-open tree as
    /// drained, in deployment-id order, and moves on to the next run.
    pub fn drain_open(&mut self, finished_s: f64, closed_tick: u64) {
        while let Some(id) = self.open.keys().next().copied() {
            self.close(id, finished_s, closed_tick, true);
        }
        self.run += 1;
    }

    /// Closed records, oldest first. Deployment ids restart at 0 in
    /// every run, so a store that outlives one run (a drift corpus)
    /// tells its trees apart by the run each [`Ring`] item carries.
    pub fn records(&self) -> impl Iterator<Item = &LifecycleSpan> {
        self.closed.iter().map(|(_, span)| span)
    }
}

impl std::ops::Deref for SpanStore {
    type Target = Ring<(u64, LifecycleSpan)>;

    fn deref(&self) -> &Self::Target {
        &self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, arrived: f64, decided: f64) -> LifecycleSpan {
        LifecycleSpan {
            deployment_id: id,
            app: "gmm".into(),
            class: "be",
            mode: "local",
            rule: "static",
            lane: "direct",
            arrived_s: arrived,
            decided_s: decided,
            opened_tick: decided as u64,
            finished_s: 0.0,
            samples: 0,
            drained: false,
        }
    }

    #[test]
    fn open_close_produces_one_record_with_sample_count() {
        let mut store = SpanStore::new(8);
        store.open(span(3, 1.2, 2.0));
        assert_eq!(store.open_count(), 1);
        store.close(3, 40.0, 40, false);
        assert_eq!(store.open_count(), 0);
        let rec = store.records().next().unwrap();
        assert_eq!(rec.deployment_id, 3);
        assert_eq!(rec.finished_s, 40.0);
        assert_eq!(rec.samples, 38);
        assert!(!rec.drained);
        assert_eq!(rec.root_id(), 12);
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts_drops() {
        let mut store = SpanStore::new(2);
        for id in 0..4u64 {
            store.open(span(id, id as f64, id as f64));
            store.close(id, 10.0, 10, false);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped(), 2);
        let ids: Vec<u64> = store.records().map(|r| r.deployment_id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn drain_open_closes_in_deployment_id_order() {
        let mut store = SpanStore::new(8);
        for id in [5u64, 1, 3] {
            store.open(span(id, 0.0, 0.0));
        }
        store.drain_open(99.0, 99);
        let recs: Vec<_> = store.records().collect();
        assert_eq!(
            recs.iter().map(|r| r.deployment_id).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert!(recs.iter().all(|r| r.drained && r.finished_s == 99.0));
    }

    #[test]
    fn closing_an_unknown_id_is_a_no_op() {
        let mut store = SpanStore::new(8);
        store.close(42, 1.0, 1, false);
        assert!(store.is_empty());
        assert_eq!(store.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpanStore::new(0);
    }
}
