//! Flight recorder: a bounded ring of the engine's most recent events.
//!
//! When a fuzz oracle fails, the interesting question is "what was the
//! engine doing right before the violation?". The flight recorder keeps
//! the answer cheap: every engine-observer hook (admission, fault,
//! watcher sample, completion, drain deadline, SLO burn alert) appends
//! one fixed-size entry to a ring of the most recent `capacity`
//! entries. The ring is dumped — together with the QoS counterexample
//! evidence, the registry snapshot and the lifecycle spans — as a
//! post-mortem bundle by [`crate::export::write_post_mortem`].
//!
//! Entries carry only sim-clock data, so a dump is as deterministic as
//! the run that produced it; the `dropped` counter in the meta line
//! makes ring truncation visible.

use crate::ring::Ring;

/// One recorded engine event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Monotone record index (counts every recorded event, including
    /// ones later evicted from the ring).
    pub seq: u64,
    /// Event kind tag (`"arrival"`, `"fault"`, `"sample"`, `"finish"`,
    /// `"deadline"`, `"burn"`).
    pub kind: &'static str,
    /// Sim-clock instant of the event, seconds.
    pub at_s: f64,
    /// Deployment id, for events tied to one deployment.
    pub deployment_id: Option<u64>,
}

/// Bounded ring of recent [`FlightEntry`] records.
pub type FlightRecorder = Ring<FlightEntry>;

impl Ring<FlightEntry> {
    /// Appends one event, numbered by the ring's [`Ring::pushed`] count
    /// before it; evicts the oldest entry when the ring is full.
    pub fn record(&mut self, kind: &'static str, at_s: f64, deployment_id: Option<u64>) {
        self.push(FlightEntry {
            seq: self.pushed(),
            kind,
            at_s,
            deployment_id,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_seq() {
        let mut fr = FlightRecorder::new(8);
        fr.record("arrival", 1.0, Some(0));
        fr.record("sample", 1.0, None);
        fr.record("finish", 2.0, Some(0));
        let kinds: Vec<_> = fr.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["arrival", "sample", "finish"]);
        let seqs: Vec<_> = fr.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(fr.pushed(), 3);
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn overflow_keeps_the_most_recent_entries() {
        let mut fr = FlightRecorder::new(3);
        for t in 0..7 {
            fr.record("sample", f64::from(t), None);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 4);
        let times: Vec<f64> = fr.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![4.0, 5.0, 6.0]);
        // Seq numbers keep counting across evictions.
        assert_eq!(fr.iter().last().unwrap().seq, 6);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }
}
