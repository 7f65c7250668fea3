//! The one bounded ring under the tracer, the span store and the flight
//! recorder.
//!
//! A full ring evicts its oldest item to make room, so a long run stays
//! bounded. It counts every push, so truncation stays visible: what was
//! evicted is `pushed − len`, and each export's meta line reports it.

use std::collections::VecDeque;

/// A bounded FIFO that evicts its oldest item when full.
///
/// # Examples
///
/// ```
/// use adrias_obs::Ring;
///
/// let mut ring = Ring::new(2);
/// for x in 0..5 {
///     ring.push(x);
/// }
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [3, 4]);
/// assert_eq!((ring.pushed(), ring.dropped()), (5, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    /// Creates a ring retaining at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            items: VecDeque::new(),
            capacity,
            pushed: 0,
        }
    }

    /// Appends `item`, evicting the oldest one when the ring is full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
        self.pushed += 1;
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items ever pushed, retained or evicted.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items evicted to make room: `pushed − len`.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.items.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ring_keeps_the_newest_items_and_counts_the_rest() {
        for capacity in 1..=9usize {
            for n in 0..=30usize {
                let mut ring = Ring::new(capacity);
                for x in 0..n {
                    ring.push(x);
                }
                let len = n.min(capacity);
                assert_eq!(ring.len(), len, "cap {capacity}, {n} pushes");
                assert_eq!(ring.is_empty(), len == 0);
                assert_eq!(ring.capacity(), capacity);
                assert_eq!(ring.pushed(), n as u64);
                assert_eq!(ring.dropped(), (n - len) as u64);
                let kept: Vec<usize> = ring.iter().copied().collect();
                assert_eq!(kept, (n - len..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Ring::<u8>::new(0);
    }
}
