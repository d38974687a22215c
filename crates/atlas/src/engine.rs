//! Deterministic discrete-event queue: a binary heap of `(time, sequence,
//! event)` triples, earliest first. The monotone sequence number pops
//! simultaneous events in push order (FIFO), which keeps whole-world
//! simulations bit-reproducible across runs and platforms. Each shard runs
//! its own queue and holds a few thousand pending events at most (5,572 at
//! the paper tier). Each simulation sums its shards' [`QueueStats`] into the
//! `sim.*` metrics, which `simulate --trace` writes to its sidecar.

use dynaddr_types::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Lifetime traffic counters of one [`EventQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events returned by `pop`.
    pub pops: u64,
    /// Maximum number of simultaneously pending events.
    pub max_len: usize,
}

/// A pending event. Entries compare by `(time, seq)` alone: `seq` is
/// unique, so the order is total without looking at the event.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    /// Events at or beyond this horizon are silently dropped on push.
    horizon: SimTime,
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue that drops events scheduled at or after
    /// `horizon` (the end of the measurement year).
    pub fn with_horizon(horizon: SimTime) -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            horizon,
            stats: QueueStats::default(),
        }
    }

    /// Schedules an event. Returns false if it fell beyond the horizon.
    pub fn push(&mut self, time: SimTime, event: E) -> bool {
        if time >= self.horizon {
            return false;
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
        self.stats.max_len = self.stats.max_len.max(self.heap.len());
        true
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.stats.pops += 1;
        Some((entry.time, entry.event))
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_horizon(SimTime::YEAR_END);
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::with_horizon(SimTime::YEAR_END);
        for label in ["first", "second", "third"] {
            q.push(SimTime(5), label);
        }
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn fifo_survives_a_pile_up() {
        // Far more simultaneous events than any shard holds at once.
        let mut q = EventQueue::with_horizon(SimTime::YEAR_END);
        for i in 0..1_034 {
            q.push(SimTime(5), i);
        }
        q.push(SimTime(4), -1);
        for i in -1..1_034 {
            assert_eq!(q.pop().unwrap().1, i, "FIFO broken in pile-up");
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn horizon_drops_late_events() {
        let mut q = EventQueue::with_horizon(SimTime(100));
        assert!(q.push(SimTime(99), "in"));
        assert!(!q.push(SimTime(100), "at"));
        assert!(!q.push(SimTime(500), "past"));
        assert_eq!(q.pop(), Some((SimTime(99), "in")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pre_year_times_pop_first() {
        // Probes joining before the measurement year push negative times.
        let mut q = EventQueue::with_horizon(SimTime::YEAR_END);
        q.push(SimTime(50), "later");
        q.push(SimTime(-1_000_000), "early");
        q.push(SimTime(-5), "less early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "less early");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn push_earlier_than_the_last_pop_pops_next() {
        let mut q = EventQueue::with_horizon(SimTime(1_000_000));
        q.push(SimTime(50), "a");
        q.push(SimTime(950), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime(10), "regressed");
        assert_eq!(q.pop().unwrap().1, "regressed");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn stats_count_traffic() {
        let mut q = EventQueue::with_horizon(SimTime(1_000));
        q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        q.push(SimTime(5_000), "dropped");
        q.pop();
        assert_eq!(
            q.stats(),
            QueueStats {
                pops: 1,
                max_len: 2
            }
        );
    }
}
