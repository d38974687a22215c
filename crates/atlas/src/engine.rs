//! Deterministic discrete-event queue: a bucketed calendar queue.
//!
//! The queue orders `(time, sequence, event)` triples; the monotone
//! sequence number makes ordering of simultaneous events deterministic
//! (FIFO among equals), which keeps whole-world simulations
//! bit-reproducible across runs and platforms.
//!
//! ## Why a calendar queue
//!
//! The simulator's event loop is its hottest path, and a `BinaryHeap` pays
//! `O(log n)` comparison-heavy sifts on every push *and* pop. Simulation
//! events are spread over a fixed, known horizon (the 2015 measurement
//! year), which is exactly the shape a calendar queue exploits:
//!
//! * entries live in a **flat slot arena** (`Vec<Option<Entry>>` plus a
//!   free list), so push/pop never move event payloads around;
//! * the `[0, horizon)` span is cut into fixed-width **time buckets**
//!   (day-width by default, configurable via [`set_bucket_width`]); a push
//!   appends its slot index to one bucket — `O(1)`, no comparisons;
//! * pop drains buckets in order. When the cursor enters a bucket, the
//!   bucket is sorted once by `(time, seq)` into the **active run** and
//!   then consumed front to back. Sorting `k` events costs `O(k log k)`
//!   amortized over the `k` pops they feed, and the `(time, seq)` key is
//!   unique, so an unstable sort is still deterministic;
//! * events pushed at or before the cursor (same-bucket follow-ups like
//!   reconnect delays, or — allowed, though the simulator never does it —
//!   times before an already-popped event) are **ordered-inserted** into
//!   the remaining active run, preserving exact priority-queue semantics;
//! * events at or past the bucketed span land in an **overflow list**
//!   that is sorted and drained only after every bucket is exhausted
//!   (far-future events on a queue built without a horizon);
//! * when a single bucket's occupancy exceeds [`MAX_BUCKET_OCCUPANCY`]
//!   the bucket width is **halved and the un-drained region re-bucketed**,
//!   keeping per-bucket sorts and ordered inserts cheap for worlds much
//!   denser than the defaults. The trigger depends only on the push/pop
//!   sequence, so resizing never breaks determinism.
//!
//! The pop order is byte-for-byte the order the previous `BinaryHeap`
//! implementation produced — a property-based differential test below
//! drives both through randomized interleavings. The queue also counts its
//! traffic ([`QueueStats`]): each simulation sums the shards' counts into
//! the `sim.*` metrics (pushes, pops, occupancy, resizes), which
//! `simulate --trace` writes to its sidecar.

use dynaddr_types::time::DAY;
use dynaddr_types::SimTime;
use std::sync::atomic::{AtomicI64, Ordering};

/// Default bucket width: one simulated day. With the year-long horizon this
/// yields 365 buckets, and per-probe event cadence (a handful of events per
/// day) keeps buckets small enough to sort for pennies.
pub const DEFAULT_BUCKET_WIDTH: i64 = DAY;

/// A bucket holding more events than this triggers a width halving.
pub const MAX_BUCKET_OCCUPANCY: usize = 1_024;

/// Resizing never narrows buckets below one simulated minute: below that,
/// simultaneous-event pileups would trigger futile rebuilds forever.
pub const MIN_BUCKET_WIDTH: i64 = 60;

static WIDTH_OVERRIDE: AtomicI64 = AtomicI64::new(0);

/// Sets (or with `None` clears) a process-wide override of the bucket
/// width used by queues constructed after the call. Exists so determinism
/// tests can force non-default calendar layouts; the simulation output
/// must be byte-identical for every width.
pub fn set_bucket_width(width: Option<i64>) {
    let w = width.unwrap_or(0);
    assert!(width.is_none() || w > 0, "bucket width must be positive");
    WIDTH_OVERRIDE.store(w, Ordering::SeqCst);
}

/// The bucket width the next constructed queue will use.
pub fn current_bucket_width() -> i64 {
    match WIDTH_OVERRIDE.load(Ordering::SeqCst) {
        0 => DEFAULT_BUCKET_WIDTH,
        w => w,
    }
}

/// Lifetime traffic counters of one [`EventQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events accepted by `push` (horizon drops not counted).
    pub pushes: u64,
    /// Events returned by `pop`.
    pub pops: u64,
    /// Maximum number of simultaneously pending events.
    pub max_len: usize,
    /// Pushes that landed in the overflow (past-the-span) list.
    pub overflow_hits: u64,
    /// Bucket-width halvings triggered by occupancy skew.
    pub resizes: u64,
    /// Queue length sampled at every push: the occupancy distribution the
    /// calendar sizing fights against. Merges bit-identically across
    /// shards (elementwise u64 adds), so the aggregate is worker-count
    /// invariant like every other field here.
    pub occupancy: dynaddr_obs::Histogram,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// A time-ordered event queue with deterministic tie-breaking.
pub struct EventQueue<E> {
    /// Flat arena; `None` slots are free and their indices sit in `free`.
    slots: Vec<Option<Entry<E>>>,
    free: Vec<u32>,
    /// `buckets[b]` holds slot indices with `time in [b*width, (b+1)*width)`
    /// (bucket 0 additionally takes pre-span times), unsorted.
    buckets: Vec<Vec<u32>>,
    /// Current bucket width in seconds.
    width: i64,
    /// End of the bucketed span; times at or past it go to `overflow`.
    span_end: i64,
    /// Next bucket to activate; buckets below it are already drained into
    /// (or behind) the active run.
    cur: usize,
    /// The active run: slot indices sorted by `(time, seq)`, consumed from
    /// `run_pos`. Late pushes at or before the cursor are ordered-inserted.
    run: Vec<u32>,
    run_pos: usize,
    /// Slot indices at or past `span_end`, unsorted until activated.
    overflow: Vec<u32>,
    /// Whether `run` is the (sorted) overflow drain.
    overflow_active: bool,
    len: usize,
    seq: u64,
    /// Events at or beyond this horizon are silently dropped on push.
    horizon: Option<SimTime>,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with no horizon. The calendar still spans
    /// `[0, YEAR_END)`; anything later is overflow.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_layout(None, current_bucket_width())
    }

    /// Creates a queue that drops events scheduled at or after `horizon`
    /// (the end of the measurement year).
    pub fn with_horizon(horizon: SimTime) -> EventQueue<E> {
        EventQueue::with_layout(Some(horizon), current_bucket_width())
    }

    /// Creates a queue with an explicit horizon and bucket width (tests;
    /// normal construction goes through [`with_horizon`] and the global
    /// width override).
    ///
    /// [`with_horizon`]: EventQueue::with_horizon
    pub fn with_layout(horizon: Option<SimTime>, width: i64) -> EventQueue<E> {
        assert!(width > 0, "bucket width must be positive");
        let span_end = horizon.map(|h| h.0).unwrap_or(SimTime::YEAR_END.0).max(width);
        let n_buckets = usize::try_from(span_end.div_euclid(width)
            + i64::from(span_end.rem_euclid(width) != 0))
            .expect("bucket count fits usize");
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); n_buckets],
            width,
            span_end,
            cur: 0,
            run: Vec::new(),
            run_pos: 0,
            overflow: Vec::new(),
            overflow_active: false,
            len: 0,
            seq: 0,
            horizon,
            stats: QueueStats::default(),
        }
    }

    #[inline]
    fn key(&self, idx: u32) -> (SimTime, u64) {
        let e = self.slots[idx as usize].as_ref().expect("live slot");
        (e.time, e.seq)
    }

    #[inline]
    fn bucket_of(&self, time: SimTime) -> usize {
        // Pre-span times (probes joining before the year) clamp into
        // bucket 0; the activation sort orders them correctly within it.
        let b = time.0.div_euclid(self.width).max(0) as usize;
        b.min(self.buckets.len() - 1)
    }

    /// Ordered insert into the remaining active run. The `(time, seq)` key
    /// is unique, so `partition_point` gives one deterministic position;
    /// equal times sort by push order (FIFO).
    fn insert_into_run(&mut self, idx: u32) {
        let key = self.key(idx);
        let tail = &self.run[self.run_pos..];
        let at = self.run_pos + tail.partition_point(|&i| self.key(i) < key);
        self.run.insert(at, idx);
    }

    /// Halves the bucket width and re-buckets the un-drained region. All
    /// bucketed events sit at or after the cursor boundary, and halving
    /// keeps old boundaries aligned, so the cursor maps exactly.
    fn halve_width(&mut self) {
        let new_width = self.width / 2;
        if new_width < MIN_BUCKET_WIDTH {
            return;
        }
        let n_new = usize::try_from(self.span_end.div_euclid(new_width)
            + i64::from(self.span_end.rem_euclid(new_width) != 0))
            .expect("bucket count fits usize");
        let old = std::mem::take(&mut self.buckets);
        self.width = new_width;
        // Halving keeps old boundaries aligned: old bucket b becomes new
        // buckets 2b and 2b+1, so the drain cursor maps exactly.
        self.cur *= 2;
        self.buckets = vec![Vec::new(); n_new];
        for bucket in old.into_iter() {
            for idx in bucket {
                let time = self.slots[idx as usize].as_ref().expect("live slot").time;
                let b = self.bucket_of(time);
                self.buckets[b].push(idx);
            }
        }
        self.stats.resizes += 1;
    }

    /// Schedules an event. Returns false if it fell beyond the horizon.
    pub fn push(&mut self, time: SimTime, event: E) -> bool {
        if let Some(h) = self.horizon {
            if time >= h {
                return false;
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(entry);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("arena fits u32");
                self.slots.push(Some(entry));
                i
            }
        };
        self.len += 1;
        self.stats.pushes += 1;
        self.stats.max_len = self.stats.max_len.max(self.len);
        self.stats.occupancy.record(self.len as u64);

        if self.overflow_active {
            // Every bucket is drained; the sorted overflow run is the only
            // pending region, so everything ordered-inserts there.
            self.insert_into_run(idx);
        } else if time.0 >= self.span_end {
            self.overflow.push(idx);
            self.stats.overflow_hits += 1;
        } else {
            let b = self.bucket_of(time);
            if b < self.cur {
                self.insert_into_run(idx);
            } else {
                self.buckets[b].push(idx);
                if self.buckets[b].len() > MAX_BUCKET_OCCUPANCY {
                    self.halve_width();
                }
            }
        }
        true
    }

    /// Sorts `indices` by `(time, seq)` and installs it as the active run.
    fn activate(&mut self, mut indices: Vec<u32>) {
        let slots = &self.slots;
        indices.sort_unstable_by_key(|&i| {
            let e = slots[i as usize].as_ref().expect("live slot");
            (e.time, e.seq)
        });
        self.run = indices;
        self.run_pos = 0;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.run_pos < self.run.len() {
                let idx = self.run[self.run_pos];
                self.run_pos += 1;
                let entry = self.slots[idx as usize].take().expect("live slot");
                self.free.push(idx);
                self.len -= 1;
                self.stats.pops += 1;
                return Some((entry.time, entry.event));
            }
            if self.len == 0 {
                return None;
            }
            // Advance the cursor to the next non-empty bucket. `cur` only
            // moves forward, so the scan is O(#buckets) per queue lifetime.
            while self.cur < self.buckets.len() && self.buckets[self.cur].is_empty() {
                self.cur += 1;
            }
            if self.cur < self.buckets.len() {
                let bucket = std::mem::take(&mut self.buckets[self.cur]);
                self.cur += 1;
                self.activate(bucket);
            } else if !self.overflow_active {
                let overflow = std::mem::take(&mut self.overflow);
                self.overflow_active = true;
                self.activate(overflow);
            } else {
                unreachable!("len > 0 with all regions drained");
            }
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.run_pos < self.run.len() {
            return Some(self.key(self.run[self.run_pos]).0);
        }
        for b in self.cur..self.buckets.len() {
            if let Some(t) = self.buckets[b].iter().map(|&i| self.key(i)).min() {
                return Some(t.0);
            }
        }
        self.overflow.iter().map(|&i| self.key(i)).min().map(|k| k.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// The retired `BinaryHeap` implementation, kept as the differential-test
/// oracle: randomized push/pop interleavings must produce identical
/// sequences from both queues.
#[cfg(test)]
pub(crate) mod reference {
    use dynaddr_types::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq, Eq)]
    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E: Eq> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.seq).cmp(&(other.time, other.seq))
        }
    }

    impl<E: Eq> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-calendar event queue, byte-for-byte the old semantics.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
        horizon: Option<SimTime>,
    }

    impl<E: Eq> HeapQueue<E> {
        pub fn new() -> HeapQueue<E> {
            HeapQueue { heap: BinaryHeap::new(), seq: 0, horizon: None }
        }

        pub fn with_horizon(horizon: SimTime) -> HeapQueue<E> {
            HeapQueue { heap: BinaryHeap::new(), seq: 0, horizon: Some(horizon) }
        }

        pub fn push(&mut self, time: SimTime, event: E) -> bool {
            if let Some(h) = self.horizon {
                if time >= h {
                    return false;
                }
            }
            self.heap.push(Reverse(Entry { time, seq: self.seq, event }));
            self.seq += 1;
            true
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|Reverse(e)| (e.time, e.event))
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapQueue;
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.push(SimTime(5), label);
        }
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn horizon_drops_late_events() {
        let mut q = EventQueue::with_horizon(SimTime(100));
        assert!(q.push(SimTime(99), "in"));
        assert!(!q.push(SimTime(100), "at"));
        assert!(!q.push(SimTime(500), "past"));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pre_span_times_pop_first() {
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
    fn overflow_events_drain_after_span_sorted() {
        let mut q: EventQueue<&str> = EventQueue::new(); // span = YEAR_END, no horizon
        let end = SimTime::YEAR_END.0;
        q.push(SimTime(end + 500), "b");
        q.push(SimTime(end + 100), "a");
        q.push(SimTime(10), "in-span");
        assert_eq!(q.stats().overflow_hits, 2);
        assert_eq!(q.pop().unwrap().1, "in-span");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        // Pushes while the overflow run is active keep global order.
        q.push(SimTime(end + 50), "late");
        q.push(SimTime(end + 900), "later");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap().1, "later");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_before_cursor_pops_next() {
        let mut q = EventQueue::with_layout(Some(SimTime(1_000_000)), 100);
        q.push(SimTime(50), "a");
        q.push(SimTime(950), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        // Time 10 is in an already-drained bucket; heap semantics say it
        // must still pop before "c".
        q.push(SimTime(10), "regressed");
        assert_eq!(q.pop().unwrap().1, "regressed");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn occupancy_skew_triggers_resize() {
        let mut q = EventQueue::with_layout(Some(SimTime::YEAR_END), DAY);
        // Pile everything into one day, spread within it.
        for i in 0..(MAX_BUCKET_OCCUPANCY as i64 + 10) {
            q.push(SimTime(i * 10 % DAY), i);
        }
        assert!(q.stats().resizes >= 1, "no resize after skewed load");
        // Order must survive the rebuild.
        let mut prev = None;
        while let Some((t, seq_val)) = q.pop() {
            if let Some((pt, ps)) = prev {
                assert!((pt, ps) < (t, seq_val), "order broken after resize");
            }
            prev = Some((t, seq_val));
        }
    }

    #[test]
    fn resize_stops_at_min_width() {
        let mut q = EventQueue::with_layout(Some(SimTime::YEAR_END), MIN_BUCKET_WIDTH);
        for i in 0..(MAX_BUCKET_OCCUPANCY as i64 + 10) {
            q.push(SimTime(5), i); // all simultaneous: halving cannot help
        }
        assert_eq!(q.stats().resizes, 0);
        for i in 0..(MAX_BUCKET_OCCUPANCY as i64 + 10) {
            assert_eq!(q.pop().unwrap().1, i, "FIFO broken in pileup");
        }
    }

    #[test]
    fn stats_count_traffic() {
        let mut q = EventQueue::with_horizon(SimTime(1_000));
        q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        q.push(SimTime(5_000), "dropped");
        q.pop();
        let s = q.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 1);
        assert_eq!(s.max_len, 2);
        assert_eq!(s.overflow_hits, 0);
    }

    #[test]
    fn width_override_is_scoped() {
        set_bucket_width(Some(3_600));
        assert_eq!(current_bucket_width(), 3_600);
        set_bucket_width(None);
        assert_eq!(current_bucket_width(), DEFAULT_BUCKET_WIDTH);
    }

    /// Drives the calendar queue and the heap oracle through one seeded
    /// randomized interleaving of pushes and pops and asserts identical
    /// output sequences.
    fn differential_run(seed: u64, ops: usize, width: i64, horizon: Option<i64>) {
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let mut cal: EventQueue<u64> = EventQueue::with_layout(horizon.map(SimTime), width);
        let mut heap: HeapQueue<u64> = match horizon {
            Some(h) => HeapQueue::with_horizon(SimTime(h)),
            None => HeapQueue::new(),
        };
        let span = SimTime::YEAR_END.0;
        for op in 0..ops {
            if rng.gen::<f64>() < 0.6 {
                // Mix of in-span, pre-span, simultaneous, boundary, and
                // far-future times.
                let time = match rng.gen_range(0..10) {
                    0 => SimTime(-rng.gen_range(1..30 * DAY)),
                    1 => SimTime(span + rng.gen_range(0..100 * DAY)),
                    2 => SimTime(rng.gen_range(0..5) * width), // bucket edges
                    3 => SimTime(42), // pile up ties
                    _ => SimTime(rng.gen_range(0..span)),
                };
                let a = cal.push(time, op as u64);
                let b = heap.push(time, op as u64);
                assert_eq!(a, b, "horizon drop disagreement at {time}");
            } else {
                assert_eq!(cal.pop(), heap.pop(), "pop disagreement at op {op}");
            }
            assert_eq!(cal.len(), heap.len());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b, "drain disagreement");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn differential_vs_heap_default_layout() {
        for seed in 0..8 {
            differential_run(seed, 2_000, DEFAULT_BUCKET_WIDTH, None);
            differential_run(seed, 2_000, DEFAULT_BUCKET_WIDTH, Some(SimTime::YEAR_END.0));
        }
    }

    #[test]
    fn differential_vs_heap_tiny_buckets_forced_resizes() {
        // Narrow span + tiny width forces dense buckets, resizes (via the
        // occupancy trigger at larger op counts), and heavy overflow use.
        for seed in 0..4 {
            differential_run(seed, 3_000, MIN_BUCKET_WIDTH, Some(7 * DAY));
        }
    }

    proptest! {
        /// Arbitrary interleavings, widths, and horizons: the calendar
        /// queue must be indistinguishable from the heap.
        #[test]
        fn calendar_equals_heap(
            seed in 0u64..1_000,
            ops in 1usize..600,
            width_exp in 6u32..18, // 64 s .. ~36 h
            horizon_sel in 0u8..2,
        ) {
            let width = 1i64 << width_exp;
            let horizon = (horizon_sel == 1).then_some(SimTime::YEAR_END.0);
            differential_run(seed, ops, width, horizon);
        }
    }
}
