//! Counters, gauges, and fixed-bucket log2 histograms.
//!
//! Everything merges with commutative, associative u64 operations
//! (addition for counters/histograms, max for gauges), so a metric folded
//! across N workers is bit-identical for any N — the same discipline as
//! `TtfDistribution::merge` in the analysis crate. The global registry is
//! keyed by `&'static str` in a `BTreeMap`, so snapshots iterate in a
//! stable sorted order.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Fixed-bucket log2 histogram over `u64` values.
///
/// Bucket 0 holds the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. With 65 buckets every `u64` maps to exactly one
/// bucket. `merge` is elementwise addition, so folding per-worker
/// histograms yields identical counts for any worker count or order.
#[derive(Clone, Copy)]
pub struct Histogram {
    counts: [u64; 65],
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.sum == other.sum && self.counts == other.counts
    }
}
impl Eq for Histogram {}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            counts: [0; 65],
            sum: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Upper bound (inclusive) of bucket `i`.
    pub fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Elementwise addition — associative and commutative, so the result
    /// is independent of merge order and worker count.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Approximate quantile: upper bound of the bucket containing the
    /// q-th ranked sample. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_hi(i);
            }
        }
        Self::bucket_hi(64)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, low to high.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_hi(i), c))
            .collect()
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    hists: BTreeMap::new(),
});

/// Add `delta` to the named counter.
pub fn counter_add(name: &'static str, delta: u64) {
    let mut r = REGISTRY.lock().unwrap();
    *r.counters.entry(name).or_insert(0) += delta;
}

/// Raise the named gauge to `v` if `v` is larger (high-water mark).
pub fn gauge_max(name: &'static str, v: u64) {
    let mut r = REGISTRY.lock().unwrap();
    let g = r.gauges.entry(name).or_insert(0);
    if v > *g {
        *g = v;
    }
}

/// Set the named gauge to `v` unconditionally (last-write-wins; use only
/// from single-threaded control flow).
pub fn gauge_set(name: &'static str, v: u64) {
    let mut r = REGISTRY.lock().unwrap();
    r.gauges.insert(name, v);
}

/// Record `v` into the named histogram.
pub fn hist_record(name: &'static str, v: u64) {
    let mut r = REGISTRY.lock().unwrap();
    r.hists.entry(name).or_default().record(v);
}

/// Merge a locally-accumulated histogram into the named global one.
/// Preferred on hot paths: accumulate per-worker, merge once.
pub fn hist_merge(name: &'static str, h: &Histogram) {
    let mut r = REGISTRY.lock().unwrap();
    r.hists.entry(name).or_default().merge(h);
}

/// Point-in-time copy of the registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
    pub hists: Vec<(&'static str, Histogram)>,
}

pub fn metrics_snapshot() -> MetricsSnapshot {
    let r = REGISTRY.lock().unwrap();
    MetricsSnapshot {
        counters: r.counters.iter().map(|(&k, &v)| (k, v)).collect(),
        gauges: r.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
        hists: r.hists.iter().map(|(&k, v)| (k, *v)).collect(),
    }
}

/// Clear the registry (tests and benchmark iterations).
pub fn reset_metrics() {
    let mut r = REGISTRY.lock().unwrap();
    r.counters.clear();
    r.gauges.clear();
    r.hists.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        for i in 1..64 {
            // Every bucket's upper bound maps back into that bucket.
            assert_eq!(Histogram::bucket(Histogram::bucket_hi(i)), i);
        }
    }

    #[test]
    fn record_merge_quantile() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
        }
        for v in 100..200u64 {
            b.record(v);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.sum(), (0..200u64).sum::<u64>());
        assert!(merged.quantile(0.5) >= 63); // median sample is 100 → bucket hi ≥ 127
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let parts: Vec<Histogram> = (0..8u64)
            .map(|w| {
                let mut h = Histogram::new();
                for v in (w * 100)..(w * 100 + 100) {
                    h.record(v * 37 % 1000);
                }
                h
            })
            .collect();
        let mut fwd = Histogram::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn registry_snapshot_sorted() {
        let _g = crate::testlock::LOCK.lock().unwrap();
        reset_metrics();
        counter_add("z.count", 2);
        counter_add("a.count", 1);
        counter_add("z.count", 3);
        gauge_max("g", 5);
        gauge_max("g", 2);
        hist_record("h", 42);
        let snap = metrics_snapshot();
        assert_eq!(snap.counters, vec![("a.count", 1), ("z.count", 5)]);
        assert_eq!(snap.gauges, vec![("g", 5)]);
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].1.count(), 1);
        reset_metrics();
        assert!(metrics_snapshot().counters.is_empty());
    }
}
