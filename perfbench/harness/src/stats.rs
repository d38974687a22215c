//! Exact order statistics over raw samples: no buckets, no sketches.

/// The `p`-th percentile (0 < p <= 100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p`% of all samples at or
/// below it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile rank {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency distribution summarised from its raw samples (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples the percentiles were taken from.
    pub n: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Largest sample, microseconds.
    pub max_us: f64,
    /// Samples strictly above the 99th percentile.
    pub beyond_p99: usize,
}

impl Latency {
    /// Sorts `samples_ns` in place and summarises it; `None` when empty.
    pub fn from_ns(samples_ns: &mut [u64]) -> Option<Latency> {
        if samples_ns.is_empty() {
            return None;
        }
        samples_ns.sort_unstable();
        let p99 = percentile(samples_ns, 99.0);
        let beyond_p99 = samples_ns.len() - samples_ns.partition_point(|&s| s <= p99);
        Some(Latency {
            n: samples_ns.len(),
            p50_us: percentile(samples_ns, 50.0) as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            max_us: *samples_ns.last().expect("non-empty") as f64 / 1e3,
            beyond_p99,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let one_to_hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&one_to_hundred, 50.0), 50);
        assert_eq!(percentile(&one_to_hundred, 99.0), 99);
        assert_eq!(percentile(&one_to_hundred, 100.0), 100);
        assert_eq!(percentile(&one_to_hundred, 0.5), 1);
        // Ten samples: p50 is the 5th, p99 is the 10th (ceil(9.9) = 10).
        let ten = [3, 5, 7, 9, 11, 13, 15, 17, 19, 21];
        assert_eq!(percentile(&ten, 50.0), 11);
        assert_eq!(percentile(&ten, 99.0), 21);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn latency_summary_counts_the_tail() {
        // 1000 samples of 1..=1000 µs, shuffled: p99 is 990 µs and exactly
        // ten samples lie beyond it.
        let mut ns: Vec<u64> = (1..=1000u64)
            .map(|i| (i * 7919 % 1000 + 1) * 1000)
            .collect();
        let l = Latency::from_ns(&mut ns).expect("samples");
        assert_eq!(l.n, 1000);
        assert_eq!(l.p50_us, 500.0);
        assert_eq!(l.p99_us, 990.0);
        assert_eq!(l.max_us, 1000.0);
        assert_eq!(l.beyond_p99, 10);
        assert!(Latency::from_ns(&mut []).is_none());
    }

    #[test]
    fn ties_at_p99_are_not_beyond_it() {
        let mut ns = vec![5u64; 200];
        let l = Latency::from_ns(&mut ns).expect("samples");
        assert_eq!(l.p99_us, 0.005);
        assert_eq!(l.beyond_p99, 0);
    }
}
