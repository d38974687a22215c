//! The total-time-fraction metric (§4.1) and duration distributions.
//!
//! For a probe `p` and duration `d`, the total time fraction is
//! `f_d^p = d · n(d) / Σ(D)` — the fraction of the probe's total measured
//! address time spent in durations of length `d`. Compared with a plain CDF
//! of durations it up-weights long durations, making periodic modes visible
//! (the paper's Table 1 example: half the *durations* are 24 h long but
//! three quarters of the *time* is).
//!
//! Real durations are never exactly equal, so "durations of length d" is a
//! cluster: all durations within a relative tolerance of the cluster centre
//! (a 24-hour plan yields 23.5–23.9 h durations once reconnection delays
//! are subtracted). [`duration_clusters`] builds the clusters; the best
//! cluster's time-weighted mean, rounded to whole hours, is the reported
//! period `d`.

use dynaddr_types::SimDuration;

/// A cluster of near-equal durations.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationCluster {
    /// Time-weighted mean of member durations, in hours.
    pub center_hours: f64,
    /// Number of member durations.
    pub count: usize,
    /// Total time spent in member durations, in seconds.
    pub total_secs: i64,
    /// Fraction of the probe's total address time in this cluster (f_d^p).
    pub fraction: f64,
}

impl DurationCluster {
    /// The cluster centre rounded to whole hours — the `d` of Table 5.
    pub fn d_hours(&self) -> i64 {
        self.center_hours.round() as i64
    }
}

/// Greedy single-pass clustering of sorted durations with relative
/// tolerance: a duration joins the current cluster while it stays within
/// `tol` of the running time-weighted mean.
///
/// ```
/// use dynaddr_core::ttf::duration_clusters;
/// use dynaddr_types::SimDuration;
///
/// // Table 1's durations: three ~24 h periods plus outage-shortened ones.
/// let durations: Vec<SimDuration> = [14.2, 0.7, 7.2, 23.6, 23.6, 23.6]
///     .iter()
///     .map(|h| SimDuration::from_hours_f64(*h))
///     .collect();
/// let clusters = duration_clusters(&durations, 0.05);
/// let dominant = clusters.iter().max_by_key(|c| c.total_secs).unwrap();
/// assert_eq!(dominant.d_hours(), 24);
/// assert!(dominant.fraction > 0.7, "three quarters of the *time* is 24h");
/// ```
pub fn duration_clusters(durations: &[SimDuration], tol: f64) -> Vec<DurationCluster> {
    assert!(tol > 0.0 && tol < 1.0, "tolerance must be in (0,1)");
    let total: i64 = durations.iter().map(|d| d.secs()).sum();
    if total <= 0 {
        return Vec::new();
    }
    let mut sorted: Vec<i64> = durations
        .iter()
        .map(|d| d.secs())
        .filter(|&s| s > 0)
        .collect();
    sorted.sort_unstable();

    let mut clusters = Vec::new();
    let mut start = 0usize;
    let mut sum: i64 = 0;
    for (i, &s) in sorted.iter().enumerate() {
        if i > start {
            let mean = sum as f64 / (i - start) as f64;
            if (s as f64 - mean).abs() > tol * mean {
                clusters.push(make_cluster(&sorted[start..i], total));
                start = i;
                sum = 0;
            }
        }
        sum += s;
    }
    if start < sorted.len() {
        clusters.push(make_cluster(&sorted[start..], total));
    }
    clusters
}

fn make_cluster(members: &[i64], total: i64) -> DurationCluster {
    let cluster_total: i64 = members.iter().sum();
    // Time-weighted mean: Σd² / Σd — long members dominate the centre.
    let weighted: f64 = members
        .iter()
        .map(|&d| (d as f64) * (d as f64))
        .sum::<f64>()
        / cluster_total as f64;
    DurationCluster {
        center_hours: weighted / 3_600.0,
        count: members.len(),
        total_secs: cluster_total,
        fraction: cluster_total as f64 / total as f64,
    }
}

/// The dominant cluster (largest total time), if any.
pub fn dominant_cluster(durations: &[SimDuration], tol: f64) -> Option<DurationCluster> {
    duration_clusters(durations, tol)
        .into_iter()
        .max_by(|a, b| a.total_secs.cmp(&b.total_secs))
}

/// A group-level total-time-fraction distribution under construction
/// (continent, country, AS). Push durations in, then [`finalize`] into an
/// immutable [`TtfCurve`] for querying.
///
/// [`finalize`]: TtfDistribution::finalize
#[derive(Debug, Clone, Default)]
pub struct TtfDistribution {
    /// `(hours, weight)` per duration, in push order; the weight is the
    /// duration in seconds.
    points: Vec<(f64, f64)>,
    /// The weights' sum, accumulated left to right.
    total_weight: f64,
    total_secs: i64,
}

impl TtfDistribution {
    /// Creates an empty distribution.
    pub fn new() -> TtfDistribution {
        TtfDistribution::default()
    }

    /// Adds one address duration.
    pub fn push(&mut self, d: SimDuration) {
        if d.secs() > 0 {
            let weight = d.secs() as f64;
            self.points.push((d.as_hours(), weight));
            self.total_weight += weight;
            self.total_secs += d.secs();
        }
    }

    /// Adds many durations.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = SimDuration>) {
        for d in ds {
            self.push(d);
        }
    }

    /// Absorbs another distribution built from a later block of the same
    /// probe sequence. Deterministic under `par_fold`: the points
    /// concatenate in block order, so [`finalize`]'s stable sort sees the
    /// tie order of a sequential build, and the float total carries this
    /// distribution's running sum on over the other's points, in order:
    /// the one left-to-right sum over the concatenation that sequential
    /// `push`es accumulate. Float addition is not associative, so adding
    /// the other's own total would drift from it. The result is
    /// byte-identical to a sequential build at any worker count, and a
    /// merge costs the other's points only, however many blocks came
    /// before.
    ///
    /// [`finalize`]: TtfDistribution::finalize
    pub fn merge(&mut self, mut other: TtfDistribution) {
        self.total_weight = other
            .points
            .iter()
            .fold(self.total_weight, |total, (_, w)| total + w);
        self.points.append(&mut other.points);
        self.total_secs += other.total_secs;
    }

    /// Number of durations.
    pub fn count(&self) -> usize {
        self.points.len()
    }

    /// Total address time in years (the legend numbers of Figs. 1–3).
    pub fn total_years(&self) -> f64 {
        self.total_secs as f64 / (365.0 * 86_400.0)
    }

    /// Sorts the accumulated durations once and freezes them into an
    /// immutable, query-ready [`TtfCurve`].
    pub fn finalize(mut self) -> TtfCurve {
        self.points
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN values"));
        let mut steps = Vec::with_capacity(self.points.len());
        let mut acc = 0.0;
        for (hours, weight) in self.points {
            acc += weight;
            steps.push((hours, acc));
        }
        TtfCurve {
            steps,
            total_weight: self.total_weight,
            total_secs: self.total_secs,
        }
    }
}

/// A finalized total-time-fraction curve: durations sorted and accumulated
/// once at construction, so every query is `&self`, `O(log n)`, and the
/// type is `Sync` — curves can be queried from any number of worker threads
/// without locking or re-sorting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TtfCurve {
    /// `(hours, cumulative weight)`, sorted by hours.
    steps: Vec<(f64, f64)>,
    total_weight: f64,
    total_secs: i64,
}

impl TtfCurve {
    /// Number of durations.
    pub fn count(&self) -> usize {
        self.steps.len()
    }

    /// Whether the curve holds no durations.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total address time in years (the legend numbers of Figs. 1–3).
    pub fn total_years(&self) -> f64 {
        self.total_secs as f64 / (365.0 * 86_400.0)
    }

    /// Fraction of total time in durations ≤ `hours` (the y-axis of
    /// Figs. 1–3).
    pub fn fraction_le_hours(&self, hours: f64) -> f64 {
        if self.total_weight == 0.0 {
            return 0.0;
        }
        let idx = self.steps.partition_point(|(v, _)| *v <= hours);
        if idx == 0 {
            0.0
        } else {
            self.steps[idx - 1].1 / self.total_weight
        }
    }

    /// Total time fraction at a mode `hours` with relative tolerance —
    /// weight within `[hours(1-tol), hours(1+tol)]`.
    pub fn fraction_at_mode(&self, hours: f64, tol: f64) -> f64 {
        if self.total_weight == 0.0 {
            return 0.0;
        }
        let lo = hours * (1.0 - tol);
        let hi = hours * (1.0 + tol);
        let a = self.steps.partition_point(|(v, _)| *v < lo);
        let b = self.steps.partition_point(|(v, _)| *v <= hi);
        if b <= a {
            return 0.0;
        }
        let below = if a == 0 { 0.0 } else { self.steps[a - 1].1 };
        (self.steps[b - 1].1 - below) / self.total_weight
    }

    /// The full cumulative curve `(hours, fraction)`.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let denom = self.total_weight.max(f64::MIN_POSITIVE);
        self.steps
            .iter()
            .map(|&(v, acc)| (v, acc / denom))
            .collect()
    }

    /// Samples the curve at fixed breakpoints (for rendering and testing).
    pub fn sampled_curve(&self, breakpoints_hours: &[f64]) -> Vec<(f64, f64)> {
        breakpoints_hours
            .iter()
            .map(|&h| (h, self.fraction_le_hours(h)))
            .collect()
    }
}

/// The x-axis breakpoints used by the paper's figures
/// (1h, 6h, 12h, 1d, 3d, 1w, 2w, 1mo, 2mo).
pub fn paper_breakpoints_hours() -> Vec<f64> {
    vec![1.0, 6.0, 12.0, 24.0, 72.0, 168.0, 336.0, 720.0, 1_440.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(hours: f64) -> SimDuration {
        SimDuration::from_hours_f64(hours)
    }

    #[test]
    fn empty_durations_no_clusters() {
        assert!(duration_clusters(&[], 0.05).is_empty());
        assert!(dominant_cluster(&[SimDuration::ZERO], 0.05).is_none());
    }

    #[test]
    fn table1_example_fraction() {
        // Paper §4.1: of the six durations in Table 1, the three ~24 h ones
        // account for roughly three quarters of total time.
        let ds = vec![h(14.2), h(0.7), h(7.2), h(23.6), h(23.6), h(23.6)];
        let best = dominant_cluster(&ds, 0.05).unwrap();
        assert_eq!(best.count, 3);
        assert_eq!(best.d_hours(), 24);
        let expected = (3.0 * 23.6) / (14.2 + 0.7 + 7.2 + 3.0 * 23.6);
        assert!((best.fraction - expected).abs() < 1e-9, "{}", best.fraction);
        assert!(best.fraction > 0.7);
    }

    #[test]
    fn clusters_split_on_tolerance() {
        let ds = vec![h(22.0), h(22.1), h(24.0), h(24.1), h(48.0)];
        let clusters = duration_clusters(&ds, 0.05);
        assert_eq!(clusters.len(), 3, "{clusters:?}");
        assert_eq!(clusters[0].d_hours(), 22);
        assert_eq!(clusters[1].d_hours(), 24);
        assert_eq!(clusters[2].d_hours(), 48);
    }

    #[test]
    fn near_cap_durations_round_to_cap() {
        // Reconnect delays shave 10–25 minutes off each period.
        let ds: Vec<SimDuration> = (0..20).map(|i| h(23.6 + 0.01 * i as f64)).collect();
        let best = dominant_cluster(&ds, 0.05).unwrap();
        assert_eq!(best.d_hours(), 24);
        assert!((best.fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractions_sum_to_one() {
        let ds = vec![h(1.0), h(5.0), h(24.0), h(24.1), h(100.0)];
        let clusters = duration_clusters(&ds, 0.05);
        let sum: f64 = clusters.iter().map(|c| c.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let n: usize = clusters.iter().map(|c| c.count).sum();
        assert_eq!(n, 5);
    }

    #[test]
    fn ttf_distribution_curve() {
        let mut dist = TtfDistribution::new();
        dist.extend(vec![h(24.0); 9]);
        dist.push(h(216.0)); // one long duration, same weight as the 9 short
        assert_eq!(dist.count(), 10);
        let curve = dist.finalize();
        assert_eq!(curve.count(), 10);
        assert!((curve.fraction_le_hours(24.0) - 0.5).abs() < 1e-9);
        assert!((curve.fraction_le_hours(300.0) - 1.0).abs() < 1e-9);
        assert!((curve.fraction_at_mode(24.0, 0.05) - 0.5).abs() < 1e-9);
        let years = curve.total_years();
        assert!((years - (9.0 * 24.0 + 216.0) / (365.0 * 24.0)).abs() < 1e-9);
    }

    #[test]
    fn sampled_curve_matches_fraction_le() {
        let mut dist = TtfDistribution::new();
        dist.extend(vec![h(2.0), h(30.0), h(200.0)]);
        let curve = dist.finalize();
        let samples = curve.sampled_curve(&paper_breakpoints_hours());
        assert_eq!(samples.len(), 9);
        for (x, y) in samples {
            assert!((y - curve.fraction_le_hours(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn finalized_curve_is_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<TtfCurve>();
        let mut dist = TtfDistribution::new();
        dist.extend(vec![h(24.0), h(48.0)]);
        let curve = dist.finalize();
        let full = curve.curve();
        assert_eq!(full.len(), 2);
        assert!((full.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(curve.fraction_at_mode(1.0, 0.05) == 0.0, "no mass near 1h");
    }

    #[test]
    fn empty_curve_queries_are_zero() {
        let curve = TtfDistribution::new().finalize();
        assert!(curve.is_empty());
        assert_eq!(curve.fraction_le_hours(24.0), 0.0);
        assert_eq!(curve.fraction_at_mode(24.0, 0.05), 0.0);
        assert!(curve.curve().is_empty());
    }

    #[test]
    fn merging_blocks_matches_sequential_pushes_bit_for_bit() {
        // Weights near 2^53 seconds make f64 addition order-dependent
        // (2^53 + 1 + 1 is 2^53 left to right, 2^53 + 2 by partial
        // totals), so a merge that added the blocks' totals would differ.
        let big = 1i64 << 53;
        let secs: Vec<i64> = (0..40)
            .map(|i| if i % 10 == 0 { big } else { 1 + i % 3 })
            .collect();
        let build = |secs: &[i64]| {
            let mut dist = TtfDistribution::new();
            dist.extend(secs.iter().map(|&s| SimDuration::from_secs(s)));
            dist
        };
        let sequential = build(&secs).finalize();
        for block in [1, 2, 3, 7, 40] {
            let mut merged = TtfDistribution::new();
            for chunk in secs.chunks(block) {
                merged.merge(build(chunk));
            }
            assert_eq!(merged.finalize(), sequential, "blocks of {block}");
        }
    }

    #[test]
    fn zero_durations_ignored() {
        let mut dist = TtfDistribution::new();
        dist.push(SimDuration::ZERO);
        assert_eq!(dist.count(), 0);
    }
}
