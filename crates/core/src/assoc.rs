//! Associating outages with inter-connection gaps and address changes
//! (§3.6, §5.3–5.4; Figs. 7–9, Table 6).
//!
//! For every detected outage we find the inter-connection gap it overlaps
//! (with a small slack, since outage timestamps quantize to the 4-minute
//! k-root grid). The outage "caused" an address change when that gap's
//! addresses differ. Per probe we then estimate `P(ac | nw)` and
//! `P(ac | pw)` as the fraction of outages contemporaneous with a change.

use crate::changes::Gap;
use crate::outages::{NetworkOutage, PowerOutage};
use dynaddr_types::{ProbeId, SimDuration, SimTime};
use serde::Serialize;

/// Slack when matching outages to gaps (one k-root round each side).
pub const MATCH_SLACK: SimDuration = SimDuration(300);

/// Outage kind after association.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OutageKind {
    /// Lost pings with growing LTS.
    Network,
    /// Reboot with missing pings.
    Power,
}

/// One outage with its association outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssociatedOutage {
    /// The probe.
    pub probe: ProbeId,
    /// Network or power.
    pub kind: OutageKind,
    /// Outage start (detection timestamp).
    pub start: SimTime,
    /// Measured/estimated duration.
    pub duration: SimDuration,
    /// Whether an address change is contemporaneous with the outage.
    pub address_changed: bool,
}

/// Matches an interval against a probe's gaps; returns whether any
/// overlapping gap changed addresses.
fn interval_changed(gaps: &[Gap], start: SimTime, end: SimTime) -> bool {
    gaps.iter()
        .any(|g| g.address_changed && end + MATCH_SLACK >= g.start && start <= g.end + MATCH_SLACK)
}

/// Associates a probe's network outages with its gaps.
pub fn associate_network(gaps: &[Gap], outages: &[NetworkOutage]) -> Vec<AssociatedOutage> {
    outages
        .iter()
        .map(|o| AssociatedOutage {
            probe: o.probe,
            kind: OutageKind::Network,
            start: o.start,
            duration: o.duration(),
            address_changed: interval_changed(gaps, o.start, o.end),
        })
        .collect()
}

/// Associates a probe's power outages with its gaps.
pub fn associate_power(gaps: &[Gap], outages: &[PowerOutage]) -> Vec<AssociatedOutage> {
    outages
        .iter()
        .map(|o| AssociatedOutage {
            probe: o.probe,
            kind: OutageKind::Power,
            start: o.dark_start,
            duration: o.duration(),
            address_changed: interval_changed(gaps, o.dark_start, o.dark_end),
        })
        .collect()
}

/// Per-probe conditional probability of address change given an outage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CondProb {
    /// The probe.
    pub probe: ProbeId,
    /// Number of outages of the kind.
    pub outages: usize,
    /// Number coincident with an address change.
    pub changed: usize,
}

impl CondProb {
    /// The estimated probability.
    pub fn p(&self) -> f64 {
        if self.outages == 0 {
            0.0
        } else {
            self.changed as f64 / self.outages as f64
        }
    }
}

/// Folds associated outages of one probe and kind into a [`CondProb`].
pub fn cond_prob(probe: ProbeId, outages: &[AssociatedOutage], kind: OutageKind) -> CondProb {
    let of_kind: Vec<&AssociatedOutage> = outages
        .iter()
        .filter(|o| o.kind == kind && o.probe == probe)
        .collect();
    CondProb {
        probe,
        outages: of_kind.len(),
        changed: of_kind.iter().filter(|o| o.address_changed).count(),
    }
}

/// The Fig. 9 outage-duration buckets.
pub const DURATION_BUCKETS: [(&str, i64, i64); 12] = [
    ("<5m", 0, 300),
    ("5-10m", 300, 600),
    ("10-20m", 600, 1_200),
    ("20-30m", 1_200, 1_800),
    ("30-60m", 1_800, 3_600),
    ("1-3h", 3_600, 3 * 3_600),
    ("3-6h", 3 * 3_600, 6 * 3_600),
    ("6-12h", 6 * 3_600, 12 * 3_600),
    ("12-24h", 12 * 3_600, 24 * 3_600),
    ("1-3d", 24 * 3_600, 3 * 86_400),
    ("3d-7d", 3 * 86_400, 7 * 86_400),
    (">1w", 7 * 86_400, i64::MAX),
];

/// Renumbering-by-duration histogram for one AS (one Fig. 9 panel).
#[derive(Debug, Clone, Serialize)]
pub struct DurationBuckets {
    /// Outages per bucket.
    pub total: [usize; 12],
    /// Of those, outages with an address change.
    pub renumbered: [usize; 12],
}

impl DurationBuckets {
    /// Buckets a set of associated outages.
    pub fn build(outages: &[AssociatedOutage]) -> DurationBuckets {
        let mut b = DurationBuckets {
            total: [0; 12],
            renumbered: [0; 12],
        };
        for o in outages {
            let secs = o.duration.secs().max(0);
            let idx = DURATION_BUCKETS
                .iter()
                .position(|(_, lo, hi)| secs >= *lo && secs < *hi)
                .unwrap_or(11);
            b.total[idx] += 1;
            if o.address_changed {
                b.renumbered[idx] += 1;
            }
        }
        b
    }

    /// Percentage renumbered per bucket (`None` for empty buckets).
    pub fn percentages(&self) -> [Option<f64>; 12] {
        std::array::from_fn(|i| {
            (self.total[i] > 0).then(|| 100.0 * self.renumbered[i] as f64 / self.total[i] as f64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap(start: i64, end: i64, changed: bool) -> Gap {
        Gap {
            probe: ProbeId(1),
            start: SimTime(start),
            end: SimTime(end),
            address_changed: changed,
        }
    }

    fn nw(start: i64, end: i64) -> NetworkOutage {
        NetworkOutage {
            probe: ProbeId(1),
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    #[test]
    fn outage_inside_changing_gap_is_a_change() {
        let gaps = vec![gap(1_000, 3_000, true)];
        let assoc = associate_network(&gaps, &[nw(1_200, 2_500)]);
        assert!(assoc[0].address_changed);
    }

    #[test]
    fn outage_inside_stable_gap_is_not_a_change() {
        let gaps = vec![gap(1_000, 3_000, false)];
        let assoc = associate_network(&gaps, &[nw(1_200, 2_500)]);
        assert!(!assoc[0].address_changed);
    }

    #[test]
    fn outage_far_from_any_gap_is_not_a_change() {
        let gaps = vec![gap(50_000, 51_000, true)];
        let assoc = associate_network(&gaps, &[nw(1_200, 2_000)]);
        assert!(!assoc[0].address_changed);
    }

    #[test]
    fn slack_covers_grid_quantization() {
        // Outage detected slightly after the gap closed (grid alignment).
        let gaps = vec![gap(1_000, 1_100, true)];
        let assoc = associate_network(&gaps, &[nw(1_200, 1_300)]);
        assert!(assoc[0].address_changed, "±300 s slack should match");
        let assoc = associate_network(&gaps, &[nw(1_500, 1_600)]);
        assert!(!assoc[0].address_changed, "beyond slack must not match");
    }

    #[test]
    fn power_association_uses_dark_window() {
        let gaps = vec![gap(900, 2_000, true)];
        let power = vec![PowerOutage {
            probe: ProbeId(1),
            boot_time: SimTime(1_500),
            dark_start: SimTime(960),
            dark_end: SimTime(1_920),
        }];
        let assoc = associate_power(&gaps, &power);
        assert_eq!(assoc[0].kind, OutageKind::Power);
        assert!(assoc[0].address_changed);
        assert_eq!(assoc[0].duration, SimDuration::from_secs(960));
    }

    #[test]
    fn cond_prob_counts() {
        let mk = |changed| AssociatedOutage {
            probe: ProbeId(1),
            kind: OutageKind::Network,
            start: SimTime(0),
            duration: SimDuration::from_mins(5),
            address_changed: changed,
        };
        let outages = vec![mk(true), mk(true), mk(false), mk(true)];
        let cp = cond_prob(ProbeId(1), &outages, OutageKind::Network);
        assert_eq!(cp.outages, 4);
        assert_eq!(cp.changed, 3);
        assert!((cp.p() - 0.75).abs() < 1e-12);
        let none = cond_prob(ProbeId(1), &outages, OutageKind::Power);
        assert_eq!(none.outages, 0);
        assert_eq!(none.p(), 0.0);
    }

    #[test]
    fn buckets_cover_all_durations() {
        let mk = |secs: i64, changed| AssociatedOutage {
            probe: ProbeId(1),
            kind: OutageKind::Network,
            start: SimTime(0),
            duration: SimDuration::from_secs(secs),
            address_changed: changed,
        };
        let outages = vec![
            mk(60, true),          // <5m
            mk(400, false),        // 5-10m
            mk(2 * 3_600, true),   // 1-3h
            mk(20 * 86_400, true), // >1w
        ];
        let b = DurationBuckets::build(&outages);
        assert_eq!(b.total.iter().sum::<usize>(), 4);
        assert_eq!(b.total[0], 1);
        assert_eq!(b.total[1], 1);
        assert_eq!(b.total[5], 1);
        assert_eq!(b.total[11], 1);
        let pct = b.percentages();
        assert_eq!(pct[0], Some(100.0));
        assert_eq!(pct[1], Some(0.0));
        assert_eq!(pct[2], None);
    }

    #[test]
    fn bucket_labels_are_ordered_and_contiguous() {
        for pair in DURATION_BUCKETS.windows(2) {
            assert_eq!(pair[0].2, pair[1].1, "buckets must be contiguous");
        }
        assert_eq!(DURATION_BUCKETS[0].1, 0);
        assert_eq!(DURATION_BUCKETS[11].2, i64::MAX);
    }
}
