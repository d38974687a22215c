//! Address-set churn estimation (§8's closing discussion).
//!
//! The paper closes by relating its per-device view to Richter et al.'s
//! CDN-side observation that *"the set of addresses observed at a large CDN
//! on one day differs from the set of addresses observed on the next day by
//! 8% on average."* This module computes the same statistic from the
//! vantage of connection logs: the set of distinct IPv4 addresses active on
//! each day, and how much consecutive days' sets differ — decomposable per
//! AS, so periodic renumberers (near-total daily turnover) can be contrasted
//! with stable plants (near-zero).

use crate::filtering::AnalyzableProbe;
use dynaddr_types::time::{DAY, DAYS_IN_2015};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Day-over-day churn of the active address set.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ChurnSeries {
    /// Distinct active addresses per day of the year.
    pub daily_active: Vec<usize>,
    /// For each consecutive day pair `(d, d+1)`: fraction of day-`d`
    /// addresses *not* seen on day `d+1`. `None` when either day saw no
    /// addresses at all — an empty day marks the edge of observation, not
    /// churn.
    pub daily_churn: Vec<Option<f64>>,
}

impl ChurnSeries {
    /// Mean daily churn over days with data.
    pub fn mean_churn(&self) -> Option<f64> {
        let vals: Vec<f64> = self.daily_churn.iter().flatten().copied().collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Which days (0-based, within 2015) a connection entry spans.
fn days_of(start: i64, end: i64) -> impl Iterator<Item = i64> {
    let first = start.div_euclid(DAY).max(0);
    let last = end.div_euclid(DAY).min(DAYS_IN_2015 - 1);
    first..=last
}

/// Computes the churn series over a set of probes, optionally restricted to
/// one AS (`None` = all probes; multi-AS probes contribute everywhere their
/// addresses are observed).
pub fn churn_series(probes: &[AnalyzableProbe], asn: Option<u32>) -> ChurnSeries {
    let mut per_day: Vec<BTreeSet<Ipv4Addr>> = vec![BTreeSet::new(); DAYS_IN_2015 as usize];
    for p in probes {
        if let Some(asn) = asn {
            if p.multi_as || p.primary_asn.0 != asn {
                continue;
            }
        }
        for e in &p.entries {
            let Some(addr) = e.peer.v4() else { continue };
            for day in days_of(e.start.secs(), e.end.secs()) {
                per_day[day as usize].insert(addr);
            }
        }
    }
    let daily_active: Vec<usize> = per_day.iter().map(|s| s.len()).collect();
    let daily_churn: Vec<Option<f64>> = per_day
        .windows(2)
        .map(|w| {
            if w[0].is_empty() || w[1].is_empty() {
                None
            } else {
                let gone = w[0].difference(&w[1]).count();
                Some(gone as f64 / w[0].len() as f64)
            }
        })
        .collect();
    ChurnSeries {
        daily_active,
        daily_churn,
    }
}

/// Per-AS mean daily churn, for ASes with at least `min_probes` probes —
/// the decomposition that explains *where* aggregate churn comes from.
pub fn churn_by_as(probes: &[AnalyzableProbe], min_probes: usize) -> BTreeMap<u32, f64> {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for p in probes {
        if !p.multi_as {
            *counts.entry(p.primary_asn.0).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|(_, n)| *n >= min_probes)
        .filter_map(|(asn, _)| {
            churn_series(probes, Some(asn))
                .mean_churn()
                .map(|c| (asn, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::{AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta};
    use dynaddr_ip2as::{MonthlySnapshots, RouteTable};
    use dynaddr_types::{Asn, ProbeId, SimTime};

    const H: i64 = 3_600;

    fn build(daily_change: bool, n_probes: u32) -> Vec<AnalyzableProbe> {
        let mut table = RouteTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(100));
        let snaps = MonthlySnapshots::uniform(table);
        let mut ds = AtlasDataset::default();
        for id in 1..=n_probes {
            ds.meta.push(ProbeMeta {
                probe: ProbeId(id),
                ..ProbeMeta::default()
            });
            for day in 0..60i64 {
                let addr = if daily_change {
                    format!("10.0.{}.{}", id, (day % 200) + 1)
                } else if day == 30 {
                    // One change mid-window so the probe stays analyzable.
                    format!("10.0.{}.200", id)
                } else if day > 30 {
                    format!("10.0.{}.200", id)
                } else {
                    format!("10.0.{}.1", id)
                };
                ds.connections.push(ConnectionLogEntry {
                    probe: ProbeId(id),
                    start: SimTime(day * DAY + 60),
                    end: SimTime(day * DAY + 23 * H),
                    peer: PeerAddr::V4(addr.parse().unwrap()),
                });
            }
        }
        ds.normalize();
        crate::filtering::filter_probes(&ds, &snaps).probes
    }

    #[test]
    fn daily_renumbering_means_total_turnover() {
        let probes = build(true, 4);
        let series = churn_series(&probes, None);
        assert_eq!(series.daily_active[0], 4);
        // Every address is replaced every day.
        let mean = series.mean_churn().unwrap();
        assert!(mean > 0.95, "mean churn {mean}");
    }

    #[test]
    fn stable_plant_means_near_zero_churn() {
        let probes = build(false, 4);
        let series = churn_series(&probes, None);
        let mean = series.mean_churn().unwrap();
        assert!(mean < 0.05, "mean churn {mean}");
        // The single mid-window change is visible as one non-zero day.
        let nonzero = series
            .daily_churn
            .iter()
            .flatten()
            .filter(|c| **c > 0.0)
            .count();
        assert_eq!(nonzero, 1);
    }

    #[test]
    fn per_as_decomposition() {
        let probes = build(true, 5);
        let by_as = churn_by_as(&probes, 3);
        assert_eq!(by_as.len(), 1);
        assert!(by_as[&100] > 0.95);
        // Raising the probe threshold excludes the AS.
        assert!(churn_by_as(&probes, 10).is_empty());
    }

    #[test]
    fn multi_day_entries_count_on_every_day() {
        // A connection spanning several days keeps its address active on
        // each of them; out-of-year spans clip to the year.
        let days: Vec<i64> = days_of(0, 2 * DAY + 3 * H).collect();
        assert_eq!(days, vec![0, 1, 2]);
        let clipped: Vec<i64> = days_of(-5 * DAY, DAY).collect();
        assert_eq!(clipped, vec![0, 1]);
    }
}
