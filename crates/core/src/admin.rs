//! Administrative renumbering detection — the paper's §8 future work.
//!
//! *"In future work, we plan to analyze how much of the observed churn in
//! the address space can be attributed to administrative renumbering."*
//!
//! An administrative renumbering is an ISP moving customers en masse from
//! one prefix to another. Its signature, visible in connection logs alone:
//! within a short window, a large fraction of an AS's probes change address
//! **into a BGP prefix never before observed for that AS** — ordinary churn
//! (periodic renumbering, outages, rotations) shuffles customers *within*
//! the long-known pool prefixes.
//!
//! The detector keeps, per AS, the set of prefixes seen so far (after a
//! warm-up period, since everything is novel on day one), marks
//! novel-prefix changes, and reports windows where enough distinct probes
//! made one.

use crate::filtering::AnalyzableProbe;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_types::{Prefix, ProbeId, SimDuration, SimTime};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Detector parameters.
#[derive(Debug, Clone)]
pub struct AdminConfig {
    /// Observations earlier than this are used only to learn the AS's
    /// prefix inventory, never flagged (everything is novel at the start).
    pub warmup: SimDuration,
    /// Window within which novel-prefix changes must cluster.
    pub window: SimDuration,
    /// Minimum distinct probes making a novel-prefix change in the window.
    pub min_probes: usize,
    /// Minimum fraction of the AS's analyzable probes involved.
    pub min_fraction: f64,
}

impl Default for AdminConfig {
    fn default() -> AdminConfig {
        AdminConfig {
            warmup: SimDuration::from_days(30),
            window: SimDuration::from_days(2),
            min_probes: 3,
            min_fraction: 0.5,
        }
    }
}

/// One detected administrative renumbering event.
#[derive(Debug, Clone, Serialize)]
pub struct AdminEvent {
    /// The renumbering AS.
    pub asn: u32,
    /// First novel-prefix change in the cluster.
    pub start: SimTime,
    /// Last novel-prefix change in the cluster.
    pub end: SimTime,
    /// Distinct probes that moved.
    pub probes: Vec<ProbeId>,
    /// The previously unseen prefixes customers moved into.
    pub new_prefixes: Vec<Prefix>,
}

/// A change into a previously-unseen prefix (detector internals, exposed
/// for the churn-attribution accounting below).
#[derive(Debug, Clone, Copy)]
struct NovelChange {
    probe: ProbeId,
    time: SimTime,
    prefix: Prefix,
}

/// Detects administrative renumbering events across the AS-level population.
pub fn detect_admin_renumbering(
    probes: &[AnalyzableProbe],
    snapshots: &MonthlySnapshots,
    cfg: &AdminConfig,
) -> Vec<AdminEvent> {
    // Gather (time, probe, bgp prefix) observations per AS, in time order.
    let mut per_as: BTreeMap<u32, Vec<(SimTime, ProbeId, Prefix)>> = BTreeMap::new();
    let mut probes_per_as: BTreeMap<u32, usize> = BTreeMap::new();
    let mut earliest: BTreeMap<u32, SimTime> = BTreeMap::new();
    for p in probes {
        if p.multi_as {
            continue;
        }
        let asn = p.primary_asn.0;
        *probes_per_as.entry(asn).or_insert(0) += 1;
        let obs = per_as.entry(asn).or_default();
        for e in &p.entries {
            let Some(addr) = e.peer.v4() else { continue };
            if let Some(prefix) = snapshots.prefix_at(e.start, addr) {
                obs.push((e.start, p.probe(), prefix));
                let first = earliest.entry(asn).or_insert(e.start);
                if e.start < *first {
                    *first = e.start;
                }
            }
        }
    }

    let mut events = Vec::new();
    for (asn, mut obs) in per_as {
        obs.sort_by_key(|(t, p, _)| (*t, *p));
        let Some(&first_seen) = earliest.get(&asn) else {
            continue;
        };
        let warmup_end = first_seen + cfg.warmup;

        // First pass: when was each prefix first observed for this AS?
        let mut first_seen: BTreeMap<Prefix, SimTime> = BTreeMap::new();
        for (t, _, prefix) in &obs {
            first_seen.entry(*prefix).or_insert(*t);
        }
        // Second pass: an observation is a *novel-prefix* one when its
        // prefix only appeared for this AS within the last window (and
        // after warm-up) — this captures every customer moved by the
        // migration, not just the first one in.
        let mut novel: Vec<NovelChange> = Vec::new();
        for (t, probe, prefix) in obs {
            let born = first_seen[&prefix];
            if born > warmup_end && t - born <= cfg.window {
                novel.push(NovelChange {
                    probe,
                    time: t,
                    prefix,
                });
            }
        }

        // Cluster novel changes into windows; distinct probes per cluster.
        let total = probes_per_as.get(&asn).copied().unwrap_or(0);
        let mut i = 0usize;
        while i < novel.len() {
            let start = novel[i].time;
            let mut j = i;
            while j + 1 < novel.len() && novel[j + 1].time - start <= cfg.window {
                j += 1;
            }
            let cluster = &novel[i..=j];
            let mut moved: BTreeSet<ProbeId> = BTreeSet::new();
            let mut prefixes: BTreeSet<Prefix> = BTreeSet::new();
            for n in cluster {
                moved.insert(n.probe);
                prefixes.insert(n.prefix);
            }
            if moved.len() >= cfg.min_probes
                && total > 0
                && moved.len() as f64 / total as f64 >= cfg.min_fraction
            {
                events.push(AdminEvent {
                    asn,
                    start,
                    end: cluster.last().expect("non-empty").time,
                    probes: moved.into_iter().collect(),
                    new_prefixes: prefixes.into_iter().collect(),
                });
            }
            i = j + 1;
        }
    }
    events
}

/// Churn attribution (§8): of all observed address changes, how many are
/// explained by detected administrative events vs ordinary churn.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ChurnAttribution {
    /// All within-AS address changes examined.
    pub total_changes: usize,
    /// Changes that fall inside a detected administrative window (same AS).
    pub administrative: usize,
}

impl ChurnAttribution {
    /// Fraction of churn attributable to administrative renumbering.
    pub fn admin_fraction(&self) -> f64 {
        if self.total_changes == 0 {
            0.0
        } else {
            self.administrative as f64 / self.total_changes as f64
        }
    }
}

/// Attributes each change to administrative events or ordinary churn.
pub fn attribute_churn(probes: &[AnalyzableProbe], events: &[AdminEvent]) -> ChurnAttribution {
    let slack = SimDuration::from_hours(1);
    let mut attribution = ChurnAttribution::default();
    for p in probes {
        if p.multi_as {
            continue;
        }
        for &i in &p.same_as_changes() {
            let c = &p.events.changes[i];
            attribution.total_changes += 1;
            let is_admin = events.iter().any(|e| {
                e.asn == p.primary_asn.0
                    && c.gap_end >= e.start - slack
                    && c.gap_start <= e.end + slack
            });
            if is_admin {
                attribution.administrative += 1;
            }
        }
    }
    attribution
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::{AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta};
    use dynaddr_ip2as::RouteTable;
    use dynaddr_types::time::DAY;
    use dynaddr_types::Asn;

    const H: i64 = 3_600;

    /// Builds an AS with `n` probes churning daily inside two prefixes, then
    /// (optionally) all moving to a third prefix on day 200.
    fn world(n: u32, migrate: bool) -> (AtlasDataset, MonthlySnapshots) {
        let mut table = RouteTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(100));
        table.announce("10.1.0.0/16".parse().unwrap(), Asn(100));
        table.announce("10.9.0.0/16".parse().unwrap(), Asn(100));
        let snaps = MonthlySnapshots::uniform(table);

        let mut ds = AtlasDataset::default();
        for id in 1..=n {
            ds.meta.push(ProbeMeta {
                probe: ProbeId(id),
                ..ProbeMeta::default()
            });
            for day in 0..330i64 {
                // Alternate between the two pool prefixes; after day 200,
                // optionally use the new prefix.
                let second = if migrate && day >= 200 { 9 } else { day % 2 };
                let addr = format!("10.{}.{}.{}", second, id, (day % 250) + 1);
                ds.connections.push(ConnectionLogEntry {
                    probe: ProbeId(id),
                    start: SimTime(day * DAY + i64::from(id) * 60),
                    end: SimTime(day * DAY + 23 * H),
                    peer: PeerAddr::V4(addr.parse().unwrap()),
                });
            }
        }
        ds.normalize();
        (ds, snaps)
    }

    #[test]
    fn detects_en_masse_migration() {
        let (ds, snaps) = world(6, true);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        let events = detect_admin_renumbering(&probes, &snaps, &AdminConfig::default());
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(e.asn, 100);
        assert_eq!(e.probes.len(), 6);
        assert_eq!(e.start.day_of_year(), 200);
        assert_eq!(e.new_prefixes, vec!["10.9.0.0/16".parse().unwrap()]);
    }

    #[test]
    fn ordinary_churn_raises_no_events() {
        let (ds, snaps) = world(6, false);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        let events = detect_admin_renumbering(&probes, &snaps, &AdminConfig::default());
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn warmup_suppresses_startup_novelty() {
        // Without warm-up, the first sighting of the second pool prefix
        // would look like a migration.
        let (ds, snaps) = world(6, false);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        let cfg = AdminConfig {
            warmup: SimDuration::ZERO,
            ..AdminConfig::default()
        };
        let events = detect_admin_renumbering(&probes, &snaps, &cfg);
        assert!(
            !events.is_empty(),
            "zero warm-up must false-positive on startup (demonstrating why warm-up exists)"
        );
    }

    #[test]
    fn churn_attribution_counts_window_changes() {
        let (ds, snaps) = world(6, true);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        let events = detect_admin_renumbering(&probes, &snaps, &AdminConfig::default());
        let att = attribute_churn(&probes, &events);
        assert!(att.total_changes > 1_500);
        // Daily churn dominates; the single migration is a sliver.
        assert!(att.administrative >= 6, "attributed {}", att.administrative);
        assert!(att.admin_fraction() < 0.05);
    }

    #[test]
    fn min_fraction_gates_partial_moves() {
        let (ds, snaps) = world(8, true);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        // Demand everyone moves: still passes (all 8 moved).
        let cfg = AdminConfig {
            min_fraction: 1.0,
            ..AdminConfig::default()
        };
        assert_eq!(detect_admin_renumbering(&probes, &snaps, &cfg).len(), 1);
        // Demand more probes than exist: gated.
        let cfg = AdminConfig {
            min_probes: 20,
            ..AdminConfig::default()
        };
        assert!(detect_admin_renumbering(&probes, &snaps, &cfg).is_empty());
    }
}
