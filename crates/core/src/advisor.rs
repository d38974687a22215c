//! Address-lifetime advisory — the paper's motivating application turned
//! into an API.
//!
//! The paper's introduction and conclusions are addressed to people who use
//! IP addresses as end-host identifiers: blacklist operators, user-counting
//! researchers, law enforcement. This module condenses the pipeline's
//! findings into a per-AS advisory answering their operational questions:
//!
//! * how long does an address keep identifying the same household
//!   (time-weighted median lifetime, and the hard periodic cap if one
//!   exists)?
//! * can a user shed the identifier at will by rebooting the CPE
//!   (renumber-on-reconnect plants, Table 6)?
//! * does blocking the enclosing prefix help (Table 7 escape rates)?

use crate::assoc::{cond_prob, OutageKind};
use crate::filtering::AnalyzableProbe;
use crate::periodic::{table5, PeriodicConfig};
use crate::pipeline::outage_analysis;
use crate::prefixes::prefix_changes;
use crate::stats::median;
use crate::ttf::TtfDistribution;
use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_ip2as::MonthlySnapshots;
use serde::Serialize;
use std::collections::BTreeMap;

/// How confidently a user in this AS can evade an address-based identifier
/// by power-cycling their CPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RebootEvasion {
    /// Most probes renumber on any outage: evasion at will.
    AtWill,
    /// A substantial minority renumber on outages.
    Sometimes,
    /// Outages rarely change the address.
    Unlikely,
    /// Not enough outage evidence.
    Unknown,
}

/// Per-AS advisory.
#[derive(Debug, Clone, Serialize)]
pub struct AsAdvisory {
    /// The AS.
    pub asn: u32,
    /// Probes contributing evidence.
    pub probes: usize,
    /// Measured address durations contributing evidence.
    pub durations: usize,
    /// Time-weighted median address lifetime, hours.
    pub median_lifetime_hours: f64,
    /// Hard periodic cap in hours, when the AS renumbers periodically.
    pub periodic_cap_hours: Option<i64>,
    /// Reboot-evasion verdict.
    pub reboot_evasion: RebootEvasion,
    /// Fraction of changes escaping the BGP prefix.
    pub bgp_escape: f64,
    /// Fraction of changes escaping the /8.
    pub slash8_escape: f64,
    /// The recommended maximum time to trust an address-based identifier:
    /// the periodic cap when present, otherwise the median lifetime.
    pub max_identifier_ttl_hours: f64,
}

/// Builds advisories for every AS with at least `min_durations` measured
/// durations. Keyed by ASN.
pub fn advise(
    dataset: &AtlasDataset,
    probes: &[AnalyzableProbe],
    snapshots: &MonthlySnapshots,
    min_durations: usize,
) -> BTreeMap<u32, AsAdvisory> {
    // Lifetimes.
    let mut per_as_durations: BTreeMap<u32, TtfDistribution> = BTreeMap::new();
    let mut per_as_probes: BTreeMap<u32, usize> = BTreeMap::new();
    for p in probes {
        if p.multi_as {
            continue;
        }
        *per_as_probes.entry(p.primary_asn.0).or_insert(0) += 1;
        per_as_durations
            .entry(p.primary_asn.0)
            .or_default()
            .extend(p.same_as_durations());
    }

    // Periodic caps.
    let (rows, _) = table5(probes, &BTreeMap::new(), &PeriodicConfig::default());
    let caps: BTreeMap<u32, i64> = rows
        .iter()
        .filter(|r| r.asn != 0)
        .map(|r| (r.asn, r.d_hours))
        .collect();

    // Reboot evasion from P(ac|nw).
    let oa = outage_analysis(dataset, probes);
    let mut per_as_pac: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for p in probes {
        if p.multi_as {
            continue;
        }
        let cp = cond_prob(p.probe(), &oa.outages, OutageKind::Network);
        if cp.outages >= 3 {
            per_as_pac.entry(p.primary_asn.0).or_default().push(cp.p());
        }
    }

    // Prefix escapes.
    let t7 = prefix_changes(probes, snapshots);

    let mut out = BTreeMap::new();
    for (asn, dist) in per_as_durations {
        if dist.count() < min_durations {
            continue;
        }
        let curve = dist.finalize();
        let median_lifetime_hours = curve
            .curve()
            .iter()
            .find(|(_, f)| *f >= 0.5)
            .map(|(h, _)| *h)
            .unwrap_or(0.0);
        let periodic_cap_hours = caps.get(&asn).copied();
        let reboot_evasion = match per_as_pac.get(&asn).map(|v| (v.len(), median(v))) {
            Some((n, Some(med))) if n >= 3 => {
                if med > 0.8 {
                    RebootEvasion::AtWill
                } else if med > 0.3 {
                    RebootEvasion::Sometimes
                } else {
                    RebootEvasion::Unlikely
                }
            }
            _ => RebootEvasion::Unknown,
        };
        let (bgp_escape, slash8_escape) = t7
            .per_as
            .get(&asn)
            .filter(|c| c.changes > 0)
            .map(|c| (c.pct_bgp() / 100.0, c.pct_8() / 100.0))
            .unwrap_or((0.0, 0.0));
        out.insert(
            asn,
            AsAdvisory {
                asn,
                probes: per_as_probes.get(&asn).copied().unwrap_or(0),
                durations: curve.count(),
                median_lifetime_hours,
                periodic_cap_hours,
                reboot_evasion,
                bgp_escape,
                slash8_escape,
                max_identifier_ttl_hours: periodic_cap_hours
                    .map(|d| d as f64)
                    .unwrap_or(median_lifetime_hours),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::simulate;
    use dynaddr_atlas::world::{paper_route_tables, paper_world};

    #[test]
    fn advisories_capture_the_paper_contrast() {
        let world = paper_world(0.05, 21);
        let out = simulate(&world);
        let snaps = paper_route_tables(&world);
        let filtered = crate::filtering::filter_probes(&out.dataset, &snaps);
        let advisories = advise(&out.dataset, &filtered.probes, &snaps, 20);

        let dtag = advisories.get(&3320).expect("DTAG advisory");
        assert_eq!(dtag.periodic_cap_hours, Some(24));
        assert!(dtag.max_identifier_ttl_hours <= 24.0);
        assert_eq!(dtag.reboot_evasion, RebootEvasion::AtWill);

        let orange = advisories.get(&3215).expect("Orange advisory");
        assert_eq!(orange.periodic_cap_hours, Some(168));
        assert!(
            orange.bgp_escape > 0.4,
            "Orange escapes prefixes: {}",
            orange.bgp_escape
        );

        if let Some(lgi) = advisories.get(&6830) {
            assert_eq!(lgi.periodic_cap_hours, None);
            assert!(
                lgi.median_lifetime_hours > 24.0 * 7.0,
                "LGI lifetimes are weeks: {}",
                lgi.median_lifetime_hours
            );
            assert!(matches!(
                lgi.reboot_evasion,
                RebootEvasion::Unlikely | RebootEvasion::Unknown
            ));
        }
    }

    #[test]
    fn min_durations_gates_sparse_ases() {
        let world = paper_world(0.05, 21);
        let out = simulate(&world);
        let snaps = paper_route_tables(&world);
        let filtered = crate::filtering::filter_probes(&out.dataset, &snaps);
        let all = advise(&out.dataset, &filtered.probes, &snaps, 1);
        let gated = advise(&out.dataset, &filtered.probes, &snaps, 500);
        assert!(all.len() > gated.len());
        for adv in gated.values() {
            assert!(adv.durations >= 500);
        }
    }
}
