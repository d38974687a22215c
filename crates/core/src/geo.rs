//! Geographic rollups of address durations (§4.2, Figs. 1 and 3).
//!
//! Each rollup is a keyed reduction over independent probes, run through
//! `dynaddr_exec::par_fold`: per-block `BTreeMap` accumulators merged key
//! by key with [`TtfDistribution::merge`], whose block-order concatenation
//! and left-to-right float totals make the result byte-identical to a
//! sequential build at any worker count (asserted by a test below).

use crate::filtering::AnalyzableProbe;
use crate::ttf::{TtfCurve, TtfDistribution};
use dynaddr_types::{Asn, Continent};
use std::collections::BTreeMap;

/// Merges per-block keyed distributions, left block first — the shared
/// `par_fold` merge of every rollup in this module.
fn merge_keyed<K: Ord>(
    mut a: BTreeMap<K, TtfDistribution>,
    b: BTreeMap<K, TtfDistribution>,
) -> BTreeMap<K, TtfDistribution> {
    for (k, d) in b {
        match a.entry(k) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(d);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(d),
        }
    }
    a
}

/// Total-time-fraction curve per continent — Fig. 1.
///
/// Multi-AS probes contribute their within-AS durations (the geographic
/// analysis keeps them, §3.3).
pub fn continent_distributions(probes: &[AnalyzableProbe]) -> Vec<(Continent, TtfCurve)> {
    let map: BTreeMap<Continent, TtfDistribution> = dynaddr_exec::par_fold(
        probes.iter().collect(),
        BTreeMap::new,
        |mut map: BTreeMap<Continent, TtfDistribution>, p: &AnalyzableProbe| {
            if let Some(continent) = p.meta.country.continent() {
                map.entry(continent)
                    .or_default()
                    .extend(p.same_as_durations());
            }
            map
        },
        merge_keyed,
    );
    let mut out: Vec<(Continent, TtfCurve)> =
        map.into_iter().map(|(c, d)| (c, d.finalize())).collect();
    // Paper legend order: by total time, descending.
    out.sort_by(|a, b| {
        b.1.total_years()
            .partial_cmp(&a.1.total_years())
            .expect("finite totals")
    });
    out
}

/// Total-time-fraction curve per AS within one country — Fig. 3
/// (Germany). Only ASes contributing at least `min_years` of total address
/// time are reported, mirroring the paper's 3-year cutoff (scale it down
/// for smaller worlds).
pub fn country_as_distributions(
    probes: &[AnalyzableProbe],
    country_code: &str,
    min_years: f64,
) -> Vec<(Asn, TtfCurve)> {
    let map: BTreeMap<u32, TtfDistribution> = dynaddr_exec::par_fold(
        probes.iter().collect(),
        BTreeMap::new,
        |mut map: BTreeMap<u32, TtfDistribution>, p: &AnalyzableProbe| {
            if !p.multi_as && p.meta.country.code() == country_code {
                map.entry(p.primary_asn.0)
                    .or_default()
                    .extend(p.same_as_durations());
            }
            map
        },
        merge_keyed,
    );
    let mut out: Vec<(Asn, TtfCurve)> = map
        .into_iter()
        .filter(|(_, d)| d.total_years() >= min_years)
        .map(|(asn, d)| (Asn(asn), d.finalize()))
        .collect();
    out.sort_by(|a, b| {
        b.1.total_years()
            .partial_cmp(&a.1.total_years())
            .expect("finite totals")
    });
    out
}

/// Total-time-fraction curve for a chosen set of ASes — Fig. 2
/// (the five ASes hosting the most probes that yielded durations).
pub fn as_distributions(probes: &[AnalyzableProbe], top_n: usize) -> Vec<(Asn, TtfCurve, usize)> {
    let (mut durations, probe_counts) = dynaddr_exec::par_fold(
        probes.iter().collect(),
        || (BTreeMap::new(), BTreeMap::new()),
        |(mut durations, mut probe_counts): (
            BTreeMap<u32, TtfDistribution>,
            BTreeMap<u32, usize>,
        ),
         p: &AnalyzableProbe| {
            if !p.multi_as {
                let ds = p.same_as_durations();
                if !ds.is_empty() {
                    *probe_counts.entry(p.primary_asn.0).or_insert(0) += 1;
                    durations.entry(p.primary_asn.0).or_default().extend(ds);
                }
            }
            (durations, probe_counts)
        },
        |(da, ca), (db, cb)| {
            let mut ca = ca;
            for (k, v) in cb {
                *ca.entry(k).or_insert(0) += v;
            }
            (merge_keyed(da, db), ca)
        },
    );
    let mut order: Vec<(u32, usize)> = probe_counts.into_iter().collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    order
        .into_iter()
        .take(top_n)
        .map(|(asn, count)| {
            let dist = durations.remove(&asn).expect("counted implies present");
            (Asn(asn), dist.finalize(), count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::{AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta};
    use dynaddr_ip2as::{MonthlySnapshots, RouteTable};
    use dynaddr_types::{Country, ProbeId, SimTime};

    const H: i64 = 3_600;

    /// Two countries, two ASes; probe 1 (DE, AS100) changes daily, probe 2
    /// (US, AS200) changes every 50 days.
    fn probes() -> Vec<AnalyzableProbe> {
        let mut table = RouteTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(100));
        table.announce("20.0.0.0/16".parse().unwrap(), Asn(200));
        let snaps = MonthlySnapshots::uniform(table);

        let mut ds = AtlasDataset::default();
        let mut meta_de = ProbeMeta {
            probe: ProbeId(1),
            ..ProbeMeta::default()
        };
        meta_de.country = Country::new("DE").unwrap();
        ds.meta.push(meta_de);
        let mut meta_us = ProbeMeta {
            probe: ProbeId(2),
            ..ProbeMeta::default()
        };
        meta_us.country = Country::new("US").unwrap();
        ds.meta.push(meta_us);
        for k in 0..50i64 {
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(1),
                start: SimTime(k * 24 * H),
                end: SimTime(k * 24 * H + 23 * H),
                peer: PeerAddr::V4(format!("10.0.1.{}", k + 1).parse().unwrap()),
            });
        }
        for k in 0..6i64 {
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(2),
                start: SimTime(k * 50 * 24 * H),
                end: SimTime((k * 50 + 49) * 24 * H),
                peer: PeerAddr::V4(format!("20.0.1.{}", k + 1).parse().unwrap()),
            });
        }
        ds.normalize();
        crate::filtering::filter_probes(&ds, &snaps).probes
    }

    #[test]
    fn continent_rollup_separates_eu_and_na() {
        let probes = probes();
        let dists = continent_distributions(&probes);
        assert_eq!(dists.len(), 2);
        let by_cont: BTreeMap<Continent, TtfCurve> = dists.into_iter().collect();
        let eu = &by_cont[&Continent::EU];
        assert!(eu.fraction_at_mode(24.0, 0.05) > 0.9, "EU is all 24 h");
        let na = &by_cont[&Continent::NA];
        assert!(
            na.fraction_le_hours(24.0 * 40.0) < 0.1,
            "NA durations are ~49 d"
        );
    }

    #[test]
    fn country_as_rollup_applies_min_years() {
        let probes = probes();
        let de = country_as_distributions(&probes, "DE", 0.05);
        assert_eq!(de.len(), 1);
        assert_eq!(de[0].0, Asn(100));
        // A ridiculous threshold filters everything.
        assert!(country_as_distributions(&probes, "DE", 50.0).is_empty());
        // Wrong country: empty.
        assert!(country_as_distributions(&probes, "FR", 0.0).is_empty());
    }

    #[test]
    fn rollups_are_identical_at_any_worker_count() {
        // The keyed par_fold reductions must be order-independent in
        // effect: byte-identical curves (float totals included) no matter
        // how the probe list is chunked.
        let probes = probes();
        dynaddr_exec::set_threads(Some(1));
        let continents = continent_distributions(&probes);
        let by_country = country_as_distributions(&probes, "DE", 0.0);
        let top = as_distributions(&probes, 5);
        for threads in [2, 3, 64] {
            dynaddr_exec::set_threads(Some(threads));
            assert_eq!(
                continent_distributions(&probes),
                continents,
                "threads={threads}"
            );
            assert_eq!(
                country_as_distributions(&probes, "DE", 0.0),
                by_country,
                "threads={threads}"
            );
            assert_eq!(as_distributions(&probes, 5), top, "threads={threads}");
        }
        dynaddr_exec::set_threads(None);
    }

    #[test]
    fn top_as_selection_orders_by_probe_count() {
        let probes = probes();
        let top = as_distributions(&probes, 5);
        assert_eq!(top.len(), 2);
        // Both ASes have one probe each; tie broken by ASN.
        assert_eq!(top[0].0, Asn(100));
        assert_eq!(top[0].2, 1);
        let only_one = as_distributions(&probes, 1);
        assert_eq!(only_one.len(), 1);
    }
}
