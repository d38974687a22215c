//! Periodic-renumbering classification (§4.4, Table 5).
//!
//! A probe is *periodic at d* when its total time fraction at some duration
//! cluster `d` exceeds 0.25 — lenient enough that outage-shortened and
//! harmonic-lengthened periods don't hide the plan. Per (AS, d) pair we then
//! compute the paper's Table 5 columns: how many probes are periodic, how
//! persistently (f > 0.5, f > 0.75), whether their maximum duration respects
//! the period (MAX ≤ d, with 5% slack), and whether overruns land on
//! harmonic multiples of d.

use crate::filtering::AnalyzableProbe;
use crate::ttf::{dominant_cluster, DurationCluster};
use dynaddr_types::{Asn, SimDuration};
use serde::Serialize;
use std::collections::BTreeMap;

/// Thresholds and minimum population sizes for the Table 5 computation.
#[derive(Debug, Clone)]
pub struct PeriodicConfig {
    /// Relative clustering tolerance (paper: d + 5%).
    pub tolerance: f64,
    /// Total-time-fraction threshold to call a probe periodic (paper: 0.25).
    pub threshold: f64,
    /// Minimum probes with an address change for an AS to be tabulated
    /// (the paper says 5 but its own Table 5 includes a 4-probe AS, Digi
    /// Tavkozlesi; we use 4).
    pub min_probes: usize,
    /// Minimum periodic probes for a (AS, d) row (paper: 3).
    pub min_periodic: usize,
    /// Minimum durations in the dominant cluster for a probe to count as
    /// periodic. A stable probe with two long, near-equal durations would
    /// otherwise trivially exceed the 0.25 time fraction; a genuinely
    /// periodic plan produces dozens of near-d durations per year.
    pub min_cluster_count: usize,
}

impl Default for PeriodicConfig {
    fn default() -> PeriodicConfig {
        PeriodicConfig {
            tolerance: 0.05,
            threshold: 0.25,
            min_probes: 4,
            min_periodic: 3,
            min_cluster_count: 3,
        }
    }
}

/// Per-probe periodicity verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePeriodicity {
    /// Dominant duration cluster, if the probe yielded any durations.
    pub dominant: Option<DurationCluster>,
    /// Number of measured durations.
    pub n_durations: usize,
    /// Longest measured duration.
    pub max_duration: SimDuration,
}

impl ProbePeriodicity {
    /// Whether the probe is periodic under the given threshold.
    pub fn is_periodic(&self, threshold: f64) -> bool {
        self.dominant
            .as_ref()
            .map(|c| c.fraction > threshold)
            .unwrap_or(false)
    }

    /// The detected period in hours, when periodic.
    pub fn period_hours(&self, threshold: f64) -> Option<i64> {
        self.dominant
            .as_ref()
            .filter(|c| c.fraction > threshold)
            .map(|c| c.d_hours())
    }
}

/// Classifies one probe's durations.
pub fn classify_probe(durations: &[SimDuration], tolerance: f64) -> ProbePeriodicity {
    ProbePeriodicity {
        dominant: dominant_cluster(durations, tolerance),
        n_durations: durations.iter().filter(|d| d.secs() > 0).count(),
        max_duration: durations.iter().copied().max().unwrap_or(SimDuration::ZERO),
    }
}

/// Whether every duration is at or below d (with slack) or lands on a
/// harmonic multiple of d — the paper's "Harmonic" column.
pub fn is_harmonic(durations: &[SimDuration], d_hours: i64, tol: f64) -> bool {
    let d = d_hours as f64 * 3_600.0;
    durations.iter().all(|dur| {
        let s = dur.secs() as f64;
        if s <= d * (1.0 + tol) {
            return true;
        }
        let k = (s / d).round().max(2.0);
        (s - k * d).abs() <= tol * k * d
    })
}

/// Whether no duration exceeds d (with 5%-style slack) — "MAX ≤ d".
pub fn max_le_d(max_duration: SimDuration, d_hours: i64, tol: f64) -> bool {
    (max_duration.secs() as f64) <= d_hours as f64 * 3_600.0 * (1.0 + tol)
}

/// One row of Table 5 (an (AS, d) pair, or the "All" aggregate rows).
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    /// ISP display name ("All" for aggregates).
    pub name: String,
    /// ASN (0 for aggregates).
    pub asn: u32,
    /// Country code, when uniform across probes.
    pub country: String,
    /// The period d in hours.
    pub d_hours: i64,
    /// Probes in the AS with at least one measured duration.
    pub n: usize,
    /// Probes with total time fraction at d greater than the threshold.
    pub fp25: usize,
    /// Of those, percentage with fraction > 0.5.
    pub pct_fp50: f64,
    /// Of those, percentage with fraction > 0.75.
    pub pct_fp75: f64,
    /// Percentage of periodic probes whose max duration ≤ d (+5%).
    pub pct_max_le_d: f64,
    /// Percentage of periodic probes whose overruns are harmonic.
    pub pct_harmonic: f64,
}

/// Computes per-probe periodicity for every AS-analyzable probe, then folds
/// into Table 5 rows. Returns `(rows, per-probe verdicts)`; rows are sorted
/// by decreasing `fp25` like the paper, with the "All" rows first.
pub fn table5(
    probes: &[AnalyzableProbe],
    names: &BTreeMap<u32, String>,
    cfg: &PeriodicConfig,
) -> (Vec<Table5Row>, Vec<(Asn, ProbePeriodicity)>) {
    // Per-probe verdicts over the AS-level population. Duration extraction
    // and clustering are independent per probe; fan out and keep the
    // verdicts in probe order.
    let verdicts: Vec<(Asn, ProbePeriodicity, Vec<SimDuration>)> =
        dynaddr_exec::par_map_flat(probes, |p| {
            if p.multi_as {
                return Vec::new();
            }
            let durations = p.same_as_durations();
            if durations.is_empty() {
                return Vec::new();
            }
            let verdict = classify_probe(&durations, cfg.tolerance);
            vec![(p.primary_asn, verdict, durations)]
        });

    // Group by (asn, d) for periodic probes; count N per asn.
    let mut n_by_asn: BTreeMap<u32, usize> = BTreeMap::new();
    for (asn, _, _) in &verdicts {
        *n_by_asn.entry(asn.0).or_insert(0) += 1;
    }
    #[derive(Default)]
    struct Acc {
        fp25: usize,
        fp50: usize,
        fp75: usize,
        max_le: usize,
        harmonic: usize,
    }
    let mut rows_acc: BTreeMap<(u32, i64), Acc> = BTreeMap::new();
    let mut all_acc: BTreeMap<i64, Acc> = BTreeMap::new();

    // Canonicalize near-identical periods across probes of one AS: probes on
    // the same plan can straddle a rounding boundary (167.4 h vs 167.6 h on
    // a one-week plan). Snap each probe's d to the most common d within 2%
    // among its AS peers.
    let mut d_votes: BTreeMap<u32, BTreeMap<i64, usize>> = BTreeMap::new();
    for (asn, verdict, _) in &verdicts {
        let big_enough = verdict
            .dominant
            .as_ref()
            .map(|c| c.count >= cfg.min_cluster_count)
            .unwrap_or(false);
        if !big_enough {
            continue;
        }
        if let Some(d) = verdict.period_hours(cfg.threshold) {
            *d_votes.entry(asn.0).or_default().entry(d).or_insert(0) += 1;
        }
    }
    let snap_d = |asn: u32, d: i64| -> i64 {
        let Some(votes) = d_votes.get(&asn) else {
            return d;
        };
        let slack = (d / 50).max(1);
        votes
            .range((d - slack)..=(d + slack))
            .max_by_key(|(cand, n)| (**n, std::cmp::Reverse(**cand)))
            .map(|(cand, _)| *cand)
            .unwrap_or(d)
    };

    for (asn, verdict, durations) in &verdicts {
        let Some(d) = verdict.period_hours(cfg.threshold) else {
            continue;
        };
        if verdict
            .dominant
            .as_ref()
            .map(|c| c.count < cfg.min_cluster_count)
            .unwrap_or(true)
        {
            continue;
        }
        let d = snap_d(asn.0, d);
        let f = verdict
            .dominant
            .as_ref()
            .expect("periodic implies cluster")
            .fraction;
        for acc in [
            rows_acc.entry((asn.0, d)).or_default(),
            all_acc.entry(d).or_default(),
        ] {
            acc.fp25 += 1;
            if f > 0.5 {
                acc.fp50 += 1;
            }
            if f > 0.75 {
                acc.fp75 += 1;
            }
            if max_le_d(verdict.max_duration, d, cfg.tolerance) {
                acc.max_le += 1;
            }
            if is_harmonic(durations, d, cfg.tolerance) {
                acc.harmonic += 1;
            }
        }
    }

    let pct = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let total_n = verdicts.len();
    let mut rows: Vec<Table5Row> = Vec::new();
    // "All" aggregate rows for the two headline periods.
    for d in [24i64, 168] {
        if let Some(acc) = all_acc.get(&d) {
            rows.push(Table5Row {
                name: "All".to_string(),
                asn: 0,
                country: String::new(),
                d_hours: d,
                n: total_n,
                fp25: acc.fp25,
                pct_fp50: pct(acc.fp50, acc.fp25),
                pct_fp75: pct(acc.fp75, acc.fp25),
                pct_max_le_d: pct(acc.max_le, acc.fp25),
                pct_harmonic: pct(acc.harmonic, acc.fp25),
            });
        }
    }
    let mut as_rows: Vec<Table5Row> = rows_acc
        .into_iter()
        .filter(|((asn, _), acc)| {
            n_by_asn.get(asn).copied().unwrap_or(0) >= cfg.min_probes
                && acc.fp25 >= cfg.min_periodic
        })
        .map(|((asn, d), acc)| Table5Row {
            name: names
                .get(&asn)
                .cloned()
                .unwrap_or_else(|| format!("AS{asn}")),
            asn,
            country: String::new(),
            d_hours: d,
            n: n_by_asn[&asn],
            fp25: acc.fp25,
            pct_fp50: pct(acc.fp50, acc.fp25),
            pct_fp75: pct(acc.fp75, acc.fp25),
            pct_max_le_d: pct(acc.max_le, acc.fp25),
            pct_harmonic: pct(acc.harmonic, acc.fp25),
        })
        .collect();
    as_rows.sort_by(|a, b| b.fp25.cmp(&a.fp25).then(a.asn.cmp(&b.asn)));
    rows.extend(as_rows);

    let verdict_list = verdicts.into_iter().map(|(asn, v, _)| (asn, v)).collect();
    (rows, verdict_list)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(hours: f64) -> SimDuration {
        SimDuration::from_hours_f64(hours)
    }

    #[test]
    fn classify_periodic_probe() {
        let ds: Vec<SimDuration> = (0..30).map(|_| h(23.7)).chain([h(3.0), h(9.0)]).collect();
        let v = classify_probe(&ds, 0.05);
        assert!(v.is_periodic(0.25));
        assert_eq!(v.period_hours(0.25), Some(24));
        assert!(v.is_periodic(0.75), "fraction should be very high");
    }

    #[test]
    fn classify_stable_probe() {
        // A handful of scattered long durations: dominant cluster exists but
        // is not overwhelming... unless one dominates. Use spread-out values.
        let ds = vec![h(100.0), h(350.0), h(801.0), h(1201.0)];
        let v = classify_probe(&ds, 0.05);
        // The largest single duration holds <50% of total time; with the
        // 0.25 threshold the probe may technically be "periodic" at its
        // longest duration — the paper's threshold has the same property,
        // which is why Table 5 also requires 3+ probes agreeing on d.
        assert_eq!(v.n_durations, 4);
        assert!(v.max_duration == h(1201.0));
    }

    #[test]
    fn harmonic_accepts_multiples_rejects_offsets() {
        let base: Vec<SimDuration> = vec![h(23.8), h(23.7), h(47.6), h(71.3)];
        assert!(is_harmonic(&base, 24, 0.05));
        let offset = vec![h(23.8), h(31.0)];
        assert!(!is_harmonic(&offset, 24, 0.05));
        // Everything under d is trivially harmonic.
        assert!(is_harmonic(&[h(3.0), h(10.0)], 24, 0.05));
    }

    #[test]
    fn max_le_d_with_slack() {
        assert!(max_le_d(h(24.9), 24, 0.05));
        assert!(!max_le_d(h(25.5), 24, 0.05));
    }

    #[test]
    fn tiny_clusters_do_not_count_as_periodic() {
        // Two near-equal long durations dominate total time but are not a
        // periodic plan.
        let cfg = PeriodicConfig::default();
        let ds = vec![h(700.0), h(710.0), h(100.0)];
        let v = classify_probe(&ds, cfg.tolerance);
        assert!(
            v.is_periodic(cfg.threshold),
            "raw threshold alone is fooled"
        );
        assert!(
            v.dominant.as_ref().unwrap().count < cfg.min_cluster_count,
            "the cluster-population guard rejects it"
        );
    }

    #[test]
    fn table5_groups_by_asn_and_period() {
        use dynaddr_atlas::logs::{ConnectionLogEntry, PeerAddr, ProbeMeta};
        use dynaddr_ip2as::{MonthlySnapshots, RouteTable};
        use dynaddr_types::{ProbeId, SimTime};

        // Build two ASes: AS100 with 6 periodic probes at 24 h, AS200 with
        // 5 stable probes, via synthetic connection logs.
        let mut table = RouteTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(100));
        table.announce("20.0.0.0/16".parse().unwrap(), Asn(200));
        let snaps = MonthlySnapshots::uniform(table);

        let mut ds = dynaddr_atlas::logs::AtlasDataset::default();
        let hsec = 3_600i64;
        for id in 1..=6u32 {
            ds.meta.push(ProbeMeta {
                probe: ProbeId(id),
                ..ProbeMeta::default()
            });
            // 40 connections, address changes daily.
            for k in 0..40i64 {
                ds.connections.push(ConnectionLogEntry {
                    probe: ProbeId(id),
                    start: SimTime(k * 24 * hsec),
                    end: SimTime(k * 24 * hsec + 23 * hsec + 3_540),
                    peer: PeerAddr::V4(format!("10.0.{}.{}", id, k + 1).parse().unwrap()),
                });
            }
        }
        for id in 11..=15u32 {
            ds.meta.push(ProbeMeta {
                probe: ProbeId(id),
                ..ProbeMeta::default()
            });
            // Stable probes: few, irregular, per-probe-distinct durations so
            // no three probes agree on a period.
            for k in 0..4i64 {
                let hold = 1_500 + 211 * i64::from(id) + 137 * k;
                ds.connections.push(ConnectionLogEntry {
                    probe: ProbeId(id),
                    start: SimTime(k * 2_000 * hsec),
                    end: SimTime((k * 2_000 + hold) * hsec),
                    peer: PeerAddr::V4(format!("20.0.{}.{}", id, k + 1).parse().unwrap()),
                });
            }
        }
        ds.normalize();
        let report = crate::filtering::filter_probes(&ds, &snaps);
        assert_eq!(report.counts.analyzable_geo, 11);

        let mut names = BTreeMap::new();
        names.insert(100u32, "PeriodicNet".to_string());
        names.insert(200u32, "StableNet".to_string());
        let (rows, verdicts) = table5(&report.probes, &names, &PeriodicConfig::default());

        let periodic_row = rows
            .iter()
            .find(|r| r.asn == 100)
            .expect("AS100 row present");
        assert_eq!(periodic_row.d_hours, 24);
        assert_eq!(periodic_row.n, 6);
        assert_eq!(periodic_row.fp25, 6);
        assert!(periodic_row.pct_fp75 > 99.0);
        assert!(periodic_row.pct_max_le_d > 99.0);
        assert!(periodic_row.pct_harmonic > 99.0);
        assert!(
            !rows.iter().any(|r| r.asn == 200),
            "StableNet must not appear periodic: {rows:?}"
        );
        // "All" row at 24 h present and counts the same 6 probes.
        let all24 = rows
            .iter()
            .find(|r| r.name == "All" && r.d_hours == 24)
            .unwrap();
        assert_eq!(all24.fp25, 6);
        assert_eq!(all24.n, verdicts.len());
    }
}
