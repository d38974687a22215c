//! Hour-of-day analysis of periodic address changes (§4.4.3, Figs. 4–5).
//!
//! For an ISP with period `d`, take every address span whose duration is
//! within tolerance of `d` and record the GMT hour at which it *ended* (the
//! renumbering instant). A flat histogram means free-running per-customer
//! clocks (Orange); a concentrated one means scheduled/synchronized
//! renumbering (DTAG's night-time window).

use crate::filtering::AnalyzableProbe;
use dynaddr_types::Asn;

/// Hour-of-day histogram of periodic change instants for one AS.
pub fn periodic_change_hours(
    probes: &[AnalyzableProbe],
    asn: Asn,
    d_hours: i64,
    tol: f64,
) -> [usize; 24] {
    let mut hist = [0usize; 24];
    let d_secs = d_hours as f64 * 3_600.0;
    for p in probes {
        if p.multi_as || p.primary_asn != asn {
            continue;
        }
        for span in &p.events.spans {
            if !span.complete {
                continue;
            }
            let s = span.duration().secs() as f64;
            if (s - d_secs).abs() <= tol * d_secs {
                hist[span.end.hour_of_day() as usize] += 1;
            }
        }
    }
    hist
}

/// A simple synchronization measure: the fraction of changes landing in the
/// densest 6-hour window. 0.25 means perfectly uniform; near 1.0 means
/// tightly synchronized.
pub fn peak_window_fraction(hist: &[usize; 24]) -> f64 {
    let total: usize = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let best: usize = (0..24)
        .map(|start| (0..6).map(|k| hist[(start + k) % 24]).sum::<usize>())
        .max()
        .expect("24 windows");
    best as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::{AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta};
    use dynaddr_ip2as::{MonthlySnapshots, RouteTable};
    use dynaddr_types::{ProbeId, SimTime};

    const H: i64 = 3_600;

    /// Builds one probe whose daily changes all land at the given hour.
    fn probe_changing_at(id: u32, hour: i64) -> (AtlasDataset, MonthlySnapshots) {
        let mut table = RouteTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(100));
        let snaps = MonthlySnapshots::uniform(table);
        let mut ds = AtlasDataset::default();
        ds.meta.push(ProbeMeta {
            probe: ProbeId(id),
            ..ProbeMeta::default()
        });
        for k in 0..30i64 {
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(id),
                start: SimTime(k * 24 * H + hour * H + 600),
                end: SimTime((k + 1) * 24 * H + hour * H),
                peer: PeerAddr::V4(format!("10.0.1.{}", k + 1).parse().unwrap()),
            });
        }
        ds.normalize();
        (ds, snaps)
    }

    #[test]
    fn synchronized_changes_concentrate() {
        let (ds, snaps) = probe_changing_at(1, 3);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        let hist = periodic_change_hours(&probes, Asn(100), 24, 0.05);
        let total: usize = hist.iter().sum();
        assert!(total >= 25, "expected ~28 periodic spans, got {total}");
        assert_eq!(hist[3], total, "all changes end at hour 3: {hist:?}");
        assert!(peak_window_fraction(&hist) > 0.99);
    }

    #[test]
    fn wrong_asn_or_period_yields_empty() {
        let (ds, snaps) = probe_changing_at(1, 3);
        let probes = crate::filtering::filter_probes(&ds, &snaps).probes;
        let other_as = periodic_change_hours(&probes, Asn(999), 24, 0.05);
        assert_eq!(other_as.iter().sum::<usize>(), 0);
        let other_d = periodic_change_hours(&probes, Asn(100), 12, 0.05);
        assert_eq!(other_d.iter().sum::<usize>(), 0);
    }

    #[test]
    fn uniform_hist_peak_fraction() {
        let hist = [10usize; 24];
        assert!((peak_window_fraction(&hist) - 0.25).abs() < 1e-12);
        let empty = [0usize; 24];
        assert_eq!(peak_window_fraction(&empty), 0.0);
    }
}
