//! Robustness: the pipeline must behave sensibly on degenerate, hostile,
//! or externally produced data — empty datasets, single probes, unsorted
//! logs, adversarial records — and its extraction invariants must hold for
//! arbitrary well-formed inputs (property tests).

use dynaddr::analysis::changes::{extract_events, strip_testing_entries};
use dynaddr::analysis::pipeline::{analyze, AnalysisConfig};
use dynaddr::atlas::logs::{AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta};
use dynaddr::ip2as::{MonthlySnapshots, RouteTable};
use dynaddr::types::{ProbeId, SimTime};
use proptest::prelude::*;

fn empty_snaps() -> MonthlySnapshots {
    MonthlySnapshots::uniform(RouteTable::new())
}

#[test]
fn empty_dataset_analyzes_to_empty_report() {
    let ds = AtlasDataset::default();
    let report = analyze(&ds, &empty_snaps(), &AnalysisConfig::default());
    assert_eq!(report.filter.total, 0);
    assert!(report.fig1_continents.is_empty());
    assert!(report.table5.is_empty());
    assert_eq!(report.table7.overall.changes, 0);
    assert!(report.firmware.update_days.is_empty());
    // Rendering an empty report must not panic.
    let text = dynaddr::analysis::report::render_full(&report, &Default::default());
    assert!(text.contains("Table 2"));
}

#[test]
fn metadata_without_logs_is_never_changed_free() {
    let mut ds = AtlasDataset::default();
    ds.meta.push(ProbeMeta { probe: ProbeId(1), ..ProbeMeta::default() });
    ds.normalize();
    let report = analyze(&ds, &empty_snaps(), &AnalysisConfig::default());
    assert_eq!(report.filter.total, 1);
    // No connections at all: classified IPv6-only (no v4 evidence).
    assert_eq!(report.filter.ipv6_only, 1);
}

#[test]
fn single_connection_probe() {
    let mut ds = AtlasDataset::default();
    ds.meta.push(ProbeMeta { probe: ProbeId(1), ..ProbeMeta::default() });
    ds.connections.push(ConnectionLogEntry {
        probe: ProbeId(1),
        start: SimTime(0),
        end: SimTime(3_600),
        peer: PeerAddr::V4("10.0.0.1".parse().unwrap()),
    });
    ds.normalize();
    let report = analyze(&ds, &empty_snaps(), &AnalysisConfig::default());
    assert_eq!(report.filter.never_changed, 1);
}

#[test]
fn unannounced_address_space_degrades_gracefully() {
    // Changes in space absent from the IP-to-AS snapshots map to AS0 and
    // still produce durations (the paper keeps unmapped space in the
    // geographic analysis).
    let mut ds = AtlasDataset::default();
    ds.meta.push(ProbeMeta { probe: ProbeId(1), ..ProbeMeta::default() });
    for k in 0..10i64 {
        ds.connections.push(ConnectionLogEntry {
            probe: ProbeId(1),
            start: SimTime(k * 86_400),
            end: SimTime(k * 86_400 + 80_000),
            peer: PeerAddr::V4(format!("10.0.0.{}", k + 1).parse().unwrap()),
        });
    }
    ds.normalize();
    let report = analyze(&ds, &empty_snaps(), &AnalysisConfig::default());
    assert_eq!(report.filter.analyzable_geo, 1);
    assert_eq!(report.table7.overall.changes, 9);
    // Both sides unannounced → same (absent) BGP prefix.
    assert_eq!(report.table7.overall.diff_bgp, 0);
}

#[test]
fn testing_only_probe_with_multiple_testing_entries() {
    let mut entries: Vec<ConnectionLogEntry> = (0..3)
        .map(|k| ConnectionLogEntry {
            probe: ProbeId(1),
            start: SimTime(k * 1_000),
            end: SimTime(k * 1_000 + 500),
            peer: PeerAddr::V4(dynaddr::atlas::logs::testing_address()),
        })
        .collect();
    assert!(strip_testing_entries(&mut entries));
    assert!(entries.is_empty(), "all-leading testing entries removed");
}

// ---------------------------------------------------------------------------
// Property tests on extraction invariants
// ---------------------------------------------------------------------------

/// Arbitrary well-formed per-probe connection log: increasing, non-
/// overlapping entries over a small address alphabet (so changes and
/// repeats both occur).
fn arb_entries() -> impl Strategy<Value = Vec<ConnectionLogEntry>> {
    proptest::collection::vec((1i64..50_000, 1i64..40_000, 0u8..6), 0..40).prop_map(|segs| {
        let mut t = 0i64;
        let mut out = Vec::new();
        for (gap, len, addr) in segs {
            let start = t + gap;
            let end = start + len;
            t = end;
            out.push(ConnectionLogEntry {
                probe: ProbeId(7),
                start: SimTime(start),
                end: SimTime(end),
                peer: PeerAddr::V4(format!("10.0.0.{}", addr + 1).parse().unwrap()),
            });
        }
        out
    })
}

proptest! {
    /// Spans partition the entries: every entry belongs to exactly one
    /// span, span boundaries coincide with changes, and counts line up.
    #[test]
    fn extraction_invariants(entries in arb_entries()) {
        let ev = extract_events(&entries);
        if entries.is_empty() {
            prop_assert!(ev.spans.is_empty());
            return Ok(());
        }
        // Count invariants.
        prop_assert_eq!(ev.gaps.len(), entries.len() - 1);
        prop_assert_eq!(ev.spans.len(), ev.changes.len() + 1);
        let changed_gaps = ev.gaps.iter().filter(|g| g.address_changed).count();
        prop_assert_eq!(changed_gaps, ev.changes.len());

        // Complete spans are exactly the interior ones.
        let complete = ev.spans.iter().filter(|s| s.complete).count();
        prop_assert_eq!(complete, ev.spans.len().saturating_sub(2).min(ev.changes.len().saturating_sub(1)));

        // Spans are time-ordered, non-overlapping, and cover the log range.
        for pair in ev.spans.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start);
            prop_assert!(pair[0].addr != pair[1].addr, "adjacent spans differ in address");
        }
        prop_assert_eq!(ev.spans[0].start, entries[0].start);
        prop_assert_eq!(ev.spans.last().unwrap().end, entries.last().unwrap().end);

        // Every change connects consecutive spans.
        for (i, c) in ev.changes.iter().enumerate() {
            prop_assert_eq!(c.from, ev.spans[i].addr);
            prop_assert_eq!(c.to, ev.spans[i + 1].addr);
            prop_assert_eq!(c.gap_start, ev.spans[i].end);
            prop_assert_eq!(c.gap_end, ev.spans[i + 1].start);
        }

        // Durations are positive and no longer than the whole log range.
        let range = entries.last().unwrap().end - entries[0].start;
        for d in ev.durations() {
            prop_assert!(d.secs() > 0);
            prop_assert!(d <= range);
        }
    }

    /// Duration clustering: fractions sum to 1, members are conserved, and
    /// every cluster honours the relative tolerance.
    #[test]
    fn clustering_invariants(
        hours in proptest::collection::vec(0.05f64..2_000.0, 1..60),
        tol in 0.01f64..0.2,
    ) {
        use dynaddr::analysis::ttf::duration_clusters;
        use dynaddr::types::SimDuration;
        let durations: Vec<SimDuration> =
            hours.iter().map(|h| SimDuration::from_hours_f64(*h)).collect();
        let clusters = duration_clusters(&durations, tol);
        let total_members: usize = clusters.iter().map(|c| c.count).sum();
        prop_assert_eq!(total_members, durations.len());
        let total_fraction: f64 = clusters.iter().map(|c| c.fraction).sum();
        prop_assert!((total_fraction - 1.0).abs() < 1e-6);
        // Cluster centres are ordered.
        for pair in clusters.windows(2) {
            prop_assert!(pair[0].center_hours <= pair[1].center_hours);
        }
    }
}
