//! End-to-end system tests: determinism, dataset round-trips, log-thinning
//! equivalence, and ground-truth validation of the pipeline's inferences.

mod common;

use common::{harness, SCALE, SEED};
use dynaddr::analysis::outages::{detect_network_outages, detect_power_outages, detect_reboots};
use dynaddr::atlas::truth::TruthChange;
use dynaddr::atlas::world::{paper_route_tables, paper_world};
use dynaddr::atlas::{simulate, ChangeCause, GroundTruth, TruthOutage, TruthOutageKind};
use dynaddr::types::{ProbeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Counts the truth's address changes by cause.
fn cause_histogram(truth: &GroundTruth) -> BTreeMap<String, usize> {
    let mut h = BTreeMap::new();
    for c in &truth.changes {
        *h.entry(format!("{:?}", c.cause)).or_insert(0) += 1;
    }
    h
}

/// The share of the truth's outages of `kind` that changed the address;
/// `None` when it has none of that kind.
fn outage_change_rate(truth: &GroundTruth, kind: TruthOutageKind) -> Option<f64> {
    let of_kind: Vec<&TruthOutage> = truth.outages.iter().filter(|o| o.kind == kind).collect();
    if of_kind.is_empty() {
        return None;
    }
    let changed = of_kind.iter().filter(|o| o.address_changed).count();
    Some(changed as f64 / of_kind.len() as f64)
}

#[test]
fn cause_histogram_counts() {
    let change = |probe, time, cause| TruthChange {
        probe: ProbeId(probe),
        time: SimTime(time),
        from: None,
        to: Ipv4Addr::new(10, 0, 0, 1),
        cause,
    };
    let mut gt = GroundTruth::default();
    gt.changes.push(change(1, 0, ChangeCause::PeriodicCap));
    gt.changes.push(change(1, 1, ChangeCause::PeriodicCap));
    gt.changes.push(change(2, 2, ChangeCause::PowerOutage));
    let h = cause_histogram(&gt);
    assert_eq!(h.get("PeriodicCap"), Some(&2));
    assert_eq!(h.get("PowerOutage"), Some(&1));
}

#[test]
fn outage_change_rate_is_the_share_that_changed() {
    let mut gt = GroundTruth::default();
    for (i, changed) in [(0, true), (1, true), (2, false), (3, false)] {
        gt.outages.push(TruthOutage {
            probe: ProbeId(i),
            kind: TruthOutageKind::Network,
            start: SimTime(0),
            duration: SimDuration::from_mins(5),
            address_changed: changed,
        });
    }
    assert_eq!(outage_change_rate(&gt, TruthOutageKind::Network), Some(0.5));
    assert_eq!(outage_change_rate(&gt, TruthOutageKind::Power), None);
}

#[test]
fn simulation_and_analysis_are_deterministic() {
    // Re-run the harness world from scratch; everything must be identical.
    let world = paper_world(SCALE, SEED);
    let out2 = simulate(&world);
    let h = harness();
    assert_eq!(h.out.dataset, out2.dataset, "dataset must be bit-identical");
    let snaps = paper_route_tables(&world);
    let report2 = dynaddr::analysis::analyze(&out2.dataset, &snaps, &h.cfg);
    let a = serde_json::to_string(&h.report).expect("report serializes");
    let b = serde_json::to_string(&report2).expect("report serializes");
    assert_eq!(a, b, "analysis must be deterministic");
}

#[test]
fn different_seed_changes_logs_but_not_shapes() {
    let world = paper_world(0.05, 777);
    let out = simulate(&world);
    let h = harness();
    assert_ne!(h.out.dataset.connections, out.dataset.connections);
    // Coarse shape check on the alternate seed: DTAG still daily.
    let snaps = paper_route_tables(&world);
    let filtered = dynaddr::analysis::filter_probes(&out.dataset, &snaps);
    let (rows, _) = dynaddr::analysis::periodic::table5(
        &filtered.probes,
        &Default::default(),
        &dynaddr::analysis::periodic::PeriodicConfig::default(),
    );
    assert_eq!(
        rows.iter().find(|r| r.asn == 3320).map(|r| r.d_hours),
        Some(24)
    );
}

/// The simulator thins quiet-period k-root heartbeats (see the log-thinning
/// note in `dynaddr-atlas`). Detection must be unaffected: a world logged at
/// the full 4-minute grid and the same world logged with 24-hour heartbeats
/// must yield identical outage sets.
#[test]
fn log_thinning_preserves_outage_detection() {
    let mut dense_world = paper_world(0.02, 99);
    dense_world.filler = dynaddr::atlas::FillerSpec::none();
    dense_world.movers = 0;
    let mut thin_world = dense_world.clone();
    dense_world.kroot_heartbeat = dynaddr::types::SimDuration::from_secs(240);
    thin_world.kroot_heartbeat = dynaddr::types::SimDuration::from_hours(24);

    let dense = simulate(&dense_world);
    let thin = simulate(&thin_world);
    assert!(
        dense.dataset.kroot.len() > 20 * thin.dataset.kroot.len(),
        "dense grid must be much larger: {} vs {}",
        dense.dataset.kroot.len(),
        thin.dataset.kroot.len()
    );
    // Connection logs and uptime are heartbeat-independent.
    assert_eq!(dense.dataset.connections, thin.dataset.connections);
    assert_eq!(dense.dataset.uptime, thin.dataset.uptime);

    for meta in &dense.dataset.meta {
        let p = meta.probe;
        let nw_dense = detect_network_outages(dense.dataset.kroot_of(p));
        let nw_thin = detect_network_outages(thin.dataset.kroot_of(p));
        assert_eq!(nw_dense, nw_thin, "network outages differ for {p}");

        let rb_dense = detect_reboots(dense.dataset.uptime_of(p));
        let rb_thin = detect_reboots(thin.dataset.uptime_of(p));
        assert_eq!(rb_dense, rb_thin);

        let pw_dense = detect_power_outages(&rb_dense, dense.dataset.kroot_of(p), &nw_dense);
        let pw_thin = detect_power_outages(&rb_thin, thin.dataset.kroot_of(p), &nw_thin);
        // Power outages: same events; the dark-window brackets must agree
        // because the simulator always materializes them.
        assert_eq!(pw_dense, pw_thin, "power outages differ for {p}");
    }
}

// ---------------------------------------------------------------------------
// Ground-truth validation: the closed loop the paper could not run.
// ---------------------------------------------------------------------------

#[test]
fn inferred_periods_match_configured_policies() {
    let h = harness();
    let detected: std::collections::BTreeMap<u32, i64> = h
        .report
        .table5
        .iter()
        .filter(|r| r.asn != 0)
        .map(|r| (r.asn, r.d_hours))
        .collect();
    let mut hits = 0;
    let mut majors = 0;
    for (asn, policy) in &h.out.truth.isp_policies {
        // Only judge ISPs whose periodic plans dominate and that host
        // enough probes at this scale.
        if policy.periodic_weight < 0.5 || policy.periodic_hours.is_empty() {
            continue;
        }
        majors += 1;
        if let Some(d) = detected.get(asn) {
            if policy
                .periodic_hours
                .iter()
                .any(|h| (h - d).abs() <= (h / 50).max(1))
            {
                hits += 1;
            }
        }
    }
    assert!(
        majors >= 10,
        "expected many majority-periodic ISPs, got {majors}"
    );
    assert!(
        hits as f64 >= 0.7 * majors as f64,
        "only {hits} of {majors} majority-periodic ISPs were recovered"
    );
}

#[test]
fn detected_outage_change_rates_track_truth() {
    use dynaddr::analysis::assoc::OutageKind;
    use dynaddr::analysis::filtering::filter_probes;
    use dynaddr::analysis::pipeline::outage_analysis;
    let h = harness();
    let filtered = filter_probes(&h.out.dataset, &h.snaps);
    let oa = outage_analysis(&h.out.dataset, &filtered.probes);

    let detected_nw: Vec<_> = oa
        .outages
        .iter()
        .filter(|o| o.kind == OutageKind::Network)
        .collect();
    assert!(
        detected_nw.len() > 500,
        "network outages detected: {}",
        detected_nw.len()
    );
    let det_rate =
        detected_nw.iter().filter(|o| o.address_changed).count() as f64 / detected_nw.len() as f64;
    let truth_rate = outage_change_rate(&h.out.truth, TruthOutageKind::Network)
        .expect("truth has network outages");
    assert!(
        (det_rate - truth_rate).abs() < 0.15,
        "detected change rate {det_rate} vs truth {truth_rate}"
    );
}

#[test]
fn firmware_reboots_do_not_leak_into_power_outages() {
    use dynaddr::analysis::filtering::filter_probes;
    use dynaddr::analysis::pipeline::outage_analysis;
    let h = harness();
    let filtered = filter_probes(&h.out.dataset, &h.snaps);
    let oa = outage_analysis(&h.out.dataset, &filtered.probes);
    // After the spike filter, surviving reboots near firmware dates should
    // be roughly background-level: count reboots within the staggered
    // 36-hour windows after each push.
    let fw_days: Vec<i64> = h
        .out
        .truth
        .firmware_dates
        .iter()
        .map(|d| d.day_of_year())
        .collect();
    let near = |day: i64| fw_days.iter().any(|f| (day - f) == 0 || (day - f) == 1);
    let survivors = oa
        .reboots
        .iter()
        .filter(|r| near(r.boot_time.day_of_year()))
        .count();
    let total = oa.reboots.len();
    // Firmware uptake is ~85% of all probes per push: without filtering,
    // push windows would hold the majority of reboots.
    assert!(
        (survivors as f64) < 0.25 * total as f64,
        "firmware reboots leak: {survivors} of {total} reboots on push days"
    );
}

#[test]
fn admin_renumbering_visible_in_truth_and_data() {
    let h = harness();
    let (asn, when) = h
        .out
        .truth
        .admin_renumbering
        .expect("world has one admin event");
    let admin_changes: Vec<_> = h
        .out
        .truth
        .changes
        .iter()
        .filter(|c| c.cause == ChangeCause::AdminRenumber)
        .collect();
    assert!(!admin_changes.is_empty());
    for c in &admin_changes {
        assert!(
            (c.time - when).secs().abs() < 3 * 3_600,
            "clustered at the event"
        );
        assert_eq!(
            h.snaps.asn_at(c.time, c.to).0,
            asn.0,
            "new space belongs to the ISP"
        );
    }
}

#[test]
fn truth_cause_mix_is_plausible() {
    let h = harness();
    let hist = cause_histogram(&h.out.truth);
    let get = |k: &str| hist.get(k).copied().unwrap_or(0);
    // Periodic mechanisms dominate total changes (they fire daily).
    let periodic = get("PeriodicCap") + get("ScheduledReconnect");
    let outage = get("NetworkOutage") + get("PowerOutage");
    assert!(periodic > outage, "periodic {periodic} vs outage {outage}");
    assert!(get("PoolRotation") > 0, "rotating DHCP ISPs exist");
    assert!(get("Moved") > 0, "movers exist");
}
