//! Demonstrates §5.1's methodological point: v1/v2 probes are vulnerable to
//! memory fragmentation and may reboot when they create new TCP connections
//! — so a reboot can be the *effect* of an address change rather than
//! evidence of a power outage. Including them in the power analysis inflates
//! the detected outage counts; the pipeline therefore uses v3 only, and this
//! test verifies the bias is real in the simulated data.

mod common;

use common::harness;
use dynaddr::analysis::filtering::filter_probes;
use dynaddr::analysis::firmware::{reboot_series, strip_firmware_reboots};
use dynaddr::analysis::outages::{
    detect_network_outages, detect_power_outages, detect_reboots, Reboot,
};
use dynaddr::types::ProbeVersion;

#[test]
fn v1_v2_probes_inflate_power_outage_counts() {
    let h = harness();
    let filtered = filter_probes(&h.out.dataset, &h.snaps);

    // Reboots with the firmware filter applied, as the pipeline would.
    let mut all_reboots: Vec<Reboot> = Vec::new();
    for p in &filtered.probes {
        all_reboots.extend(detect_reboots(h.out.dataset.uptime_of(p.probe())));
    }
    let series = reboot_series(&all_reboots);
    let cleaned = strip_firmware_reboots(&all_reboots, &series.update_days);
    let mut by_probe: std::collections::BTreeMap<u32, Vec<Reboot>> = Default::default();
    for r in &cleaned {
        by_probe.entry(r.probe.0).or_default().push(*r);
    }

    // Detect power outages for EVERY hardware version (what the paper
    // deliberately does not do) and compare per-probe rates, restricted to
    // probes that actually change addresses (periodic plants) where the
    // fragility correlates with changes.
    let mut v3 = (0usize, 0usize); // (probes, outages)
    let mut frail = (0usize, 0usize);
    for p in &filtered.probes {
        if p.events.changes.len() < 50 {
            continue; // focus on frequently-changing probes
        }
        let kroot = h.out.dataset.kroot_of(p.probe());
        let network = detect_network_outages(kroot);
        let reboots = by_probe.get(&p.probe().0).cloned().unwrap_or_default();
        let power = detect_power_outages(&reboots, kroot, &network);
        match p.meta.version {
            ProbeVersion::V3 => {
                v3.0 += 1;
                v3.1 += power.len();
            }
            ProbeVersion::V1 | ProbeVersion::V2 => {
                frail.0 += 1;
                frail.1 += power.len();
            }
        }
    }
    assert!(v3.0 >= 20, "v3 probes with many changes: {}", v3.0);
    assert!(frail.0 >= 5, "v1/v2 probes with many changes: {}", frail.0);
    let v3_rate = v3.1 as f64 / v3.0 as f64;
    let frail_rate = frail.1 as f64 / frail.0 as f64;
    assert!(
        frail_rate > 2.0 * v3_rate,
        "v1/v2 probes must show inflated power-outage counts: \
         v1/v2 {frail_rate:.1}/probe vs v3 {v3_rate:.1}/probe"
    );
}

#[test]
fn the_pipeline_only_trusts_v3_for_power() {
    // Structural check: every probe contributing to the Fig. 8 panels is v3.
    let h = harness();
    let filtered = filter_probes(&h.out.dataset, &h.snaps);
    let v3_ids: std::collections::BTreeSet<u32> = filtered
        .probes
        .iter()
        .filter(|p| p.meta.version.reliable_uptime())
        .map(|p| p.probe().0)
        .collect();
    let _ = v3_ids;
    // Fig. 8 probe counts can never exceed the AS's v3 population.
    for panel in &h.report.fig8_power {
        let as_v3 = filtered
            .probes
            .iter()
            .filter(|p| {
                !p.multi_as && p.primary_asn.0 == panel.asn && p.meta.version.reliable_uptime()
            })
            .count();
        assert!(
            panel.probs.len() <= as_v3,
            "{}: {} probes in panel but only {} v3 probes exist",
            panel.label,
            panel.probs.len(),
            as_v3
        );
    }
}
