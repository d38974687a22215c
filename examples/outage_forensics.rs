//! Outage forensics: reconstruct one probe's year from its raw logs.
//!
//! Walks a single probe's connection log, k-root pings, and SOS-uptime
//! records, detects outages and reboots, associates them with
//! inter-connection gaps, and prints a human-readable timeline — then checks
//! the verdicts against the simulator's ground truth.
//!
//! ```sh
//! cargo run --release --example outage_forensics [probe_id]
//! ```

use dynaddr::analysis::assoc::{associate_network, associate_power, OutageKind};
use dynaddr::analysis::changes::extract_events;
use dynaddr::analysis::outages::{detect_network_outages, detect_power_outages, detect_reboots};
use dynaddr::atlas::simulate;
use dynaddr::atlas::world::paper_world;
use dynaddr::types::ProbeId;

fn main() {
    let world = paper_world(0.05, 99);
    let out = simulate(&world);

    // Pick the requested probe, or the probe with the most outages.
    let requested: Option<u32> = std::env::args().nth(1).and_then(|s| s.parse().ok());
    let probe = match requested {
        Some(id) => ProbeId(id),
        None => {
            let mut counts = std::collections::BTreeMap::new();
            for o in &out.truth.outages {
                *counts.entry(o.probe).or_insert(0usize) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|(_, n)| *n)
                .map(|(p, _)| p)
                .expect("some probe had outages")
        }
    };
    println!("=== forensics for {probe} ===\n");

    // Raw material.
    let conns: Vec<_> = out
        .dataset
        .connections_of(probe)
        .iter()
        .filter(|c| c.peer.is_v4())
        .copied()
        .collect();
    let kroot = out.dataset.kroot_of(probe);
    let uptime = out.dataset.uptime_of(probe);
    println!(
        "raw logs: {} connections, {} k-root records, {} uptime reports",
        conns.len(),
        kroot.len(),
        uptime.len()
    );

    // Detection.
    let events = extract_events(&conns);
    let network = detect_network_outages(kroot);
    let reboots = detect_reboots(uptime);
    let power = detect_power_outages(&reboots, kroot, &network);
    println!(
        "detected: {} address changes, {} network outages, {} reboots, {} power outages\n",
        events.changes.len(),
        network.len(),
        reboots.len(),
        power.len()
    );

    // Association + timeline.
    let mut assoc = associate_network(&events.gaps, &network);
    assoc.extend(associate_power(&events.gaps, &power));
    assoc.sort_by_key(|a| a.start);

    println!(
        "{:<16} {:>8} {:>10} {:>8}",
        "when", "kind", "duration", "renumber"
    );
    println!("{}", "-".repeat(48));
    for a in assoc.iter().take(30) {
        println!(
            "{:<16} {:>8} {:>10} {:>8}",
            format!("{}", a.start),
            match a.kind {
                OutageKind::Network => "network",
                OutageKind::Power => "power",
            },
            format!("{}", a.duration),
            if a.address_changed { "YES" } else { "no" }
        );
    }
    if assoc.len() > 30 {
        println!("... and {} more", assoc.len() - 30);
    }

    // Compare against ground truth (the simulator's omniscient view).
    let truth_outages: Vec<_> = out
        .truth
        .outages
        .iter()
        .filter(|o| o.probe == probe)
        .collect();
    let truth_changed = truth_outages.iter().filter(|o| o.address_changed).count();
    let detected_changed = assoc.iter().filter(|a| a.address_changed).count();
    println!(
        "\nground truth: {} outages, {} with address change",
        truth_outages.len(),
        truth_changed
    );
    println!(
        "pipeline:     {} outages, {} with address change",
        assoc.len(),
        detected_changed
    );
    println!(
        "\n(Short blips can evade the 4-minute k-root grid, and v1/v2 probes are\n\
         excluded from power detection — perfect recall is not expected, exactly\n\
         as in the paper.)"
    );
}
