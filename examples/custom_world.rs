//! Building a custom world from scratch — and round-tripping the dataset
//! through the on-disk `dataset.store` format.
//!
//! Configures two fictional ISPs with known policies (a 36-hour periodic
//! PPPoE DSL network and a stable DHCP cable network), simulates a year,
//! saves the dataset like a scrape of the RIPE Atlas API, reloads it, and
//! verifies the pipeline re-infers both policies from the files alone.
//!
//! ```sh
//! cargo run --release --example custom_world
//! ```

use dynaddr::analysis::filtering::filter_probes;
use dynaddr::analysis::periodic::{table5, PeriodicConfig};
use dynaddr::atlas::config::{AccessShare, IspSpec, OutageSpec, WorldConfig};
use dynaddr::atlas::logs::AtlasDataset;
use dynaddr::atlas::simulate;
use dynaddr::atlas::world::paper_route_tables;
use dynaddr::ispnet::pool::AllocationPolicy;
use dynaddr::ispnet::{AccessConfig, DhcpConfig, PppConfig};
use dynaddr::types::{SimDuration};
use std::collections::BTreeMap;

fn main() {
    // --- 1. Describe the world -------------------------------------------
    let mut dsl = IspSpec::new("Fictional DSL", 64900, "DE", 12);
    dsl.prefixes = vec!["198.18.0.0/16".parse().unwrap(), "198.19.0.0/16".parse().unwrap()];
    dsl.allocation = AllocationPolicy::RandomAny;
    dsl.shares = vec![AccessShare {
        weight: 1.0,
        access: AccessConfig::Ppp(PppConfig {
            session_cap: Some(SimDuration::from_hours(36)),
            ..PppConfig::default()
        }),
        schedule: None,
    }];

    let mut cable = IspSpec::new("Fictional Cable", 64901, "DE", 12);
    cable.prefixes = vec!["203.0.0.0/16".parse().unwrap()];
    cable.allocation = AllocationPolicy::PreferPrevious;
    cable.outages = OutageSpec::stable();
    cable.shares = vec![AccessShare {
        weight: 1.0,
        access: AccessConfig::Dhcp(DhcpConfig {
            lease: SimDuration::from_hours(8),
            churn_rate_per_hour: 0.01,
            ..DhcpConfig::default()
        }),
        schedule: None,
    }];

    let mut world = WorldConfig::empty(1234);
    world.isps = vec![dsl, cable];
    world.firmware_dates = WorldConfig::firmware_dates_2015();

    // --- 2. Simulate and export ------------------------------------------
    let out = simulate(&world);
    let dir = std::env::temp_dir().join("dynaddr-custom-world");
    out.dataset.save_dir(&dir).expect("write dataset");
    println!(
        "wrote {} (dataset.store, segmented columnar format)",
        dir.display()
    );

    // --- 3. Reload from disk and analyze ----------------------------------
    let reloaded = AtlasDataset::load_dir(&dir).expect("reload dataset");
    assert_eq!(reloaded, out.dataset, "lossless round-trip");
    let snaps = paper_route_tables(&world);
    let filtered = filter_probes(&reloaded, &snaps);
    println!(
        "{} probes analyzable out of {}",
        filtered.counts.analyzable_geo, filtered.counts.total
    );

    let mut names = BTreeMap::new();
    names.insert(64900u32, "Fictional DSL".to_string());
    names.insert(64901u32, "Fictional Cable".to_string());
    let (rows, _) = table5(&filtered.probes, &names, &PeriodicConfig::default());

    // --- 4. Check the inference against what we configured -----------------
    let dsl_row = rows
        .iter()
        .find(|r| r.asn == 64900)
        .expect("the DSL network must be detected as periodic");
    println!(
        "inferred: {} renumbers every {} h ({} of {} probes periodic)",
        dsl_row.name, dsl_row.d_hours, dsl_row.fp25, dsl_row.n
    );
    assert_eq!(dsl_row.d_hours, 36, "configured cap was 36 h");
    assert!(
        !rows.iter().any(|r| r.asn == 64901),
        "the cable network must not be detected as periodic"
    );
    println!("inferred: Fictional Cable shows no periodic renumbering — as configured.");

    std::fs::remove_dir_all(&dir).ok();
    println!("ok");
}
