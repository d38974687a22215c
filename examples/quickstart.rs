//! Quickstart: simulate a small RIPE-Atlas-style world, run the full
//! analysis pipeline, and print the headline results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dynaddr::analysis::pipeline::{analyze, AnalysisConfig};
use dynaddr::analysis::report;
use dynaddr::atlas::simulate;
use dynaddr::atlas::world::{paper_route_tables, paper_world};

fn main() {
    // 1. Build a world: 10% of the paper's 10,977-probe deployment.
    let world = paper_world(0.1, 42);
    println!(
        "world: {} ISPs, {} probes (analyzable + filler + movers)",
        world.isps.len(),
        world.total_probes()
    );

    // 2. Simulate the 2015 measurement year.
    let out = simulate(&world);
    println!(
        "simulated: {} connection-log entries, {} k-root records, {} uptime records",
        out.dataset.connections.len(),
        out.dataset.kroot.len(),
        out.dataset.uptime.len()
    );

    // 3. The pipeline needs the monthly IP-to-AS snapshots (the CAIDA
    //    pfx2as stand-in) and, cosmetically, ISP display names.
    let snaps = paper_route_tables(&world);
    let mut cfg = AnalysisConfig {
        fig3_min_years: 0.3,
        ..AnalysisConfig::default()
    };
    for (asn, policy) in &out.truth.isp_policies {
        cfg.as_names.insert(*asn, policy.name.clone());
    }

    // 4. Analyze: every table and figure of the paper in one call.
    let rep = analyze(&out.dataset, &snaps, &cfg);

    println!("\n{}", report::render_table2(&rep));
    println!("{}", report::render_table5(&rep));

    // 5. Dip into structured results directly.
    let daily = rep
        .table5
        .iter()
        .find(|row| row.name == "All" && row.d_hours == 24);
    if let Some(row) = daily {
        println!(
            "{} of {} probes with durations are renumbered on a 24-hour cycle.",
            row.fp25, row.n
        );
    }
    let overall = &rep.table7.overall;
    println!(
        "Across {} address changes, {:.0}% changed BGP prefix and {:.0}% changed /8.",
        overall.changes,
        overall.pct_bgp(),
        overall.pct_8()
    );
}
