//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!   repro [--scale S] [--seed N] [--out DIR] [--threads N] [all|EXPERIMENT...]
//!
//! EXPERIMENT is one of table1, table2, fig1–fig9, table5–table7, admin,
//! churn, truth, ablation-ttf, ablation-firmware and ablation-assoc.
//!
//! Prints the selected experiment (default: all) to stdout; with `--out`,
//! also writes one text file per experiment into DIR. A malformed flag
//! value or an unknown experiment name exits 2 with the usage line,
//! before anything is simulated.

use dynaddr_bench::{flag_value, run_repro, Repro};
use dynaddr_core::report;
use dynaddr_obs::{error, info};
use std::collections::BTreeMap;

const USAGE: &str =
    "usage: repro [--scale S] [--seed N] [--out DIR] [--threads N] [all|EXPERIMENT...]";

/// Every experiment `render` knows, in the order `all` prints them.
const EXPERIMENTS: [&str; 20] = [
    "table1", "table2", "fig1", "fig2", "fig3", "table5", "fig4", "fig5", "fig6", "fig7", "fig8",
    "table6", "fig9", "table7", "admin", "churn", "truth", "ablation-ttf", "ablation-firmware",
    "ablation-assoc",
];

fn main() {
    let mut scale = 0.25f64;
    let mut seed = 2015u64;
    let mut out_dir: Option<String> = None;
    let mut which: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = flag_value(&mut args, "--scale", USAGE),
            "--seed" => seed = flag_value(&mut args, "--seed", USAGE),
            "--out" => out_dir = Some(flag_value(&mut args, "--out", USAGE)),
            // Overrides the DYNADDR_THREADS environment variable.
            "--threads" => {
                dynaddr_exec::set_threads(Some(flag_value(&mut args, "--threads", USAGE)))
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => which.push(other.to_string()),
        }
    }
    if let Some(bad) = which.iter().find(|w| *w != "all" && !EXPERIMENTS.contains(&w.as_str())) {
        error!("unknown experiment {bad:?} (want all or one of {})", EXPERIMENTS.join(", "));
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    info!("simulating paper world at scale {scale} (seed {seed})...");
    let t0 = std::time::Instant::now();
    let repro = run_repro(scale, seed);
    info!(
        "simulated {} probes, {} connection entries, {} kroot records in {:.1?}; analyzing...",
        repro.out.dataset.meta.len(),
        repro.out.dataset.connections.len(),
        repro.out.dataset.kroot.len(),
        t0.elapsed()
    );

    let mut sections: Vec<(String, String)> = Vec::new();
    for w in &which {
        let text = render(w, &repro);
        println!("{text}");
        sections.push((w.clone(), text));
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create output dir");
        for (name, text) in sections {
            std::fs::write(format!("{dir}/{name}.txt"), text).expect("write section");
        }
        info!("wrote results to {dir}/");
    }
}

fn render(which: &str, repro: &Repro) -> String {
    let r = &repro.report;
    let names = &repro.cfg.as_names;
    match which {
        "table1" => render_table1(repro),
        "table2" => report::render_table2(r),
        "fig1" => report::render_ttf_panel("Fig 1: total time fraction by continent", &r.fig1_continents),
        "fig2" => report::render_ttf_panel("Fig 2: top ASes by probes with durations", &r.fig2_top_ases),
        "fig3" => report::render_ttf_panel("Fig 3: German ASes", &r.fig3_country),
        "table5" => report::render_table5(r),
        "fig4" => r.hourly.first().map(report::render_hourly).unwrap_or_default(),
        "fig5" => r.hourly.get(1).map(report::render_hourly).unwrap_or_default(),
        "fig6" => report::render_firmware(&r.firmware),
        "fig7" => report::render_condprob("Fig 7: P(ac|network outage) per probe", &r.fig7_network),
        "fig8" => report::render_condprob("Fig 8: P(ac|power outage) per probe (v3)", &r.fig8_power),
        "table6" => report::render_table6(r),
        "fig9" => r.fig9.iter().map(report::render_fig9).collect::<Vec<_>>().join("\n"),
        "table7" => report::render_table7(r, names),
        "truth" => render_truth(repro),
        "admin" => render_admin(repro),
        "churn" => render_churn(repro),
        "ablation-ttf" => render_ablation_ttf(repro),
        "ablation-firmware" => render_ablation_firmware(repro),
        "ablation-assoc" => render_ablation_assoc(repro),
        other => unreachable!("experiment {other:?} is checked against EXPERIMENTS in main"),
    }
}

/// Table 1: a sample connection log — the first periodic probe's first days.
fn render_table1(repro: &Repro) -> String {
    use dynaddr_types::SimTime;
    // Pick a probe from a daily-periodic ISP (DTAG, AS 3320).
    let probe = repro
        .out
        .truth
        .changes
        .iter()
        .find(|c| matches!(c.cause, dynaddr_atlas::ChangeCause::PeriodicCap | dynaddr_atlas::ChangeCause::ScheduledReconnect))
        .map(|c| c.probe);
    let Some(probe) = probe else {
        return "Table 1: no periodic probe found".to_string();
    };
    let entries = repro.out.dataset.connections_of(probe);
    let mut rows = Vec::new();
    let mut prev_start: Option<(SimTime, String)> = None;
    for e in entries.iter().filter(|e| e.end.0 > 0).take(8) {
        let dur = match &prev_start {
            Some((start, addr)) if *addr == e.peer.to_string() => {
                format!("{:.1}", (e.end - *start).as_hours())
            }
            _ => "NA".to_string(),
        };
        let _ = dur;
        rows.push(vec![
            format!("{}", probe.0),
            format!("{}", e.start),
            format!("{}", e.end),
            e.peer.to_string(),
            format!("{:.1}", (e.end - e.start).as_hours()),
        ]);
        prev_start = Some((e.start, e.peer.to_string()));
    }
    format!(
        "Table 1: connection-log sample ({probe:?}, first 8 in-year entries; last column is connection hours)\n{}",
        dynaddr_core::report::render_table(&["ID", "Start", "End", "IP Address", "Hours"], &rows)
    )
}

/// Ground-truth validation: configured vs inferred periodic ISPs.
fn render_truth(repro: &Repro) -> String {
    let mut rows = Vec::new();
    let detected: BTreeMap<u32, i64> = repro
        .report
        .table5
        .iter()
        .filter(|row| row.asn != 0)
        .map(|row| (row.asn, row.d_hours))
        .collect();
    for (asn, policy) in &repro.out.truth.isp_policies {
        if policy.periodic_hours.is_empty() {
            continue;
        }
        let inferred = detected
            .get(asn)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".to_string());
        rows.push(vec![
            policy.name.clone(),
            asn.to_string(),
            policy
                .periodic_hours
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(","),
            inferred,
        ]);
    }
    format!(
        "Ground truth vs inference: configured periodic ISPs and the Table 5 period detected for them\n{}",
        dynaddr_core::report::render_table(&["ISP", "ASN", "configured d", "inferred d"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------------

/// §4.1's argument: a raw CDF of durations over-represents short durations;
/// the total-time-fraction metric exposes the periodic mode.
fn render_ablation_ttf(repro: &Repro) -> String {
    use dynaddr_core::filtering::filter_probes;
    let filtered = filter_probes(&repro.out.dataset, &repro.snaps);
    let mut rows = Vec::new();
    for asn in [3320u32, 3215, 6830] {
        let mut durations = Vec::new();
        for p in filtered.probes.iter().filter(|p| !p.multi_as && p.primary_asn.0 == asn) {
            durations.extend(p.same_as_durations());
        }
        if durations.is_empty() {
            continue;
        }
        let mode = if asn == 3215 { 168.0 } else { 24.0 };
        let total_secs: i64 = durations.iter().map(|d| d.secs()).sum();
        let near: Vec<_> = durations
            .iter()
            .filter(|d| (d.as_hours() - mode).abs() <= 0.05 * mode)
            .collect();
        let raw_frac = near.len() as f64 / durations.len() as f64;
        let time_frac =
            near.iter().map(|d| d.secs()).sum::<i64>() as f64 / total_secs as f64;
        rows.push(vec![
            repro.cfg.as_names.get(&asn).cloned().unwrap_or_else(|| format!("AS{asn}")),
            format!("{mode:.0}h"),
            durations.len().to_string(),
            format!("{:.2}", raw_frac),
            format!("{:.2}", time_frac),
        ]);
    }
    format!(
        "Ablation (§4.1): raw duration-count fraction vs total-time fraction at the mode\n\
         (short outage-truncated durations inflate the raw count's denominator)\n{}",
        dynaddr_core::report::render_table(
            &["AS", "mode", "durations", "count frac", "time frac"],
            &rows
        )
    )
}

/// What the firmware spike filter buys: spurious power outages removed.
fn render_ablation_firmware(repro: &Repro) -> String {
    use dynaddr_core::assoc::OutageKind;
    use dynaddr_core::filtering::filter_probes;
    use dynaddr_core::pipeline::outage_analysis_opts;
    let filtered = filter_probes(&repro.out.dataset, &repro.snaps);
    let with = outage_analysis_opts(&repro.out.dataset, &filtered.probes, true);
    let without = outage_analysis_opts(&repro.out.dataset, &filtered.probes, false);
    let count = |oa: &dynaddr_core::pipeline::OutageAnalysis, changed: Option<bool>| {
        oa.outages
            .iter()
            .filter(|o| o.kind == OutageKind::Power)
            .filter(|o| changed.map(|c| o.address_changed == c).unwrap_or(true))
            .count()
    };
    let rows = vec![
        vec![
            "with filter".to_string(),
            with.reboots.len().to_string(),
            count(&with, None).to_string(),
            count(&with, Some(true)).to_string(),
        ],
        vec![
            "without filter".to_string(),
            without.reboots.len().to_string(),
            count(&without, None).to_string(),
            count(&without, Some(true)).to_string(),
        ],
    ];
    format!(
        "Ablation (§5.2): firmware spike filter on/off. Without it, firmware-induced\n\
         probe reboots masquerade as power outages that never change the address,\n\
         biasing P(ac|pw) downward.\n{}",
        dynaddr_core::report::render_table(
            &["variant", "reboots", "power outages", "with change"],
            &rows
        )
    )
}

/// Gap-overlap association vs a naive fixed time window around each outage.
fn render_ablation_assoc(repro: &Repro) -> String {
    use dynaddr_core::assoc::OutageKind;
    use dynaddr_core::filtering::filter_probes;
    use dynaddr_core::pipeline::outage_analysis;
    let filtered = filter_probes(&repro.out.dataset, &repro.snaps);
    let oa = outage_analysis(&repro.out.dataset, &filtered.probes);

    // Naive: an outage "caused" a change if any change of that probe falls
    // within ±2 hours of the outage start — no gap semantics.
    let mut change_times: std::collections::BTreeMap<u32, Vec<i64>> = Default::default();
    for p in &filtered.probes {
        let v = change_times.entry(p.probe().0).or_default();
        for c in &p.events.changes {
            v.push(c.gap_end.0);
        }
    }
    let window = 2 * 3600;
    let naive_changed = |probe: u32, at: i64| {
        change_times
            .get(&probe)
            .map(|v| {
                let lo = v.partition_point(|t| *t < at - window);
                v.get(lo).map(|t| *t <= at + window).unwrap_or(false)
            })
            .unwrap_or(false)
    };
    let mut rows = Vec::new();
    for kind in [OutageKind::Network, OutageKind::Power] {
        let of_kind: Vec<_> = oa.outages.iter().filter(|o| o.kind == kind).collect();
        let gap_based = of_kind.iter().filter(|o| o.address_changed).count();
        let naive = of_kind
            .iter()
            .filter(|o| naive_changed(o.probe.0, o.start.0))
            .count();
        let disagree = of_kind
            .iter()
            .filter(|o| o.address_changed != naive_changed(o.probe.0, o.start.0))
            .count();
        rows.push(vec![
            format!("{kind:?}"),
            of_kind.len().to_string(),
            gap_based.to_string(),
            naive.to_string(),
            disagree.to_string(),
        ]);
    }
    format!(
        "Ablation (§3.6): gap-overlap association vs naive ±2h window.\n\
         The naive window miscounts when periodic renumbering happens to land\n\
         near (but not in) an outage, or when reconnection delays push the\n\
         change outside the window.\n{}",
        dynaddr_core::report::render_table(
            &["kind", "outages", "gap-based changes", "naive changes", "disagree"],
            &rows
        )
    )
}

/// §8 future work: detect administrative renumbering events and attribute
/// churn; cross-check against the world's configured admin event.
fn render_admin(repro: &Repro) -> String {
    use dynaddr_core::admin::{attribute_churn, detect_admin_renumbering, AdminConfig};
    use dynaddr_core::filtering::filter_probes;
    let filtered = filter_probes(&repro.out.dataset, &repro.snaps);
    let events = detect_admin_renumbering(&filtered.probes, &repro.snaps, &AdminConfig::default());
    let att = attribute_churn(&filtered.probes, &events);
    let mut rows = Vec::new();
    for e in &events {
        rows.push(vec![
            repro
                .cfg
                .as_names
                .get(&e.asn)
                .cloned()
                .unwrap_or_else(|| format!("AS{}", e.asn)),
            format!("{}", e.start),
            e.probes.len().to_string(),
            e.new_prefixes
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    let configured = repro
        .out
        .truth
        .admin_renumbering
        .map(|(asn, when)| format!("{asn} at {when}"))
        .unwrap_or_else(|| "none".to_string());
    format!(
        "Administrative renumbering (§8 future work): detected events\n{}\n\
         configured ground truth: {configured}\n\
         churn attribution: {} of {} changes ({:.2}%) administrative\n",
        dynaddr_core::report::render_table(&["AS", "start", "probes moved", "new prefixes"], &rows),
        att.administrative,
        att.total_changes,
        100.0 * att.admin_fraction()
    )
}

/// Daily address-set churn (§8's Richter-et-al. comparison), overall and
/// decomposed by AS regime.
fn render_churn(repro: &Repro) -> String {
    use dynaddr_core::churn::{churn_by_as, churn_series};
    use dynaddr_core::filtering::filter_probes;
    let filtered = filter_probes(&repro.out.dataset, &repro.snaps);
    let overall = churn_series(&filtered.probes, None);
    let by_as = churn_by_as(&filtered.probes, 5);
    let mut rows: Vec<(f64, Vec<String>)> = by_as
        .iter()
        .map(|(asn, c)| {
            (
                *c,
                vec![
                    repro
                        .cfg
                        .as_names
                        .get(asn)
                        .cloned()
                        .unwrap_or_else(|| format!("AS{asn}")),
                    format!("{:.1}%", 100.0 * c),
                ],
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let table_rows: Vec<Vec<String>> = rows.into_iter().map(|(_, r)| r).take(14).collect();
    format!(
        "Daily address-set churn (§8): mean {:.1}% of one day's active addresses are\n\
         gone the next day (Richter et al. saw ~8% at a CDN; our probe population\n\
         over-represents periodic European ISPs). Most-churning ASes:\n{}",
        100.0 * overall.mean_churn().unwrap_or(0.0),
        dynaddr_core::report::render_table(&["AS", "mean daily churn"], &table_rows)
    )
}
