//! `analyze` — run the paper's full pipeline over a dataset directory.
//!
//! Usage:
//!   analyze --data DIR [--report FILE] [--json FILE] [--threads N]
//!           [--recover] [--streamed] [--trace FILE]
//!   analyze --tier NAME [--seed N] [--streamed] [--trace FILE] [...]
//!
//! DIR must contain the dataset as a `dataset.store` file and an `ip2as/`
//! snapshot directory (the layout the `simulate` binary writes; external
//! data enters as a `dataset.store` written by `AtlasDataset::save_dir`).
//! `--recover` loads a damaged store file by skipping corrupt segments
//! instead of aborting, reporting what was dropped on stderr. Prints the
//! full text report to stdout; `--report` also writes it to a file,
//! `--json` dumps the structured `AnalysisReport`.
//!
//! `--streamed` runs the out-of-core pipeline straight off the
//! `dataset.store` file: batches of whole probes are decoded, classified,
//! and dropped, so peak memory stays near the retained analyzable probes
//! instead of the dataset. The report is byte-identical to the
//! materialized path's. Either way the process's peak RSS is printed to
//! stderr on exit (`peak_rss_bytes: N`) so CI can assert a memory ceiling.
//!
//! `--tier NAME` (s005|s02|paper|10x|100x) is self-contained: instead of
//! reading `--data`, it simulates the named tier in-process (seeded by
//! `--seed`, default 11) into a scratch store file and analyzes that —
//! the one-command way to drive the full pipeline at any rung.
//!
//! `--trace FILE` writes a JSONL observability sidecar (spans, metrics,
//! heartbeats, executor stats). Tracing is strictly off the output path:
//! the report bytes are identical with and without it. `DYNADDR_LOG`
//! (error|warn|info|debug) sets the stderr log level. A missing or
//! malformed flag value exits 2 with the usage line.

use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_atlas::sim::{simulate_to_store, SimOptions};
use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_bench::flag_value;
use dynaddr_core::pipeline::{analyze, analyze_streamed, AnalysisConfig, AnalysisReport};
use dynaddr_core::report::render_full;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_obs::{error, info, warn};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: analyze --data DIR [--report FILE] [--json FILE] [--threads N] \
                     [--recover] [--streamed] [--trace FILE]\n\
       analyze --tier NAME [--seed N] [--streamed] [--trace FILE] [...]";

fn main() {
    let mut data: Option<PathBuf> = None;
    let mut tier: Option<String> = None;
    let mut seed: u64 = 11;
    let mut report_file: Option<PathBuf> = None;
    let mut json_file: Option<PathBuf> = None;
    let mut recover = false;
    let mut streamed = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--data" => data = Some(flag_value(&mut args, "--data", USAGE)),
            "--tier" => tier = Some(flag_value(&mut args, "--tier", USAGE)),
            "--seed" => seed = flag_value(&mut args, "--seed", USAGE),
            "--streamed" => streamed = true,
            "--report" => report_file = Some(flag_value(&mut args, "--report", USAGE)),
            "--json" => json_file = Some(flag_value(&mut args, "--json", USAGE)),
            "--trace" => {
                dynaddr_bench::init_trace_or_exit(&flag_value::<PathBuf>(
                    &mut args, "--trace", USAGE,
                ));
            }
            "--recover" => recover = true,
            // Overrides the DYNADDR_THREADS environment variable.
            "--threads" => {
                dynaddr_exec::set_threads(Some(flag_value(&mut args, "--threads", USAGE)))
            }
            other => {
                error!("unknown argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // --tier simulates its own dataset; --data reads one. Exactly one.
    let (report, as_names): (AnalysisReport, BTreeMap<u32, String>) = match (tier, data) {
        (Some(_), Some(_)) => {
            error!("--tier and --data are mutually exclusive");
            std::process::exit(2);
        }
        (None, None) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        (Some(name), None) => run_tier(&name, seed, streamed, recover),
        (None, Some(dir)) => run_data_dir(&dir, streamed, recover),
    };

    let text = render_full(&report, &as_names);
    println!("{text}");
    if let Some(path) = report_file {
        std::fs::write(&path, &text).expect("write report");
        info!("wrote {}", path.display());
    }
    if let Some(path) = json_file {
        std::fs::write(&path, serde_json::to_string_pretty(&report).expect("serializes"))
            .expect("write json");
        info!("wrote {}", path.display());
    }
    dynaddr_bench::emit_exec_stats_event();
    dynaddr_obs::flush_trace();
    dynaddr_obs::disable_trace();
    // Machine-readable memory footprint (CI asserts a ceiling on it).
    // Raw eprintln on purpose: ci.sh greps this exact line.
    eprintln!("peak_rss_bytes: {}", dynaddr_bench::peak_rss_bytes());
}

/// Self-contained tier mode: simulate the named tier to a scratch store
/// file, then analyze it (streamed or materialized).
fn run_tier(
    name: &str,
    seed: u64,
    streamed: bool,
    recover: bool,
) -> (AnalysisReport, BTreeMap<u32, String>) {
    if recover {
        error!("--tier simulates a fresh store file (no --recover)");
        std::process::exit(2);
    }
    let Some(scale) = dynaddr_bench::tier_scale(name) else {
        error!(
            "unknown tier {name:?} (want {})",
            dynaddr_bench::TIER_NAMES.join("|")
        );
        std::process::exit(2);
    };
    let world = paper_world(scale, seed);
    let snaps = paper_route_tables(&world);
    let dir = std::env::temp_dir().join(format!(
        "dynaddr-analyze-tier-{}-{}",
        name,
        std::process::id()
    ));
    let store_path = dir.join("dataset.store");
    let mut cfg =
        AnalysisConfig { fig3_min_years: 3.0 * scale.min(1.0), ..AnalysisConfig::default() };
    // Every failure below still reaches the scratch-directory cleanup.
    let report = (|| -> Result<AnalysisReport, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        info!("simulating tier {name} (scale {scale}, seed {seed}) to {}...", store_path.display());
        let (truth, _stats) = simulate_to_store(&world, &SimOptions::default(), &store_path)
            .map_err(|e| format!("tier simulation failed: {e}"))?;
        cfg.as_names =
            truth.isp_policies.iter().map(|(asn, p)| (*asn, p.name.clone())).collect();
        if streamed {
            info!("streaming {}...", store_path.display());
            analyze_streamed(&store_path, &snaps, &cfg)
                .map_err(|e| format!("streamed analyze failed: {e}"))
        } else {
            let dataset = AtlasDataset::load_dir(&dir)
                .map_err(|e| format!("failed to load tier dataset: {e}"))?;
            info!(
                "analyzing {} probes / {} connection entries...",
                dataset.meta.len(),
                dataset.connections.len()
            );
            Ok(analyze(&dataset, &snaps, &cfg))
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let report = report.unwrap_or_else(|e| {
        error!("{e}");
        std::process::exit(1);
    });
    (report, cfg.as_names)
}

/// Classic mode: load the dataset and snapshots from a directory.
fn run_data_dir(
    dir: &Path,
    streamed: bool,
    recover: bool,
) -> (AnalysisReport, BTreeMap<u32, String>) {
    let snaps = MonthlySnapshots::load_dir(&dir.join("ip2as")).unwrap_or_else(|e| {
        error!("failed to load ip2as snapshots: {e}");
        std::process::exit(1);
    });
    let mut cfg = AnalysisConfig::default();
    if let Ok(names) = std::fs::read_to_string(dir.join("names.json")) {
        match serde_json::from_str::<BTreeMap<u32, String>>(&names) {
            Ok(parsed) => cfg.as_names = parsed,
            // A missing names file is normal; a present-but-broken one
            // deserves a warning instead of silently unnamed ASNs.
            Err(e) => warn!(
                "ignoring unparseable {}: {e}",
                dir.join("names.json").display()
            ),
        }
    }

    if streamed {
        // Out-of-core: batches stream off dataset.store, the dataset is
        // never materialized. Recovery needs the batch loader — reject the
        // combination instead of quietly ignoring it.
        if recover {
            error!("--streamed cannot skip corrupt segments (no --recover)");
            std::process::exit(2);
        }
        let store_path = dir.join("dataset.store");
        info!("streaming {}...", store_path.display());
        let report = analyze_streamed(&store_path, &snaps, &cfg).unwrap_or_else(|e| {
            error!("streamed analyze failed: {e}");
            std::process::exit(1);
        });
        (report, cfg.as_names)
    } else {
        info!("loading dataset from {}...", dir.display());
        let load_result = if recover {
            AtlasDataset::load_dir_recover(dir).map(|(ds, report)| {
                if !report.is_clean() {
                    warn!("recover: {report}");
                }
                ds
            })
        } else {
            AtlasDataset::load_dir(dir)
        };
        let dataset = load_result.unwrap_or_else(|e| {
            error!("failed to load dataset: {e}");
            std::process::exit(1);
        });
        info!(
            "analyzing {} probes / {} connection entries...",
            dataset.meta.len(),
            dataset.connections.len()
        );
        let report = analyze(&dataset, &snaps, &cfg);
        (report, cfg.as_names)
    }
}
