//! `analyze` — run the paper's full pipeline over a dataset directory.
//!
//! Usage:
//!   analyze --data DIR [--report FILE] [--json FILE] [--threads N]
//!           [--recover] [--streamed] [--trace FILE]
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
//! `--trace FILE` writes a JSONL observability sidecar (spans, metrics,
//! heartbeats, executor stats). Tracing is strictly off the output path:
//! the report bytes are identical with and without it. `DYNADDR_LOG`
//! (error|warn|info|debug) sets the stderr log level. A missing or
//! malformed flag value exits 2 with the usage line.

use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_bench::flag_value;
use dynaddr_core::pipeline::{analyze, analyze_streamed, AnalysisConfig, AnalysisReport};
use dynaddr_core::report::render_full;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_obs::{error, info, warn};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: analyze --data DIR [--report FILE] [--json FILE] [--threads N] \
                     [--recover] [--streamed] [--trace FILE]";

fn main() {
    let mut data: Option<PathBuf> = None;
    let mut report_file: Option<PathBuf> = None;
    let mut json_file: Option<PathBuf> = None;
    let mut recover = false;
    let mut streamed = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--data" => data = Some(flag_value(&mut args, "--data", USAGE)),
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

    let Some(dir) = data else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let (report, as_names) = run_data_dir(&dir, streamed, recover);

    let text = render_full(&report, &as_names);
    println!("{text}");
    if let Some(path) = report_file {
        std::fs::write(&path, &text).expect("write report");
        info!("wrote {}", path.display());
    }
    if let Some(path) = json_file {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("serializes"),
        )
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

/// Loads the snapshots and names from `dir` and analyzes its dataset.
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
