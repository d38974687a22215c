//! # dynaddr-bench
//!
//! The command-line front of the pipeline: `simulate` writes a dataset
//! directory, `analyze` runs the paper's pipeline over one, `repro`
//! regenerates every table and figure in-process, and `perfsnap` climbs
//! the streamed scale ladder and gates the cost of `--trace`. This
//! library holds what they share. The repository benchmark is
//! `perfbench/`, which drives these binaries.

#![forbid(unsafe_code)]

use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_atlas::{simulate, SimOutput};
use dynaddr_core::pipeline::{analyze, AnalysisConfig, AnalysisReport};
use dynaddr_ip2as::MonthlySnapshots;
use std::collections::BTreeMap;

/// Everything needed to reproduce the paper at one scale.
pub struct Repro {
    /// Simulator output (datasets + ground truth).
    pub out: SimOutput,
    /// Monthly IP-to-AS snapshots.
    pub snaps: MonthlySnapshots,
    /// Analysis configuration with ISP names filled in.
    pub cfg: AnalysisConfig,
    /// The analysis report.
    pub report: AnalysisReport,
}

/// Simulates the paper world at `scale` and runs the full pipeline.
pub fn run_repro(scale: f64, seed: u64) -> Repro {
    let world = paper_world(scale, seed);
    let out = simulate(&world);
    let snaps = paper_route_tables(&world);
    let cfg = analysis_config_for(scale, &out);
    let report = analyze(&out.dataset, &snaps, &cfg);
    Repro { out, snaps, cfg, report }
}

/// The analysis configuration matched to a world scale: ISP display names
/// from ground truth, Fig. 3 time threshold scaled from the paper's 3 years.
pub fn analysis_config_for(scale: f64, out: &SimOutput) -> AnalysisConfig {
    AnalysisConfig {
        fig3_min_years: 3.0 * scale.min(1.0),
        as_names: isp_names(out),
        ..AnalysisConfig::default()
    }
}

/// ISP display names from ground truth (cosmetic only — the pipeline itself
/// never reads ground truth).
pub fn isp_names(out: &SimOutput) -> BTreeMap<u32, String> {
    out.truth
        .isp_policies
        .iter()
        .map(|(asn, p)| (*asn, p.name.clone()))
        .collect()
}

/// Every tier name, in ascending scale order. Peak-RSS measurements are
/// process-wide and monotone, so ladders either run ascending or isolate
/// each tier in its own process (perfsnap does the latter).
pub const TIER_NAMES: [&str; 5] = ["s005", "s02", "paper", "10x", "100x"];

/// World scale for a named tier (`None` for unknown names).
///
/// A *tier* is a named multiple of the paper's deployment (10,977 probes
/// at `paper`): `s005`/`s02` are the small rungs of perfsnap's ladder,
/// `10x`/`100x` stress the streaming pipeline up to ~1.1 M probes.
/// `simulate --tier NAME` is sugar for the corresponding `--scale`.
pub fn tier_scale(name: &str) -> Option<f64> {
    Some(match name {
        "s005" => 0.05,
        "s02" => 0.2,
        "paper" => 1.0,
        "10x" => 10.0,
        "100x" => 100.0,
        _ => return None,
    })
}

/// Peak resident set size of this process in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, 0 on platforms without it. The high-water
/// mark never decreases, so measure the phase of interest in a process
/// that does nothing bigger first. Delegates to `dynaddr-obs`, which also
/// samples live `VmRSS` for heartbeats.
pub fn peak_rss_bytes() -> u64 {
    dynaddr_obs::peak_rss_bytes()
}

/// The value after `flag` on the command line, parsed. A missing or
/// malformed value is a usage error: the message and `usage` go to stderr
/// and the process exits 2.
pub fn flag_value<T>(args: &mut impl Iterator<Item = String>, flag: &str, usage: &str) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let parsed = match args.next() {
        None => Err(format!("{flag} needs a value")),
        Some(v) => v.parse().map_err(|e| format!("{flag} {v:?}: {e}")),
    };
    parsed.unwrap_or_else(|msg| {
        dynaddr_obs::error!("{msg}");
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// Shared `--trace FILE` handling for the bench bins: installs the JSONL
/// sidecar sink, exiting with a message if the file cannot be created.
pub fn init_trace_or_exit(path: &std::path::Path) {
    if let Err(e) = dynaddr_obs::init_trace(path) {
        eprintln!("error: cannot create trace file {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Emit the executor's cumulative stats as one `exec_stats` trace event
/// (no-op when tracing is off) and log a one-line summary at debug level.
pub fn emit_exec_stats_event() {
    let s = dynaddr_exec::exec_stats();
    dynaddr_obs::debug!(
        "exec: {} regions ({} sequential), {} tasks, utilization {:.2}, queue-wait {:.3} ms",
        s.regions,
        s.sequential_regions,
        s.tasks,
        s.utilization(),
        s.queue_wait_ms()
    );
    if !dynaddr_obs::trace_enabled() {
        return;
    }
    dynaddr_obs::emit_event(
        "exec_stats",
        &[
            ("workers", dynaddr_obs::Value::U64(dynaddr_exec::current_threads() as u64)),
            ("regions", dynaddr_obs::Value::U64(s.regions)),
            ("sequential_regions", dynaddr_obs::Value::U64(s.sequential_regions)),
            ("tasks", dynaddr_obs::Value::U64(s.tasks)),
            ("tasks_per_worker", dynaddr_obs::Value::U64s(&s.tasks_per_worker)),
            ("queue_wait_ms", dynaddr_obs::Value::F64(s.queue_wait_ms())),
            ("utilization", dynaddr_obs::Value::F64(s.utilization())),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_known_and_ascending() {
        let scales: Vec<f64> = TIER_NAMES
            .iter()
            .map(|n| tier_scale(n).expect("every listed tier resolves"))
            .collect();
        assert!(scales.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(tier_scale("paper"), Some(1.0));
        assert_eq!(tier_scale("nope"), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // A running test binary has touched at least a page.
            assert!(rss > 0, "VmHWM should parse on Linux, got {rss}");
        }
    }
}
