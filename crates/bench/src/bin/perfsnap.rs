//! `perfsnap` — the streamed scale ladder and the trace-overhead gate.
//!
//! Usage:
//!   perfsnap [--seed N] [--tiers LIST] [--out FILE]
//!
//! Climbs the streamed scale ladder: for each named tier in `--tiers`
//! (comma-separated, default `s005,s02,paper`, `none` to skip) it
//! re-executes itself in a child process that runs the out-of-core
//! pipeline end-to-end (`simulate_to_store` → `analyze_streamed`) and
//! reports throughput and peak RSS. One process per tier because the RSS
//! high-water mark is process-wide and monotone — in-process tiers would
//! inherit their predecessors' peaks.
//!
//! Before the ladder it measures what `--trace` costs
//! (`trace_overhead_pct`): the median difference over [`OVERHEAD_PAIRS`]
//! pairs of untraced and traced `analyze` runs of the s005 world, on one
//! executor thread. Tracing is budgeted at 2% wall-clock — perfsnap exits
//! 1 (after writing the snapshot) if the overhead is above budget and the
//! absolute delta exceeds 10 ms, so sub-millisecond jitter on fast
//! machines cannot flake the check.
//!
//! The snapshot (`--out`, default `BENCH_pipeline.json` at the repository
//! root) holds the overhead and the ladder. `--seed` (default 11) seeds
//! every world. The end-to-end and per-layer numbers of each user-facing
//! path come from the repository benchmark, `python3 perfbench/run.py`.

use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_atlas::{simulate, simulate_to_store, SimOptions};
use dynaddr_bench::{flag_value, peak_rss_bytes, tier_scale, TIER_NAMES};
use dynaddr_core::pipeline::{analyze, analyze_streamed, AnalysisConfig};
use dynaddr_core::stats::median;
use dynaddr_obs::{error, info};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: perfsnap [--seed N] [--tiers LIST] [--out FILE]";

/// Untraced/traced `analyze` pairs behind `trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 15;

/// End-to-end streamed run of one named tier, measured in its own process.
#[derive(Serialize, Deserialize)]
struct TierResult {
    tier: String,
    scale: f64,
    /// Worker threads the tier child's executor ran with
    /// (`DYNADDR_THREADS`, else the host's parallelism).
    threads: usize,
    /// Probes the tier's world produced.
    probes: u64,
    /// Wall seconds for `simulate_to_store` (shards stream to disk).
    simulate_s: f64,
    /// Wall seconds for `analyze_streamed` off the store file.
    analyze_s: f64,
    /// probes / (simulate_s + analyze_s): end-to-end pipeline throughput.
    probes_per_sec: f64,
    /// The tier process's peak RSS in bytes (VmHWM; 0 off-Linux).
    peak_rss_bytes: u64,
}

#[derive(Serialize)]
struct Snapshot {
    /// Traced-vs-untraced `analyze` at s005 scale on one executor thread,
    /// percent of wall-clock (median of paired differences; budget is 2%).
    trace_overhead_pct: f64,
    /// The streamed scale ladder, one isolated process per tier.
    tiers: Vec<TierResult>,
}

/// `--tier-child NAME SEED` mode: run one tier's streamed pipeline
/// end-to-end and print its `TierResult` as JSON on stdout. Runs in a
/// fresh process so `peak_rss_bytes` reflects this tier alone.
fn run_tier_child(name: &str, seed: u64) -> ! {
    let scale = tier_scale(name).unwrap_or_else(|| {
        error!(
            "unknown tier {name:?} (want one of {})",
            TIER_NAMES.join(", ")
        );
        std::process::exit(2);
    });
    let world = paper_world(scale, seed);
    let snaps = paper_route_tables(&world);
    let dir = std::env::temp_dir().join(format!("dynaddr-perfsnap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("dataset.store");

    let t0 = Instant::now();
    simulate_to_store(&world, &SimOptions::default(), &path).expect("streamed simulate");
    let simulate_s = t0.elapsed().as_secs_f64();

    let probes = dynaddr_atlas::DatasetStream::open(&path)
        .expect("reopen store")
        .total_probes();
    let t1 = Instant::now();
    let report =
        analyze_streamed(&path, &snaps, &AnalysisConfig::default()).expect("streamed analyze");
    let analyze_s = t1.elapsed().as_secs_f64();
    std::hint::black_box(&report);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    let total = simulate_s + analyze_s;
    let result = TierResult {
        tier: name.to_string(),
        scale,
        threads: dynaddr_exec::current_threads(),
        probes,
        simulate_s,
        analyze_s,
        probes_per_sec: if total > 0.0 {
            probes as f64 / total
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("tier result serializes")
    );
    std::process::exit(0);
}

fn main() {
    let mut seed = 11u64;
    let mut out: Option<PathBuf> = None;
    let mut ladder: Vec<String> = vec!["s005".into(), "s02".into(), "paper".into()];
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiers" => {
                let list: String = flag_value(&mut args, "--tiers", USAGE);
                ladder = if list == "none" {
                    Vec::new()
                } else {
                    list.split(',').map(str::to_string).collect()
                };
                for name in &ladder {
                    if tier_scale(name).is_none() {
                        error!(
                            "unknown tier {name:?} (want one of {})",
                            TIER_NAMES.join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => seed = flag_value(&mut args, "--seed", USAGE),
            "--out" => out = Some(flag_value(&mut args, "--out", USAGE)),
            // Internal: one ladder rung, isolated for clean RSS numbers.
            "--tier-child" => {
                let name: String = flag_value(&mut args, "--tier-child", USAGE);
                let seed = flag_value(&mut args, "--tier-child", USAGE);
                run_tier_child(&name, seed);
            }
            other => {
                error!("unknown argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
    });

    let trace_overhead = measure_trace_overhead(seed);
    info!(
        "trace overhead: {:+.2}% ({:+.3} ms) of untraced analyze at s005",
        trace_overhead.pct, trace_overhead.delta_ms
    );

    // The streamed scale ladder: one child process per tier so each
    // peak-RSS number is that tier's alone.
    let exe = std::env::current_exe().expect("current exe");
    let mut tiers = Vec::new();
    for name in &ladder {
        info!("tier {name} (streamed, isolated process)...");
        let child = std::process::Command::new(&exe)
            .args(["--tier-child", name, &seed.to_string()])
            .output()
            .expect("spawn tier child");
        if !child.status.success() {
            error!(
                "tier {name} failed:\n{}",
                String::from_utf8_lossy(&child.stderr)
            );
            continue;
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let res: TierResult =
            serde_json::from_str(stdout.trim()).expect("tier child prints a TierResult");
        info!(
            "tier {name}: {} probes, {:.0} probes/s, peak rss {:.1} MiB",
            res.probes,
            res.probes_per_sec,
            res.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
        tiers.push(res);
    }

    let snap = Snapshot {
        trace_overhead_pct: trace_overhead.pct,
        tiers,
    };
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write snapshot");
    println!("{json}");
    info!("wrote {}", out.display());

    // The gate runs after the snapshot is on disk, so a failed gate still
    // leaves the measurement recorded.
    if trace_overhead.pct > 2.0 && trace_overhead.delta_ms > 10.0 {
        error!(
            "tracing overhead {:.2}% ({:.1} ms) exceeds the 2% budget",
            trace_overhead.pct, trace_overhead.delta_ms
        );
        std::process::exit(1);
    }
}

/// Result of the traced-vs-untraced comparison.
struct TraceOverhead {
    /// `delta_ms` over the median untraced wall time, percent. Negative
    /// means noise.
    pct: f64,
    /// Median over the pairs of traced − untraced wall time, milliseconds.
    delta_ms: f64,
}

/// Measure what tracing costs: [`OVERHEAD_PAIRS`] pairs of `analyze` runs
/// at the s005 scale, each an untraced run followed at once by a traced
/// one that streams to a scratch sidecar (deleted afterwards). The
/// overhead is the median of the pairs' differences: the two runs of a
/// pair share the host's state of the moment, so drift cancels within a
/// pair, and the median drops the pairs a burst of noise split. A
/// difference of two best-of-column minima does neither.
///
/// Every run uses one executor thread. Spans, counters and histograms
/// record whether or not a sidecar is open, so tracing adds only the
/// sidecar writes (heartbeats, mirrored log lines), and those are the
/// same calls on one thread as on many. Pinning the thread count takes
/// the scheduler's placement of a second worker out of the reading.
fn measure_trace_overhead(seed: u64) -> TraceOverhead {
    let world = paper_world(0.05, seed);
    let sim_out = simulate(&world);
    let snaps = paper_route_tables(&world);
    let cfg = AnalysisConfig::default();
    let scratch = std::env::temp_dir().join(format!(
        "dynaddr-perfsnap-overhead-{}.jsonl",
        std::process::id()
    ));
    let timed_analyze = || {
        let t = Instant::now();
        std::hint::black_box(analyze(&sim_out.dataset, &snaps, &cfg));
        t.elapsed().as_secs_f64() * 1e3
    };
    dynaddr_exec::set_threads(Some(1));
    // Untimed first run: every timed run starts from the same warm heap.
    timed_analyze();
    let (mut untraced, mut extra) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        let off = timed_analyze();
        dynaddr_bench::init_trace_or_exit(&scratch);
        let on = timed_analyze();
        dynaddr_obs::disable_trace();
        untraced.push(off);
        extra.push(on - off);
    }
    dynaddr_exec::set_threads(None);
    let _ = std::fs::remove_file(&scratch);
    let base_ms = median(&untraced).expect("at least one pair");
    let delta_ms = median(&extra).expect("at least one pair");
    TraceOverhead {
        pct: if base_ms > 0.0 {
            delta_ms / base_ms * 100.0
        } else {
            0.0
        },
        delta_ms,
    }
}
