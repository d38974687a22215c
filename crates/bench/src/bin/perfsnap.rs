//! `perfsnap` — committed performance snapshot for the parallel pipeline.
//!
//! Usage:
//!   perfsnap [--scale S | --tier NAME] [--seed N] [--iters K] [--out FILE]
//!            [--tiers LIST] [--lookups N] [--trace FILE]
//!
//! Times the simulator and each pipeline stage at the default
//! `paper_world(0.05, 11)` twice — once pinned to one thread, once at the
//! machine's full parallelism — and writes the comparison to
//! `BENCH_pipeline.json` at the repository root (best of K iterations per
//! cell). The snapshot records whatever the build machine offers; speedups
//! are only meaningful when `max_threads > 1`.
//!
//! It then climbs the streamed scale ladder: for each named tier in
//! `--tiers` (comma-separated, default `s005,s02,paper`, `none` to skip)
//! it re-executes itself in a child process that runs the out-of-core
//! pipeline end-to-end (`simulate_to_store` → `analyze_streamed`) and
//! reports throughput and peak RSS. One process per tier because the RSS
//! high-water mark is process-wide and monotone — in-process tiers would
//! inherit their predecessors' peaks.
//!
//! The snapshot also records the executor's per-worker task counts for the
//! max-thread run (`exec_stats`) and the measured cost of tracing
//! (`trace_overhead_pct`): traced and untraced `analyze` runs at the s005
//! scale, interleaved best-of-K. Tracing is budgeted at 2% wall-clock —
//! perfsnap exits nonzero (after writing the snapshot) if the overhead is
//! above budget and the absolute delta exceeds 10 ms, so sub-millisecond
//! jitter on fast machines cannot flake the check. `--trace FILE` writes
//! the usual JSONL sidecar for the snapshot run itself; the warm-up pass
//! appears there as an explicit `warmup: true` span, and the ladder's tier
//! children always run untraced.
//!
//! The `query` section benchmarks the serving layer (`dynaddr-query`): a
//! fresh cache-cold `QueryEngine` over the snapshot's own dataset answers
//! `--lookups` seeded zipf-skewed requests at 1, 2, and ambient thread
//! counts, recording throughput, cache hit rate, and latency quantiles.
//! Each run folds its responses into an order-independent digest; perfsnap
//! exits nonzero (after writing the snapshot) if the digests differ across
//! thread counts — the cheap, always-on form of the crate's determinism
//! tests — or if the ambient run's cache hit rate falls below 80%.
//!
//! The `ingest` section benchmarks the live path (`dynaddr-daemon`): an
//! in-process daemon replays the snapshot's own dataset at max rate while
//! a concurrent client hammers rolling `DaemonSnapshot` point queries,
//! recording replay throughput (rows/sec) and point-query latency
//! quantiles under ingest. The sealed report is compared against the
//! batch analyzer's; perfsnap exits nonzero (after writing the snapshot)
//! if they differ by even one byte.

use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_atlas::{simulate, simulate_to_store, simulate_with_options, SimOptions, SimOutput};
use dynaddr_bench::{peak_rss_bytes, tier_scale, TIER_NAMES};
use dynaddr_obs::{error, info, span};
use dynaddr_core::filtering::filter_probes;
use dynaddr_core::geo::continent_distributions;
use dynaddr_core::periodic::{table5, PeriodicConfig};
use dynaddr_core::pipeline::{analyze, analyze_streamed, outage_analysis, AnalysisConfig};
use dynaddr_core::prefixes::prefix_changes;
use dynaddr_ip2as::MonthlySnapshots;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct StageTiming {
    stage: &'static str,
    /// Worker threads of the first column (always 1).
    threads_1: usize,
    /// Worker threads of the second column (the host's parallelism).
    threads_max: usize,
    ms_threads_1: f64,
    ms_threads_max: f64,
    speedup: f64,
}

/// One thread-count run of the query-serving benchmark.
#[derive(Serialize)]
struct QueryStage {
    /// Worker threads driving the engine.
    threads: usize,
    /// Requests answered.
    lookups: u64,
    /// Requests answered per wall-clock second.
    lookups_per_sec: f64,
    /// Segment-cache hit rate over the run (cold start).
    cache_hit_rate: f64,
    /// Median per-request latency, microseconds (log2-bucket upper bound).
    latency_p50_us: u64,
    /// 99th-percentile per-request latency, microseconds.
    latency_p99_us: u64,
    /// Order-independent digest of all response bytes; must match across
    /// thread counts.
    digest: String,
}

/// The live-ingestion benchmark: an in-process daemon replays the
/// snapshot's own dataset at max rate under concurrent point queries.
#[derive(Serialize)]
struct IngestStage {
    /// Rows replayed (probe metadata plus every stream row).
    rows: u64,
    /// Wall seconds for the full replay at max rate.
    replay_s: f64,
    /// rows / replay_s: live-ingestion throughput.
    replay_rows_per_sec: f64,
    /// Rolling `DaemonSnapshot` queries answered while the replay ran.
    point_queries: u64,
    /// Median point-query latency under ingest, nanoseconds — the call is
    /// in-process, so sub-microsecond (log2-bucket upper bound).
    point_p50_ns: u64,
    /// 99th-percentile point-query latency under ingest, nanoseconds.
    point_p99_ns: u64,
    /// The daemon's sealed report is byte-identical to the batch
    /// analyzer's — the snapshot's always-on replay-equivalence check.
    sealed_matches_batch: bool,
}

#[derive(Serialize)]
struct QueueSnapshot {
    /// Events pushed across all shard queues.
    pushes: u64,
    /// Events popped across all shard queues.
    pops: u64,
    /// Largest pending-event count of any single shard queue.
    max_queue_len: usize,
    /// Pushes that landed in the overflow (past-the-span) region.
    overflow_hits: u64,
    /// Calendar bucket-width halvings triggered by occupancy skew.
    resizes: u64,
    /// Events in the busiest shard over the per-shard mean (1.0 = perfect).
    shard_balance: f64,
    /// Median pending-event count at push time (log2-bucket upper bound).
    occupancy_p50: u64,
    /// 99th-percentile pending-event count at push time.
    occupancy_p99: u64,
}

/// The executor's cumulative stats over the max-thread timing run.
#[derive(Serialize)]
struct ExecSnapshot {
    /// Worker threads the run was pinned to.
    workers: usize,
    /// Parallel regions entered (par_map/par_fold/par_run calls).
    regions: u64,
    /// Regions that took the sequential fast path.
    sequential_regions: u64,
    /// Items processed across all regions.
    tasks: u64,
    /// Items processed per worker slot (slot = chunk index).
    tasks_per_worker: Vec<u64>,
    /// Mean spawn-to-start latency per spawned worker, milliseconds.
    queue_wait_ms: f64,
    /// Σ busy time / (Σ region wall × slots): 1.0 = perfectly balanced.
    utilization: f64,
}

#[derive(Serialize)]
struct DiskSizes {
    /// The dataset as one columnar `dataset.store` file.
    store_bytes: usize,
}

/// End-to-end streamed run of one named tier, measured in its own process.
#[derive(Serialize, Deserialize)]
struct TierResult {
    tier: String,
    scale: f64,
    /// Worker threads the tier child ran with (its ambient parallelism).
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
    scale: f64,
    /// Named tier `--tier` selected ("" when `--scale` was given).
    tier: String,
    seed: u64,
    iters: usize,
    /// Cores the build host offered — the snapshot's thread-max runs used
    /// all of them, and speedups are only meaningful when this exceeds 1.
    max_threads: usize,
    /// Shards the simulator partitioned the world into (thread-independent).
    sim_shards: usize,
    /// Event-queue telemetry of one simulation (thread-independent).
    sim_queue: QueueSnapshot,
    /// On-disk size of the dataset (thread-independent).
    dataset_bytes: DiskSizes,
    /// Peak RSS of the snapshot process itself (all materialized stage
    /// timings included; bytes, 0 off-Linux).
    peak_rss_bytes: u64,
    /// Executor telemetry from the max-thread timing run.
    exec_stats: ExecSnapshot,
    /// Traced-vs-untraced `analyze` at s005 scale, percent of wall-clock
    /// (interleaved best-of; budget is 2%).
    trace_overhead_pct: f64,
    stages: Vec<StageTiming>,
    /// The query-serving benchmark, one cache-cold run per thread count.
    query: Vec<QueryStage>,
    /// The live-ingestion benchmark: daemon replay under point queries.
    ingest: IngestStage,
    /// The streamed scale ladder, one isolated process per tier.
    tiers: Vec<TierResult>,
}

/// `--tier-child NAME SEED` mode: run one tier's streamed pipeline
/// end-to-end and print its `TierResult` as JSON on stdout. Runs in a
/// fresh process so `peak_rss_bytes` reflects this tier alone.
fn run_tier_child(name: &str, seed: u64) -> ! {
    let scale = tier_scale(name).unwrap_or_else(|| {
        error!("unknown tier {name:?} (want one of {})", TIER_NAMES.join(", "));
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
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        probes,
        simulate_s,
        analyze_s,
        probes_per_sec: if total > 0.0 { probes as f64 / total } else { 0.0 },
        peak_rss_bytes: peak_rss_bytes(),
    };
    println!("{}", serde_json::to_string(&result).expect("tier result serializes"));
    std::process::exit(0);
}

fn main() {
    let mut scale = 0.05f64;
    let mut tier = String::new();
    let mut seed = 11u64;
    let mut iters = 3usize;
    let mut lookups = 1_000_000u64;
    let mut out: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut ladder: Vec<String> = vec!["s005".into(), "s02".into(), "paper".into()];
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args.next().expect("--scale value").parse().expect("numeric");
                tier.clear();
            }
            "--tier" => {
                tier = args.next().expect("--tier name");
                scale = tier_scale(&tier).unwrap_or_else(|| {
                    error!("unknown tier {tier:?} (want one of {})", TIER_NAMES.join(", "));
                    std::process::exit(2);
                });
            }
            "--tiers" => {
                let list = args.next().expect("--tiers list");
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
            "--seed" => seed = args.next().expect("--seed value").parse().expect("numeric"),
            "--iters" => iters = args.next().expect("--iters value").parse().expect("numeric"),
            "--lookups" => {
                lookups = args.next().expect("--lookups value").parse().expect("numeric")
            }
            "--out" => out = Some(PathBuf::from(args.next().expect("--out file"))),
            // Deferred: the trace-overhead measurement must run with its own
            // scratch sink first, so the user's sidecar opens after it.
            "--trace" => trace = Some(PathBuf::from(args.next().expect("--trace file"))),
            // Internal: one ladder rung, isolated for clean RSS numbers.
            "--tier-child" => {
                let name = args.next().expect("--tier-child name");
                let seed = args
                    .next()
                    .expect("--tier-child seed")
                    .parse()
                    .expect("numeric tier seed");
                run_tier_child(&name, seed);
            }
            other => {
                error!("unknown argument {other}");
                eprintln!(
                    "usage: perfsnap [--scale S | --tier NAME] [--seed N] [--iters K] \
                     [--out FILE] [--tiers LIST] [--lookups N] [--trace FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
    });

    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    info!("perfsnap: paper_world({scale}, {seed}), 1 vs {max_threads} threads, best of {iters}");

    // Trace overhead first, against a scratch sink — the user's sidecar (if
    // any) must not open until this sink has been torn down.
    let trace_overhead = measure_trace_overhead(seed, iters);
    info!(
        "trace overhead: {:+.2}% ({:+.3} ms) of untraced analyze at s005",
        trace_overhead.pct, trace_overhead.delta_ms
    );
    if let Some(path) = &trace {
        dynaddr_bench::init_trace_or_exit(path);
    }

    let world = paper_world(scale, seed);
    let sim_out = simulate(&world);
    let snaps = paper_route_tables(&world);

    // Warm-up: one untimed full pass so both thread columns measure
    // against the same steady-state allocator. Without it the second
    // column inherits a heap the first column grew, which skews every
    // millisecond-scale stage toward "regression". The span marks it (and
    // everything inside) `warmup: true` in the trace sidecar so readers
    // never mistake it for a measured iteration.
    {
        let _warm = span("warmup").warmup();
        std::hint::black_box(simulate_with_options(&world, &SimOptions::default()));
        std::hint::black_box(analyze(
            &sim_out.dataset,
            &snaps,
            &dynaddr_core::pipeline::AnalysisConfig::default(),
        ));
        std::hint::black_box(sim_out.dataset.to_store_bytes());
    }

    let (one, sim_shards, sim_queue) = run_all(&world, &sim_out, &snaps, 1, iters);
    // Executor telemetry is scoped to the max-thread column alone.
    dynaddr_exec::reset_exec_stats();
    let (many, _, _) = run_all(&world, &sim_out, &snaps, max_threads, iters);
    let es = dynaddr_exec::exec_stats();
    let exec_stats = ExecSnapshot {
        workers: max_threads,
        regions: es.regions,
        sequential_regions: es.sequential_regions,
        tasks: es.tasks,
        tasks_per_worker: es.tasks_per_worker.clone(),
        queue_wait_ms: es.queue_wait_ms(),
        utilization: es.utilization(),
    };
    dynaddr_exec::set_threads(None);

    let dataset_bytes = DiskSizes { store_bytes: sim_out.dataset.to_store_bytes().len() };

    let stages = one
        .into_iter()
        .zip(many)
        .map(|((stage, ms1), (_, msn))| StageTiming {
            stage,
            threads_1: 1,
            threads_max: max_threads,
            ms_threads_1: ms1,
            ms_threads_max: msn,
            speedup: if msn > 0.0 { ms1 / msn } else { 0.0 },
        })
        .collect();

    // The query-serving benchmark: cache-cold engine per thread count over
    // this snapshot's own dataset and truth.
    let query = run_query_bench(&sim_out, &snaps, seed, lookups, max_threads);

    // The live-ingestion benchmark: replay this snapshot's dataset through
    // the daemon's incremental machines under concurrent point queries.
    let ingest = run_ingest_bench(&sim_out, &snaps);

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
            error!("tier {name} failed:\n{}", String::from_utf8_lossy(&child.stderr));
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
        scale,
        tier,
        seed,
        iters,
        max_threads,
        sim_shards,
        sim_queue,
        dataset_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        exec_stats,
        trace_overhead_pct: trace_overhead.pct,
        stages,
        query,
        ingest,
        tiers,
    };
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write snapshot");
    println!("{json}");
    info!("wrote {}", out.display());
    dynaddr_bench::emit_exec_stats_event();
    dynaddr_obs::flush_trace();
    dynaddr_obs::disable_trace();

    // Budget and correctness gates run after the snapshot is on disk, so a
    // failed gate still leaves the measurement recorded. The 10 ms floor
    // keeps scheduler jitter on sub-millisecond stages from flaking CI.
    if trace_overhead.pct > 2.0 && trace_overhead.delta_ms > 10.0 {
        error!(
            "tracing overhead {:.2}% ({:.1} ms) exceeds the 2% budget",
            trace_overhead.pct, trace_overhead.delta_ms
        );
        std::process::exit(1);
    }
    if let Some(first) = snap.query.first() {
        if let Some(bad) = snap.query.iter().find(|q| q.digest != first.digest) {
            error!(
                "query responses diverged: digest {} at {} threads vs {} at {} threads",
                bad.digest, bad.threads, first.digest, first.threads
            );
            std::process::exit(1);
        }
        let ambient = snap.query.last().expect("non-empty");
        if ambient.cache_hit_rate < 0.80 {
            error!(
                "query cache hit rate {:.1}% at {} threads is below the 80% budget",
                ambient.cache_hit_rate * 100.0,
                ambient.threads
            );
            std::process::exit(1);
        }
    }
    if !snap.ingest.sealed_matches_batch {
        error!("daemon replay sealed report diverges from the batch analyzer's");
        std::process::exit(1);
    }
}

/// Replays the snapshot's dataset through an in-process
/// [`dynaddr_daemon::Daemon`] at max rate while one client thread hammers
/// rolling `DaemonSnapshot` point queries, then seals and diffs the
/// report against the batch analyzer's. The query loop shares the
/// daemon's state lock with the ingest path, so the latency quantiles
/// measure exactly what a socket client would see mid-replay (minus wire
/// framing).
fn run_ingest_bench(sim_out: &SimOutput, snaps: &MonthlySnapshots) -> IngestStage {
    use dynaddr_daemon::{Daemon, Rate};
    use std::sync::atomic::{AtomicBool, Ordering};

    let cfg = AnalysisConfig::default();
    let batch = dynaddr_core::report::render_full(
        &analyze(&sim_out.dataset, snaps, &cfg),
        &cfg.as_names,
    );
    let daemon = Daemon::new(snaps.clone(), cfg);
    let done = AtomicBool::new(false);

    let mut latency = dynaddr_obs::Histogram::default();
    let mut point_queries = 0u64;
    let mut replay_s = 0.0f64;
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut hist = dynaddr_obs::Histogram::default();
            let mut n = 0u64;
            while !done.load(Ordering::Acquire) {
                let q0 = Instant::now();
                std::hint::black_box(daemon.snapshot_reply());
                hist.record(q0.elapsed().as_nanos() as u64);
                n += 1;
            }
            (hist, n)
        });
        let t0 = Instant::now();
        daemon.replay(&sim_out.dataset, Rate::Max);
        replay_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let (hist, n) = client.join().expect("point-query thread panicked");
        latency = hist;
        point_queries = n;
    });

    let sealed = daemon.seal_text();
    let counts = daemon.ingest_reply();
    let rows = counts.meta_rows + counts.rows_ingested;
    let stage = IngestStage {
        rows,
        replay_s,
        replay_rows_per_sec: if replay_s > 0.0 { rows as f64 / replay_s } else { 0.0 },
        point_queries,
        point_p50_ns: latency.quantile(0.5),
        point_p99_ns: latency.quantile(0.99),
        sealed_matches_batch: sealed == batch,
    };
    info!(
        "ingest: {} rows in {:.3} s ({:.0} rows/s), {} point queries, \
         p50 {} ns, p99 {} ns, sealed matches batch: {}",
        stage.rows,
        stage.replay_s,
        stage.replay_rows_per_sec,
        stage.point_queries,
        stage.point_p50_ns,
        stage.point_p99_ns,
        stage.sealed_matches_batch
    );
    stage
}

/// Drives `lookups` seeded workload requests through a cache-cold
/// [`dynaddr_query::QueryEngine`] at each thread count (1, 2, ambient —
/// deduplicated). Worker `k` of `t` answers indices `i % t == k`, so
/// every run replays the identical request sequence; responses fold into
/// an order-independent digest for the cross-thread-count identity gate.
fn run_query_bench(
    sim_out: &SimOutput,
    snaps: &MonthlySnapshots,
    seed: u64,
    lookups: u64,
    max_threads: usize,
) -> Vec<QueryStage> {
    use dynaddr_query::workload::splitmix64;
    use dynaddr_query::{proto, EngineOptions, QueryEngine, Workload};

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    let store_bytes = sim_out.dataset.to_store_bytes();
    let mut counts = vec![1usize, 2, max_threads];
    counts.sort_unstable();
    counts.dedup();

    let mut out = Vec::new();
    for threads in counts {
        // Fresh engine per run: the cache starts cold and the hit rate
        // measures this run's warming alone.
        let engine = QueryEngine::from_parts(
            store_bytes.clone(),
            snaps,
            Some(&sim_out.truth),
            &EngineOptions::default(),
        )
        .expect("engine opens over the snapshot dataset");
        let stats = engine.stats();
        let workload = Workload::new(
            seed,
            stats.probes(),
            stats.asns(),
            stats.countries(),
            engine.truth_available(),
        );

        let t0 = Instant::now();
        let mut digest = 0u64;
        let mut latency = dynaddr_obs::Histogram::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let engine = &engine;
                    let workload = &workload;
                    scope.spawn(move || {
                        let mut digest = 0u64;
                        let mut hist = dynaddr_obs::Histogram::default();
                        for i in (worker as u64..lookups).step_by(threads) {
                            let req = workload.request(i);
                            let q0 = Instant::now();
                            let resp = engine.query(&req);
                            hist.record(q0.elapsed().as_micros() as u64);
                            let bytes = proto::to_bytes(&resp);
                            digest ^= splitmix64(fnv1a64(&bytes) ^ i);
                        }
                        (digest, hist)
                    })
                })
                .collect();
            for h in handles {
                let (d, hist) = h.join().expect("query worker panicked");
                digest ^= d;
                latency.merge(&hist);
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cache = engine.cache_stats();
        engine.publish_metrics();
        dynaddr_obs::hist_merge("query.latency_us", &latency);
        let stage = QueryStage {
            threads,
            lookups,
            lookups_per_sec: if wall_s > 0.0 { lookups as f64 / wall_s } else { 0.0 },
            cache_hit_rate: cache.hit_rate(),
            latency_p50_us: latency.quantile(0.5),
            latency_p99_us: latency.quantile(0.99),
            digest: format!("{digest:016x}"),
        };
        info!(
            "query @{} threads: {:.0} lookups/s, hit rate {:.1}%, p50 {} µs, p99 {} µs",
            stage.threads,
            stage.lookups_per_sec,
            stage.cache_hit_rate * 100.0,
            stage.latency_p50_us,
            stage.latency_p99_us
        );
        out.push(stage);
    }
    out
}

/// Result of the traced-vs-untraced comparison.
struct TraceOverhead {
    /// (traced − untraced) / untraced, percent. Negative means noise.
    pct: f64,
    /// Traced − untraced best wall time, milliseconds.
    delta_ms: f64,
}

/// Measure what tracing costs: best-of-K `analyze` runs at the s005 scale,
/// traced and untraced iterations interleaved so allocator growth and
/// frequency drift hit both columns alike. The traced column streams to a
/// scratch sidecar that is deleted afterwards; spans buffered during the
/// measurement are marked warm-up so a later `--trace` flush labels them.
fn measure_trace_overhead(seed: u64, iters: usize) -> TraceOverhead {
    let world = paper_world(0.05, seed);
    let sim_out = simulate(&world);
    let snaps = paper_route_tables(&world);
    let cfg = AnalysisConfig::default();
    let scratch = std::env::temp_dir()
        .join(format!("dynaddr-perfsnap-overhead-{}.jsonl", std::process::id()));
    let _warm = span("trace_overhead").warmup();
    // Untimed first pass: both columns start from the same warm heap.
    std::hint::black_box(analyze(&sim_out.dataset, &snaps, &cfg));
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters.max(3) {
        let t0 = Instant::now();
        std::hint::black_box(analyze(&sim_out.dataset, &snaps, &cfg));
        best_off = best_off.min(t0.elapsed().as_secs_f64() * 1e3);

        dynaddr_bench::init_trace_or_exit(&scratch);
        let t1 = Instant::now();
        std::hint::black_box(analyze(&sim_out.dataset, &snaps, &cfg));
        let on = t1.elapsed().as_secs_f64() * 1e3;
        // Close without flushing: buffered spans stay for the real run's
        // sidecar; the scratch file only sees streamed events.
        dynaddr_obs::disable_trace();
        best_on = best_on.min(on);
    }
    let _ = std::fs::remove_file(&scratch);
    let delta_ms = best_on - best_off;
    TraceOverhead {
        pct: if best_off > 0.0 { delta_ms / best_off * 100.0 } else { 0.0 },
        delta_ms,
    }
}

/// Best-of-`iters` wall time in milliseconds for every stage at `threads`,
/// plus the simulator's shard count and queue telemetry.
fn run_all(
    world: &dynaddr_atlas::config::WorldConfig,
    sim_out: &SimOutput,
    snaps: &MonthlySnapshots,
    threads: usize,
    iters: usize,
) -> (Vec<(&'static str, f64)>, usize, QueueSnapshot) {
    dynaddr_exec::set_threads(Some(threads));
    let dataset = &sim_out.dataset;
    let probes = filter_probes(dataset, snaps).probes;
    let cfg = dynaddr_core::pipeline::AnalysisConfig::default();
    let mut results = Vec::new();

    // The simulate stage reports its total plus the instrumented sub-stage
    // breakdown (world build vs event loop vs filler vs normalize), each
    // best-of-iters.
    let mut sim_shards = 0usize;
    let mut sim_queue = QueueSnapshot {
        pushes: 0,
        pops: 0,
        max_queue_len: 0,
        overflow_hits: 0,
        resizes: 0,
        shard_balance: 1.0,
        occupancy_p50: 0,
        occupancy_p99: 0,
    };
    {
        let mut best_total = f64::INFINITY;
        let (mut best_build, mut best_ev, mut best_fill, mut best_norm) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..iters {
            let t0 = Instant::now();
            let (out, stats) = simulate_with_options(world, &SimOptions::default());
            let total = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            best_total = best_total.min(total);
            best_build = best_build.min(stats.world_build_s * 1e3);
            best_ev = best_ev.min(stats.event_loop_s * 1e3);
            best_fill = best_fill.min(stats.filler_s * 1e3);
            best_norm = best_norm.min(stats.normalize_s * 1e3);
            sim_shards = stats.shards;
            sim_queue = QueueSnapshot {
                pushes: stats.queue.pushes,
                pops: stats.queue.pops,
                max_queue_len: stats.queue.max_queue_len,
                overflow_hits: stats.queue.overflow_hits,
                resizes: stats.queue.resizes,
                shard_balance: stats.shard_balance(),
                occupancy_p50: stats.queue.occupancy.quantile(0.5),
                occupancy_p99: stats.queue.occupancy.quantile(0.99),
            };
        }
        results.push(("simulate", best_total));
        results.push(("world_build", best_build));
        results.push(("sim_event_loop", best_ev));
        results.push(("sim_filler", best_fill));
        results.push(("sim_normalize", best_norm));
    }

    // Each iteration is a span: the best-of wall time feeds the snapshot,
    // and every iteration lands in the trace sidecar individually.
    let mut time = |stage: &'static str, f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let sp = span(stage);
            f();
            best = best.min(sp.finish_secs() * 1e3);
        }
        results.push((stage, best));
    };

    time("filter_probes", &mut || {
        std::hint::black_box(filter_probes(dataset, snaps));
    });
    time("table5", &mut || {
        std::hint::black_box(table5(&probes, &BTreeMap::new(), &PeriodicConfig::default()));
    });
    time("continent_distributions", &mut || {
        std::hint::black_box(continent_distributions(&probes));
    });
    time("outage_analysis", &mut || {
        std::hint::black_box(outage_analysis(dataset, &probes));
    });
    time("prefix_changes", &mut || {
        std::hint::black_box(prefix_changes(&probes, snaps));
    });
    time("analyze", &mut || {
        std::hint::black_box(analyze(dataset, snaps, &cfg));
    });

    // Serialization stages. The decode stage includes normalize() — the
    // full bytes-to-usable-dataset cost.
    let store = dataset.to_store_bytes();
    time("store_encode", &mut || {
        std::hint::black_box(dataset.to_store_bytes());
    });
    time("store_decode", &mut || {
        std::hint::black_box(
            dynaddr_atlas::AtlasDataset::from_store_bytes(&store).expect("store round-trips"),
        );
    });
    (results, sim_shards, sim_queue)
}
