//! The traced run: every layer timed from outside, through its public
//! calls, in this process.
//!
//! Layers that run inside `queryd` and `dynaddrd` are timed on in-process
//! replicas fed the identical inputs: a `QueryEngine` with the workload's
//! cache budget and request sequence, and a `Daemon` replaying the store
//! while a second thread asks point queries. Each call sits in a span (see
//! [`crate::spans`]); per-layer self times plus the unattributed remainder
//! add up to the traced wall time.

use crate::spans::{self_times, write_jsonl, Recorder};
use crate::stats::{percentile, Latency};
use crate::sys::spawn_until_ready;
use crate::traffic::{encode_frames, records_sweep, Skew, Traffic, Universe};
use crate::workloads::{simulate, Ctx, Outcome, QueryShape, QUERY_HOT};
use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_atlas::sim::{simulate_to_store, SimOptions};
use dynaddr_atlas::world::paper_world;
use dynaddr_atlas::{
    ConnectionLogEntry, DatasetStream, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use dynaddr_core::filter_probes;
use dynaddr_core::live::{replay_plan, ReplayStep};
use dynaddr_core::pipeline::{analyze, analyze_streamed, outage_analysis, AnalysisConfig};
use dynaddr_core::prefixes::prefix_changes;
use dynaddr_core::report::render_full;
use dynaddr_daemon::{Daemon, Rate};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_query::proto::{self, Request, Response};
use dynaddr_query::{CacheConfig, EngineOptions, QueryClient, QueryEngine};
use dynaddr_store::{decode_segment_at, ColumnarRecord, FileReader};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests timed on the query replica and over the wire, per shape.
fn traced_requests(shape: &QueryShape) -> usize {
    match shape.skew {
        Skew::Zipf => 20_000,
        Skew::Uniform => 6_000,
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Decode time per segment of one table, in nanoseconds.
fn decode_table<R: ColumnarRecord>(
    rec: &mut Recorder,
    bytes: &[u8],
    reader: &FileReader<'_>,
    out: &mut Outcome,
) -> Vec<u64> {
    let mut ns = Vec::new();
    for (i, info) in reader
        .segments()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.table == R::TABLE_ID)
    {
        let t = Instant::now();
        let ok = rec.span("store", "decode_segment_at", 0, |_| {
            decode_segment_at::<R>(bytes, i, *info).is_ok()
        });
        ns.push(t.elapsed().as_nanos() as u64);
        out.check(ok, || {
            format!("{} segment {i} failed to decode", R::TABLE_NAME)
        });
    }
    ns
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    percentile(&ns, 50.0) as f64 / 1e3
}

/// The analysis configuration `analyze --data DIR` would use.
fn config_for(dir: &Path) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::default();
    if let Ok(names) = std::fs::read_to_string(dir.join("names.json")) {
        if let Ok(parsed) = serde_json::from_str::<BTreeMap<u32, String>>(&names) {
            cfg.as_names = parsed;
        }
    }
    cfg
}

/// Wall seconds of the pipeline's public calls at the current thread count.
struct PipelineWalls {
    simulate: f64,
    scan: f64,
    streamed: f64,
    load: f64,
    analyze: f64,
}

impl PipelineWalls {
    fn total(&self) -> f64 {
        self.simulate + self.scan + self.streamed + self.load + self.analyze
    }
}

fn scan(store: &Path) -> Result<u64, String> {
    let mut stream = DatasetStream::open(store).map_err(|e| e.to_string())?;
    let mut rows = 0u64;
    while let Some(b) = stream.next_batch().map_err(|e| e.to_string())? {
        rows += (b.connections.len() + b.kroot.len() + b.uptime.len()) as u64;
    }
    Ok(rows)
}

/// The full layer sweep; `shape` picks the query replica's
/// traffic (the `query-hot` shape for the workloads that send no dataset
/// queries).
pub fn traced(ctx: &Ctx, shape: Option<QueryShape>) -> Outcome {
    let mut out = Outcome::default();
    // The dataset directory (ip2as, names, truth) comes from the binary,
    // before the traced wall starts; the in-process simulation below must
    // reproduce its store byte for byte.
    if simulate(ctx, &mut out).is_none() {
        return out;
    }
    let shape = shape.unwrap_or(QUERY_HOT);
    let data = ctx.data();
    let store = data.join("dataset.store");
    let replica_store = ctx.work.join("replica.store");
    let world = paper_world(1.0, ctx.seed);
    let cfg = config_for(&data);
    let mut m: Vec<(String, f64, String)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &str| m.push((name.to_string(), v, unit.to_string()));

    let mut rec = Recorder::new();
    let traced_started = Instant::now();

    // ----- atlas + store + core, ambient threads --------------------------
    dynaddr_exec::reset_exec_stats();
    let t = Instant::now();
    let sim = rec.span("atlas", "simulate_to_store", 0, |_| {
        simulate_to_store(&world, &SimOptions::default(), &replica_store)
    });
    let sim_wall = secs(t);
    let Ok((_truth, sim)) = sim else {
        out.check(false, || "simulate_to_store failed".into());
        return out;
    };
    let file = std::fs::read(&store).unwrap_or_default();
    out.check(
        std::fs::read(&replica_store).ok().as_deref() == Some(&file[..]),
        || "in-process store differs from simulate's".into(),
    );
    let _ = std::fs::remove_file(&replica_store);
    put("atlas.world_build_s", sim.world_build_s, "s");
    put("atlas.event_loop_s", sim.event_loop_s, "s");
    put("atlas.filler_s", sim.filler_s, "s");
    put("atlas.merge_s", sim.normalize_s, "s");
    put("atlas.events", sim.queue.pops as f64, "count");
    put("atlas.shards", sim.shards as f64, "count");
    put("atlas.shard_balance", sim.shard_balance(), "ratio");

    let Ok(reader) = rec.span("store", "FileReader::open", 0, |_| FileReader::open(&file)) else {
        out.check(false, || "FileReader::open failed".into());
        return out;
    };
    let rows: u64 = [
        ProbeMeta::TABLE_ID,
        ConnectionLogEntry::TABLE_ID,
        KrootPingRecord::TABLE_ID,
        SosUptimeRecord::TABLE_ID,
    ]
    .iter()
    .map(|&t| reader.table_rows(t))
    .sum();
    put("store.rows", rows as f64, "count");
    put("store.segments", reader.segments().len() as f64, "count");
    put("store.file_bytes", file.len() as f64, "bytes");
    let meta_ns = decode_table::<ProbeMeta>(&mut rec, &file, &reader, &mut out);
    let conn_ns = decode_table::<ConnectionLogEntry>(&mut rec, &file, &reader, &mut out);
    let kroot_ns = decode_table::<KrootPingRecord>(&mut rec, &file, &reader, &mut out);
    let uptime_ns = decode_table::<SosUptimeRecord>(&mut rec, &file, &reader, &mut out);
    put("store.segment_decode_us.meta", median_us(meta_ns), "us");
    put(
        "store.segment_decode_us.connections",
        median_us(conn_ns),
        "us",
    );
    put("store.segment_decode_us.kroot", median_us(kroot_ns), "us");
    put("store.segment_decode_us.uptime", median_us(uptime_ns), "us");
    drop(reader);
    drop(file);

    let snaps = match rec.span("ip2as", "MonthlySnapshots::load_dir", 0, |_| {
        MonthlySnapshots::load_dir(&data.join("ip2as"))
    }) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("ip2as snapshots: {e}"));
            return out;
        }
    };
    let walls = |rec: &mut Recorder,
                 out: &mut Outcome,
                 sim_s: f64|
     -> Option<(PipelineWalls, AtlasDataset, String)> {
        let t = Instant::now();
        let scanned = rec.span("store", "DatasetStream::next_batch", 0, |_| scan(&store));
        let scan_s = secs(t);
        out.check(scanned.is_ok(), || {
            format!("DatasetStream pass failed: {scanned:?}")
        });
        let t = Instant::now();
        let streamed = rec.span("core", "analyze_streamed", 0, |_| {
            analyze_streamed(&store, &snaps, &cfg)
        });
        let streamed_s = secs(t);
        let t = Instant::now();
        let ds = rec.span("store", "AtlasDataset::load_dir", 0, |_| {
            AtlasDataset::load_dir(&data)
        });
        let load_s = secs(t);
        let (Ok(streamed), Ok(ds)) = (streamed, ds) else {
            out.check(false, || "analyze_streamed or load_dir failed".into());
            return None;
        };
        let t = Instant::now();
        let report = rec.span("core", "analyze", 0, |_| analyze(&ds, &snaps, &cfg));
        let analyze_s = secs(t);
        let text = rec.span("core", "render_full", 0, |_| {
            render_full(&report, &cfg.as_names)
        });
        let streamed_text = rec.span("core", "render_full", 0, |_| {
            render_full(&streamed, &cfg.as_names)
        });
        out.check(text == streamed_text, || {
            "analyze_streamed and analyze reports differ".into()
        });
        Some((
            PipelineWalls {
                simulate: sim_s,
                scan: scan_s,
                streamed: streamed_s,
                load: load_s,
                analyze: analyze_s,
            },
            ds,
            text,
        ))
    };
    let Some((ambient, ds, batch_text)) = walls(&mut rec, &mut out, sim_wall) else {
        return out;
    };
    let t = Instant::now();
    let filtered = rec.span("core", "filter_probes", 0, |_| filter_probes(&ds, &snaps));
    let filter_s = secs(t);
    let t = Instant::now();
    let _outages = rec.span("core", "outage_analysis", 0, |_| {
        outage_analysis(&ds, &filtered.probes)
    });
    let outage_s = secs(t);
    let t = Instant::now();
    let _table7 = rec.span("core", "prefix_changes", 0, |_| {
        prefix_changes(&filtered.probes, &snaps)
    });
    put("core.prefix_changes_s", secs(t), "s");
    drop(filtered);
    let ex = dynaddr_exec::exec_stats();
    put("store.scan_s", ambient.scan, "s");
    put("store.load_s", ambient.load, "s");
    put("core.filter_s", filter_s, "s");
    put("core.outage_s", outage_s, "s");
    put(
        "core.finish_s",
        (ambient.analyze - filter_s - outage_s).max(0.0),
        "s",
    );
    put(
        "core.streamed_self_s",
        (ambient.streamed - ambient.scan).max(0.0),
        "s",
    );
    put("exec.utilization", ex.utilization(), "ratio");
    put("exec.regions", ex.regions as f64, "count");
    put(
        "exec.sequential_regions",
        ex.sequential_regions as f64,
        "count",
    );
    put("exec.tasks", ex.tasks as f64, "count");

    // ----- the same pipeline calls at one thread --------------------------
    dynaddr_exec::set_threads(Some(1));
    let t = Instant::now();
    let sim1 = rec.span("atlas", "simulate_to_store", 0, |_| {
        simulate_to_store(&world, &SimOptions::default(), &replica_store)
    });
    let sim1_s = secs(t);
    out.check(sim1.is_ok(), || {
        "simulate_to_store at one thread failed".into()
    });
    let _ = std::fs::remove_file(&replica_store);
    let one = walls(&mut rec, &mut out, sim1_s);
    dynaddr_exec::set_threads(None);
    if let Some((one, _, text1)) = one {
        out.check(text1 == batch_text, || "one-thread report differs".into());
        put("exec.speedup", one.total() / ambient.total(), "ratio");
        out.note(
            "pipeline_walls_s",
            vec![
                ambient.simulate,
                ambient.scan,
                ambient.streamed,
                ambient.load,
                ambient.analyze,
            ],
        );
        out.note(
            "pipeline_walls_1t_s",
            vec![one.simulate, one.scan, one.streamed, one.load, one.analyze],
        );
    }

    // ----- live: replay plan, daemon replica with a point-query thread ----
    let t = Instant::now();
    let plan = rec.span("core", "replay_plan", 0, |_| replay_plan(&ds));
    put("core.replay_plan_s", secs(t), "s");
    put(
        "core.replay_plan_mb",
        (plan.len() * std::mem::size_of::<ReplayStep>()) as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    drop(plan);
    let daemon = rec.span("daemon", "Daemon::new", 0, |_| {
        Daemon::new(snaps.clone(), cfg.clone())
    });
    let probes: Vec<u32> = ds.meta.iter().map(|m| m.probe.0).collect();
    let done = AtomicBool::new(false);
    let t = Instant::now();
    let point_ns: Vec<u64> = rec.span("daemon", "Daemon::replay", 0, |_| {
        std::thread::scope(|s| {
            let asker = s.spawn(|| {
                let mut ns = Vec::with_capacity(1 << 20);
                let mut state = dynaddr_query::workload::splitmix64(ctx.seed ^ 0x11FE);
                while !done.load(Ordering::Acquire) {
                    state = dynaddr_query::workload::splitmix64(state);
                    let p = probes[(state % probes.len() as u64) as usize];
                    let t = Instant::now();
                    std::hint::black_box(daemon.snapshot_reply());
                    ns.push(t.elapsed().as_nanos() as u64);
                    let t = Instant::now();
                    std::hint::black_box(daemon.probe_reply(p));
                    ns.push(t.elapsed().as_nanos() as u64);
                    let t = Instant::now();
                    std::hint::black_box(daemon.ingest_reply());
                    ns.push(t.elapsed().as_nanos() as u64);
                }
                ns
            });
            daemon.replay(&ds, Rate::Max);
            done.store(true, Ordering::Release);
            asker.join().expect("point-query thread panicked")
        })
    });
    put("daemon.replay_s", secs(t), "s");
    let t = Instant::now();
    let sealed = rec.span("core", "Daemon::seal_text", 0, |_| daemon.seal_text());
    put("core.seal_s", secs(t), "s");
    out.check(sealed == batch_text, || {
        "daemon replica's sealed report differs from analyze's".into()
    });
    drop(daemon);
    let mut point_ns = point_ns;
    if let Some(l) = Latency::from_ns(&mut point_ns) {
        put("daemon.point_us_p50", l.p50_us, "us");
        put("daemon.point_us_p99", l.p99_us, "us");
        put("daemon.point_us_max", l.max_us, "us");
        out.note("daemon_point_samples", l.n);
    }
    drop(ds);

    // ----- query: replica engine, then the same sequence over the wire ---
    let cache = CacheConfig {
        budget_bytes: shape.cache_mb.unwrap_or(256) << 20,
        ..CacheConfig::default()
    };
    let t = Instant::now();
    let engine = match rec.span("query", "QueryEngine::open_dir", 0, |_| {
        QueryEngine::open_dir(&data, &EngineOptions { cache })
    }) {
        Ok(e) => e,
        Err(e) => {
            out.check(false, || format!("QueryEngine::open_dir: {e}"));
            return out;
        }
    };
    put("query.open_s", secs(t), "s");
    let universe = Universe::of(engine.stats());
    let sweep = if shape.fill_cache {
        records_sweep(&universe.probes)
    } else {
        Vec::new()
    };
    let traffic = Traffic::new(ctx.seed, shape.skew, universe);
    let n = traced_requests(&shape);
    let warm_n = (shape.per_conn_per_s as f64 * shape.warmup_s / 4.0) as usize;
    let warm = traffic.sequence(2, warm_n);
    let seq = traffic.sequence(0, n);
    let warm: Vec<Request> = sweep.into_iter().chain(warm).collect();
    rec.span("query", "warm-up", 0, |_| {
        for r in &warm {
            std::hint::black_box(proto::to_bytes(&engine.query(r)));
        }
    });
    let (mut series, mut records, mut summaries) = (Vec::new(), Vec::new(), Vec::new());
    let (mut engine_ns, mut encode_ns, mut reply_bytes) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut replica_replies = Vec::with_capacity(n);
    let replica_before = engine.cache_stats();
    for (i, r) in seq.iter().enumerate() {
        let id = i as u64 + 1;
        let bytes = rec.span("query", "request", id, |rec| {
            let t = Instant::now();
            let resp = rec.span("query", "QueryEngine::query", id, |_| engine.query(r));
            let e = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let bytes = rec.span("query", "proto::to_bytes", id, |_| proto::to_bytes(&resp));
            encode_ns.push(t.elapsed().as_nanos() as u64);
            engine_ns.push(e);
            bytes
        });
        match r {
            Request::ProbeSeries(_) => series.push(engine_ns[i]),
            Request::ProbeRecords(_) | Request::ProbeTruth(_) => records.push(engine_ns[i]),
            _ => summaries.push(engine_ns[i]),
        }
        reply_bytes.push(bytes.len() as u64);
        replica_replies.push(crate::workloads::digest(&bytes));
    }
    let replica_after = engine.cache_stats();
    // Cache traffic of the traced sequence alone: (hits, misses, evictions).
    let replica_cache = (
        replica_after.hits - replica_before.hits,
        replica_after.misses - replica_before.misses,
        replica_after.evictions - replica_before.evictions,
    );
    // The same loop with no spans: the tracing overhead.
    let t = Instant::now();
    rec.span("query", "untraced-loop", 0, |_| {
        for r in &seq {
            std::hint::black_box(proto::to_bytes(&engine.query(r)));
        }
    });
    let untraced_loop_s = secs(t);
    drop(engine);
    for (name, v) in [
        ("series", series),
        ("records", records),
        ("summaries", summaries),
    ] {
        let mut v = v;
        if let Some(l) = Latency::from_ns(&mut v) {
            put(&format!("query.engine_us.{name}_p50"), l.p50_us, "us");
            put(&format!("query.engine_us.{name}_p99"), l.p99_us, "us");
            out.note(&format!("query_engine_{name}_samples"), l.n);
        }
    }
    put("query.encode_us", median_us(encode_ns.clone()), "us");
    let mut rb = reply_bytes.clone();
    rb.sort_unstable();
    put("query.reply_bytes", percentile(&rb, 50.0) as f64, "bytes");

    // queryd under test, warmed with the same sequence, then one request
    // at a time through QueryClient.
    let log = ctx.work.join("queryd-traced.log");
    let budget = shape.cache_mb.unwrap_or(256).to_string();
    let args = [
        "--data",
        data.to_str().expect("UTF-8 path"),
        "--socket",
        "queryd.sock",
        "--cache-mb",
        &budget,
    ];
    match spawn_until_ready(
        &ctx.exe("queryd"),
        &args,
        Path::new("queryd.sock"),
        &log,
        Duration::from_secs(60),
    ) {
        Ok((proc, mut control, _)) => {
            let (warm_frames, warm_offs) = encode_frames(&warm);
            rec.span("query", "warm-up", 0, |_| {
                for i in 0..warm.len() {
                    let ok = control
                        .roundtrip(&warm_frames[warm_offs[i]..warm_offs[i + 1]])
                        .is_ok();
                    if !ok {
                        break;
                    }
                }
            });
            let server_cache =
                |control: &mut crate::sys::Conn| match control.request(&Request::ServerStats) {
                    Ok(Response::ServerStats(st)) => {
                        Some((st.cache_hits, st.cache_misses, st.cache_evictions))
                    }
                    _ => None,
                };
            let before = server_cache(&mut control);
            match QueryClient::connect(Path::new("queryd.sock")) {
                Ok(mut client) => {
                    let mut wire_ns = Vec::with_capacity(n);
                    for (i, r) in seq.iter().enumerate() {
                        let t = Instant::now();
                        let got =
                            rec.span("query", "QueryClient::request_bytes", i as u64 + 1, |_| {
                                client.request_bytes(r)
                            });
                        let rt = t.elapsed().as_nanos() as u64;
                        match got {
                            Ok(bytes) => {
                                out.check(
                                    crate::workloads::digest(&bytes) == replica_replies[i],
                                    || format!("queryd reply {i} differs from the replica's"),
                                );
                                wire_ns.push(rt.saturating_sub(engine_ns[i] + encode_ns[i]));
                            }
                            Err(e) => {
                                out.check(false, || format!("queryd request {i}: {e}"));
                                break;
                            }
                        }
                    }
                    if let Some(l) = Latency::from_ns(&mut wire_ns) {
                        put("query.wire_us_p50", l.p50_us, "us");
                        put("query.wire_us_p99", l.p99_us, "us");
                    }
                }
                Err(e) => out.check(false, || format!("QueryClient::connect: {e}")),
            }
            if let (Some(b), Some(a)) = (before, server_cache(&mut control)) {
                let (hits, misses, evictions) = (a.0 - b.0, a.1 - b.1, a.2 - b.2);
                put(
                    "query.cache_hit_rate",
                    hits as f64 / (hits + misses).max(1) as f64,
                    "ratio",
                );
                put("query.cache_evictions", evictions as f64, "count");
                out.note(
                    "cache_stats_match_replica",
                    (hits, misses, evictions) == replica_cache,
                );
                out.note(
                    "server_cache",
                    format!("hits {hits} misses {misses} evictions {evictions}"),
                );
                out.note(
                    "replica_cache",
                    format!(
                        "hits {} misses {} evictions {}",
                        replica_cache.0, replica_cache.1, replica_cache.2
                    ),
                );
            }
            proc.stop();
        }
        Err(e) => out.check(false, || format!("queryd start: {e}")),
    }

    // ----- attribution ----------------------------------------------------
    let spans = rec.finish();
    let wall = spans[0].dur_ns() as f64 / 1e9;
    // The traced loop's cost is its request spans: the bookkeeping after
    // each request (digests, class samples) is not tracing.
    let traced_loop_s = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e9;
    let st = self_times(&spans);
    for layer in ["atlas", "store", "ip2as", "core", "daemon", "query"] {
        put(
            &format!("self_s.{layer}"),
            st.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    put(
        "self_s.unattributed",
        st.get("unattributed").copied().unwrap_or(0.0),
        "s",
    );
    put("trace.wall_s", wall, "s");
    put(
        "trace.overhead_pct",
        (traced_loop_s - untraced_loop_s) / untraced_loop_s * 100.0,
        "%",
    );
    out.note("self_sum_s", st.values().sum::<f64>());
    out.note("spans", spans.len());
    out.note("traced_loop_s", traced_loop_s);
    out.note("untraced_loop_s", untraced_loop_s);
    out.note("traced_run_s", secs(traced_started));
    let trace_path = ctx.results.join("spans.jsonl");
    if let Ok(f) = std::fs::File::create(&trace_path) {
        let mut w = std::io::BufWriter::new(f);
        let _ = write_jsonl(&spans, &mut w);
        let _ = std::io::Write::flush(&mut w);
        out.note("spans_file", trace_path.display().to_string());
    }
    for (name, v, unit) in m {
        out.metric(&name, v, &unit);
    }
    out
}
