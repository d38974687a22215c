//! The timed (untraced) runs of the four workloads.
//!
//! Every path runs as its own process, built from this checkout: the
//! `simulate` and `analyze` binaries, `queryd`, and `dynaddrd`. This
//! process only generates inputs, drives load, times, and checks outputs.

use crate::stats::{median, Latency};
use crate::sys::{reported_rss_mib, run_timed, self_cpu_s, spawn_until_ready, vmhwm_mib, Conn};
use crate::traffic::{encode_frames, records_sweep, repeat_share, Skew, Traffic, Universe};
use dynaddr_atlas::{ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord};
use dynaddr_query::proto::{self, Request, Response};
use dynaddr_query::LocalAnswerer;
use dynaddr_store::{ColumnarRecord, SegmentFileReader};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Response tag of `Response::Error` on the wire.
const ERROR_TAG: u8 = 7;
/// How long a server may take to answer its first `Ping`.
const READY_LIMIT: Duration = Duration::from_secs(60);

/// Where the binaries are, what to run, and for how long.
pub struct Ctx {
    /// Directory holding `simulate`, `analyze`, `queryd` and `dynaddrd`.
    pub bin: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// This run's scratch directory (also the working directory).
    pub work: PathBuf,
    /// Where files that outlive the run (the traced run's spans) go.
    pub results: PathBuf,
}

impl Ctx {
    /// Path of a binary under test.
    pub fn exe(&self, name: &str) -> PathBuf {
        self.bin.join(name)
    }

    /// The dataset directory every workload reads.
    pub fn data(&self) -> PathBuf {
        self.work.join("data")
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (processes run, requests sent, reports compared).
    pub attempted: u64,
    /// Operations that failed: a non-zero exit, an `Error` reply, a
    /// mismatch against the oracle, or a dropped connection.
    pub failed: u64,
    /// Why each failure happened (first few).
    pub failures: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Diagnostics beside the metrics.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Records one attempted operation that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Adds a diagnostic.
    pub fn note(&mut self, key: &str, value: impl Serialize) {
        self.detail.push((key.to_string(), value.to_value()));
    }
}

fn latency_json(l: &Latency) -> Value {
    Value::Object(vec![
        ("samples".into(), l.n.to_value()),
        ("p50_us".into(), l.p50_us.to_value()),
        ("p99_us".into(), l.p99_us.to_value()),
        ("max_us".into(), l.max_us.to_value()),
        ("beyond_p99".into(), l.beyond_p99.to_value()),
    ])
}

/// Writes the paper-tier store for the run's seed with `simulate
/// --streamed`; returns its wall seconds, or the failure.
pub fn simulate(ctx: &Ctx, out: &mut Outcome) -> Option<f64> {
    let data = ctx.data();
    let seed = ctx.seed.to_string();
    let args = [
        "--out",
        path_str(&data),
        "--tier",
        "paper",
        "--seed",
        &seed,
        "--streamed",
    ];
    match run_timed(&ctx.exe("simulate"), &args) {
        Ok((secs, true, _)) => {
            out.check(true, String::new);
            Some(secs)
        }
        Ok((_, false, err)) => {
            out.check(false, || {
                format!("simulate exited non-zero: {}", last_line(&err))
            });
            None
        }
        Err(e) => {
            out.check(false, || format!("simulate did not start: {e}"));
            None
        }
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

fn last_line(s: &str) -> &str {
    s.lines().last().unwrap_or("")
}

/// Log rows (connection + k-root + uptime) in a store file's footer.
pub fn log_rows(store: &Path) -> u64 {
    SegmentFileReader::open(store)
        .map(|r| {
            r.table_rows(ConnectionLogEntry::TABLE_ID)
                + r.table_rows(KrootPingRecord::TABLE_ID)
                + r.table_rows(SosUptimeRecord::TABLE_ID)
        })
        .unwrap_or(0)
}

/// Probe ids of a store file, ascending (read from its meta segments).
pub fn probe_ids(store: &Path) -> Vec<u32> {
    let Ok(mut r) = SegmentFileReader::open(store) else {
        return Vec::new();
    };
    let metas: Vec<_> = r
        .segments()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.table == ProbeMeta::TABLE_ID)
        .map(|(i, s)| (i, *s))
        .collect();
    let mut ids = Vec::new();
    for (i, info) in metas {
        if let Ok(rows) = r.read_segment::<ProbeMeta>(i, info) {
            ids.extend(rows.iter().map(|m| m.probe.0));
        }
    }
    ids
}

// ---------------------------------------------------------------------------
// pipeline
// ---------------------------------------------------------------------------

/// Set-up repetitions per run; `setup_s` is their median.
const PIPELINE_SETUPS: usize = 3;
/// Fewest analyze runs of each kind per run.
const PIPELINE_MIN_PAIRS: usize = 3;

/// `simulate --streamed` → `analyze --streamed` → `analyze`.
pub fn pipeline(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let Some(first) = simulate(ctx, &mut out) else {
        return out;
    };
    let mut setups = vec![first];
    let data = ctx.data();
    let rows = log_rows(&data.join("dataset.store"));
    let (mut streamed, mut batch, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u8>> = None;
    // The measured phase is the analyze runs' own time.
    let mut measured_s = 0.0;
    let mut pair = 0usize;
    while pair < PIPELINE_MIN_PAIRS || measured_s < ctx.seconds {
        // The later set-ups rewrite the same store between analyze pairs,
        // so all three medians sample the whole run, not one stretch of it.
        if pair > 0 && setups.len() < PIPELINE_SETUPS {
            setups.extend(simulate(ctx, &mut out));
        }
        // Alternate which analyzer goes first so neither always runs on
        // the other's page cache.
        let order: [bool; 2] = if pair.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        };
        for is_streamed in order {
            let report = ctx.work.join(if is_streamed {
                "streamed.txt"
            } else {
                "batch.txt"
            });
            let mut args = vec!["--data", path_str(&data), "--report", path_str(&report)];
            if is_streamed {
                args.push("--streamed");
            }
            let label = if is_streamed {
                "analyze --streamed"
            } else {
                "analyze"
            };
            let (secs, ok, err) = match run_timed(&ctx.exe("analyze"), &args) {
                Ok(r) => {
                    measured_s += r.0;
                    r
                }
                Err(e) => {
                    out.check(false, || format!("{label} did not start: {e}"));
                    continue;
                }
            };
            out.check(ok, || {
                format!("{label} exited non-zero: {}", last_line(&err))
            });
            if !ok {
                continue;
            }
            let bytes = std::fs::read(&report).unwrap_or_default();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => out.check(*r == bytes, || {
                    format!("{label} report differs from the first report of this run")
                }),
            }
            if is_streamed {
                streamed.push(secs);
                rss.extend(reported_rss_mib(&err));
            } else {
                batch.push(secs);
            }
        }
        pair += 1;
    }
    if streamed.is_empty() || batch.is_empty() || rss.is_empty() {
        out.check(false, || "no successful analyze run of one kind".into());
        return out;
    }
    let analyze_s = median(&streamed);
    out.metric("setup_s", median(&setups), "s");
    out.metric("rate_per_s", rows as f64 / analyze_s, "1/s");
    out.metric("batch_s", median(&batch), "s");
    out.metric("rss_mb", median(&rss), "MiB");
    out.note("analyze_s", analyze_s);
    out.note("analyze_batch_s", median(&batch));
    out.note("log_rows", rows);
    out.note("setup_samples_s", setups);
    out.note("analyze_samples_s", streamed);
    out.note("analyze_batch_samples_s", batch);
    out
}

// ---------------------------------------------------------------------------
// query-hot / query-cold
// ---------------------------------------------------------------------------

/// The knobs that tell the two query workloads apart.
#[derive(Debug, Clone, Copy)]
pub struct QueryShape {
    /// Probe skew of the request mix.
    pub skew: Skew,
    /// `queryd --cache-mb`, `None` for the server's default (256 MiB).
    pub cache_mb: Option<usize>,
    /// Whether warm-up starts with one `ProbeRecords` sweep over every
    /// probe, which decodes every segment into the cache.
    pub fill_cache: bool,
    /// Closed-loop time spent on the workload's own mix before timing starts.
    pub warmup_s: f64,
    /// Requests generated per connection per measured second (an upper
    /// bound on what one connection can complete).
    pub per_conn_per_s: usize,
}

/// `query-hot`: zipf probes, default cache, which the store fits.
pub const QUERY_HOT: QueryShape = QueryShape {
    skew: Skew::Zipf,
    cache_mb: None,
    fill_cache: true,
    warmup_s: 2.0,
    per_conn_per_s: 60_000,
};
/// `query-cold`: uniform probes, a 16 MiB cache (~1/8 of the decoded store).
pub const QUERY_COLD: QueryShape = QueryShape {
    skew: Skew::Uniform,
    cache_mb: Some(16),
    fill_cache: false,
    warmup_s: 1.0,
    per_conn_per_s: 12_000,
};

/// Connections (and generator threads) driving `queryd`.
pub const QUERY_CONNECTIONS: usize = 2;
/// `queryd` spawns per run; `setup_s` is the median.
const QUERY_SETUPS: usize = 5;
/// Oracle loads per run; `batch_s` is the median.
const ORACLE_OPENS: usize = 3;

/// Width of the windows the measured phase's completions are counted in.
const WINDOW_S: f64 = 0.5;

/// One generator thread's raw results.
struct ConnRun {
    done: usize,
    /// Replies completed in each `WINDOW_S` window since the phase began.
    windows: Vec<u64>,
    lat_ns: Vec<u64>,
    digests: Vec<u64>,
    errors: u64,
    dropped: Option<String>,
}

/// A fast 64-bit digest of a reply, so every reply can be checked against
/// the oracle after the timed phase without being kept.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(23) ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^ (h >> 29)
}

/// Closed loop over pre-encoded frames until `deadline` (or the frames run
/// out): per request, the send-to-reply time, the reply digest, and the
/// reply tag. Nothing is formatted or written per request.
fn drive(
    socket: &Path,
    frames: &(Vec<u8>, Vec<usize>),
    t0: Instant,
    deadline: Instant,
    keep: bool,
) -> ConnRun {
    let (buf, offs) = frames;
    let total = offs.len() - 1;
    let mut run = ConnRun {
        done: 0,
        windows: vec![0; ((deadline - t0).as_secs_f64() / WINDOW_S).ceil() as usize + 1],
        lat_ns: Vec::with_capacity(if keep { total } else { 0 }),
        digests: Vec::with_capacity(if keep { total } else { 0 }),
        errors: 0,
        dropped: None,
    };
    let mut conn = match Conn::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            run.dropped = Some(format!("connect: {e}"));
            return run;
        }
    };
    while run.done < total {
        let t = Instant::now();
        if t >= deadline {
            break;
        }
        let frame = &buf[offs[run.done]..offs[run.done + 1]];
        match conn.roundtrip(frame) {
            Ok(reply) => {
                let ns = t.elapsed().as_nanos() as u64;
                let w = (((t - t0).as_nanos() as u64 + ns) as f64 / 1e9 / WINDOW_S) as usize;
                if let Some(n) = run.windows.get_mut(w) {
                    *n += 1;
                }
                if reply.first() == Some(&ERROR_TAG) {
                    run.errors += 1;
                }
                if keep {
                    run.lat_ns.push(ns);
                    run.digests.push(digest(reply));
                }
            }
            Err(e) => {
                run.dropped = Some(format!("request {}: {e}", run.done));
                break;
            }
        }
        run.done += 1;
    }
    run
}

/// `ProbeRecords` for every probe, dealt round-robin to `conns` frame
/// lists: one pass decodes every segment of every table.
pub fn fill_sweep(probes: &[u32], conns: usize) -> Vec<(Vec<u8>, Vec<usize>)> {
    let sweep = records_sweep(probes);
    (0..conns)
        .map(|c| {
            encode_frames(
                &sweep
                    .iter()
                    .skip(c)
                    .step_by(conns)
                    .cloned()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Runs `threads` closed-loop connections for `secs`.
fn drive_all(
    socket: &Path,
    frames: &[(Vec<u8>, Vec<usize>)],
    secs: f64,
    keep: bool,
) -> (Vec<ConnRun>, f64, f64) {
    let cpu0 = self_cpu_s();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let hs: Vec<_> = frames
            .iter()
            .map(|f| s.spawn(move || drive(socket, f, t0, deadline, keep)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (runs, t0.elapsed().as_secs_f64(), self_cpu_s() - cpu0)
}

fn server_cache(conn: &mut Conn) -> Option<(u64, u64, u64)> {
    match conn.request(&Request::ServerStats) {
        Ok(Response::ServerStats(s)) => Some((s.cache_hits, s.cache_misses, s.cache_evictions)),
        _ => None,
    }
}

/// `queryd` on the paper store under closed-loop load from two connections.
pub fn query(ctx: &Ctx, shape: QueryShape) -> Outcome {
    let mut out = Outcome::default();
    if simulate(ctx, &mut out).is_none() {
        return out;
    }
    let data = ctx.data();
    // The oracle: the batch-loaded dataset (also the operand universe).
    let mut opens = Vec::new();
    let mut local = None;
    for _ in 0..ORACLE_OPENS {
        drop(local.take());
        let t = Instant::now();
        match LocalAnswerer::open_dir(&data) {
            Ok(l) => {
                opens.push(t.elapsed().as_secs_f64());
                local = Some(l);
            }
            Err(e) => out.check(false, || format!("LocalAnswerer::open_dir: {e}")),
        }
    }
    let Some(local) = local else { return out };
    let universe = Universe::of(local.stats());
    let traffic_probes = universe.probes.clone();
    let traffic = Traffic::new(ctx.seed, shape.skew, universe);
    let count = (shape.per_conn_per_s as f64 * ctx.seconds).ceil() as usize;
    let seqs: Vec<Vec<Request>> = (0..QUERY_CONNECTIONS as u64)
        .map(|c| traffic.sequence(c, count))
        .collect();
    let frames: Vec<_> = seqs.iter().map(|s| encode_frames(s)).collect();
    let warm_count = (shape.per_conn_per_s as f64 * shape.warmup_s).ceil() as usize;
    let warm_frames: Vec<_> = (0..QUERY_CONNECTIONS as u64)
        .map(|c| encode_frames(&traffic.sequence(QUERY_CONNECTIONS as u64 + c, warm_count)))
        .collect();

    let socket = PathBuf::from("queryd.sock");
    let log = ctx.work.join("queryd.log");
    let cache_mb = shape.cache_mb.map(|m| m.to_string());
    let mut args = vec!["--data", path_str(&data), "--socket", "queryd.sock"];
    if let Some(m) = &cache_mb {
        args.extend(["--cache-mb", m.as_str()]);
    }
    let mut ready = Vec::new();
    let mut server = None;
    for i in 0..QUERY_SETUPS {
        match spawn_until_ready(&ctx.exe("queryd"), &args, &socket, &log, READY_LIMIT) {
            Ok((proc, conn, secs)) => {
                out.check(true, String::new);
                ready.push(secs);
                if i + 1 == QUERY_SETUPS {
                    server = Some((proc, conn));
                } else {
                    proc.stop();
                }
            }
            Err(e) => out.check(false, || format!("queryd start: {e}")),
        }
    }
    let Some((proc, mut control)) = server else {
        return out;
    };

    if shape.fill_cache {
        let sweep = fill_sweep(&traffic_probes, QUERY_CONNECTIONS);
        let (runs, _, _) = drive_all(&socket, &sweep, READY_LIMIT.as_secs_f64(), false);
        for (c, r) in runs.iter().enumerate() {
            out.check(
                r.dropped.is_none() && r.errors == 0 && r.done == sweep[c].1.len() - 1,
                || format!("cache-filling sweep on connection {c} did not complete"),
            );
        }
    }
    let (warm, _, _) = drive_all(&socket, &warm_frames, shape.warmup_s, false);
    for w in &warm {
        if let Some(e) = &w.dropped {
            out.check(false, || format!("warm-up connection dropped: {e}"));
        }
    }
    let before = server_cache(&mut control);
    let (runs, elapsed, gen_cpu) = drive_all(&socket, &frames, ctx.seconds, true);
    let after = server_cache(&mut control);
    let rss = vmhwm_mib(proc.pid());
    proc.stop();

    // Every reply against the oracle, outside the timed phase; identical
    // requests are answered once.
    let mut expected: HashMap<&[u8], u64> = HashMap::new();
    let mut all_ns = Vec::new();
    let mut completed = 0usize;
    for (c, run) in runs.iter().enumerate() {
        let (buf, offs) = &frames[c];
        for i in 0..run.done {
            let want = *expected
                .entry(&buf[offs[i] + 4..offs[i + 1]])
                .or_insert_with(|| digest(&proto::to_bytes(&local.answer(&seqs[c][i]))));
            out.check(run.digests[i] == want, || {
                format!(
                    "connection {c} request {i}: reply differs from LocalAnswerer for {:?}",
                    seqs[c][i]
                )
            });
        }
        if run.errors > 0 {
            out.fail(format!("connection {c}: {} Error replies", run.errors));
        }
        if let Some(e) = &run.dropped {
            out.check(false, || format!("connection {c} dropped: {e}"));
        }
        if run.done == offs.len() - 1 {
            out.note(
                "warning",
                format!("connection {c} ran out of generated requests"),
            );
        }
        completed += run.done;
        all_ns.extend_from_slice(&run.lat_ns);
    }
    let Some(lat) = Latency::from_ns(&mut all_ns) else {
        out.check(false, || "no request completed".into());
        return out;
    };
    let Some(rss) = rss else {
        out.check(false, || "could not read queryd VmHWM".into());
        return out;
    };
    // The rate is the median over the phase's full windows, so a short
    // stall of the shared host moves it less than it moves the mean.
    let full = (ctx.seconds / WINDOW_S).floor() as usize;
    let window_rates: Vec<f64> = (0..full.max(1))
        .map(|w| {
            runs.iter()
                .map(|r| r.windows.get(w).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / WINDOW_S
        })
        .collect();
    let rps = completed as f64 / elapsed;
    out.metric("setup_s", median(&ready), "s");
    out.metric("rate_per_s", median(&window_rates), "1/s");
    out.metric("batch_s", median(&opens), "s");
    out.metric("rss_mb", rss, "MiB");
    out.note("rps", median(&window_rates));
    out.note("rps_mean", rps);
    out.note("window_rates", window_rates);
    out.note("latency", latency_json(&lat));
    out.note("connections", QUERY_CONNECTIONS);
    out.note("requests_completed", completed);
    out.note("distinct_requests", expected.len());
    let done: Vec<usize> = runs.iter().map(|r| r.done).collect();
    out.note("probe_repeat_share", repeat_share(&seqs, &done));
    out.note("generator_cpu_s", gen_cpu);
    out.note("setup_samples_s", ready);
    if let (Some(b), Some(a)) = (before, after) {
        let (hits, misses) = (a.0 - b.0, a.1 - b.1);
        out.note(
            "cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.note("cache_evictions", a.2 - b.2);
    }
    out
}

// ---------------------------------------------------------------------------
// live
// ---------------------------------------------------------------------------

/// Fewest daemon replays per run.
const LIVE_MIN_RUNS: usize = 3;
/// Reference `analyze` runs per live run; `batch_s` is their median.
const LIVE_REFERENCES: usize = 3;
/// Seeded probe ids cycled through by `DaemonProbe` requests.
const LIVE_PROBE_PICKS: usize = 4096;

/// One `dynaddrd --replay` from spawn to sealed report.
struct Replay {
    /// `DaemonProbe` requests sent.
    probe_requests: usize,
    ready_s: f64,
    rows_per_s: f64,
    rss_mib: f64,
    lat_ns: Vec<u64>,
}

fn live_once(
    ctx: &Ctx,
    k: usize,
    probe_frames: &(Vec<u8>, Vec<usize>),
    reference: &[u8],
    out: &mut Outcome,
) -> Option<Replay> {
    let data = ctx.data();
    let store = data.join("dataset.store");
    let report = ctx.work.join(format!("live-{k}.txt"));
    let log = ctx.work.join("dynaddrd.log");
    let args = [
        "--replay",
        path_str(&store),
        "--data",
        path_str(&data),
        "--socket",
        "dynaddrd.sock",
        "--rate",
        "max",
        "--report",
        path_str(&report),
    ];
    let (proc, mut conn, ready_s) = match spawn_until_ready(
        &ctx.exe("dynaddrd"),
        &args,
        Path::new("dynaddrd.sock"),
        &log,
        READY_LIMIT,
    ) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("dynaddrd start: {e}"));
            return None;
        }
    };
    out.check(true, String::new);
    let ready = Instant::now();
    let (snapshot, _) = encode_frames(&[Request::DaemonSnapshot]);
    let (ingest, _) = encode_frames(&[Request::IngestStats]);
    let (pbuf, poffs) = probe_frames;
    let picks = poffs.len() - 1;
    let mut lat_ns = Vec::with_capacity(1 << 20);
    let mut errors = 0u64;
    let mut rows = 0u64;
    let deadline = ready + Duration::from_secs(150);
    let mut i = 0usize;
    // Snapshot, probe, ingest stats, back to back, until a reply says sealed.
    let sealed = 'outer: loop {
        if Instant::now() > deadline {
            break false;
        }
        let p = i % picks;
        let frames: [&[u8]; 3] = [&snapshot, &pbuf[poffs[p]..poffs[p + 1]], &ingest];
        for (j, frame) in frames.into_iter().enumerate() {
            let t = Instant::now();
            let reply = match conn.roundtrip(frame) {
                Ok(r) => r,
                Err(e) => {
                    out.check(false, || format!("dynaddrd connection dropped: {e}"));
                    break 'outer false;
                }
            };
            lat_ns.push(t.elapsed().as_nanos() as u64);
            if reply.first() == Some(&ERROR_TAG) {
                errors += 1;
            } else if j == 2 {
                if let Ok(Response::IngestStats(s)) = proto::from_bytes::<Response>(reply) {
                    if s.sealed {
                        rows = s.rows_ingested;
                        break 'outer true;
                    }
                }
            }
        }
        i += 1;
    };
    out.attempted += lat_ns.len() as u64;
    if errors > 0 {
        out.fail(format!("dynaddrd: {errors} Error replies"));
    }
    // The report is published by rename right after sealing.
    while sealed && !report.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    let to_report = ready.elapsed().as_secs_f64();
    let rss = vmhwm_mib(proc.pid());
    proc.stop();
    let text = std::fs::read(&report).unwrap_or_default();
    out.check(sealed && text == reference, || {
        format!("replay {k}: sealed report differs from analyze's (sealed={sealed})")
    });
    let Some(rss_mib) = rss else {
        out.check(false, || {
            format!("replay {k}: could not read dynaddrd VmHWM")
        });
        return None;
    };
    // The loop leaves after the probe request of iteration `i` when sealed.
    let probe_requests = i + usize::from(sealed);
    Some(Replay {
        probe_requests,
        ready_s,
        rows_per_s: rows as f64 / to_report,
        rss_mib,
        lat_ns,
    })
}

/// One timed `analyze` run writing the batch reference report; every
/// report after the first must match it.
fn reference_run(
    ctx: &Ctx,
    out: &mut Outcome,
    reference: &mut Option<Vec<u8>>,
    batch: &mut Vec<f64>,
) {
    let data = ctx.data();
    let path = ctx.work.join("reference.txt");
    let args = ["--data", path_str(&data), "--report", path_str(&path)];
    match run_timed(&ctx.exe("analyze"), &args) {
        Ok((secs, true, _)) => {
            let bytes = std::fs::read(&path).unwrap_or_default();
            match reference {
                None => *reference = Some(bytes),
                Some(r) => out.check(*r == bytes, || "analyze reports differ between runs".into()),
            }
            out.check(true, String::new);
            batch.push(secs);
        }
        Ok((_, false, err)) => out.check(false, || {
            format!("analyze exited non-zero: {}", last_line(&err))
        }),
        Err(e) => out.check(false, || format!("analyze did not start: {e}")),
    }
}

/// `dynaddrd --replay --rate max` with one closed-loop query connection.
pub fn live(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if simulate(ctx, &mut out).is_none() {
        return out;
    }
    let data = ctx.data();
    // The batch reference the sealed report must equal, byte for byte.
    let mut batch = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    reference_run(ctx, &mut out, &mut reference, &mut batch);
    let Some(first_reference) = reference.clone() else {
        return out;
    };
    let probes = probe_ids(&data.join("dataset.store"));
    if probes.is_empty() {
        out.check(false, || "no probes in the store".into());
        return out;
    }
    let mut state = dynaddr_query::workload::splitmix64(ctx.seed ^ 0x11FE);
    let picks: Vec<Request> = (0..LIVE_PROBE_PICKS)
        .map(|_| {
            state = dynaddr_query::workload::splitmix64(state);
            Request::DaemonProbe(dynaddr_types::ProbeId(
                probes[(state % probes.len() as u64) as usize],
            ))
        })
        .collect();
    let probe_frames = encode_frames(&picks);
    // distinct[n]: distinct probes among the first n picks.
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<usize> = std::iter::once(0)
        .chain(picks.iter().map(|r| {
            seen.insert(crate::traffic::probe_of(r));
            seen.len()
        }))
        .collect();

    let started = Instant::now();
    let mut replays = Vec::new();
    let mut k = 0;
    while k < LIVE_MIN_RUNS || started.elapsed().as_secs_f64() < ctx.seconds {
        if let Some(r) = live_once(ctx, k, &probe_frames, &first_reference, &mut out) {
            replays.push(r);
        }
        // The other reference runs sit between replays, so their median
        // samples the whole run, not one stretch of it.
        if batch.len() < LIVE_REFERENCES {
            reference_run(ctx, &mut out, &mut reference, &mut batch);
        }
        k += 1;
        if k >= LIVE_MIN_RUNS * 4 && replays.is_empty() {
            break;
        }
    }
    if replays.is_empty() {
        return out;
    }
    let ready: Vec<f64> = replays.iter().map(|r| r.ready_s).collect();
    let rates: Vec<f64> = replays.iter().map(|r| r.rows_per_s).collect();
    let rss: Vec<f64> = replays.iter().map(|r| r.rss_mib).collect();
    let mut all_ns: Vec<u64> = replays
        .iter()
        .flat_map(|r| r.lat_ns.iter().copied())
        .collect();
    out.metric("setup_s", median(&ready), "s");
    out.metric("rate_per_s", median(&rates), "1/s");
    out.metric("batch_s", median(&batch), "s");
    out.metric("rss_mb", median(&rss), "MiB");
    out.note("ingest_rows_per_s", median(&rates));
    if let Some(l) = Latency::from_ns(&mut all_ns) {
        out.note("latency", latency_json(&l));
    }
    out.note("replays", replays.len());
    // Each replay is a fresh daemon: a request repeats when an earlier
    // request to the same daemon named its probe.
    let sent: usize = replays.iter().map(|r| r.probe_requests).sum();
    let fresh: usize = replays
        .iter()
        .map(|r| distinct[r.probe_requests.min(LIVE_PROBE_PICKS)])
        .sum();
    out.note(
        "probe_repeat_share",
        1.0 - fresh as f64 / sent.max(1) as f64,
    );
    out.note("setup_samples_s", ready);
    out.note("ingest_samples_rows_per_s", rates);
    out
}
