//! `dynaddrd` — live ingestion daemon over the query wire protocol.
//!
//! ```text
//! dynaddrd --replay FILE [--data DIR] --socket PATH [--rate N|max]
//!          [--report FILE] [--trace FILE] [--threads N]
//!          [--exit-after-replay]
//! dynaddrd query --socket PATH (snapshot|ingest|probe ID|server)
//!          [--wait-sealed SECS]
//! ```
//!
//! Daemon mode binds `--socket`, then replays the store file while
//! answering point queries (`DaemonSnapshot`, `DaemonProbe`,
//! `IngestStats`, plus the front-end's `ServerStats`) from the rolling
//! state. At `--rate max` (the default) only the file's footer is read
//! before binding; the replay then streams the file probe-major, one
//! batch of whole probes at a time, each built off the state lock, so
//! probes appear whole a batch at a time and memory stays at one batch
//! plus the machines. `--rate N` loads the file and pushes every record
//! in arrival order, N recorded seconds per wall-clock second. When the
//! replay completes, the stream is sealed and the full report is written
//! to `--report` (atomically, via a rename) — byte-for-byte the report
//! `analyze --data` prints for the same directory, which is exactly what
//! the CI smoke diffs. With `--exit-after-replay` the daemon then shuts
//! down; without it, it keeps serving until killed. If the replay or the
//! report write fails, the daemon logs the error, stops serving,
//! publishes no report and exits 1. A usage error exits 2 in either mode.
//!
//! The replay FILE is any store file; `--data` names the directory that
//! supplies `ip2as/` and `names.json`, and defaults to the replay file's
//! parent directory. Query mode is the matching client: it prints one
//! daemon reply human-readably, and `--wait-sealed` polls until the stream
//! is sealed first — the CI hook for "replay finished".

#[cfg(unix)]
const USAGE: &str = "usage: dynaddrd --replay FILE [--data DIR] --socket PATH \
                     [--rate N|max] [--report FILE] [--trace FILE] [--threads N] \
                     [--exit-after-replay]\n       \
                     dynaddrd query --socket PATH \
                     (snapshot|ingest|probe ID|server) [--wait-sealed SECS]";

#[cfg(unix)]
fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().map(String::as_str) == Some("query") {
        args.remove(0);
        run_query(parse_query(args).unwrap_or_else(|e| usage_error(&e)))
    } else {
        run_daemon(parse_daemon(args).unwrap_or_else(|e| usage_error(&e)))
    };
    if let Err(e) = done {
        eprintln!("dynaddrd: {e}");
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("dynaddrd: unix sockets are not available on this platform");
    std::process::exit(1);
}

#[cfg(unix)]
fn usage_error(e: &str) -> ! {
    eprintln!("dynaddrd: {e}\n{USAGE}");
    std::process::exit(2);
}

#[cfg(unix)]
struct DaemonOpts {
    replay_file: std::path::PathBuf,
    /// Supplies `ip2as/` and `names.json`.
    dir: std::path::PathBuf,
    socket: std::path::PathBuf,
    rate: dynaddr_daemon::Rate,
    report: Option<std::path::PathBuf>,
    exit_after_replay: bool,
}

/// Reads daemon mode's command line, installing `--trace` and `--threads`
/// as it goes. Every error it returns is a usage error.
#[cfg(unix)]
fn parse_daemon(args: Vec<String>) -> Result<DaemonOpts, String> {
    use std::path::PathBuf;

    let mut replay: Option<PathBuf> = None;
    let mut data: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut rate = dynaddr_daemon::Rate::Max;
    let mut report: Option<PathBuf> = None;
    let mut exit_after_replay = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            "--data" => data = Some(PathBuf::from(value("--data")?)),
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--rate" => rate = dynaddr_daemon::Rate::parse(&value("--rate")?)?,
            "--report" => report = Some(PathBuf::from(value("--report")?)),
            "--trace" => {
                let path = PathBuf::from(value("--trace")?);
                dynaddr_obs::init_trace(&path).map_err(|e| format!("--trace: {e}"))?;
            }
            "--threads" => dynaddr_exec::set_threads(Some(
                value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?,
            )),
            "--exit-after-replay" => exit_after_replay = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let replay_file = replay.ok_or("--replay is required")?;
    let dir = match data {
        Some(d) => d,
        None => replay_file
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .ok_or("--replay file has no parent directory; pass --data DIR")?
            .to_path_buf(),
    };
    Ok(DaemonOpts {
        dir,
        replay_file,
        socket: socket.ok_or("--socket is required")?,
        rate,
        report,
        exit_after_replay,
    })
}

#[cfg(unix)]
fn run_daemon(opts: DaemonOpts) -> Result<(), String> {
    use dynaddr_atlas::logs::AtlasDataset;
    use dynaddr_atlas::DatasetStream;
    use dynaddr_core::pipeline::AnalysisConfig;
    use dynaddr_daemon::{Daemon, Rate};
    use dynaddr_ip2as::MonthlySnapshots;
    use dynaddr_query::serve;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let DaemonOpts {
        replay_file,
        dir,
        socket,
        rate,
        report,
        exit_after_replay,
    } = opts;

    // Mirror `analyze --data DIR` exactly: same snapshots, same config,
    // same names.json handling — the sealed report must diff clean.
    let snaps = MonthlySnapshots::load_dir(&dir.join("ip2as"))
        .map_err(|e| format!("failed to load ip2as snapshots: {e}"))?;
    let mut cfg = AnalysisConfig::default();
    if let Ok(names) = std::fs::read_to_string(dir.join("names.json")) {
        match serde_json::from_str::<BTreeMap<u32, String>>(&names) {
            Ok(parsed) => cfg.as_names = parsed,
            Err(e) => dynaddr_obs::warn!(
                "ignoring unparseable {}: {e}",
                dir.join("names.json").display()
            ),
        }
    }
    // At max rate only the footer is read here; paced replay needs the
    // whole file in memory for its arrival-order plan.
    let (source, probes) = match rate {
        Rate::Max => {
            let stream = DatasetStream::open(&replay_file).map_err(|e| {
                format!("failed to open replay file {}: {e}", replay_file.display())
            })?;
            let probes = stream.total_probes();
            (Source::Stream(stream), probes)
        }
        Rate::Multiplier(_) => {
            let dataset = AtlasDataset::load_file(&replay_file)
                .map_err(|e| format!("failed to load replay file {e}"))?;
            let probes = dataset.meta.len() as u64;
            (Source::Paced(dataset, rate), probes)
        }
    };

    let daemon = Arc::new(Daemon::new(snaps, cfg));
    let server = serve(Arc::clone(&daemon), &socket).map_err(|e| e.to_string())?;
    let handle = server.handle();
    eprintln!(
        "dynaddrd: replaying {} ({probes} probes) at {rate:?} — listening on {}",
        replay_file.display(),
        socket.display()
    );

    let ingest_daemon = Arc::clone(&daemon);
    let ingest = std::thread::spawn(move || -> Result<(), String> {
        let done = replay_and_publish(&ingest_daemon, source, &replay_file, report.as_deref());
        if let Err(e) = &done {
            dynaddr_obs::error!("{e}");
        }
        // Make the replay's trace durable now: a daemon is typically
        // killed, not shut down, so waiting for exit would lose the tail.
        dynaddr_obs::flush_trace();
        // A failure stops serving even without --exit-after-replay: no
        // report a caller waits for would ever be published.
        if exit_after_replay || done.is_err() {
            handle.stop();
        }
        done
    });

    let served = server.run().map_err(|e| e.to_string());
    let ingested = ingest
        .join()
        .map_err(|_| "ingest thread panicked".to_string())?;
    dynaddr_obs::flush_trace();
    served.and(ingested)
}

/// Where the replay's records come from.
#[cfg(unix)]
enum Source {
    /// `--rate max`: the store, streamed probe-major.
    Stream(dynaddr_atlas::DatasetStream),
    /// `--rate N`: the loaded dataset, replayed in arrival order.
    Paced(dynaddr_atlas::logs::AtlasDataset, dynaddr_daemon::Rate),
}

/// Replays `source`, seals, and publishes the report to `report`, if
/// given. On error nothing is published.
#[cfg(unix)]
fn replay_and_publish(
    daemon: &dynaddr_daemon::Daemon,
    source: Source,
    replay_file: &std::path::Path,
    report: Option<&std::path::Path>,
) -> Result<(), String> {
    match source {
        Source::Stream(stream) => daemon
            .replay_stream(stream)
            .map_err(|e| format!("replay of {} failed: {e}", replay_file.display()))?,
        Source::Paced(dataset, rate) => daemon.replay(&dataset, rate),
    }
    let text = daemon.seal_text();
    if let Some(path) = report {
        // Atomic publish: the CI smoke polls for this file, so it must
        // never observe a half-written report.
        let tmp = path.with_extension("tmp");
        let failed = |e: std::io::Error| format!("failed to write report {}: {e}", path.display());
        std::fs::write(&tmp, &text).map_err(failed)?;
        std::fs::rename(&tmp, path).map_err(failed)?;
        dynaddr_obs::info!("wrote sealed report to {}", path.display());
    }
    Ok(())
}

#[cfg(unix)]
struct QueryOpts {
    socket: std::path::PathBuf,
    wait_sealed: Option<u64>,
    what: dynaddr_query::Request,
}

/// Reads query mode's command line. Every error it returns is a usage
/// error.
#[cfg(unix)]
fn parse_query(args: Vec<String>) -> Result<QueryOpts, String> {
    use dynaddr_query::Request;
    use std::path::PathBuf;

    let mut socket: Option<PathBuf> = None;
    let mut wait_sealed: Option<u64> = None;
    let mut what: Option<Request> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--wait-sealed" => {
                wait_sealed = Some(
                    value("--wait-sealed")?
                        .parse()
                        .map_err(|e| format!("--wait-sealed: {e}"))?,
                )
            }
            "snapshot" => what = Some(Request::DaemonSnapshot),
            "ingest" => what = Some(Request::IngestStats),
            "server" => what = Some(Request::ServerStats),
            "probe" => {
                let id = value("probe")?.parse().map_err(|e| format!("probe: {e}"))?;
                what = Some(Request::DaemonProbe(dynaddr_types::ProbeId(id)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(QueryOpts {
        socket: socket.ok_or("--socket is required")?,
        wait_sealed,
        what: what.ok_or("one of snapshot|ingest|probe ID|server is required")?,
    })
}

#[cfg(unix)]
fn run_query(opts: QueryOpts) -> Result<(), String> {
    use dynaddr_query::{QueryClient, Request, Response};
    use std::time::{Duration, Instant};

    let QueryOpts {
        socket,
        wait_sealed,
        what,
    } = opts;
    let mut client = QueryClient::connect_retry(&socket, Duration::from_secs(10))
        .map_err(|e| format!("{}: {e}", socket.display()))?;

    if let Some(secs) = wait_sealed {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            match client
                .request(&Request::IngestStats)
                .map_err(|e| e.to_string())?
            {
                Response::IngestStats(s) if s.sealed => break,
                Response::IngestStats(_) => {}
                other => return Err(format!("--wait-sealed: unexpected {other:?}")),
            }
            if Instant::now() >= deadline {
                return Err(format!("--wait-sealed: not sealed after {secs}s"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    match client.request(&what).map_err(|e| e.to_string())? {
        Response::DaemonSnapshot(s) => {
            let c = &s.counts;
            println!(
                "snapshot: {} probes ({} tracked), frontier {}s, sealed {}",
                c.total, s.probes_tracked, s.frontier_secs, s.sealed
            );
            println!(
                "  funnel: ipv6_only {}, dual_stack {}, tagged {}, multihomed {}, \
                 testing_only {}, never_changed {}, analyzable_geo {}, multi_as {}, \
                 analyzable_as {}",
                c.ipv6_only,
                c.dual_stack,
                c.tagged,
                c.multihomed,
                c.testing_only,
                c.never_changed,
                c.analyzable_geo,
                c.multi_as,
                c.analyzable_as
            );
            println!(
                "  events: {} changes, {} gaps, {} network outages, {} reboots",
                s.changes, s.gaps, s.network_outages, s.reboots
            );
        }
        Response::IngestStats(s) => {
            println!(
                "ingest: {}/{} rows in {}ms, frontier {}s, sealed {}",
                s.rows_ingested, s.rows_planned, s.elapsed_ms, s.frontier_secs, s.sealed
            );
            println!(
                "  rows: {} meta, {} connection, {} kroot, {} uptime, {} unknown-probe",
                s.meta_rows, s.connection_rows, s.kroot_rows, s.uptime_rows, s.unknown_probe_rows
            );
        }
        Response::DaemonProbe(Some(p)) => {
            let v = &p.view;
            println!(
                "probe {}: class {}, multi_as {}, {} entries, {} changes, {} gaps, \
                 {} network outages, {} reboots, had_testing {}",
                p.probe,
                v.class.code(),
                v.multi_as,
                v.entries,
                v.changes,
                v.gaps,
                v.network_outages,
                v.reboots,
                v.had_testing
            );
        }
        Response::DaemonProbe(None) => println!("probe: not tracked"),
        Response::ServerStats(s) => {
            println!(
                "server: up {}s, {} connections, {} requests",
                s.uptime_secs, s.connections_total, s.requests_total
            );
            for (tag, n) in &s.requests_by_tag {
                println!("  tag {tag}: {n}");
            }
        }
        Response::Error(e) => return Err(format!("server said: {e}")),
        other => return Err(format!("unexpected response {other:?}")),
    }
    Ok(())
}
