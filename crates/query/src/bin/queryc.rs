//! `queryc` — replay a seeded workload against `queryd` or locally.
//!
//! ```text
//! queryc --data DIR [--socket PATH] [--count N] [--seed S] [--out FILE]
//!        [--stats]
//! ```
//!
//! Builds the workload operand universe from `DIR` (so the request
//! sequence is identical however it is answered), then answers each
//! request remotely (`--socket`) or from the batch-loaded dataset.
//! Output is one line per request — `<index> <hex of response bytes>` —
//! which makes runs diffable: remote vs local, cold vs warm. That diff is
//! the CI query smoke. A usage error exits 2; any other failure exits 1.
//!
//! `--stats` asks the server for its own counters (uptime, request
//! counts, cache hits/misses) after the workload and prints them to
//! stderr, human-readably — deliberately outside the diffable hex stream,
//! since server counters differ between runs by construction.

#[cfg(unix)]
const USAGE: &str =
    "usage: queryc --data DIR [--socket PATH] [--count N] [--seed S] [--out FILE] [--stats]";

#[cfg(unix)]
fn main() {
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("queryc: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(opts) {
        eprintln!("queryc: {e}");
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("queryc: unix sockets are not available on this platform");
    std::process::exit(1);
}

#[cfg(unix)]
struct Opts {
    data: std::path::PathBuf,
    socket: Option<std::path::PathBuf>,
    count: u64,
    seed: u64,
    out: Option<std::path::PathBuf>,
    want_stats: bool,
}

/// Reads the command line. Every error it returns is a usage error.
#[cfg(unix)]
fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    use std::path::PathBuf;

    let mut data: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut count: u64 = 100;
    let mut seed: u64 = 0xD15EA5E;
    let mut out: Option<PathBuf> = None;
    let mut want_stats = false;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(value("--data")?)),
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--count" => {
                count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--stats" => want_stats = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if want_stats && socket.is_none() {
        return Err("--stats needs --socket (server counters live in the server)".into());
    }
    Ok(Opts {
        data: data.ok_or("--data is required")?,
        socket,
        count,
        seed,
        out,
        want_stats,
    })
}

#[cfg(unix)]
fn run(opts: Opts) -> Result<(), String> {
    use dynaddr_query::proto::{Request, Response};
    use dynaddr_query::{proto, LocalAnswerer, QueryClient, Workload};
    use std::io::Write;
    use std::time::Duration;

    let Opts {
        data,
        socket,
        count,
        seed,
        out,
        want_stats,
    } = opts;
    let local = LocalAnswerer::open_dir(&data).map_err(|e| e.to_string())?;
    let stats = local.stats();
    let workload = Workload::new(
        seed,
        stats.probes(),
        stats.asns(),
        stats.countries(),
        local.truth_available(),
    );

    let mut client = match &socket {
        Some(path) => Some(
            QueryClient::connect_retry(path, Duration::from_secs(10))
                .map_err(|e| format!("{}: {e}", path.display()))?,
        ),
        None => None,
    };

    let mut sink: Box<dyn Write> = match &out {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    for i in 0..count {
        let req = workload.request(i);
        let bytes = match &mut client {
            Some(c) => c
                .request_bytes(&req)
                .map_err(|e| format!("request {i}: {e}"))?,
            None => proto::to_bytes(&local.answer(&req)),
        };
        let mut line = String::with_capacity(bytes.len() * 2 + 24);
        line.push_str(&i.to_string());
        line.push(' ');
        for b in bytes {
            line.push_str(&format!("{b:02x}"));
        }
        line.push('\n');
        sink.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    }
    sink.flush().map_err(|e| e.to_string())?;

    // `parse` refuses --stats without --socket.
    if let Some(c) = client.as_mut().filter(|_| want_stats) {
        match c
            .request(&Request::ServerStats)
            .map_err(|e| format!("--stats: {e}"))?
        {
            Response::ServerStats(s) => {
                eprintln!(
                    "server: up {}s, {} connections, {} requests",
                    s.uptime_secs, s.connections_total, s.requests_total
                );
                for (tag, n) in &s.requests_by_tag {
                    eprintln!("  tag {tag}: {n}");
                }
                eprintln!(
                    "  cache: {} hits, {} misses, {} evictions",
                    s.cache_hits, s.cache_misses, s.cache_evictions
                );
            }
            Response::Error(e) => return Err(format!("--stats: server said: {e}")),
            other => return Err(format!("--stats: unexpected response {other:?}")),
        }
    }
    Ok(())
}
