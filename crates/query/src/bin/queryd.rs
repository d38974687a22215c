//! `queryd` — serve typed queries over a dataset store on a Unix socket.
//!
//! ```text
//! queryd --data DIR --socket PATH [--cache-mb N] [--trace FILE]
//! ```
//!
//! Opens `DIR/dataset.store` (plus `truth.store` and `ip2as/` when
//! present) once, binds `PATH`, and serves until killed. `--trace` writes
//! the obs JSONL sidecar (query latency histogram, cache counters). A
//! usage error exits 2; a dataset or socket that fails exits 1.

#[cfg(unix)]
const USAGE: &str = "usage: queryd --data DIR --socket PATH [--cache-mb N] [--trace FILE]";

#[cfg(unix)]
fn main() {
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("queryd: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(opts) {
        eprintln!("queryd: {e}");
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("queryd: unix sockets are not available on this platform");
    std::process::exit(1);
}

#[cfg(unix)]
struct Opts {
    data: std::path::PathBuf,
    socket: std::path::PathBuf,
    cache: dynaddr_query::CacheConfig,
}

/// Reads the command line, installing `--trace` as it goes. Every error
/// it returns is a usage error.
#[cfg(unix)]
fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    use std::path::PathBuf;

    let mut data: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut cache = dynaddr_query::CacheConfig::default();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(value("--data")?)),
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--cache-mb" => {
                cache.budget_bytes = value("--cache-mb")?
                    .parse::<usize>()
                    .map_err(|e| format!("--cache-mb: {e}"))?
                    .saturating_mul(1 << 20)
            }
            "--trace" => {
                let path = PathBuf::from(value("--trace")?);
                dynaddr_obs::init_trace(&path).map_err(|e| format!("--trace: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        data: data.ok_or("--data is required")?,
        socket: socket.ok_or("--socket is required")?,
        cache,
    })
}

#[cfg(unix)]
fn run(opts: Opts) -> Result<(), String> {
    use dynaddr_query::{serve, EngineOptions, QueryEngine};
    use std::sync::Arc;

    let engine = QueryEngine::open_dir(&opts.data, &EngineOptions { cache: opts.cache })
        .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    let stats = engine.stats();
    eprintln!(
        "queryd: {} probes, {} ASes, {} countries, truth={} — listening on {}",
        stats.probes().len(),
        stats.asns().len(),
        stats.countries().len(),
        engine.truth_available(),
        opts.socket.display()
    );
    let server = serve(Arc::clone(&engine), &opts.socket).map_err(|e| e.to_string())?;
    let result = server.run().map_err(|e| e.to_string());
    engine.publish_metrics();
    dynaddr_obs::flush_trace();
    result
}
