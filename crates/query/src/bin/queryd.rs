//! `queryd` — serve typed queries over a dataset store on a Unix socket.
//!
//! ```text
//! queryd --data DIR --socket PATH [--cache-mb N] [--trace FILE]
//! ```
//!
//! Opens `DIR/dataset.store` (plus `truth.store` and `ip2as/` when
//! present) once, binds `PATH`, and serves until killed. `--trace` writes
//! the obs JSONL sidecar (query latency histogram, cache counters).

#[cfg(unix)]
fn main() {
    if let Err(e) = run() {
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
fn run() -> Result<(), String> {
    use dynaddr_query::{serve, CacheConfig, EngineOptions, QueryEngine};
    use std::path::PathBuf;
    use std::sync::Arc;

    let mut data: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut cache = CacheConfig::default();
    let mut trace: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(value("--data")?)),
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--cache-mb" => {
                cache.budget_bytes = value("--cache-mb")?
                    .parse::<usize>()
                    .map_err(|e| format!("--cache-mb: {e}"))?
                    .saturating_mul(1 << 20)
            }
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--help" | "-h" => {
                println!("usage: queryd --data DIR --socket PATH [--cache-mb N] [--trace FILE]");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let data = data.ok_or("--data is required")?;
    let socket = socket.ok_or("--socket is required")?;
    if let Some(path) = &trace {
        dynaddr_obs::init_trace(path).map_err(|e| format!("--trace: {e}"))?;
    }

    let engine = QueryEngine::open_dir(&data, &EngineOptions { cache })
        .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    let stats = engine.stats();
    eprintln!(
        "queryd: {} probes, {} ASes, {} countries, truth={} — listening on {}",
        stats.probes().len(),
        stats.asns().len(),
        stats.countries().len(),
        engine.truth_available(),
        socket.display()
    );
    let server = serve(Arc::clone(&engine), &socket).map_err(|e| e.to_string())?;
    let result = server.run().map_err(|e| e.to_string());
    engine.publish_metrics();
    dynaddr_obs::flush_trace();
    result
}
