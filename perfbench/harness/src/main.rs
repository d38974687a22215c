//! `perfbench-harness` — the benchmark's load generator and checker.
//!
//! ```text
//! perfbench-harness WORKLOAD --seed N --seconds S --trace 0|1
//!                   --bin DIR --work DIR --results DIR
//! ```
//!
//! Runs one workload (`pipeline`, `query-hot`, `query-cold`, `live`)
//! against the binaries in `--bin`, in the scratch directory `--work`
//! (removed afterwards), and prints one JSON object: `correct`,
//! `attempted`, `failed`, `metrics` (name → value and unit), `detail`
//! (diagnostics) and `failures`. With `--trace 1` it runs the traced
//! layer sweep instead of the timed run. `perfbench/run.py` builds
//! everything, adds host diagnostics and prints the final result line.

mod spans;
mod stats;
mod sys;
mod traced;
mod traffic;
mod workloads;

use serde::{Serialize, Value};
use std::path::PathBuf;
use workloads::{Ctx, Outcome, QUERY_COLD, QUERY_HOT};

/// The workloads this harness knows.
const WORKLOADS: [&str; 4] = ["pipeline", "query-hot", "query-cold", "live"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-harness ({}) --seed N --seconds S --trace 0|1 --bin DIR --work DIR --results DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(workload) = args.next().filter(|w| WORKLOADS.contains(&w.as_str())) else {
        usage()
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut bin, mut work, mut results) = (None, None, None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--bin" => bin = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--results" => results = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(seed), Some(seconds), Some(trace), Some(bin), Some(work), Some(results)) =
        (seed, seconds, trace, bin, work, results)
    else {
        usage()
    };
    let dir = match sys::WorkDir::create(work) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench-harness: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };
    // Sockets are named relative to the work directory, which keeps their
    // paths short whatever the checkout's location.
    if let Err(e) = std::env::set_current_dir(&dir.0) {
        eprintln!("perfbench-harness: cannot enter the work directory: {e}");
        std::process::exit(1);
    }
    let _ = std::fs::create_dir_all(&results);
    let ctx = Ctx {
        bin,
        seed,
        seconds,
        work: dir.0.clone(),
        results,
    };
    let mut out = match (workload.as_str(), trace) {
        ("query-hot", true) => traced::traced(&ctx, Some(QUERY_HOT)),
        ("query-cold", true) => traced::traced(&ctx, Some(QUERY_COLD)),
        (_, true) => traced::traced(&ctx, None),
        ("pipeline", false) => workloads::pipeline(&ctx),
        ("query-hot", false) => workloads::query(&ctx, QUERY_HOT),
        ("query-cold", false) => workloads::query(&ctx, QUERY_COLD),
        ("live", false) => workloads::live(&ctx),
        _ => unreachable!("workload names are checked above"),
    };
    drop(dir);
    out.note("harness_cpu_s", sys::self_cpu_s());
    println!("{}", to_json(&out));
}

fn to_json(out: &Outcome) -> String {
    let field = |k: &str, v: Value| (k.to_string(), v);
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = vec![
                field("value", value.to_value()),
                field("unit", unit.to_value()),
            ];
            field(name, Value::Object(m))
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0 && !out.metrics.is_empty();
    let o = Value::Object(vec![
        field("correct", correct.to_value()),
        field("attempted", out.attempted.to_value()),
        field("failed", out.failed.to_value()),
        field("metrics", Value::Object(metrics)),
        field("detail", Value::Object(out.detail.clone())),
        field("failures", out.failures.to_value()),
    ]);
    serde_json::to_string(&o).expect("a value tree always serializes")
}
