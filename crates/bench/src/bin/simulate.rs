//! `simulate` — generate a RIPE-Atlas-style dataset on disk.
//!
//! Usage:
//!   simulate --out DIR [--scale S | --tier NAME] [--seed N] [--threads N]
//!            [--streamed] [--trace FILE]
//!
//! Writes into DIR:
//!   dataset.store                                             (the dataset)
//!   truth.store                                               (ground truth)
//!   ip2as/2015-MM.pfx2as                                      (12 snapshots)
//!   names.json                                                (ASN → name)
//!
//! The directory is exactly what the `analyze` binary consumes — the
//! pipeline runs from the files alone, as it would on real scraped logs.
//!
//! `--tier NAME` is sugar for the named scale (s005, s02, paper, 10x,
//! 100x). Each simulator shard's rows are encoded into `dataset.store` as
//! the shard completes (`simulate_to_store`), so the dataset never sits in
//! memory whole; the file is byte-identical to the in-memory simulation's
//! (`tests/determinism.rs` pins it). `--streamed` is still accepted and
//! changes nothing.
//!
//! `--trace FILE` writes a JSONL observability sidecar (spans, metrics,
//! heartbeats, executor stats); the dataset bytes are identical with and
//! without it. `DYNADDR_LOG` (error|warn|info|debug) sets the stderr
//! log level. A missing or malformed flag value exits 2 with the usage
//! line. The process's peak RSS is printed to stderr on exit
//! (`peak_rss_bytes: N`) so CI can assert a memory ceiling.

use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_atlas::{simulate_to_store, SimOptions};
use dynaddr_bench::{flag_value, tier_scale};
use dynaddr_obs::{error, info};
use dynaddr_store::{ColumnarRecord, SegmentFileReader};
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage: simulate --out DIR [--scale S | --tier NAME] [--seed N] \
                     [--threads N] [--streamed] [--trace FILE]";

fn main() {
    let mut scale = 0.1f64;
    let mut seed = 2015u64;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = flag_value(&mut args, "--scale", USAGE),
            "--tier" => {
                let name: String = flag_value(&mut args, "--tier", USAGE);
                scale = tier_scale(&name).unwrap_or_else(|| {
                    error!(
                        "unknown tier {name:?} (want one of {})",
                        dynaddr_bench::TIER_NAMES.join(", ")
                    );
                    std::process::exit(2);
                });
            }
            // Every run streams; the flag stays for the scripts that pass it.
            "--streamed" => {}
            "--seed" => seed = flag_value(&mut args, "--seed", USAGE),
            "--out" => out = Some(flag_value(&mut args, "--out", USAGE)),
            "--trace" => {
                dynaddr_bench::init_trace_or_exit(&flag_value::<PathBuf>(
                    &mut args, "--trace", USAGE,
                ));
            }
            // Overrides the DYNADDR_THREADS environment variable.
            "--threads" => {
                dynaddr_exec::set_threads(Some(flag_value(&mut args, "--threads", USAGE)))
            }
            other => {
                error!("unknown argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(out_dir) = out else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    info!("simulating paper world at scale {scale} (seed {seed})...");
    let world = paper_world(scale, seed);
    let snaps = paper_route_tables(&world);

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let store_path = out_dir.join("dataset.store");
    let (truth, _stats) = simulate_to_store(&world, &SimOptions::default(), &store_path)
        .unwrap_or_else(|e| {
            error!("simulate failed: {e}");
            std::process::exit(1);
        });
    // Row counts come from the footer index: the dataset is never in
    // memory whole.
    let reader = SegmentFileReader::open(&store_path).expect("reopen dataset.store");
    let counts = [
        reader.table_rows(dynaddr_atlas::ProbeMeta::TABLE_ID),
        reader.table_rows(dynaddr_atlas::ConnectionLogEntry::TABLE_ID),
        reader.table_rows(dynaddr_atlas::KrootPingRecord::TABLE_ID),
        reader.table_rows(dynaddr_atlas::SosUptimeRecord::TABLE_ID),
    ];

    snaps
        .save_dir(&out_dir.join("ip2as"))
        .expect("write snapshots");
    std::fs::write(out_dir.join("truth.store"), truth.to_store_bytes()).expect("write truth");
    let names: BTreeMap<u32, String> = truth
        .isp_policies
        .iter()
        .map(|(asn, p)| (*asn, p.name.clone()))
        .collect();
    std::fs::write(
        out_dir.join("names.json"),
        serde_json::to_string_pretty(&names).expect("names serialize"),
    )
    .expect("write names");

    info!(
        "wrote {}: {} probes, {} connection entries, {} kroot records, {} uptime records",
        out_dir.display(),
        counts[0],
        counts[1],
        counts[2],
        counts[3],
    );
    dynaddr_bench::emit_exec_stats_event();
    dynaddr_obs::flush_trace();
    dynaddr_obs::disable_trace();
    // Raw eprintln on purpose: ci.sh greps this exact line.
    eprintln!("peak_rss_bytes: {}", dynaddr_bench::peak_rss_bytes());
}
