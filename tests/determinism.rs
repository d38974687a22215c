//! Thread-count invariance: the parallel executor must not change a single
//! byte of the analysis output. The whole pipeline — simulation, filtering,
//! and every table/figure — runs pinned to 1 thread, to 2 threads, and with
//! the override cleared (whatever the machine offers), and the serialized
//! reports are compared byte for byte. The simulator gets its own check:
//! the full `SimOutput` (dataset and ground truth) must also be invariant
//! across forced shard layouts, not just worker counts.

use dynaddr::analysis::pipeline::{analyze, AnalysisConfig, AnalysisReport};
use dynaddr::atlas::logs::{
    ConnectionLogEntry, KrootPingRecord, PeerAddr, ProbeMeta, SosUptimeRecord,
};
use dynaddr::atlas::truth::{
    ChangeCause, IspPolicyTruth, TruthChange, TruthOutage, TruthOutageKind,
};
use dynaddr::atlas::world::{paper_route_tables, paper_world};
use dynaddr::atlas::{simulate, simulate_with_options, AtlasDataset, GroundTruth, SimOptions};
use dynaddr::store::crc32::crc32;
use dynaddr::types::{Asn, Country, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime};
use std::net::{Ipv4Addr, Ipv6Addr};

fn report_at(threads: Option<usize>) -> AnalysisReport {
    dynaddr_exec::set_threads(threads);
    let world = paper_world(0.03, 7);
    let out = simulate(&world);
    let snaps = paper_route_tables(&world);
    let report = analyze(&out.dataset, &snaps, &AnalysisConfig::default());
    dynaddr_exec::set_threads(None);
    report
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let sequential = serde_json::to_string(&report_at(Some(1))).expect("serializes");
    let two = serde_json::to_string(&report_at(Some(2))).expect("serializes");
    assert_eq!(sequential, two, "1-thread and 2-thread reports differ");

    // Whatever available_parallelism() picks must agree too.
    let ambient = serde_json::to_string(&report_at(None)).expect("serializes");
    assert_eq!(
        sequential, ambient,
        "1-thread and ambient-thread reports differ"
    );
}

#[test]
fn oversubscribed_executor_is_still_identical() {
    // More workers than work: empty chunks and tiny chunks must not change
    // ordering or drop items.
    let sequential = serde_json::to_string(&report_at(Some(1))).expect("serializes");
    let many = serde_json::to_string(&report_at(Some(64))).expect("serializes");
    assert_eq!(sequential, many, "64-thread report differs from sequential");
}

/// Serializes a full `SimOutput` — the dataset's store bytes plus the
/// ground truth — produced at the given worker count and shard cap. The
/// store encoding is lossless (`tests/store.rs` round-trips arbitrary
/// datasets through it), so equal fingerprints mean equal outputs.
fn sim_fingerprint(threads: Option<usize>, cap: Option<usize>, seed: u64) -> Vec<u8> {
    dynaddr_exec::set_threads(threads);
    let world = paper_world(0.02, seed);
    let (out, _stats) = simulate_with_options(&world, &SimOptions { shard_cap: cap });
    dynaddr_exec::set_threads(None);
    let truth = serde_json::to_string(&out.truth).expect("truth serializes");
    let mut bytes = out.dataset.to_store_bytes();
    bytes.extend_from_slice(truth.as_bytes());
    bytes
}

#[test]
fn simulation_is_byte_identical_across_threads_and_shard_layouts() {
    for seed in [7u64, 23] {
        let base = sim_fingerprint(Some(1), None, seed);
        // Worker-count invariance at the natural one-shard-per-component
        // layout: 2 workers, heavy oversubscription, and the ambient count.
        for threads in [Some(2), Some(64), None] {
            assert_eq!(
                base,
                sim_fingerprint(threads, None, seed),
                "threads={threads:?} seed={seed}"
            );
        }
        // Layout invariance: folding all components into one shard, or into
        // an arbitrary few, must not change a byte either. One shard also
        // materializes the whole world before any of its events run.
        for cap in [Some(1), Some(3)] {
            assert_eq!(
                base,
                sim_fingerprint(Some(4), cap, seed),
                "cap={cap:?} seed={seed}"
            );
        }
    }
}

/// Store-encodes a freshly simulated dataset and truth at the given worker
/// count, returning both byte blobs.
fn store_bytes_at(threads: Option<usize>) -> (Vec<u8>, Vec<u8>) {
    dynaddr_exec::set_threads(threads);
    let world = paper_world(0.02, 7);
    let out = simulate(&world);
    let (dataset, truth) = (out.dataset.to_store_bytes(), out.truth.to_store_bytes());
    dynaddr_exec::set_threads(None);
    (dataset, truth)
}

#[test]
fn store_encoding_is_byte_identical_across_thread_counts() {
    let (base_ds, base_truth) = store_bytes_at(Some(1));
    for threads in [Some(2), Some(64), None] {
        let (ds, truth) = store_bytes_at(threads);
        assert_eq!(
            base_ds, ds,
            "dataset.store bytes differ at threads={threads:?}"
        );
        assert_eq!(
            base_truth, truth,
            "truth.store bytes differ at threads={threads:?}"
        );
    }

    // Decoding must reproduce the normalized in-memory dataset exactly, at
    // any worker count, and re-encoding the decoded copy must reproduce the
    // file bytes (the format has one canonical form).
    dynaddr_exec::set_threads(Some(1));
    let expect = simulate(&paper_world(0.02, 7));
    dynaddr_exec::set_threads(None);
    for threads in [Some(1), Some(2), Some(64), None] {
        dynaddr_exec::set_threads(threads);
        let ds = dynaddr::atlas::AtlasDataset::from_store_bytes(&base_ds).expect("decodes");
        let truth = dynaddr::atlas::GroundTruth::from_store_bytes(&base_truth).expect("decodes");
        dynaddr_exec::set_threads(None);
        assert_eq!(
            expect.dataset, ds,
            "decoded dataset differs at threads={threads:?}"
        );
        assert_eq!(
            serde_json::to_string(&expect.truth).expect("serializes"),
            serde_json::to_string(&truth).expect("serializes"),
            "decoded truth differs at threads={threads:?}"
        );
        assert_eq!(
            base_ds,
            ds.to_store_bytes(),
            "re-encode differs at threads={threads:?}"
        );
    }
}

#[test]
fn streamed_pipeline_matches_materialized_byte_for_byte() {
    // Shard outputs encoded into the store file as they complete, and the
    // out-of-core analyzer over that file, must both be byte-identical to
    // the batch paths at any worker count.
    use dynaddr::analysis::pipeline::analyze_streamed_batched;
    use dynaddr::atlas::simulate_to_store;

    let dir = std::env::temp_dir().join(format!("dynaddr-streamed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for seed in [7u64, 23] {
        let world = paper_world(0.02, seed);
        dynaddr_exec::set_threads(Some(1));
        let out = simulate(&world);
        dynaddr_exec::set_threads(None);
        let batch_bytes = out.dataset.to_store_bytes();
        let batch_truth = serde_json::to_string(&out.truth).expect("truth serializes");
        let snaps = paper_route_tables(&world);
        let batch_report =
            serde_json::to_string(&analyze(&out.dataset, &snaps, &AnalysisConfig::default()))
                .expect("report serializes");

        for threads in [Some(1), Some(2), None] {
            dynaddr_exec::set_threads(threads);
            let path = dir.join(format!("streamed-{seed}.store"));
            let (truth, _stats) =
                simulate_to_store(&world, &SimOptions::default(), &path).expect("streamed sim");
            // 16 probes per batch forces the analyzer through many
            // partial views of the dataset.
            let streamed_report = serde_json::to_string(
                &analyze_streamed_batched(&path, &snaps, &AnalysisConfig::default(), 16)
                    .expect("streamed analyze"),
            )
            .expect("report serializes");
            dynaddr_exec::set_threads(None);

            let streamed_bytes = std::fs::read(&path).expect("read streamed store");
            assert!(
                batch_bytes == streamed_bytes,
                "dataset.store bytes differ at threads={threads:?} seed={seed}"
            );
            assert_eq!(
                batch_truth,
                serde_json::to_string(&truth).expect("truth serializes"),
                "ground truth differs at threads={threads:?} seed={seed}"
            );
            assert_eq!(
                batch_report, streamed_report,
                "streamed report differs at threads={threads:?} seed={seed}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn daemon_replay_seal_is_byte_identical_across_thread_counts() {
    // The keystone daemon property under the executor: replaying the full
    // stream from t=0 into the live per-probe machines and sealing must
    // render byte-for-byte the batch analyzer's report, at 1 thread, 2
    // threads, heavy oversubscription, and the ambient count. (The ci.sh
    // daemon smoke re-checks the same equivalence end-to-end through the
    // dynaddrd binary and its Unix socket.)
    use dynaddr::analysis::report::render_full;
    use dynaddr_daemon::{Daemon, Rate};

    let world = paper_world(0.02, 7);
    dynaddr_exec::set_threads(Some(1));
    let out = simulate(&world);
    let snaps = paper_route_tables(&world);
    let cfg = AnalysisConfig::default();
    let batch = render_full(&analyze(&out.dataset, &snaps, &cfg), &cfg.as_names);
    dynaddr_exec::set_threads(None);

    for threads in [Some(1), Some(2), Some(64), None] {
        dynaddr_exec::set_threads(threads);
        let daemon = Daemon::new(snaps.clone(), cfg.clone());
        daemon.replay(&out.dataset, Rate::Max);
        let sealed = daemon.seal_text();
        dynaddr_exec::set_threads(None);
        assert_eq!(
            batch, sealed,
            "daemon replay+seal differs from batch analyze at threads={threads:?}"
        );
    }
}

/// A hand-built dataset and ground truth that reach every table and every
/// value shape the store codecs write: all enum codes, v4 and v6 peers, a
/// first assignment and a renumbering, exact float weights, hour lists and
/// an admin renumbering. Built by hand, not simulated, so no simulator
/// change can move the bytes [`store_bytes_are_pinned`] pins.
fn pinned_store_inputs() -> (AtlasDataset, GroundTruth) {
    let versions = [ProbeVersion::V1, ProbeVersion::V2, ProbeVersion::V3];
    let tags = [
        ProbeTag::Multihomed,
        ProbeTag::Datacentre,
        ProbeTag::Core,
        ProbeTag::Dsl,
        ProbeTag::Cable,
        ProbeTag::Fibre,
        ProbeTag::Nat,
        ProbeTag::Home,
    ];
    let causes = [
        ChangeCause::PeriodicCap,
        ChangeCause::PoolRotation,
        ChangeCause::ScheduledReconnect,
        ChangeCause::NetworkOutage,
        ChangeCause::PowerOutage,
        ChangeCause::AdminRenumber,
        ChangeCause::Moved,
    ];
    let kinds = [
        TruthOutageKind::Network,
        TruthOutageKind::Power,
        TruthOutageKind::CpeOnlyPower,
        TruthOutageKind::ProbeOnlyReboot,
    ];
    let mut ds = AtlasDataset::default();
    let mut truth = GroundTruth::default();
    for p in 0..9u32 {
        let (probe, i, base) = (ProbeId(p * 3 + 1), p as usize, i64::from(p) * 1_000 - 2_000);
        ds.meta.push(ProbeMeta {
            probe,
            version: versions[i % 3],
            country: Country::new(["DE", "US", "JP", "BR", "ZA"][i % 5]).unwrap(),
            tags: tags.iter().copied().skip(i).take(i % 3 + 1).collect(),
        });
        for k in 0..4i64 {
            ds.connections.push(ConnectionLogEntry {
                probe,
                start: SimTime(base + k * 86_400),
                end: SimTime(base + k * 86_400 + 40_000 + k),
                peer: if (i + k as usize) % 4 == 3 {
                    PeerAddr::V6(Ipv6Addr::new(
                        0x2001,
                        0xdb8,
                        p as u16,
                        0,
                        0,
                        0,
                        0,
                        k as u16 + 1,
                    ))
                } else {
                    PeerAddr::V4(Ipv4Addr::new(10 + p as u8, 200, k as u8, 255 - p as u8))
                },
            });
        }
        for k in 0..5i64 {
            ds.kroot.push(KrootPingRecord {
                probe,
                timestamp: SimTime(base + k * 240),
                sent: 3,
                success: ((k + i64::from(p)) % 4) as u8,
                lts_secs: 60 + k * i64::from(p),
            });
        }
        ds.uptime.push(SosUptimeRecord {
            probe,
            timestamp: SimTime(base + 7),
            uptime_secs: u64::from(p) * 1_000_003 + 5,
        });
        truth.changes.push(TruthChange {
            probe,
            time: SimTime(base + 500),
            from: (p % 2 == 1).then(|| Ipv4Addr::new(10, p as u8, 0, 1)),
            to: Ipv4Addr::new(10, p as u8, 1, 2),
            cause: causes[i % causes.len()],
        });
        truth.outages.push(TruthOutage {
            probe,
            kind: kinds[i % kinds.len()],
            start: SimTime(base + 900),
            duration: SimDuration(i64::from(p) * 61 + 30),
            address_changed: p % 3 == 0,
        });
        if p % 4 == 0 {
            truth.firmware_reboots.push((probe, SimTime(base + 1_234)));
        }
    }
    truth.firmware_dates = vec![
        SimTime::from_date(3, 2, 4, 0, 0),
        SimTime::from_date(8, 30, 22, 15, 0),
    ];
    for (asn, name, hours, weight) in [
        (3320u32, "Deutsche Telekom", vec![24], 0.97),
        (3215, "Orange", vec![168, 24, -1], 2.0 / 3.0),
        (7922, "Comcast", vec![], f64::MIN_POSITIVE),
    ] {
        truth.isp_policies.insert(
            asn,
            IspPolicyTruth {
                name: name.to_string(),
                country: "DE".to_string(),
                periodic_hours: hours,
                renumbers_on_reconnect: asn % 2 == 0,
                periodic_weight: weight,
                probes: asn as usize / 10,
            },
        );
    }
    truth.admin_renumbering = Some((Asn(6830), SimTime::from_date(9, 1, 2, 0, 0)));
    ds.normalize();
    truth.normalize();
    (ds, truth)
}

#[test]
fn store_bytes_are_pinned() {
    // The other store tests compare a writer with itself or roundtrip it;
    // this pins the layout, so a codec change that moves a byte fails.
    let (ds, truth) = pinned_store_inputs();
    let (data, truth) = (ds.to_store_bytes(), truth.to_store_bytes());
    assert_eq!(
        (data.len(), crc32(&data)),
        (1_047, 0x4376_f301),
        "dataset.store"
    );
    assert_eq!(
        (truth.len(), crc32(&truth)),
        (453, 0xa859_994a),
        "truth.store"
    );
}

#[test]
fn simulator_output_is_pinned() {
    // Every other simulator check compares two runs of one build, so a
    // change to the event order that moves every layout alike would pass
    // them all; this pins the simulated bytes themselves.
    let out = simulate(&paper_world(0.02, 7));
    let (data, truth) = (out.dataset.to_store_bytes(), out.truth.to_store_bytes());
    assert_eq!(
        (data.len(), crc32(&data)),
        (3_780_476, 0x61b3_61ed),
        "dataset.store"
    );
    assert_eq!(
        (truth.len(), crc32(&truth)),
        (573_727, 0x54f5_90bf),
        "truth.store"
    );
}

#[test]
fn tracing_never_changes_a_report_byte() {
    // Observability is strictly off the output path: the report must be
    // byte-identical with the JSONL trace sink on and off, at every worker
    // count. Heartbeats are forced hot (0-second interval) so the traced
    // runs actually exercise the emit path, not just the enabled check.
    let untraced = serde_json::to_string(&report_at(Some(1))).expect("serializes");

    let path = std::env::temp_dir().join(format!(
        "dynaddr-determinism-trace-{}.jsonl",
        std::process::id()
    ));
    std::env::set_var("DYNADDR_HEARTBEAT_SECS", "0");
    for threads in [Some(1), Some(2), Some(64), None] {
        dynaddr_obs::init_trace(&path).expect("create trace sink");
        let traced = serde_json::to_string(&report_at(threads)).expect("serializes");
        dynaddr_obs::flush_trace();
        dynaddr_obs::disable_trace();
        assert_eq!(
            untraced, traced,
            "tracing changed the report at threads={threads:?}"
        );
    }
    std::env::remove_var("DYNADDR_HEARTBEAT_SECS");

    // The sidecar itself must be real JSONL: every line parses, and the
    // last traced run produced span events.
    let sidecar = std::fs::read_to_string(&path).expect("read trace sidecar");
    let mut spans = 0usize;
    for line in sidecar.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("each trace line is JSON");
        let serde::Value::Object(fields) = v else {
            panic!("trace line is not an object: {line}");
        };
        let (_, ev) = fields
            .iter()
            .find(|(k, _)| k == "ev")
            .expect("trace event has an ev field");
        if *ev == serde::Value::Str("span".to_string()) {
            spans += 1;
        }
    }
    assert!(spans > 0, "traced run produced no span events");
    std::fs::remove_file(&path).ok();
}
