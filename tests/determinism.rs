//! Thread-count invariance: the parallel executor must not change a single
//! byte of the analysis output. The whole pipeline — simulation, filtering,
//! and every table/figure — runs pinned to 1 thread, to 2 threads, and with
//! the override cleared (whatever the machine offers), and the serialized
//! reports are compared byte for byte. The simulator gets its own check:
//! the full `SimOutput` (dataset and ground truth) must also be invariant
//! across forced shard layouts, not just worker counts.

use dynaddr::analysis::pipeline::{analyze, AnalysisConfig, AnalysisReport};
use dynaddr::atlas::engine::set_bucket_width;
use dynaddr::atlas::world::{paper_route_tables, paper_world};
use dynaddr::atlas::{simulate, simulate_with_options, SimOptions};

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
    assert_eq!(sequential, ambient, "1-thread and ambient-thread reports differ");
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
/// ground truth — produced at the given worker count and sharding options.
/// The store encoding is lossless (`tests/store.rs` round-trips arbitrary
/// datasets through it), so equal fingerprints mean equal outputs.
fn sim_fingerprint_opts(threads: Option<usize>, opts: &SimOptions, seed: u64) -> Vec<u8> {
    dynaddr_exec::set_threads(threads);
    let world = paper_world(0.02, seed);
    let (out, _stats) = simulate_with_options(&world, opts);
    dynaddr_exec::set_threads(None);
    let truth = serde_json::to_string(&out.truth).expect("truth serializes");
    let mut bytes = out.dataset.to_store_bytes();
    bytes.extend_from_slice(truth.as_bytes());
    bytes
}

/// [`sim_fingerprint_opts`] with only a forced shard cap.
fn sim_fingerprint(threads: Option<usize>, cap: Option<usize>, seed: u64) -> Vec<u8> {
    sim_fingerprint_opts(threads, &SimOptions { shard_cap: cap, ..SimOptions::default() }, seed)
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
        // an arbitrary few, must not change a byte either.
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
        assert_eq!(base_ds, ds, "dataset.store bytes differ at threads={threads:?}");
        assert_eq!(base_truth, truth, "truth.store bytes differ at threads={threads:?}");
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
        assert_eq!(expect.dataset, ds, "decoded dataset differs at threads={threads:?}");
        assert_eq!(
            serde_json::to_string(&expect.truth).expect("serializes"),
            serde_json::to_string(&truth).expect("serializes"),
            "decoded truth differs at threads={threads:?}"
        );
        assert_eq!(base_ds, ds.to_store_bytes(), "re-encode differs at threads={threads:?}");
    }
}

#[test]
fn simulation_is_byte_identical_across_bucket_widths_and_splitting() {
    for seed in [7u64, 23] {
        // Default calendar layout, intra-ISP splitting on (the default).
        let base = sim_fingerprint(Some(1), None, seed);
        // Forced non-default bucket widths: hour-wide, week-wide, and a
        // width that divides nothing evenly. The calendar layout must
        // never leak into the output.
        for width in [3_600i64, 7 * 86_400, 100_000] {
            set_bucket_width(Some(width));
            let got = sim_fingerprint(Some(2), None, seed);
            set_bucket_width(None);
            assert_eq!(base, got, "width={width} seed={seed}");
        }
        // The coarse pre-splitting layout (all share-nets of an ASN
        // unified) must produce the same bytes, with and without a cap.
        for cap in [None, Some(2)] {
            let coarse =
                SimOptions { shard_cap: cap, unify_all_isps: true, ..SimOptions::default() };
            assert_eq!(
                base,
                sim_fingerprint_opts(Some(4), &coarse, seed),
                "unify_all cap={cap:?} seed={seed}"
            );
        }
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
fn shard_local_build_matches_serial_build_byte_for_byte() {
    // Nets and probes are normally materialized *inside* the parallel shard
    // map; `serial_build` materializes every shard up front on one thread.
    // The two construction orders must not change a byte of the full
    // `SimOutput`, at any worker count, under either unification layout.
    for seed in [7u64, 23] {
        let serial = SimOptions { serial_build: true, ..SimOptions::default() };
        let base = sim_fingerprint_opts(Some(1), &serial, seed);
        for threads in [Some(1), Some(2), Some(64), None] {
            assert_eq!(
                base,
                sim_fingerprint_opts(threads, &SimOptions::default(), seed),
                "shard-local build differs from serial build at threads={threads:?} seed={seed}"
            );
        }
        for unify in [false, true] {
            let opts = SimOptions { unify_all_isps: unify, ..SimOptions::default() };
            let serial_opts = SimOptions { serial_build: true, ..opts };
            assert_eq!(
                sim_fingerprint_opts(Some(4), &serial_opts, seed),
                sim_fingerprint_opts(Some(4), &opts, seed),
                "serial vs shard-local build differs: unify_all_isps={unify} seed={seed}"
            );
            assert_eq!(
                base,
                sim_fingerprint_opts(Some(4), &opts, seed),
                "layout changed output: unify_all_isps={unify} seed={seed}"
            );
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

#[test]
fn tracing_never_changes_a_report_byte() {
    // Observability is strictly off the output path: the report must be
    // byte-identical with the JSONL trace sink on and off, at every worker
    // count. Heartbeats are forced hot (0-second interval) so the traced
    // runs actually exercise the emit path, not just the enabled check.
    let untraced = serde_json::to_string(&report_at(Some(1))).expect("serializes");

    let path = std::env::temp_dir()
        .join(format!("dynaddr-determinism-trace-{}.jsonl", std::process::id()));
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
        let (_, ev) =
            fields.iter().find(|(k, _)| k == "ev").expect("trace event has an ev field");
        if *ev == serde::Value::Str("span".to_string()) {
            spans += 1;
        }
    }
    assert!(spans > 0, "traced run produced no span events");
    std::fs::remove_file(&path).ok();
}
