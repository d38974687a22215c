//! End-to-end determinism and equivalence tests for the query layer.
//!
//! The contract under test: every response is a pure function of the
//! store file — byte-identical at any thread count, any cache state
//! (cold, warm, thrashing), and whether answered by the cache-backed
//! engine, the batch-loaded oracle, or across the socket.

use dynaddr_atlas::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, PeerAddr, ProbeMeta, SosUptimeRecord,
};
use dynaddr_atlas::truth::{ChangeCause, GroundTruth, TruthChange, TruthOutage, TruthOutageKind};
use dynaddr_atlas::{paper_route_tables, paper_world, simulate};
use dynaddr_ip2as::{MonthlySnapshots, RouteTable};
use dynaddr_query::proto::{self, Request, Response, ServerStatsReply};
use dynaddr_query::{
    CacheConfig, EngineOptions, LocalAnswerer, QueryClient, QueryEngine, Workload,
};
use dynaddr_query::engine::EngineError;
use dynaddr_store::crc32::crc32;
use dynaddr_store::{
    varint, ColumnarRecord, FileReader, SegmentInfo, StoreError, StreamWriter,
    DEFAULT_SEGMENT_ROWS,
};
use dynaddr_types::{
    Asn, Country, Prefix, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

const PROBES: u32 = 40;

fn snaps() -> MonthlySnapshots {
    let mut t = RouteTable::new();
    t.announce(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8).unwrap(), Asn(64500));
    t.announce(Prefix::new(Ipv4Addr::new(172, 16, 0, 0), 12).unwrap(), Asn(64501));
    MonthlySnapshots::uniform(t)
}

/// A synthetic dataset with per-probe variety: address changes, v6
/// entries, k-root loss runs, uptime resets, and a few recordless ids.
fn dataset() -> AtlasDataset {
    let mut ds = AtlasDataset::default();
    for p in 0..PROBES {
        if p % 7 != 6 {
            ds.meta.push(ProbeMeta {
                probe: ProbeId(p),
                version: [ProbeVersion::V1, ProbeVersion::V2, ProbeVersion::V3]
                    [p as usize % 3],
                country: Country::new(["DE", "US", "JP", "BR"][p as usize % 4]).unwrap(),
                tags: if p % 2 == 0 { vec![ProbeTag::Home, ProbeTag::Dsl] } else { vec![] },
            });
        }
        let sessions = 3 + (p % 5) as i64;
        for k in 0..sessions {
            let peer = if p % 5 == 4 && k == 1 {
                PeerAddr::V6("2001:db8::7".parse().unwrap())
            } else if p % 2 == 0 {
                PeerAddr::V4(Ipv4Addr::new(10, 1, p as u8, k as u8))
            } else {
                PeerAddr::V4(Ipv4Addr::new(172, 16, p as u8, (k / 2) as u8))
            };
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(p),
                start: SimTime(k * 10_000 + i64::from(p)),
                end: SimTime(k * 10_000 + 6_000 + i64::from(p)),
                peer,
            });
        }
        for k in 0..20i64 {
            ds.kroot.push(KrootPingRecord {
                probe: ProbeId(p),
                timestamp: SimTime(k * 240),
                sent: 3,
                success: if (8..11).contains(&k) && p % 3 == 0 { 0 } else { 3 },
                lts_secs: 90,
            });
        }
        for k in 0..6i64 {
            let reset = p % 4 == 1 && k == 3;
            ds.uptime.push(SosUptimeRecord {
                probe: ProbeId(p),
                timestamp: SimTime(k * 3_600),
                uptime_secs: if reset { 60 } else { (k * 3_600 + 50_000) as u64 },
            });
        }
    }
    ds.normalize();
    ds
}

fn truth() -> GroundTruth {
    let mut t = GroundTruth::default();
    for p in (0..PROBES).step_by(3) {
        t.changes.push(TruthChange {
            probe: ProbeId(p),
            time: SimTime(i64::from(p) * 777),
            from: (p > 0).then(|| Ipv4Addr::new(10, 1, p as u8, 0)),
            to: Ipv4Addr::new(10, 1, p as u8, 1),
            cause: [ChangeCause::PeriodicCap, ChangeCause::NetworkOutage, ChangeCause::Moved]
                [p as usize % 3],
        });
        t.outages.push(TruthOutage {
            probe: ProbeId(p),
            kind: [TruthOutageKind::Network, TruthOutageKind::Power][p as usize % 2],
            start: SimTime(i64::from(p) * 555),
            duration: SimDuration::from_mins(i64::from(p) + 5),
            address_changed: p % 2 == 0,
        });
    }
    t.normalize();
    t
}

/// Encodes the dataset with `segment_rows`-row segments. Small segments
/// make every table span many — the geometry that exercises the segment
/// cache, the footer binary search, and probes straddling boundaries.
fn store_bytes(ds: &AtlasDataset, segment_rows: usize) -> Vec<u8> {
    let mut w = StreamWriter::with_segment_rows(Vec::new(), segment_rows).unwrap();
    w.write_table(&ds.meta).unwrap();
    w.write_table(&ds.connections).unwrap();
    w.write_table(&ds.kroot).unwrap();
    w.write_table(&ds.uptime).unwrap();
    w.finish().unwrap()
}

/// Re-encodes the footer of a store file after `edit`, with a valid
/// checksum, so the file reaches the engine's own checks.
fn with_footer(bytes: &[u8], edit: impl FnOnce(&mut [SegmentInfo])) -> Vec<u8> {
    let mut entries = FileReader::open(bytes).expect("opens").segments().to_vec();
    edit(&mut entries);
    let trailer = &bytes[bytes.len() - 16..];
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize;
    let mut footer = Vec::new();
    varint::write_u64(&mut footer, entries.len() as u64);
    for e in &entries {
        footer.push(e.table);
        for v in [u64::from(e.key_lo), u64::from(e.key_hi), e.rows, e.offset, e.len] {
            varint::write_u64(&mut footer, v);
        }
    }
    let mut out = bytes[..footer_offset].to_vec();
    out.extend_from_slice(&footer);
    out.extend_from_slice(&crc32(&footer).to_le_bytes());
    out.extend_from_slice(trailer);
    out
}

fn engine_with(budget: usize) -> QueryEngine {
    let ds = dataset();
    let snaps = snaps();
    let t = truth();
    QueryEngine::from_parts(
        store_bytes(&ds, 16),
        &snaps,
        Some(&t),
        &EngineOptions { cache: CacheConfig { shards: 4, budget_bytes: budget } },
    )
    .expect("engine opens")
}

fn workload_for(engine: &QueryEngine) -> Workload {
    let stats = engine.stats();
    Workload::new(
        0xFEED_F00D,
        stats.probes(),
        stats.asns(),
        stats.countries(),
        engine.truth_available(),
    )
}

/// Single-threaded reference answers for the first `n` workload requests.
fn reference(engine: &QueryEngine, w: &Workload, n: u64) -> Vec<Vec<u8>> {
    (0..n).map(|i| proto::to_bytes(&engine.query(&w.request(i)))).collect()
}

#[test]
fn engine_matches_local_oracle_and_dataset() {
    let ds = dataset();
    let snaps = snaps();
    let t = truth();
    let local = LocalAnswerer::from_parts(ds.clone(), &snaps, Some(&t));
    // One-row segments spread a probe's rows over many segments; 2 and 3
    // rows split them at varying offsets; 16 puts some probes in one
    // segment and straddles others; the default holds the whole table.
    for segment_rows in [1, 2, 3, 16, DEFAULT_SEGMENT_ROWS] {
        let bytes = store_bytes(&ds, segment_rows);
        let engine =
            QueryEngine::from_parts(bytes, &snaps, Some(&t), &EngineOptions::default()).unwrap();

        // Universe agreement first: same probes/ASes/countries on both sides.
        assert_eq!(engine.stats().probes(), local.stats().probes());
        assert_eq!(engine.stats().asns(), local.stats().asns());
        assert_eq!(engine.stats().countries(), local.stats().countries());

        let mut requests = vec![
            Request::Ping,
            Request::TopMovers(0),
            Request::TopMovers(5),
            Request::TopMovers(1000),
            Request::AsSummary(Asn(1)),
            Request::CountrySummary("XX".into()),
            Request::ProbeRecords(ProbeId(99_999)),
            Request::ProbeSeries(ProbeId(99_999)),
            Request::ProbeTruth(ProbeId(99_999)),
        ];
        for p in 0..PROBES {
            requests.push(Request::ProbeRecords(ProbeId(p)));
            requests.push(Request::ProbeSeries(ProbeId(p)));
            requests.push(Request::ProbeTruth(ProbeId(p)));
        }
        for a in engine.stats().asns() {
            requests.push(Request::AsSummary(Asn(a)));
        }
        for cc in engine.stats().countries() {
            requests.push(Request::CountrySummary(cc));
        }
        for req in &requests {
            let from_engine = engine.query(req);
            let from_local = local.answer(req);
            assert_eq!(from_engine, from_local, "{segment_rows}-row segments diverged on {req:?}");
            assert_eq!(proto::to_bytes(&from_engine), proto::to_bytes(&from_local));
        }

        // Spot-check the records path against the dataset accessors.
        for p in [ProbeId(0), ProbeId(17), ProbeId(PROBES - 1), ProbeId(4242)] {
            let records = engine.records(p).unwrap();
            assert_eq!(records.connections.len(), ds.connections_of(p).len());
            assert_eq!(records.kroot.len(), ds.kroot_of(p).len());
            assert_eq!(records.meta.is_some(), ds.meta_of(p).is_some());
        }
    }
}

#[test]
fn engine_rejects_footer_spans_out_of_order() {
    let bytes = store_bytes(&dataset(), 16);
    let open = |bytes: Vec<u8>| {
        QueryEngine::from_parts(bytes, &snaps(), None, &EngineOptions::default()).map(|_| ())
    };
    open(with_footer(&bytes, |_| {})).expect("an unedited footer opens");
    // A k-root span whose end lies below its start.
    let inverted = with_footer(&bytes, |e| {
        let s = e.iter_mut().find(|s| s.table == 3 && s.key_lo < s.key_hi).expect("span");
        std::mem::swap(&mut s.key_lo, &mut s.key_hi);
    });
    // A meta segment starting at the previous one's last probe, which
    // would give that probe two meta rows.
    let touching = with_footer(&bytes, |e| {
        assert!(e[0].table == 1 && e[1].table == 1, "meta segments come first");
        e[1].key_lo = e[0].key_hi;
    });
    for (what, bytes, table) in [("inverted", inverted, "kroot"), ("touching", touching, "meta")] {
        match open(bytes) {
            Err(EngineError::Store(StoreError::OutOfOrder { table: t, .. })) => {
                assert_eq!(t, table, "{what}")
            }
            other => panic!("{what}: expected an out-of-order {table} error, got {other:?}"),
        }
    }
}

#[test]
fn footer_span_narrower_than_its_rows_fails_every_reader() {
    // The engine finds a probe's segments by their footer spans, the
    // loaders keep every row: a span that hides some of its segment's
    // rows would let them disagree, so every reader must reject it.
    let mut probe = 0;
    let bytes = with_footer(&store_bytes(&dataset(), 16), |e| {
        let s = e.iter_mut().find(|s| s.table == 3 && s.key_lo < s.key_hi).expect("span");
        s.key_hi -= 1;
        probe = s.key_lo;
    });
    let corrupt_kroot = |what: &str, err: &StoreError| {
        assert!(
            matches!(err, StoreError::SegmentCorrupt { table, .. } if table == "kroot"),
            "{what}: expected a corrupt kroot segment, got {err}"
        );
    };
    let dir = std::env::temp_dir().join(format!("dynaddr-narrow-span-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("dataset.store"), &bytes).unwrap();

    match AtlasDataset::load_dir(&dir) {
        Err(dynaddr_atlas::LoadError::Store { source, .. }) => corrupt_kroot("load_dir", &source),
        other => panic!("load_dir: expected a store error, got {:?}", other.map(|_| ())),
    }
    let mut stream = dynaddr_atlas::DatasetStream::open(&dir.join("dataset.store")).unwrap();
    let err = loop {
        match stream.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("DatasetStream read the whole file"),
            Err(e) => break e,
        }
    };
    corrupt_kroot("DatasetStream", &err);
    std::fs::remove_dir_all(&dir).ok();

    let engine = QueryEngine::from_parts(bytes, &snaps(), None, &EngineOptions::default()).unwrap();
    match engine.query(&Request::ProbeRecords(ProbeId(probe))) {
        Response::Error(msg) => assert!(msg.contains("kroot"), "{msg}"),
        other => panic!("probe {probe}: expected an error, got {other:?}"),
    }
}

#[test]
fn responses_byte_identical_across_thread_counts() {
    const N: u64 = 2_000;
    let reference_engine = engine_with(256 << 20);
    let w = workload_for(&reference_engine);
    let expect = reference(&reference_engine, &w, N);

    for threads in [2usize, 8, 64] {
        // Fresh engine per thread count: each run starts cache-cold and
        // interleaves its own warming with serving.
        let engine = engine_with(256 << 20);
        let w = workload_for(&engine);
        let mut answers: Vec<Vec<(u64, Vec<u8>)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let engine = &engine;
                    let w = &w;
                    scope.spawn(move || {
                        (worker as u64..N)
                            .step_by(threads)
                            .map(|i| (i, proto::to_bytes(&engine.query(&w.request(i)))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                answers.push(h.join().expect("worker panicked"));
            }
        });
        let mut merged: Vec<Option<Vec<u8>>> = vec![None; N as usize];
        for chunk in answers {
            for (i, bytes) in chunk {
                merged[i as usize] = Some(bytes);
            }
        }
        for (i, got) in merged.into_iter().enumerate() {
            assert_eq!(
                got.as_ref(),
                Some(&expect[i]),
                "request {i} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn cold_engine_misses_once_per_distinct_probe_and_hits_after() {
    // A simulated world, stored with the default segment size. The cache
    // holds one entry per probe, and the default budget holds every probe
    // these requests name: so each probe's first ProbeRecords or
    // ProbeSeries misses, every later one hits, and nothing is evicted.
    let world = paper_world(0.01, 11);
    let out = simulate(&world);
    let engine = QueryEngine::from_parts(
        out.dataset.to_store_bytes(),
        &paper_route_tables(&world),
        Some(&out.truth),
        &EngineOptions::default(),
    )
    .expect("engine opens");
    let w = workload_for(&engine);
    let (mut lookups, mut distinct) = (0u64, std::collections::HashSet::new());
    for i in 0..1_000 {
        let req = w.request(i);
        if let Request::ProbeRecords(p) | Request::ProbeSeries(p) = req {
            lookups += 1;
            distinct.insert(p);
        }
        engine.query(&req);
    }
    let stats = engine.cache_stats();
    let distinct = distinct.len() as u64;
    assert!(distinct > 0 && lookups > distinct, "{lookups} lookups of {distinct} probes");
    assert_eq!(
        (stats.misses, stats.hits, stats.evictions),
        (distinct, lookups - distinct, 0),
        "(misses, hits, evictions) over {lookups} probe lookups of {distinct} probes"
    );
}

#[test]
fn every_bit_flip_in_a_kroot_segment_fails_only_its_probes() {
    let ds = dataset();
    let snaps = snaps();
    let local = LocalAnswerer::from_parts(ds.clone(), &snaps, None);
    let clean = store_bytes(&ds, 16);
    let seg = *FileReader::open(&clean)
        .expect("opens")
        .segments()
        .iter()
        .find(|s| s.table == KrootPingRecord::TABLE_ID)
        .expect("a k-root segment");
    let span = seg.key_lo..=seg.key_hi;
    let mut requests = Vec::new();
    for p in 0..PROBES {
        for req in [Request::ProbeRecords(ProbeId(p)), Request::ProbeSeries(ProbeId(p))] {
            let expect = proto::to_bytes(&local.answer(&req));
            requests.push((p, req, expect));
        }
    }
    let frame = seg.offset as usize..(seg.offset + seg.len + 8) as usize;
    for bit in frame.start * 8..frame.end * 8 {
        let mut bytes = clean.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // The engine decodes no k-root segment at open.
        let engine = QueryEngine::from_parts(bytes, &snaps, None, &EngineOptions::default())
            .expect("engine opens");
        for (probe, req, expect) in &requests {
            if span.contains(probe) {
                // Twice: a failed segment keeps no directory to serve from.
                for attempt in 0..2 {
                    match engine.query(req) {
                        Response::Error(msg) => assert!(msg.contains("kroot"), "bit {bit}: {msg}"),
                        other => panic!("bit {bit}, {req:?} attempt {attempt}: got {other:?}"),
                    }
                }
            } else {
                assert_eq!(&proto::to_bytes(&engine.query(req)), expect, "bit {bit}, {req:?}");
            }
        }
    }
}

#[test]
fn responses_survive_cache_state_changes() {
    const N: u64 = 1_500;
    let engine = engine_with(256 << 20);
    let w = workload_for(&engine);
    let cold = reference(&engine, &w, N);
    let hits_after_cold = engine.cache_stats().hits;
    // Warm pass: same engine, cache now populated.
    let warm = reference(&engine, &w, N);
    assert_eq!(cold, warm, "warm cache changed an answer");
    assert!(
        engine.cache_stats().hits > hits_after_cold,
        "warm pass should hit the cache"
    );
    // Cleared cache: decode everything again.
    engine.clear_cache();
    assert_eq!(cold, reference(&engine, &w, N), "cleared cache changed an answer");
    // Thrashing: a budget too small to hold the working set forces
    // constant eviction; answers must not move.
    let tiny = engine_with(4 << 10);
    assert_eq!(cold, reference(&tiny, &workload_for(&tiny), N), "tiny cache changed an answer");
    let stats = tiny.cache_stats();
    assert!(stats.evictions > 0, "tiny budget never evicted (budget not enforced?)");
}

#[cfg(unix)]
#[test]
fn socket_serving_matches_in_process_answers() {
    const N: u64 = 300;
    let engine = Arc::new(engine_with(256 << 20));
    let w = workload_for(&engine);
    let path = std::env::temp_dir().join(format!("dynaddr-query-test-{}.sock", std::process::id()));
    let server = dynaddr_query::serve(Arc::clone(&engine), &path).expect("bind");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    {
        let mut clients: Vec<QueryClient> = (0..3)
            .map(|_| {
                QueryClient::connect_retry(&path, std::time::Duration::from_secs(5))
                    .expect("connect")
            })
            .collect();
        for i in 0..N {
            let req = w.request(i);
            let expected = proto::to_bytes(&engine.query(&req));
            let got = clients[(i % 3) as usize].request_bytes(&req).expect("request");
            assert_eq!(got, expected, "request {i} diverged over the socket");
        }
    }
    {
        // A malformed frame gets an Error response, not a hangup for
        // the well-formed requests that follow.
        let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        proto::write_frame(&mut raw, &[200]).expect("send unknown request tag");
        let body = proto::read_frame(&mut raw).expect("reply").expect("no hangup");
        let resp: Response = proto::from_bytes(&body).expect("reply decodes");
        assert!(matches!(resp, Response::Error(_)), "malformed frame answered {resp:?}");
        proto::write_frame(&mut raw, &proto::to_bytes(&Request::Ping)).expect("send ping");
        let body = proto::read_frame(&mut raw).expect("reply").expect("no hangup");
        assert_eq!(proto::from_bytes::<Response>(&body).expect("reply decodes"), Response::Pong);
    }

    handle.stop();
    server_thread.join().expect("server thread").expect("server run");
    assert!(!path.exists(), "socket file should be removed on shutdown");
}

/// The encoded `ProbeRecords`, `ProbeSeries` and `ProbeTruth` replies for
/// probe ids 0 through `PROBES + 1`, so ids with no rows are included.
fn probe_replies(local: &LocalAnswerer) -> Vec<Vec<u8>> {
    let mut replies = Vec::new();
    for p in (0..=PROBES + 1).map(ProbeId) {
        for req in [Request::ProbeRecords(p), Request::ProbeSeries(p), Request::ProbeTruth(p)] {
            replies.push(proto::to_bytes(&local.answer(&req)));
        }
    }
    replies
}

#[test]
fn reply_bytes_are_pinned() {
    // The roundtrip tests only check that decoding undoes encoding; this
    // pins the layout itself, so a codec change that moves a byte fails.
    let local = LocalAnswerer::from_parts(dataset(), &snaps(), Some(&truth()));
    let replies = probe_replies(&local);
    let all = replies.concat();
    assert_eq!(replies.len(), 126);
    assert_eq!(all.len(), 13_873);
    assert_eq!(crc32(&all), 0x1c5f_eae5);
}

#[test]
fn summary_and_stats_reply_bytes_are_pinned() {
    // The messages beside the per-probe replies: the mover list, every AS
    // and country summary of the dataset, and one fixed `ServerStats`.
    let local = LocalAnswerer::from_parts(dataset(), &snaps(), Some(&truth()));
    let stats = local.stats();
    let mut requests = vec![Request::TopMovers(PROBES)];
    requests.extend(stats.asns().iter().map(|&a| Request::AsSummary(Asn(a))));
    requests.extend(stats.countries().iter().cloned().map(Request::CountrySummary));
    let mut replies: Vec<Vec<u8>> =
        requests.iter().map(|req| proto::to_bytes(&local.answer(req))).collect();
    replies.push(proto::to_bytes(&Response::ServerStats(ServerStatsReply {
        uptime_secs: 86_461,
        connections_total: 3,
        requests_total: 70_001,
        requests_by_tag: vec![(0, 1), (1, 40_000), (2, 29_999), (7, 1)],
        cache_hits: 51_234,
        cache_misses: 18_766,
        cache_evictions: 129,
    })));
    let all = replies.concat();
    assert_eq!(replies.len(), 8);
    assert_eq!(all.len(), 697);
    assert_eq!(crc32(&all), 0xed89_279a);
}

#[test]
fn truncated_and_bit_flipped_replies_decode_canonically_or_not_at_all() {
    // Every prefix and every single-bit flip of real replies: decoding
    // never panics, and whatever decodes re-encodes to exactly its input,
    // so no two byte strings decode to the same reply.
    let local = LocalAnswerer::from_parts(dataset(), &snaps(), Some(&truth()));
    let mut replies = probe_replies(&local);
    let asn = local.stats().asns()[0];
    let country = local.stats().countries()[0].clone();
    for req in [Request::TopMovers(5), Request::AsSummary(Asn(asn)), Request::CountrySummary(country)] {
        replies.push(proto::to_bytes(&local.answer(&req)));
    }
    let (mut mutations, mut decoded, mut drifted) = (0, 0, Vec::new());
    let mut check = |bytes: &[u8]| {
        mutations += 1;
        if let Ok(resp) = proto::from_bytes::<Response>(bytes) {
            decoded += 1;
            if proto::to_bytes(&resp) != bytes {
                drifted.push(bytes.to_vec());
            }
        }
    };
    for reply in &replies {
        for len in 0..reply.len() {
            check(&reply[..len]);
        }
        for bit in 0..reply.len() * 8 {
            let mut flipped = reply.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped);
        }
    }
    assert!(decoded > 0, "no mutation decoded: the sweep checks nothing");
    assert!(
        drifted.is_empty(),
        "{} of {mutations} mutations decode to a reply that re-encodes differently, first {:02x?}",
        drifted.len(),
        drifted[0]
    );
}

proptest! {
    #[test]
    fn arbitrary_bytes_decode_canonically_or_not_at_all(
        tag in 0u8..13,
        body in proptest::collection::vec(
            (0u8..8, any::<u8>()).prop_map(|(k, b)| match k {
                0..=3 => k,
                4 => 0x80,
                5 => 0xff,
                _ => b,
            }),
            0..64,
        ),
    ) {
        // Every prefix of a valid tag byte and a body biased to the bytes
        // the decoders branch on: small counts and flags, and varint
        // continuation bytes. Decoding never panics, and what decodes
        // re-encodes to exactly its input.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        for input in (0..=bytes.len()).map(|len| &bytes[..len]) {
            if let Ok(req) = proto::from_bytes::<Request>(input) {
                prop_assert_eq!(proto::to_bytes(&req), input);
            }
            if let Ok(resp) = proto::from_bytes::<Response>(input) {
                prop_assert_eq!(proto::to_bytes(&resp), input);
            }
        }
    }
}
