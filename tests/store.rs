//! The columnar store's end-to-end contract: any normalized dataset
//! round-trips exactly (property-tested), any flipped bit yields a typed
//! error naming the damaged region — never a panic or silently wrong data —
//! and directory loading attributes every failure to the file (and segment)
//! that caused it.

use dynaddr::atlas::logs::LoadError;
use dynaddr::atlas::truth::IspPolicyTruth;
use dynaddr::atlas::{
    AtlasDataset, ConnectionLogEntry, GroundTruth, KrootPingRecord, PeerAddr, ProbeMeta,
    SosUptimeRecord,
};
use dynaddr::store::{
    decode_segment_at, index_segment_at, ColumnarRecord, FileReader, ReadMode, SegmentInfo,
    StoreError, StreamWriter, MAGIC,
};
use dynaddr::types::{Country, ProbeId, ProbeTag, ProbeVersion, SimTime};
use dynaddr_query::engine::EngineError;
use dynaddr_query::{EngineOptions, QueryEngine, Request, Response};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dynaddr-store-{tag}-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Property: random normalized datasets round-trip exactly and idempotently
// ---------------------------------------------------------------------------

fn arb_dataset() -> impl Strategy<Value = AtlasDataset> {
    let meta = proptest::collection::vec((0u32..40, 0u8..3, 0u8..4, 0u8..4), 0..12);
    let conns = proptest::collection::vec((0u32..40, 0i64..100_000, 0i64..50_000, 0u8..255), 0..30);
    let kroot =
        proptest::collection::vec((0u32..40, 0i64..100_000, 0u8..4, -100i64..100_000), 0..30);
    let uptime = proptest::collection::vec((0u32..40, 0i64..100_000, 0u64..1_000_000), 0..20);
    (meta, conns, kroot, uptime).prop_map(|(meta, conns, kroot, uptime)| {
        let mut ds = AtlasDataset::default();
        let mut seen = std::collections::HashSet::new();
        for (p, ver, country, tags) in meta {
            if !seen.insert(p) {
                continue; // meta is one row per probe
            }
            ds.meta.push(ProbeMeta {
                probe: ProbeId(p),
                version: [ProbeVersion::V1, ProbeVersion::V2, ProbeVersion::V3][ver as usize],
                country: Country::new(["DE", "US", "JP", "GR"][country as usize]).unwrap(),
                tags: [ProbeTag::Home, ProbeTag::Dsl, ProbeTag::Nat][..tags as usize % 4].to_vec(),
            });
        }
        for (p, start, len, addr) in conns {
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(p),
                start: SimTime(start),
                end: SimTime(start + len),
                peer: PeerAddr::V4(Ipv4Addr::new(10, 0, (p % 256) as u8, addr)),
            });
        }
        for (p, ts, success, lts) in kroot {
            ds.kroot.push(KrootPingRecord {
                probe: ProbeId(p),
                timestamp: SimTime(ts),
                sent: 3,
                success,
                lts_secs: lts,
            });
        }
        for (p, ts, up) in uptime {
            ds.uptime.push(SosUptimeRecord {
                probe: ProbeId(p),
                timestamp: SimTime(ts),
                uptime_secs: up,
            });
        }
        ds.normalize();
        ds
    })
}

/// The four dataset tables written with `segment_rows`-row segments.
fn store_bytes(ds: &AtlasDataset, segment_rows: usize) -> Vec<u8> {
    let mut w = StreamWriter::with_segment_rows(Vec::new(), segment_rows).unwrap();
    w.write_table(&ds.meta).unwrap();
    w.write_table(&ds.connections).unwrap();
    w.write_table(&ds.kroot).unwrap();
    w.write_table(&ds.uptime).unwrap();
    w.finish().unwrap()
}

/// Every segment of table `R` in `bytes` indexes, and its directory
/// decodes each key of the segment's span to exactly that key's rows of
/// the full decode (none for a key the segment does not hold).
fn directories_match_full_decodes<R>(bytes: &[u8]) -> Result<(), TestCaseError>
where
    R: ColumnarRecord + PartialEq + std::fmt::Debug,
{
    let reader = FileReader::open(bytes).expect("clean bytes open");
    let segs = reader.segments().iter().filter(|s| s.table == R::TABLE_ID);
    for (ordinal, &info) in segs.enumerate() {
        let rows = decode_segment_at::<R>(bytes, ordinal, info).expect("clean segment decodes");
        let (indexed, dir) =
            index_segment_at::<R>(bytes, ordinal, info).expect("clean segment indexes");
        prop_assert_eq!(&indexed, &rows);
        for key in info.key_lo..=info.key_hi {
            let want: Vec<&R> = rows.iter().filter(|r| r.key() == key).collect();
            let got = dir
                .decode_key::<R>(bytes, key)
                .expect("indexed key decodes");
            prop_assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want,
                "{} key {}",
                R::TABLE_NAME,
                key
            );
            prop_assert_eq!(dir.rows(key).len(), got.len());
        }
    }
    Ok(())
}

proptest! {
    /// Encode→decode is the identity on normalized datasets, and the
    /// encoding has one canonical form (re-encoding the decoded copy
    /// reproduces the bytes).
    #[test]
    fn random_dataset_roundtrips(ds in arb_dataset()) {
        let bytes = ds.to_store_bytes();
        let back = AtlasDataset::from_store_bytes(&bytes).expect("clean bytes decode");
        prop_assert_eq!(&ds, &back);
        prop_assert_eq!(bytes, back.to_store_bytes());
    }

    /// Key directories agree with the full decode at every segment size:
    /// one-row segments, runs split at varying offsets, runs straddling
    /// boundaries, and whole tables in one segment.
    #[test]
    fn key_directories_decode_every_key_like_the_full_decode(ds in arb_dataset()) {
        for segment_rows in [1, 2, 3, 16, 4096] {
            let bytes = store_bytes(&ds, segment_rows);
            directories_match_full_decodes::<ProbeMeta>(&bytes)?;
            directories_match_full_decodes::<ConnectionLogEntry>(&bytes)?;
            directories_match_full_decodes::<KrootPingRecord>(&bytes)?;
            directories_match_full_decodes::<SosUptimeRecord>(&bytes)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption: a flipped bit in any region is a typed error, never a panic
// ---------------------------------------------------------------------------

fn sample_dataset() -> AtlasDataset {
    let mut ds = AtlasDataset::default();
    for p in 0..20u32 {
        ds.meta.push(ProbeMeta {
            probe: ProbeId(p),
            version: ProbeVersion::V3,
            country: Country::new("DE").unwrap(),
            tags: vec![ProbeTag::Home],
        });
        for k in 0..10i64 {
            ds.connections.push(ConnectionLogEntry {
                probe: ProbeId(p),
                start: SimTime(k * 1000),
                end: SimTime(k * 1000 + 500),
                peer: PeerAddr::V4(Ipv4Addr::new(10, 0, p as u8, k as u8)),
            });
        }
    }
    ds.normalize();
    ds
}

/// The file's regions, located from the public layout: magic, segments,
/// footer, trailer (footer offset + end magic in the last 16 bytes).
fn regions(
    bytes: &[u8],
) -> (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
) {
    let n = bytes.len();
    let footer_at = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().unwrap()) as usize;
    (MAGIC.len()..footer_at, footer_at..n - 16, n - 16..n)
}

#[test]
fn bit_flip_in_magic_is_bad_magic() {
    let mut bytes = sample_dataset().to_store_bytes();
    bytes[3] ^= 0x10;
    for mode in [ReadMode::Strict, ReadMode::Recover] {
        let err = match mode {
            ReadMode::Strict => AtlasDataset::from_store_bytes(&bytes).unwrap_err(),
            ReadMode::Recover => AtlasDataset::from_store_bytes_recover(&bytes).unwrap_err(),
        };
        assert!(
            matches!(err, StoreError::BadMagic { .. }),
            "{mode:?}: {err}"
        );
    }
}

#[test]
fn bit_flip_in_any_segment_is_segment_corrupt() {
    let bytes = sample_dataset().to_store_bytes();
    let (segments, _, _) = regions(&bytes);
    let segs = FileReader::open(&bytes)
        .expect("clean file opens")
        .segments()
        .to_vec();
    // Flip one bit in every 13th byte of the segment region (all of them
    // is the store crate's own exhaustive test; this pins the typed error
    // and the segment attribution at the dataset level).
    for at in segments.step_by(13) {
        let mut copy = bytes.clone();
        copy[at] ^= 0x01;
        let err = AtlasDataset::from_store_bytes(&copy).unwrap_err();
        match &err {
            StoreError::SegmentCorrupt { table, offset, .. } => {
                assert!(!table.is_empty(), "segment error must name its table");
                assert!((*offset as usize) < bytes.len());
            }
            other => panic!("byte {at}: expected SegmentCorrupt, got {other}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("segment"),
            "error should mention the segment: {msg}"
        );

        // Indexing the segment the flip landed in fails the same way and
        // yields no directory.
        let hit = segs
            .iter()
            .position(|s| (s.offset as usize) <= at && at < s.offset as usize + s.len as usize + 8)
            .expect("flip lands in a segment frame");
        let info = segs[hit];
        let ordinal = segs[..hit].iter().filter(|s| s.table == info.table).count();
        let indexed = match info.table {
            1 => index_segment_at::<ProbeMeta>(&copy, ordinal, info).map(drop),
            2 => index_segment_at::<ConnectionLogEntry>(&copy, ordinal, info).map(drop),
            other => panic!("unexpected table id {other}"),
        };
        assert!(
            matches!(indexed, Err(StoreError::SegmentCorrupt { index, .. }) if index == ordinal),
            "byte {at}: index_segment_at gave {indexed:?}"
        );
    }
}

#[test]
fn bit_flip_in_footer_is_bad_footer() {
    let bytes = sample_dataset().to_store_bytes();
    let (_, footer, _) = regions(&bytes);
    for at in footer.step_by(7) {
        let mut copy = bytes.clone();
        copy[at] ^= 0x80;
        let err = AtlasDataset::from_store_bytes(&copy).unwrap_err();
        assert!(
            matches!(err, StoreError::BadFooter { .. }),
            "byte {at}: expected BadFooter, got {err}"
        );
    }
}

#[test]
fn bit_flip_in_trailer_is_typed() {
    let bytes = sample_dataset().to_store_bytes();
    let (_, _, trailer) = regions(&bytes);
    for at in trailer {
        let mut copy = bytes.clone();
        copy[at] ^= 0x40;
        let err = AtlasDataset::from_store_bytes(&copy).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::BadTrailer { .. } | StoreError::BadFooter { .. }
            ),
            "byte {at}: expected BadTrailer/BadFooter, got {err}"
        );
    }
}

#[test]
fn truncated_and_garbage_files_are_typed() {
    assert!(matches!(
        AtlasDataset::from_store_bytes(b"short").unwrap_err(),
        StoreError::TooShort { .. }
    ));
    let garbage = vec![0xA5u8; 256];
    assert!(matches!(
        AtlasDataset::from_store_bytes(&garbage).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
}

#[test]
fn recover_mode_skips_corrupt_segment_and_reports_it() {
    let ds = sample_dataset();
    let mut bytes = ds.to_store_bytes();
    // Damage one connections segment (table id 2) mid-body.
    let reader = FileReader::open(&bytes).expect("clean file opens");
    let seg = reader
        .segments()
        .iter()
        .find(|s| s.table == 2)
        .copied()
        .expect("a connections segment exists");
    bytes[seg.offset as usize + 4 + (seg.len / 2) as usize] ^= 0x04;

    // Strict: typed failure.
    assert!(matches!(
        AtlasDataset::from_store_bytes(&bytes).unwrap_err(),
        StoreError::SegmentCorrupt { .. }
    ));

    // Recover: the other tables survive intact, the drop is reported.
    let (recovered, report) = AtlasDataset::from_store_bytes_recover(&bytes).expect("recovers");
    assert!(!report.is_clean());
    assert_eq!(report.dropped.len(), 1);
    assert_eq!(report.dropped[0].table, "connections");
    assert_eq!(report.rows_dropped(), seg.rows);
    assert_eq!(recovered.meta, ds.meta);
    assert_eq!(recovered.uptime, ds.uptime);
    assert_eq!(
        recovered.connections.len() as u64,
        ds.connections.len() as u64 - seg.rows
    );
}

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

#[test]
fn ground_truth_roundtrips_including_exact_floats() {
    let mut truth = GroundTruth::default();
    truth.isp_policies.insert(
        3320,
        IspPolicyTruth {
            name: "Deutsche Telekom".into(),
            country: "DE".into(),
            periodic_hours: vec![24, 720],
            renumbers_on_reconnect: true,
            periodic_weight: 1.0 / 3.0,
            probes: 977,
        },
    );
    truth.firmware_dates.push(SimTime(86_400));
    let bytes = truth.to_store_bytes();
    let back = GroundTruth::from_store_bytes(&bytes).expect("decodes");
    assert_eq!(
        truth.isp_policies[&3320].periodic_weight.to_bits(),
        back.isp_policies[&3320].periodic_weight.to_bits(),
        "float policy weight must round-trip bit-exactly"
    );
    assert_eq!(bytes, back.to_store_bytes());

    let mut corrupt = bytes.clone();
    let mid = MAGIC.len() + 6;
    corrupt[mid] ^= 0x01;
    assert!(GroundTruth::from_store_bytes(&corrupt).is_err());
}

// ---------------------------------------------------------------------------
// Directory loading and error attribution
// ---------------------------------------------------------------------------

#[test]
fn save_dir_roundtrips() {
    let ds = sample_dataset();
    let dir = temp_dir("save");
    ds.save_dir(&dir).expect("saves");
    assert_eq!(ds, AtlasDataset::load_dir(&dir).expect("loads"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_errors_name_the_offending_file() {
    // Empty directory: the failure names the missing store file.
    let dir = temp_dir("missing");
    std::fs::create_dir_all(&dir).unwrap();
    let err = AtlasDataset::load_dir(&dir).unwrap_err();
    assert!(matches!(err, LoadError::Io { .. }));
    assert!(err.to_string().contains("dataset.store"), "{err}");

    // Legacy JSON-lines files are not a dataset: still the missing store.
    for name in [
        "meta.jsonl",
        "connections.jsonl",
        "kroot.jsonl",
        "uptime.jsonl",
    ] {
        std::fs::write(dir.join(name), "{}\n").unwrap();
    }
    let err = AtlasDataset::load_dir(&dir).unwrap_err();
    assert!(matches!(err, LoadError::Io { .. }));
    assert!(err.to_string().contains("dataset.store"), "{err}");

    // Garbage store file: named, typed as store.
    std::fs::write(dir.join("dataset.store"), b"not a store file at all").unwrap();
    let err = AtlasDataset::load_dir(&dir).unwrap_err();
    assert!(matches!(
        err,
        LoadError::Store {
            source: StoreError::BadMagic { .. },
            ..
        }
    ));
    assert!(err.to_string().contains("dataset.store"), "{err}");
    std::fs::remove_dir_all(&dir).ok();

    // A corrupt segment inside dataset.store is named file-and-segment.
    let dir = temp_dir("badseg");
    let ds = sample_dataset();
    ds.save_dir(&dir).expect("saves");
    let path = dir.join("dataset.store");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x02;
    std::fs::write(&path, &bytes).unwrap();
    let err = AtlasDataset::load_dir(&dir).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("dataset.store"), "{msg}");
    // Recovery still loads what survived.
    let (recovered, report) = AtlasDataset::load_dir_recover(&dir).expect("recovers");
    assert!(!report.is_clean());
    assert!(recovered.meta.len() <= ds.meta.len());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Streamed writer: interleaved shard runs merge to the canonical file
// ---------------------------------------------------------------------------

#[test]
fn sink_merges_interleaved_runs_to_canonical_bytes() {
    use dynaddr::store::{SegmentFileReader, SegmentSink, StreamWriter};

    let ds = sample_dataset();
    let dir = temp_dir("sink");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spill = dir.join("sink.spill");

    // Three "shards" own probes by id % 3; each appends its key-sorted
    // rows in two batches, and the shards arrive in scrambled order.
    let sink = SegmentSink::with_segment_rows(&spill, 7).expect("create sink");
    for run in [2u64, 0, 1] {
        let meta: Vec<ProbeMeta> = ds
            .meta
            .iter()
            .filter(|m| u64::from(m.probe.0) % 3 == run)
            .cloned()
            .collect();
        let conns: Vec<ConnectionLogEntry> = ds
            .connections
            .iter()
            .filter(|c| u64::from(c.probe.0) % 3 == run)
            .cloned()
            .collect();
        sink.append(run, &meta[..meta.len() / 2])
            .expect("append meta");
        sink.append(run, &meta[meta.len() / 2..])
            .expect("append meta");
        sink.append(run, &conns[..conns.len() / 2])
            .expect("append conns");
        sink.append(run, &conns[conns.len() / 2..])
            .expect("append conns");
    }
    let mut merger = sink.finish().expect("seal spill");

    let out_path = dir.join("sink.store");
    let file = std::fs::File::create(&out_path).expect("create out");
    let mut w = StreamWriter::new(std::io::BufWriter::new(file)).expect("stream writer");
    merger
        .merge_table::<ProbeMeta, _>(&mut w)
        .expect("merge meta");
    merger
        .merge_table::<ConnectionLogEntry, _>(&mut w)
        .expect("merge connections");
    merger
        .merge_table::<KrootPingRecord, _>(&mut w)
        .expect("merge kroot");
    merger
        .merge_table::<SosUptimeRecord, _>(&mut w)
        .expect("merge uptime");
    w.finish().expect("finish file");

    // The merged file is the canonical encoding, bit for bit, and decodes
    // back to the dataset.
    let merged = std::fs::read(&out_path).expect("read merged");
    assert!(
        merged == ds.to_store_bytes(),
        "merged file differs from the canonical batch encoding"
    );
    assert_eq!(
        AtlasDataset::from_store_bytes(&merged).expect("decodes"),
        ds
    );

    // Bit flips in the appended segments stay typed through the
    // file-backed reader the streaming paths use.
    let (segments, _, _) = regions(&merged);
    for at in segments.step_by(41) {
        let mut copy = merged.clone();
        copy[at] ^= 0x02;
        std::fs::write(&out_path, &copy).expect("write damaged copy");
        let mut reader = SegmentFileReader::open(&out_path).expect("index still reads");
        let segs = reader.segments().to_vec();
        let hit = segs
            .iter()
            .position(|s| (s.offset as usize) <= at && at < s.offset as usize + s.len as usize + 8)
            .expect("flip lands in a segment frame");
        let info = segs[hit];
        let ordinal = segs[..hit].iter().filter(|s| s.table == info.table).count();
        let err = match info.table {
            1 => reader.read_segment::<ProbeMeta>(ordinal, info).unwrap_err(),
            2 => reader
                .read_segment::<ConnectionLogEntry>(ordinal, info)
                .unwrap_err(),
            other => panic!("unexpected table id {other}"),
        };
        assert!(
            matches!(err, StoreError::SegmentCorrupt { .. }),
            "byte {at}: expected SegmentCorrupt, got {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Probe order: a file that breaks it is rejected, never analyzed
// ---------------------------------------------------------------------------

/// Asserts that `err` is an out-of-order error naming `table`.
fn assert_names_table(what: &str, err: &StoreError, table: &str) {
    assert!(
        matches!(err, StoreError::OutOfOrder { table: t, .. } if t == table),
        "{what}: expected an out-of-order {table} error, got {err}"
    );
    assert!(err.to_string().contains(table), "{what}: {err}");
}

/// Asserts that the batch loaders and `DatasetStream` reject the store
/// in `dir` with a typed error naming `table`.
fn assert_readers_reject(dir: &Path, table: &str) {
    use dynaddr::atlas::stream::{DatasetStream, DEFAULT_BATCH_PROBES};

    for (what, loaded) in [
        ("load_dir", AtlasDataset::load_dir(dir).map(|_| ())),
        (
            "load_dir_recover",
            AtlasDataset::load_dir_recover(dir).map(|_| ()),
        ),
    ] {
        match loaded {
            Err(LoadError::Store { source, .. }) => assert_names_table(what, &source, table),
            Err(other) => panic!("{what}: expected a store error, got {other}"),
            Ok(()) => panic!("{what}: loaded a file out of probe order"),
        }
    }
    for batch in [1, DEFAULT_BATCH_PROBES] {
        let mut stream = DatasetStream::with_batch_probes(&dir.join("dataset.store"), batch)
            .expect("index reads");
        let err = loop {
            match stream.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("batch={batch}: streamed a file out of probe order"),
                Err(e) => break e,
            }
        };
        assert_names_table(&format!("DatasetStream batch={batch}"), &err, table);
    }
}

/// Saves `ds` with its rows in the order given and asserts that every
/// reader, the query engine's open included, rejects the file with a
/// typed error naming `table`.
fn assert_out_of_order(ds: &AtlasDataset, tag: &str, table: &str) {
    let dir = temp_dir(tag);
    ds.save_dir(&dir).expect("saves");
    assert_readers_reject(&dir, table);
    match QueryEngine::open_dir(&dir, &EngineOptions::default()) {
        Err(EngineError::Store(err)) => assert_names_table("QueryEngine::open_dir", &err, table),
        Err(other) => panic!("QueryEngine::open_dir: expected a store error, got {other}"),
        Ok(_) => panic!("QueryEngine::open_dir: opened a file out of probe order"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn small_world() -> AtlasDataset {
    dynaddr::atlas::simulate(&dynaddr::atlas::paper_world(0.01, 3)).dataset
}

#[test]
fn duplicate_meta_row_is_rejected() {
    let mut ds = small_world();
    let mid = ds.meta.len() / 2;
    let dup = ds.meta[mid].clone();
    ds.meta.insert(mid, dup);
    assert_out_of_order(&ds, "dup-meta", "meta");
}

#[test]
fn reversed_log_tables_are_rejected() {
    let mut ds = small_world();
    ds.kroot.reverse();
    ds.uptime.reverse();
    // Tables are checked in file order; k-root comes before uptime.
    assert_out_of_order(&ds, "reversed", "kroot");
}

/// Swaps two adjacent rows of different probes inside the first segment
/// that `bytes` (the dataset's store file) writes for `rows`' table, and
/// returns that segment's footer entry. The segment's key span does not
/// change; only the rows inside it fall out of order.
fn swap_inside_first_segment<R: ColumnarRecord>(bytes: &[u8], rows: &mut [R]) -> SegmentInfo {
    let reader = FileReader::open(bytes).expect("opens");
    let segs: Vec<_> = reader
        .segments()
        .iter()
        .filter(|s| s.table == R::TABLE_ID)
        .collect();
    assert!(
        segs.len() > 1,
        "the {} table needs more than one segment",
        R::TABLE_NAME
    );
    let first = *segs[0];
    let at = (0..first.rows as usize - 1)
        .find(|&i| rows[i].key() != rows[i + 1].key())
        .expect("two probes in the first segment");
    rows.swap(at, at + 1);
    first
}

#[test]
fn rows_swapped_inside_one_segment_are_rejected() {
    let mut ds = small_world();
    let first = swap_inside_first_segment(&ds.to_store_bytes(), &mut ds.kroot);
    let dir = temp_dir("swapped");
    ds.save_dir(&dir).expect("saves");
    assert_readers_reject(&dir, "kroot");

    // The engine decodes no k-root segment at open, and the key spans
    // still ascend, so it opens. The swapped segment's probes answer an
    // error naming the table; every other probe answers as usual.
    let engine = QueryEngine::open_dir(&dir, &EngineOptions::default()).expect("engine opens");
    let (mut failed, mut served) = (0, 0);
    for probe in ds.meta.iter().map(|m| m.probe) {
        let in_segment = (first.key_lo..=first.key_hi).contains(&probe.0);
        for req in [Request::ProbeRecords(probe), Request::ProbeSeries(probe)] {
            match engine.query(&req) {
                Response::Error(msg) if in_segment => {
                    assert!(msg.contains("kroot"), "{req:?}: {msg}");
                    failed += 1;
                }
                Response::Error(msg) => panic!("{req:?} outside the swapped segment: {msg}"),
                _ if in_segment => panic!("{req:?} in the swapped segment answered no error"),
                _ => served += 1,
            }
        }
    }
    assert!(failed > 0 && served > 0, "{failed} failed, {served} served");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_rows_swapped_inside_one_segment_fail_the_engine_at_open() {
    // The engine decodes the connection table at open for its indexes,
    // so unlike a k-root segment it rejects the file there.
    let mut ds = small_world();
    swap_inside_first_segment(&ds.to_store_bytes(), &mut ds.connections);
    assert_out_of_order(&ds, "swapped-conn", "connections");
}
