//! The query engine: open once, answer from any thread.
//!
//! [`QueryEngine::open_dir`] does all per-file work up front — reads
//! `dataset.store` into memory, parses the footer into per-table segment
//! lists, decodes the meta table (whose rows stay resident) and streams
//! the connection table once through [`StatsBuilder`] to build the
//! probe→AS/country indexes, and loads `truth.store` plus the `ip2as/`
//! snapshots when present. After that every query runs through `&self`.
//!
//! A probe's log rows go through the sharded LRU
//! ([`crate::cache::ShardedLru`]) keyed by probe id: one entry holds the
//! probe's connection, k-root and uptime rows, shared as an `Arc` by every
//! thread that asks for them. On a miss, `partition_point` over each log
//! table's footer spans finds the segments that can hold the probe, and
//! each segment's [`KeyDirectory`] decodes the probe's own run of rows
//! and nothing else. A segment's directory is built the first time a
//! request needs it, by [`index_segment_at`], and kept for the life of
//! the engine; the meta row comes from the resident rows by binary
//! search. A probe that no log segment's span holds makes no cache entry.
//!
//! Both searches need rows in probe order, so the engine enforces it
//! with the same [`check_probe_order`] every other reader uses: at open
//! over the footer's key spans and the meta and connection rows it
//! decodes, and on each log segment's rows before the segment keeps its
//! directory. A file out of order fails to open, or answers
//! [`Response::Error`] for the probes of the offending segment, every
//! time they are asked for. Every row served comes from a segment that
//! passed the full frame check and the probe-order check in this
//! process; a directory skips the CRC on later decodes because the
//! engine's bytes never change after open.
//!
//! Responses are pure functions of the file contents. Nothing in the
//! answer path reads the cache state, the thread count, or any clock —
//! which is the whole determinism argument: cold, warm, and thrashing
//! caches produce byte-identical responses, pinned by the crate tests.
//!
//! The reply builders ([`records_reply`], [`series_reply`]) are free
//! functions shared with [`crate::local::LocalAnswerer`], so the engine
//! and the batch-loaded oracle cannot drift apart structurally — any
//! divergence is a real indexing or caching bug, exactly what the diff
//! tests are for.

use crate::cache::{CacheConfig, CacheStats, ShardedLru};
use crate::index::{StatsBuilder, StatsIndex};
use crate::proto::{ProbeRecordsReply, ProbeSeriesReply, ProbeTruthReply, Request, Response};
use dynaddr_atlas::store::{self as atlas_store, check_probe_order};
use dynaddr_atlas::{
    logs::{ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord},
    GroundTruth,
};
use dynaddr_core::changes::{extract_events, strip_testing_entries};
use dynaddr_core::outages::{detect_network_outages, detect_reboots};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_store::{
    decode_segment_at, index_segment_at, ColumnarRecord, FileReader, KeyDirectory, ReadMode,
    SegmentInfo, StoreError,
};
use dynaddr_types::{Asn, ProbeId};
use std::collections::BTreeMap;
use std::fmt;
use std::mem::size_of_val;
use std::path::Path;
use std::sync::OnceLock;

/// Tuning knobs for [`QueryEngine`] construction.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Probe-cache geometry (shards, byte budget).
    pub cache: CacheConfig,
}

/// Failure opening an engine.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem error, with the path that failed.
    Io(String, std::io::Error),
    /// Malformed store file.
    Store(StoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(path, e) => write!(f, "{path}: {e}"),
            EngineError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> EngineError {
        EngineError::Store(e)
    }
}

/// One probe's rows of the three log tables, the cache value. Each
/// `Vec` holds exactly the probe's rows, sized from the key directories.
struct ProbeLogs {
    connections: Vec<ConnectionLogEntry>,
    kroot: Vec<KrootPingRecord>,
    uptime: Vec<SosUptimeRecord>,
}

impl ProbeLogs {
    /// Approximate resident bytes, the cache accounting unit.
    fn cost(&self) -> usize {
        const BASE: usize = 64;
        BASE + size_of_val(&self.connections[..])
            + size_of_val(&self.kroot[..])
            + size_of_val(&self.uptime[..])
    }
}

/// One log-table footer entry: its ordinal within the table, its info,
/// and its key directory, set the first time the segment passes
/// [`index_segment_at`] and [`check_probe_order`]. A segment that fails
/// either sets nothing, so every request for its probes fails again.
struct Segment {
    ordinal: usize,
    info: SegmentInfo,
    dir: OnceLock<KeyDirectory>,
}

/// The segments of `segs` (one table, key spans ascending — see
/// [`QueryEngine::from_parts`]) whose span holds `key`.
fn holding(segs: &[Segment], key: u32) -> &[Segment] {
    let first = segs.partition_point(|s| s.info.key_hi < key);
    let end = first + segs[first..].partition_point(|s| s.info.key_lo <= key);
    &segs[first..end]
}

/// Ground truth regrouped per probe for O(log n) serving.
pub struct TruthIndex {
    by_probe: BTreeMap<u32, ProbeTruthReply>,
}

impl TruthIndex {
    /// Groups a loaded ground truth by probe.
    pub fn new(truth: &GroundTruth) -> TruthIndex {
        let mut by_probe: BTreeMap<u32, ProbeTruthReply> = BTreeMap::new();
        for c in &truth.changes {
            let e = by_probe.entry(c.probe.0).or_default();
            e.probe = c.probe.0;
            e.changes.push(*c);
        }
        for o in &truth.outages {
            let e = by_probe.entry(o.probe.0).or_default();
            e.probe = o.probe.0;
            e.outages.push(*o);
        }
        TruthIndex { by_probe }
    }

    /// One probe's truth; `None` for a probe with no recorded events.
    pub fn probe(&self, probe: u32) -> Option<&ProbeTruthReply> {
        self.by_probe.get(&probe)
    }
}

/// A store file opened for concurrent query serving. See the module docs
/// for the open/serve split; all query methods take `&self` and are safe
/// to call from any number of threads.
pub struct QueryEngine {
    bytes: Vec<u8>,
    /// Every meta row, ascending by probe, decoded and checked at open.
    meta: Vec<ProbeMeta>,
    connections: Vec<Segment>,
    kroot: Vec<Segment>,
    uptime: Vec<Segment>,
    cache: ShardedLru<ProbeLogs>,
    stats: StatsIndex,
    truth: Option<TruthIndex>,
}

impl QueryEngine {
    /// Opens `dir/dataset.store` plus, when present, `dir/truth.store`
    /// and the `dir/ip2as/` snapshots (absent snapshots mean AS lookups
    /// resolve to 0, same as unannounced space).
    pub fn open_dir(dir: &Path, opts: &EngineOptions) -> Result<QueryEngine, EngineError> {
        let store_path = dir.join("dataset.store");
        let bytes = std::fs::read(&store_path)
            .map_err(|e| EngineError::Io(store_path.display().to_string(), e))?;
        let ip2as = dir.join("ip2as");
        let snaps = if ip2as.is_dir() {
            MonthlySnapshots::load_dir(&ip2as)
                .map_err(|e| EngineError::Io(ip2as.display().to_string(), e))?
        } else {
            MonthlySnapshots::uniform(dynaddr_ip2as::RouteTable::new())
        };
        let truth_path = dir.join("truth.store");
        let truth = if truth_path.is_file() {
            let truth_bytes = std::fs::read(&truth_path)
                .map_err(|e| EngineError::Io(truth_path.display().to_string(), e))?;
            let (truth, _) = atlas_store::truth_from_bytes(&truth_bytes, ReadMode::Strict)?;
            Some(truth)
        } else {
            None
        };
        QueryEngine::from_parts(bytes, &snaps, truth.as_ref(), opts)
    }

    /// Builds an engine from in-memory parts. `bytes` is a dataset store
    /// file; the footer is parsed and the secondary indexes built here —
    /// the single pass the module docs describe.
    pub fn from_parts(
        bytes: Vec<u8>,
        snaps: &MonthlySnapshots,
        truth: Option<&GroundTruth>,
        opts: &EngineOptions,
    ) -> Result<QueryEngine, EngineError> {
        const NAMES: [&str; 4] = [
            ProbeMeta::TABLE_NAME,
            ConnectionLogEntry::TABLE_NAME,
            KrootPingRecord::TABLE_NAME,
            SosUptimeRecord::TABLE_NAME,
        ];
        // Per table, `(ordinal, info)` of each segment in file order.
        let mut tables: [Vec<(usize, SegmentInfo)>; 4] = Default::default();
        for info in FileReader::open(&bytes)?.segments() {
            let Some(slot) = (1..=4).contains(&info.table).then(|| (info.table - 1) as usize)
            else {
                continue;
            };
            let segs = &mut tables[slot];
            // The key spans ascend in file order. A probe's log rows
            // may straddle a segment boundary; its one meta row cannot.
            let one_per_probe = info.table == ProbeMeta::TABLE_ID;
            let violation = match segs.last() {
                Some(&(_, prev))
                    if info.key_lo < prev.key_hi
                        || (one_per_probe && info.key_lo == prev.key_hi) =>
                {
                    Some((info.key_lo, prev.key_hi))
                }
                _ if info.key_hi < info.key_lo => Some((info.key_hi, info.key_lo)),
                _ => None,
            };
            if let Some((key, prev)) = violation {
                let table = NAMES[slot].to_string();
                return Err(StoreError::OutOfOrder { table, key, prev }.into());
            }
            segs.push((segs.len(), *info));
        }
        // One streaming pass for the secondary indexes: decode the meta
        // and connection tables segment by segment (parallel decode,
        // sequential fold — the fold order is file order regardless of
        // worker count, so the index is thread-count invariant). The fold
        // also checks the rows' probe order across the whole table, and
        // keeps the meta rows.
        let mut builder = StatsBuilder::new(snaps);
        let [meta_segs, conn_segs, kroot_segs, uptime_segs] = tables;
        let mut meta = Vec::new();
        let mut last = None;
        for batch in dynaddr_exec::par_map(&meta_segs, |&(ordinal, info)| {
            decode_segment_at::<ProbeMeta>(&bytes, ordinal, info)
        }) {
            let mut batch = batch?;
            last = check_probe_order(&batch, last)?;
            builder.add_meta(&batch);
            meta.append(&mut batch);
        }
        let mut last = None;
        for batch in dynaddr_exec::par_map(&conn_segs, |&(ordinal, info)| {
            decode_segment_at::<ConnectionLogEntry>(&bytes, ordinal, info)
        }) {
            let batch = batch?;
            last = check_probe_order(&batch, last)?;
            builder.add_connections(&batch);
        }
        let segments = |segs: Vec<(usize, SegmentInfo)>| -> Vec<Segment> {
            segs.into_iter()
                .map(|(ordinal, info)| Segment { ordinal, info, dir: OnceLock::new() })
                .collect()
        };
        Ok(QueryEngine {
            bytes,
            meta,
            connections: segments(conn_segs),
            kroot: segments(kroot_segs),
            uptime: segments(uptime_segs),
            cache: ShardedLru::new(opts.cache),
            stats: builder.finish(),
            truth: truth.map(TruthIndex::new),
        })
    }

    /// The secondary indexes (also the workload operand universe).
    pub fn stats(&self) -> &StatsIndex {
        &self.stats
    }

    /// Whether a ground truth is loaded ([`Request::ProbeTruth`] answers
    /// `None` otherwise).
    pub fn truth_available(&self) -> bool {
        self.truth.is_some()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Publishes cache counter deltas into the obs metrics registry.
    pub fn publish_metrics(&self) {
        self.cache.publish_obs();
    }

    /// Empties the cache (counters keep accumulating). Answers are
    /// cache-state independent; this exists for cold/warm testing.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// `seg`'s key directory, built the first time it is asked for. A
    /// segment is indexed only after its rows pass the full frame check
    /// and [`check_probe_order`]; on failure nothing is kept.
    fn directory<'a, R: ColumnarRecord>(
        &self,
        seg: &'a Segment,
    ) -> Result<&'a KeyDirectory, StoreError> {
        if let Some(dir) = seg.dir.get() {
            return Ok(dir);
        }
        let (rows, dir) = index_segment_at::<R>(&self.bytes, seg.ordinal, seg.info)?;
        check_probe_order(&rows, None)?;
        // Two threads indexing at once build the same directory; the
        // first one set is kept.
        Ok(seg.dir.get_or_init(|| dir))
    }

    /// One probe's rows of one log table: its run in each segment whose
    /// span holds it, decoded through the directories into one `Vec` of
    /// exactly their length.
    fn rows_of<R: ColumnarRecord>(&self, segs: &[Segment], key: u32) -> Result<Vec<R>, StoreError> {
        let segs = holding(segs, key);
        if let [seg] = segs {
            return self.directory::<R>(seg)?.decode_key(&self.bytes, key);
        }
        let mut count = 0;
        for seg in segs {
            count += self.directory::<R>(seg)?.rows(key).len();
        }
        let mut rows = Vec::with_capacity(count);
        for seg in segs {
            rows.append(&mut self.directory::<R>(seg)?.decode_key(&self.bytes, key)?);
        }
        Ok(rows)
    }

    /// Hands one probe's meta row and log rows to a reply builder. The log
    /// rows come through the per-probe cache; a probe that no log
    /// segment's span holds has none and makes no cache entry.
    fn reply<T>(
        &self,
        probe: ProbeId,
        build: impl FnOnce(
            u32,
            Option<&ProbeMeta>,
            &[ConnectionLogEntry],
            &[KrootPingRecord],
            &[SosUptimeRecord],
        ) -> T,
    ) -> Result<T, StoreError> {
        let key = probe.0;
        let meta = self.meta.binary_search_by_key(&key, |m| m.probe.0).ok().map(|i| &self.meta[i]);
        let tables = [&self.connections, &self.kroot, &self.uptime];
        if tables.iter().all(|segs| holding(segs, key).is_empty()) {
            return Ok(build(key, meta, &[], &[], &[]));
        }
        let logs = self.cache.get_or_try_insert(key as usize, || {
            let logs = ProbeLogs {
                connections: self.rows_of(&self.connections, key)?,
                kroot: self.rows_of(&self.kroot, key)?,
                uptime: self.rows_of(&self.uptime, key)?,
            };
            let cost = logs.cost();
            Ok::<_, StoreError>((logs, cost))
        })?;
        Ok(build(key, meta, &logs.connections, &logs.kroot, &logs.uptime))
    }

    /// Raw rows for one probe (the [`Request::ProbeRecords`] payload).
    pub fn records(&self, probe: ProbeId) -> Result<ProbeRecordsReply, StoreError> {
        self.reply(probe, records_reply)
    }

    /// Decoded series for one probe (the [`Request::ProbeSeries`] payload).
    pub fn series(&self, probe: ProbeId) -> Result<ProbeSeriesReply, StoreError> {
        self.reply(probe, series_reply)
    }

    /// Answers one request. Store-level failures become
    /// [`Response::Error`] so one corrupt segment cannot kill a serving
    /// connection.
    pub fn query(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::ProbeRecords(p) => match self.records(*p) {
                Ok(r) => Response::ProbeRecords(r),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::ProbeSeries(p) => match self.series(*p) {
                Ok(r) => Response::ProbeSeries(r),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::AsSummary(Asn(a)) => Response::AsSummary(self.stats.as_summary(*a)),
            Request::CountrySummary(cc) => {
                Response::CountrySummary(self.stats.country_summary(cc))
            }
            Request::TopMovers(n) => Response::TopMovers(self.stats.top_movers(*n)),
            Request::ProbeTruth(p) => Response::ProbeTruth(
                self.truth.as_ref().and_then(|t| t.probe(p.0)).cloned(),
            ),
            // The server front-end answers this itself; reaching the
            // engine means the caller went around the server.
            Request::ServerStats => {
                Response::Error("ServerStats is answered by the serving front-end".into())
            }
            Request::DaemonSnapshot | Request::DaemonProbe(_) | Request::IngestStats => {
                Response::Error("daemon-only request; this is a batch query backend".into())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared reply builders (engine and LocalAnswerer)
// ---------------------------------------------------------------------------

/// Builds a [`Request::ProbeRecords`] payload: a copy of the probe's rows.
pub fn records_reply(
    probe: u32,
    meta: Option<&ProbeMeta>,
    connections: &[ConnectionLogEntry],
    kroot: &[KrootPingRecord],
    uptime: &[SosUptimeRecord],
) -> ProbeRecordsReply {
    ProbeRecordsReply {
        probe,
        meta: meta.cloned(),
        connections: connections.to_vec(),
        kroot: kroot.to_vec(),
        uptime: uptime.to_vec(),
    }
}

/// Builds a [`Request::ProbeSeries`] payload from raw rows: v4-only event
/// extraction after testing-entry stripping (the paper pipeline's §3.1
/// treatment), outages from k-root, reboots from uptime.
pub fn series_reply(
    probe: u32,
    meta: Option<&ProbeMeta>,
    connections: &[ConnectionLogEntry],
    kroot: &[KrootPingRecord],
    uptime: &[SosUptimeRecord],
) -> ProbeSeriesReply {
    let mut v4: Vec<ConnectionLogEntry> =
        connections.iter().filter(|c| c.peer.v4().is_some()).cloned().collect();
    let v6_entries = (connections.len() - v4.len()) as u64;
    let had_testing_entry = strip_testing_entries(&mut v4);
    let events = extract_events(&v4);
    ProbeSeriesReply {
        probe,
        meta: meta.cloned(),
        changes: events.changes,
        spans: events.spans,
        gaps: events.gaps,
        outages: detect_network_outages(kroot),
        reboots: detect_reboots(uptime),
        had_testing_entry,
        v6_entries,
    }
}
