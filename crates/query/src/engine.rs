//! The query engine: open once, answer from any thread.
//!
//! [`QueryEngine::open_dir`] does all per-file work up front — reads
//! `dataset.store` into memory, parses the footer into per-table segment
//! maps, streams the connection table once through [`StatsBuilder`] to
//! build the probe→AS/country indexes, and loads `truth.store` plus the
//! `ip2as/` snapshots when present. After that every query runs through
//! `&self`: segment decodes go through the sharded LRU
//! ([`crate::cache::ShardedLru`]) keyed by the segment's footer position,
//! so a hot segment is decoded once and shared as an `Arc` by every
//! thread that touches it.
//!
//! A probe lookup is two binary searches per table: `partition_point`
//! over the footer's key spans finds the segments that can hold the
//! probe, then `partition_point` inside each cached segment finds its
//! rows. The reply builders read those rows straight out of the cached
//! segment; only a probe whose rows straddle a segment boundary has its
//! parts copied into one vector. Both searches need rows in probe order,
//! so the engine enforces it with the same [`check_probe_order`] every
//! other reader uses: at open over the footer's key spans and the meta
//! and connection rows it decodes for the indexes, and on every segment
//! the cache decodes later. A file out of order fails to open, or
//! answers [`Response::Error`] for the probes of the offending segment.
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
use dynaddr_store::{decode_segment_at, ColumnarRecord, FileReader, ReadMode, SegmentInfo, StoreError};
use dynaddr_types::{Asn, ProbeId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Tuning knobs for [`QueryEngine`] construction.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Segment-cache geometry (shards, byte budget).
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

/// One decoded segment, the cache value type. The variant always matches
/// the segment's table; a mismatch would mean a cache-key collision and
/// panics in tests via [`CachedTable::rows`].
pub(crate) enum Decoded {
    /// Meta-table rows.
    Meta(Vec<ProbeMeta>),
    /// Connection-table rows.
    Connections(Vec<ConnectionLogEntry>),
    /// K-root-table rows.
    Kroot(Vec<KrootPingRecord>),
    /// Uptime-table rows.
    Uptime(Vec<SosUptimeRecord>),
}

impl Decoded {
    /// Approximate resident bytes, the cache accounting unit.
    fn cost(&self) -> usize {
        const BASE: usize = 64;
        match self {
            Decoded::Meta(v) => {
                BASE + v.iter()
                    .map(|m| std::mem::size_of::<ProbeMeta>() + m.tags.len())
                    .sum::<usize>()
            }
            Decoded::Connections(v) => {
                BASE + v.len() * std::mem::size_of::<ConnectionLogEntry>()
            }
            Decoded::Kroot(v) => BASE + v.len() * std::mem::size_of::<KrootPingRecord>(),
            Decoded::Uptime(v) => BASE + v.len() * std::mem::size_of::<SosUptimeRecord>(),
        }
    }
}

/// Glue between a row type and the type-erased cache value.
trait CachedTable: ColumnarRecord + Clone {
    fn wrap(rows: Vec<Self>) -> Decoded;
    fn rows(d: &Decoded) -> &[Self];
}

macro_rules! cached_table {
    ($ty:ty, $variant:ident) => {
        impl CachedTable for $ty {
            fn wrap(rows: Vec<Self>) -> Decoded {
                Decoded::$variant(rows)
            }
            fn rows(d: &Decoded) -> &[Self] {
                match d {
                    Decoded::$variant(v) => v,
                    _ => unreachable!("cache key collision across tables"),
                }
            }
        }
    };
}

cached_table!(ProbeMeta, Meta);
cached_table!(ConnectionLogEntry, Connections);
cached_table!(KrootPingRecord, Kroot);
cached_table!(SosUptimeRecord, Uptime);

/// One probe's rows of one table, as [`QueryEngine::rows_for`] found
/// them.
enum ProbeRows<R> {
    /// A row range of one cached segment, borrowed. The segment stays
    /// alive until the reply is built, even if the cache evicts it.
    Borrowed(Arc<Decoded>, Range<usize>),
    /// The parts of rows that straddle segment boundaries, concatenated;
    /// also the empty start of a lookup.
    Owned(Vec<R>),
}

impl<R: CachedTable> ProbeRows<R> {
    /// Appends the rows `range` of the cached segment `seg`.
    fn push(self, seg: Arc<Decoded>, range: Range<usize>) -> ProbeRows<R> {
        let mut rows = match self {
            ProbeRows::Owned(rows) if rows.is_empty() => return ProbeRows::Borrowed(seg, range),
            ProbeRows::Owned(rows) => rows,
            ProbeRows::Borrowed(prev, prev_range) => R::rows(&prev)[prev_range].to_vec(),
        };
        rows.extend_from_slice(&R::rows(&seg)[range]);
        ProbeRows::Owned(rows)
    }

    fn as_slice(&self) -> &[R] {
        match self {
            ProbeRows::Borrowed(seg, range) => &R::rows(seg)[range.clone()],
            ProbeRows::Owned(rows) => rows,
        }
    }
}

/// One dataset table's footer slice: `(cache key = footer position,
/// per-table ordinal, segment info)` in file order. The key spans ascend
/// ([`QueryEngine::from_parts`] rejects a file where they do not), so
/// the segments that can hold a probe are found by `partition_point` on
/// `key_hi`.
struct TableMap {
    segs: Vec<(usize, usize, SegmentInfo)>,
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
    tables: [TableMap; 4],
    cache: ShardedLru<Decoded>,
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
        let mut tables: [TableMap; 4] = std::array::from_fn(|_| TableMap { segs: Vec::new() });
        {
            let reader = FileReader::open(&bytes)?;
            for (pos, info) in reader.segments().iter().enumerate() {
                let Some(slot) =
                    (1..=4).contains(&info.table).then(|| (info.table - 1) as usize)
                else {
                    continue;
                };
                let t = &mut tables[slot];
                // The key spans ascend in file order. A probe's log rows
                // may straddle a segment boundary; its one meta row cannot.
                let one_per_probe = info.table == ProbeMeta::TABLE_ID;
                let violation = match t.segs.last() {
                    Some(&(_, _, prev))
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
                let ordinal = t.segs.len();
                t.segs.push((pos, ordinal, *info));
            }
        }
        // One streaming pass for the secondary indexes: decode the meta
        // and connection tables segment by segment (parallel decode,
        // sequential fold — the fold order is file order regardless of
        // worker count, so the index is thread-count invariant). The fold
        // also checks the rows' probe order across the whole table.
        let mut builder = StatsBuilder::new(snaps);
        let meta_slot = (ProbeMeta::TABLE_ID - 1) as usize;
        let conn_slot = (ConnectionLogEntry::TABLE_ID - 1) as usize;
        let mut last = None;
        for batch in dynaddr_exec::par_map(&tables[meta_slot].segs, |&(_, ordinal, info)| {
            decode_segment_at::<ProbeMeta>(&bytes, ordinal, info)
        }) {
            let batch = batch?;
            last = check_probe_order(&batch, last)?;
            builder.add_meta(&batch);
        }
        let mut last = None;
        for batch in dynaddr_exec::par_map(&tables[conn_slot].segs, |&(_, ordinal, info)| {
            decode_segment_at::<ConnectionLogEntry>(&bytes, ordinal, info)
        }) {
            let batch = batch?;
            last = check_probe_order(&batch, last)?;
            builder.add_connections(&batch);
        }
        Ok(QueryEngine {
            bytes,
            tables,
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

    /// One table's rows for one key, through the cache: one cache lookup
    /// per segment whose key span holds `key`, and a binary search inside
    /// each. A segment the cache decodes is checked for probe order before
    /// it is cached.
    fn rows_for<R: CachedTable>(&self, key: u32) -> Result<ProbeRows<R>, StoreError> {
        let segs = &self.tables[(R::TABLE_ID - 1) as usize].segs;
        let first = segs.partition_point(|&(_, _, info)| info.key_hi < key);
        let candidates = segs[first..].iter().take_while(|&&(_, _, info)| info.key_lo <= key);
        let mut rows = ProbeRows::Owned(Vec::new());
        for &(pos, ordinal, info) in candidates {
            let seg = self.cache.get_or_try_insert(pos, || {
                let batch = decode_segment_at::<R>(&self.bytes, ordinal, info)?;
                check_probe_order(&batch, None)?;
                let wrapped = R::wrap(batch);
                let cost = wrapped.cost();
                Ok::<_, StoreError>((wrapped, cost))
            })?;
            let all = R::rows(&seg);
            let lo = all.partition_point(|r| r.key() < key);
            let hi = all.partition_point(|r| r.key() <= key);
            rows = rows.push(seg, lo..hi);
        }
        Ok(rows)
    }

    /// Hands one probe's rows of all four tables to a reply builder.
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
        let meta = self.rows_for::<ProbeMeta>(probe.0)?;
        let connections = self.rows_for::<ConnectionLogEntry>(probe.0)?;
        let kroot = self.rows_for::<KrootPingRecord>(probe.0)?;
        let uptime = self.rows_for::<SosUptimeRecord>(probe.0)?;
        Ok(build(
            probe.0,
            meta.as_slice().first(),
            connections.as_slice(),
            kroot.as_slice(),
            uptime.as_slice(),
        ))
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
