//! Typed request/response protocol and its wire codec.
//!
//! The protocol surface is one enum pair — [`Request`] in, [`Response`]
//! out — usable directly in-process (the engine's `query` method) and
//! across a socket. On the wire each message is a **frame**:
//!
//! ```text
//! +----------------+----------------------------+
//! | u32 LE length  | body (length bytes)        |
//! +----------------+----------------------------+
//! ```
//!
//! The body is the message encoded bincode-style by hand: a leading tag
//! byte selects the variant, integers travel as LEB128 varints (signed
//! values zigzag first — the same `dynaddr_store::varint` primitives the
//! store format uses), byte strings and sequences are length-prefixed,
//! `Option` is a presence byte. There is no self-description: both ends
//! share this module, exactly like the store's column codecs share
//! theirs. Encoding is deterministic — equal values produce equal bytes —
//! which is what lets the determinism tests compare responses byte for
//! byte across thread counts and cache states.
//!
//! Frames are capped at [`MAX_FRAME`] on read, and a frame's buffer grows
//! only as its body arrives (from at most 64 KiB up front), so a corrupt
//! or hostile length prefix cannot make the reader allocate more than the
//! sender actually sends.

use dynaddr_store::varint;
use dynaddr_types::{Asn, ProbeId};
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame body accepted from the wire (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// Most bytes [`read_frame`] reserves before a frame's body arrives
/// (64 KiB); a longer body grows the buffer as it is received.
const FRAME_RESERVE: usize = 64 << 10;

/// A query, as issued by clients and answered by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Everything one probe contributed to the dataset, row for row.
    ProbeRecords(ProbeId),
    /// One probe's decoded series: address changes/spans/gaps, detected
    /// network outages, detected reboots.
    ProbeSeries(ProbeId),
    /// Aggregate over every probe mapped to an AS.
    AsSummary(Asn),
    /// Aggregate over every probe registered in a country (ISO alpha-2).
    CountrySummary(String),
    /// The `n` probes with the most observed address changes.
    TopMovers(u32),
    /// One probe's ground-truth changes and outages (requires a
    /// `truth.store` beside the dataset; answered `None` otherwise).
    ProbeTruth(ProbeId),
    /// The serving process's own statistics: uptime, request counts, cache
    /// counters. Answered by the server itself, not the data backend.
    ServerStats,
    /// A daemon's rolling Table 2 funnel over the records ingested so far
    /// (`dynaddrd` only; batch backends answer [`Response::Error`]).
    DaemonSnapshot,
    /// One probe's rolling state in a daemon (`dynaddrd` only).
    DaemonProbe(ProbeId),
    /// A daemon's ingest counters and replay progress (`dynaddrd` only).
    IngestStats,
}

/// The answer to a [`Request`], variant for variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::ProbeRecords`].
    ProbeRecords(ProbeRecordsReply),
    /// Answer to [`Request::ProbeSeries`].
    ProbeSeries(ProbeSeriesReply),
    /// Answer to [`Request::AsSummary`]; `None` for an unknown AS.
    AsSummary(Option<AsSummaryReply>),
    /// Answer to [`Request::CountrySummary`]; `None` for an unknown code.
    CountrySummary(Option<CountrySummaryReply>),
    /// Answer to [`Request::TopMovers`].
    TopMovers(Vec<MoverReply>),
    /// Answer to [`Request::ProbeTruth`]; `None` when no truth is loaded.
    ProbeTruth(Option<ProbeTruthReply>),
    /// The query failed (e.g. a corrupt segment); the message names why.
    Error(String),
    /// Answer to [`Request::ServerStats`].
    ServerStats(ServerStatsReply),
    /// Answer to [`Request::DaemonSnapshot`].
    DaemonSnapshot(DaemonSnapshotReply),
    /// Answer to [`Request::DaemonProbe`]; `None` for an untracked probe.
    DaemonProbe(Option<DaemonProbeReply>),
    /// Answer to [`Request::IngestStats`].
    IngestStats(IngestStatsReply),
}

/// Probe metadata on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaReply {
    /// Hardware generation code (1, 2, 3).
    pub version: u8,
    /// ISO alpha-2 country code.
    pub country: String,
    /// Tag codes (the store's fixed numbering).
    pub tags: Vec<u8>,
}

/// One connection-log row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnReply {
    /// Connection establishment time (seconds).
    pub start: i64,
    /// Last data receipt time (seconds).
    pub end: i64,
    /// Peer address octets: 4 bytes for IPv4, 16 for IPv6.
    pub peer: Vec<u8>,
}

/// One k-root ping row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KrootReply {
    /// Measurement time.
    pub timestamp: i64,
    /// Pings sent.
    pub sent: u8,
    /// Pings answered.
    pub success: u8,
    /// Seconds since last clock sync.
    pub lts_secs: i64,
}

/// One SOS-uptime row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UptimeReply {
    /// Report time.
    pub timestamp: i64,
    /// Seconds since boot.
    pub uptime_secs: u64,
}

/// Answer payload for [`Request::ProbeRecords`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeRecordsReply {
    /// The probe asked about.
    pub probe: u32,
    /// Metadata row, if present.
    pub meta: Option<MetaReply>,
    /// Connection-log rows, in store order.
    pub connections: Vec<ConnReply>,
    /// K-root ping rows, in store order.
    pub kroot: Vec<KrootReply>,
    /// SOS-uptime rows, in store order.
    pub uptime: Vec<UptimeReply>,
}

/// One observed address change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeReply {
    /// End of the last connection on the old address.
    pub gap_start: i64,
    /// Start of the first connection on the new address.
    pub gap_end: i64,
    /// Old IPv4 address octets.
    pub from: [u8; 4],
    /// New IPv4 address octets.
    pub to: [u8; 4],
}

/// One address span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReply {
    /// The address held.
    pub addr: [u8; 4],
    /// First connection start with this address.
    pub start: i64,
    /// Last connection end with this address.
    pub end: i64,
    /// Whether both ends are bounded by observed changes.
    pub complete: bool,
}

/// One inter-connection gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapReply {
    /// End of the earlier connection.
    pub start: i64,
    /// Start of the later connection.
    pub end: i64,
    /// Whether the address differed across the gap.
    pub address_changed: bool,
}

/// One detected network outage (k-root silence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageReply {
    /// First all-lost measurement.
    pub start: i64,
    /// Last all-lost measurement.
    pub end: i64,
}

/// One detected reboot (uptime counter reset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebootReply {
    /// Boot instant implied by the counter.
    pub boot_time: i64,
    /// When the post-reboot record was reported.
    pub report_time: i64,
}

/// Answer payload for [`Request::ProbeSeries`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSeriesReply {
    /// The probe asked about.
    pub probe: u32,
    /// Metadata row, if present.
    pub meta: Option<MetaReply>,
    /// Observed address changes, in time order.
    pub changes: Vec<ChangeReply>,
    /// Address spans, in time order.
    pub spans: Vec<SpanReply>,
    /// Inter-connection gaps, in time order.
    pub gaps: Vec<GapReply>,
    /// Detected network outages, in time order.
    pub outages: Vec<OutageReply>,
    /// Detected reboots, in time order.
    pub reboots: Vec<RebootReply>,
    /// Whether a leading RIPE-testing-address entry was stripped.
    pub had_testing_entry: bool,
    /// IPv6 connection entries excluded from event extraction.
    pub v6_entries: u64,
}

/// One high-churn probe in a mover list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoverReply {
    /// The probe.
    pub probe: u32,
    /// Raw observed address transitions (v4, testing entries included).
    pub changes: u64,
    /// The AS its first observed v4 address mapped to (0 = unmapped).
    pub asn: u32,
    /// Registered country code.
    pub country: String,
}

/// Answer payload for [`Request::AsSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct AsSummaryReply {
    /// The AS.
    pub asn: u32,
    /// Probes mapped to it.
    pub probes: u64,
    /// Their connection rows.
    pub connections: u64,
    /// Of those, IPv6 rows.
    pub v6_connections: u64,
    /// Raw observed address transitions across all its probes.
    pub changes: u64,
    /// Summed v4 connection time, seconds.
    pub online_secs: u64,
    /// Probe count per registered country, sorted by code.
    pub countries: Vec<(String, u64)>,
    /// Its top 5 probes by change count.
    pub top_movers: Vec<MoverReply>,
}

/// Answer payload for [`Request::CountrySummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct CountrySummaryReply {
    /// ISO alpha-2 code.
    pub country: String,
    /// Probes registered there.
    pub probes: u64,
    /// Their connection rows.
    pub connections: u64,
    /// Of those, IPv6 rows.
    pub v6_connections: u64,
    /// Raw observed address transitions across its probes.
    pub changes: u64,
    /// Summed v4 connection time, seconds.
    pub online_secs: u64,
    /// Probe count per AS, sorted by ASN.
    pub asns: Vec<(u32, u64)>,
    /// Its top 5 probes by change count.
    pub top_movers: Vec<MoverReply>,
}

/// One ground-truth change on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthChangeReply {
    /// When the new address took effect.
    pub time: i64,
    /// Address before the change (absent at first assignment).
    pub from: Option<[u8; 4]>,
    /// Address after the change.
    pub to: [u8; 4],
    /// Cause code (the store's fixed `ChangeCause` numbering).
    pub cause: u8,
}

/// One ground-truth outage on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthOutageReply {
    /// Kind code (the store's fixed `TruthOutageKind` numbering).
    pub kind: u8,
    /// When connectivity/power was lost.
    pub start: i64,
    /// Duration, seconds.
    pub duration: i64,
    /// Whether recovery came with a new address.
    pub address_changed: bool,
}

/// Answer payload for [`Request::ProbeTruth`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTruthReply {
    /// The probe asked about.
    pub probe: u32,
    /// Its ground-truth changes, in time order.
    pub changes: Vec<TruthChangeReply>,
    /// Its ground-truth outages, in time order.
    pub outages: Vec<TruthOutageReply>,
}

/// Answer payload for [`Request::ServerStats`]: the serving process's own
/// counters. Filled in by the server front-end, never by a data backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatsReply {
    /// Seconds since the server started accepting connections.
    pub uptime_secs: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Requests answered since start (all kinds, including this one).
    pub requests_total: u64,
    /// Per-request-kind counts as `(wire tag, count)` pairs, ascending by
    /// tag; tags with a zero count are omitted.
    pub requests_by_tag: Vec<(u32, u64)>,
    /// Result-cache hits, when the backend has a cache (zeros otherwise).
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
}

/// Answer payload for [`Request::DaemonSnapshot`]: the rolling Table 2
/// funnel over everything ingested so far. Provisional by construction —
/// classes can still migrate until the stream is sealed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonSnapshotReply {
    /// Probes with metadata pushed so far.
    pub total: u64,
    /// Currently classed IPv6-only.
    pub ipv6_only: u64,
    /// Currently classed dual-stack.
    pub dual_stack: u64,
    /// Disqualified by tags.
    pub tagged: u64,
    /// Behaviourally multihomed.
    pub multihomed: u64,
    /// Only testing-address entries so far.
    pub testing_only: u64,
    /// Connected but never changed address.
    pub never_changed: u64,
    /// Analyzable for geographic analyses.
    pub analyzable_geo: u64,
    /// Analyzable probes that crossed AS boundaries.
    pub multi_as: u64,
    /// Analyzable for AS-level analyses (`analyzable_geo - multi_as`).
    pub analyzable_as: u64,
    /// Address changes observed so far.
    pub changes: u64,
    /// Connection gaps observed so far.
    pub gaps: u64,
    /// Network outages detected so far.
    pub network_outages: u64,
    /// Reboots detected so far (before firmware filtering, which is a
    /// seal-time global pass).
    pub reboots: u64,
    /// Latest event time pushed (seconds), 0 before any row.
    pub frontier_secs: i64,
    /// Probes with at least one record or metadata row.
    pub probes_tracked: u64,
    /// True once the stream has been sealed into a final report.
    pub sealed: bool,
}

/// Answer payload for [`Request::DaemonProbe`]: one probe's rolling state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonProbeReply {
    /// The probe asked about.
    pub probe: u32,
    /// Provisional funnel class, in `dynaddr_core::ProbeClass` declaration
    /// order: 0 Ipv6Only, 1 DualStack, 2 Tagged, 3 Multihomed,
    /// 4 TestingOnly, 5 NeverChanged, 6 Analyzable.
    pub class: u8,
    /// Whether its changes crossed AS boundaries.
    pub multi_as: bool,
    /// IPv4 connection entries retained.
    pub entries: u64,
    /// Address changes so far.
    pub changes: u64,
    /// Connection gaps so far.
    pub gaps: u64,
    /// Network outages so far.
    pub network_outages: u64,
    /// Reboots so far.
    pub reboots: u64,
    /// Whether a testing-address entry was ever seen.
    pub had_testing: bool,
}

/// Answer payload for [`Request::IngestStats`]: raw ingest counters and
/// replay progress. All integers — rates are derived client-side from
/// `rows_ingested` and `elapsed_ms` so the wire stays float-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStatsReply {
    /// Probe-metadata rows ingested.
    pub meta_rows: u64,
    /// Connection-log rows ingested.
    pub connection_rows: u64,
    /// K-root ping rows ingested.
    pub kroot_rows: u64,
    /// SOS uptime rows ingested.
    pub uptime_rows: u64,
    /// Rows dropped because their probe had no metadata yet.
    pub unknown_probe_rows: u64,
    /// Latest event time pushed (seconds), 0 before any row.
    pub frontier_secs: i64,
    /// Record rows ingested so far (connection + kroot + uptime).
    pub rows_ingested: u64,
    /// Total record rows in the replay plan; zero for live ingestion.
    pub rows_planned: u64,
    /// Wall-clock milliseconds since ingestion started.
    pub elapsed_ms: u64,
    /// True once the stream has been sealed.
    pub sealed: bool,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// A malformed message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Cursor over a message body.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        varint::read_u64(self.buf, &mut self.pos).map_err(|e| WireError(e.reason))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        varint::read_i64(self.buf, &mut self.pos).map_err(|e| WireError(e.reason))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.u64()?).map_err(|_| WireError("u32 out of range".into()))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| WireError("truncated".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(WireError(format!("bool byte {n}"))),
        }
    }

    fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| WireError("length overflow".into()))?;
        if end > self.buf.len() {
            return Err(WireError("truncated".into()));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u64()? as usize;
        Ok(self.raw(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError("string is not UTF-8".into()))
    }

    fn octets4(&mut self) -> Result<[u8; 4], WireError> {
        Ok(self.raw(4)?.try_into().expect("4 bytes"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    varint::write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// A value with a deterministic binary form.
pub trait Wire: Sized {
    /// Appends the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value at the reader's cursor.
    fn take(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, *self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<u64, WireError> {
        r.u64()
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, u64::from(*self));
    }
    fn take(r: &mut WireReader<'_>) -> Result<u32, WireError> {
        r.u32()
    }
}

impl Wire for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_i64(out, *self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<i64, WireError> {
        r.i64()
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn take(r: &mut WireReader<'_>) -> Result<String, WireError> {
        r.string()
    }
}

impl Wire for [u8; 4] {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<[u8; 4], WireError> {
        r.octets4()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<Option<T>, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            n => Err(WireError(format!("option byte {n}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
        let n = r.u64()? as usize;
        // Guard against a hostile count: cap the pre-allocation, let the
        // truncation check catch the lie.
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<(A, B), WireError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl Wire for MetaReply {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.version);
        self.country.put(out);
        put_bytes(out, &self.tags);
    }
    fn take(r: &mut WireReader<'_>) -> Result<MetaReply, WireError> {
        Ok(MetaReply { version: r.u8()?, country: r.string()?, tags: r.bytes()? })
    }
}

impl Wire for ConnReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.start.put(out);
        self.end.put(out);
        put_bytes(out, &self.peer);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ConnReply, WireError> {
        Ok(ConnReply { start: r.i64()?, end: r.i64()?, peer: r.bytes()? })
    }
}

impl Wire for KrootReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.timestamp.put(out);
        out.push(self.sent);
        out.push(self.success);
        self.lts_secs.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<KrootReply, WireError> {
        Ok(KrootReply {
            timestamp: r.i64()?,
            sent: r.u8()?,
            success: r.u8()?,
            lts_secs: r.i64()?,
        })
    }
}

impl Wire for UptimeReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.timestamp.put(out);
        self.uptime_secs.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<UptimeReply, WireError> {
        Ok(UptimeReply { timestamp: r.i64()?, uptime_secs: r.u64()? })
    }
}

impl Wire for ProbeRecordsReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        self.meta.put(out);
        self.connections.put(out);
        self.kroot.put(out);
        self.uptime.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ProbeRecordsReply, WireError> {
        Ok(ProbeRecordsReply {
            probe: r.u32()?,
            meta: <Option<_> as Wire>::take(r)?,
            connections: <Vec<_> as Wire>::take(r)?,
            kroot: <Vec<_> as Wire>::take(r)?,
            uptime: <Vec<_> as Wire>::take(r)?,
        })
    }
}

impl Wire for ChangeReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.gap_start.put(out);
        self.gap_end.put(out);
        self.from.put(out);
        self.to.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ChangeReply, WireError> {
        Ok(ChangeReply {
            gap_start: r.i64()?,
            gap_end: r.i64()?,
            from: r.octets4()?,
            to: r.octets4()?,
        })
    }
}

impl Wire for SpanReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.addr.put(out);
        self.start.put(out);
        self.end.put(out);
        out.push(u8::from(self.complete));
    }
    fn take(r: &mut WireReader<'_>) -> Result<SpanReply, WireError> {
        Ok(SpanReply { addr: r.octets4()?, start: r.i64()?, end: r.i64()?, complete: r.bool()? })
    }
}

impl Wire for GapReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.start.put(out);
        self.end.put(out);
        out.push(u8::from(self.address_changed));
    }
    fn take(r: &mut WireReader<'_>) -> Result<GapReply, WireError> {
        Ok(GapReply { start: r.i64()?, end: r.i64()?, address_changed: r.bool()? })
    }
}

impl Wire for OutageReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.start.put(out);
        self.end.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<OutageReply, WireError> {
        Ok(OutageReply { start: r.i64()?, end: r.i64()? })
    }
}

impl Wire for RebootReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.boot_time.put(out);
        self.report_time.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<RebootReply, WireError> {
        Ok(RebootReply { boot_time: r.i64()?, report_time: r.i64()? })
    }
}

impl Wire for ProbeSeriesReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        self.meta.put(out);
        self.changes.put(out);
        self.spans.put(out);
        self.gaps.put(out);
        self.outages.put(out);
        self.reboots.put(out);
        out.push(u8::from(self.had_testing_entry));
        self.v6_entries.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ProbeSeriesReply, WireError> {
        Ok(ProbeSeriesReply {
            probe: r.u32()?,
            meta: <Option<_> as Wire>::take(r)?,
            changes: <Vec<_> as Wire>::take(r)?,
            spans: <Vec<_> as Wire>::take(r)?,
            gaps: <Vec<_> as Wire>::take(r)?,
            outages: <Vec<_> as Wire>::take(r)?,
            reboots: <Vec<_> as Wire>::take(r)?,
            had_testing_entry: r.bool()?,
            v6_entries: r.u64()?,
        })
    }
}

impl Wire for MoverReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        self.changes.put(out);
        self.asn.put(out);
        self.country.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<MoverReply, WireError> {
        Ok(MoverReply {
            probe: r.u32()?,
            changes: r.u64()?,
            asn: r.u32()?,
            country: r.string()?,
        })
    }
}

impl Wire for AsSummaryReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.asn.put(out);
        self.probes.put(out);
        self.connections.put(out);
        self.v6_connections.put(out);
        self.changes.put(out);
        self.online_secs.put(out);
        self.countries.put(out);
        self.top_movers.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<AsSummaryReply, WireError> {
        Ok(AsSummaryReply {
            asn: r.u32()?,
            probes: r.u64()?,
            connections: r.u64()?,
            v6_connections: r.u64()?,
            changes: r.u64()?,
            online_secs: r.u64()?,
            countries: <Vec<_> as Wire>::take(r)?,
            top_movers: <Vec<_> as Wire>::take(r)?,
        })
    }
}

impl Wire for CountrySummaryReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.country.put(out);
        self.probes.put(out);
        self.connections.put(out);
        self.v6_connections.put(out);
        self.changes.put(out);
        self.online_secs.put(out);
        self.asns.put(out);
        self.top_movers.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<CountrySummaryReply, WireError> {
        Ok(CountrySummaryReply {
            country: r.string()?,
            probes: r.u64()?,
            connections: r.u64()?,
            v6_connections: r.u64()?,
            changes: r.u64()?,
            online_secs: r.u64()?,
            asns: <Vec<_> as Wire>::take(r)?,
            top_movers: <Vec<_> as Wire>::take(r)?,
        })
    }
}

impl Wire for TruthChangeReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.time.put(out);
        self.from.put(out);
        self.to.put(out);
        out.push(self.cause);
    }
    fn take(r: &mut WireReader<'_>) -> Result<TruthChangeReply, WireError> {
        Ok(TruthChangeReply {
            time: r.i64()?,
            from: <Option<_> as Wire>::take(r)?,
            to: r.octets4()?,
            cause: r.u8()?,
        })
    }
}

impl Wire for TruthOutageReply {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.kind);
        self.start.put(out);
        self.duration.put(out);
        out.push(u8::from(self.address_changed));
    }
    fn take(r: &mut WireReader<'_>) -> Result<TruthOutageReply, WireError> {
        Ok(TruthOutageReply {
            kind: r.u8()?,
            start: r.i64()?,
            duration: r.i64()?,
            address_changed: r.bool()?,
        })
    }
}

impl Wire for ProbeTruthReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        self.changes.put(out);
        self.outages.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ProbeTruthReply, WireError> {
        Ok(ProbeTruthReply { probe: r.u32()?, changes: <Vec<_> as Wire>::take(r)?, outages: <Vec<_> as Wire>::take(r)? })
    }
}

impl Wire for ServerStatsReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.uptime_secs.put(out);
        self.connections_total.put(out);
        self.requests_total.put(out);
        self.requests_by_tag.put(out);
        self.cache_hits.put(out);
        self.cache_misses.put(out);
        self.cache_evictions.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ServerStatsReply, WireError> {
        Ok(ServerStatsReply {
            uptime_secs: r.u64()?,
            connections_total: r.u64()?,
            requests_total: r.u64()?,
            requests_by_tag: <Vec<_> as Wire>::take(r)?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_evictions: r.u64()?,
        })
    }
}

impl Wire for DaemonSnapshotReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.total.put(out);
        self.ipv6_only.put(out);
        self.dual_stack.put(out);
        self.tagged.put(out);
        self.multihomed.put(out);
        self.testing_only.put(out);
        self.never_changed.put(out);
        self.analyzable_geo.put(out);
        self.multi_as.put(out);
        self.analyzable_as.put(out);
        self.changes.put(out);
        self.gaps.put(out);
        self.network_outages.put(out);
        self.reboots.put(out);
        self.frontier_secs.put(out);
        self.probes_tracked.put(out);
        out.push(u8::from(self.sealed));
    }
    fn take(r: &mut WireReader<'_>) -> Result<DaemonSnapshotReply, WireError> {
        Ok(DaemonSnapshotReply {
            total: r.u64()?,
            ipv6_only: r.u64()?,
            dual_stack: r.u64()?,
            tagged: r.u64()?,
            multihomed: r.u64()?,
            testing_only: r.u64()?,
            never_changed: r.u64()?,
            analyzable_geo: r.u64()?,
            multi_as: r.u64()?,
            analyzable_as: r.u64()?,
            changes: r.u64()?,
            gaps: r.u64()?,
            network_outages: r.u64()?,
            reboots: r.u64()?,
            frontier_secs: r.i64()?,
            probes_tracked: r.u64()?,
            sealed: r.bool()?,
        })
    }
}

impl Wire for DaemonProbeReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        out.push(self.class);
        out.push(u8::from(self.multi_as));
        self.entries.put(out);
        self.changes.put(out);
        self.gaps.put(out);
        self.network_outages.put(out);
        self.reboots.put(out);
        out.push(u8::from(self.had_testing));
    }
    fn take(r: &mut WireReader<'_>) -> Result<DaemonProbeReply, WireError> {
        Ok(DaemonProbeReply {
            probe: r.u32()?,
            class: r.u8()?,
            multi_as: r.bool()?,
            entries: r.u64()?,
            changes: r.u64()?,
            gaps: r.u64()?,
            network_outages: r.u64()?,
            reboots: r.u64()?,
            had_testing: r.bool()?,
        })
    }
}

impl Wire for IngestStatsReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.meta_rows.put(out);
        self.connection_rows.put(out);
        self.kroot_rows.put(out);
        self.uptime_rows.put(out);
        self.unknown_probe_rows.put(out);
        self.frontier_secs.put(out);
        self.rows_ingested.put(out);
        self.rows_planned.put(out);
        self.elapsed_ms.put(out);
        out.push(u8::from(self.sealed));
    }
    fn take(r: &mut WireReader<'_>) -> Result<IngestStatsReply, WireError> {
        Ok(IngestStatsReply {
            meta_rows: r.u64()?,
            connection_rows: r.u64()?,
            kroot_rows: r.u64()?,
            uptime_rows: r.u64()?,
            unknown_probe_rows: r.u64()?,
            frontier_secs: r.i64()?,
            rows_ingested: r.u64()?,
            rows_planned: r.u64()?,
            elapsed_ms: r.u64()?,
            sealed: r.bool()?,
        })
    }
}

impl Wire for Request {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0),
            Request::ProbeRecords(p) => {
                out.push(1);
                p.0.put(out);
            }
            Request::ProbeSeries(p) => {
                out.push(2);
                p.0.put(out);
            }
            Request::AsSummary(a) => {
                out.push(3);
                a.0.put(out);
            }
            Request::CountrySummary(cc) => {
                out.push(4);
                cc.put(out);
            }
            Request::TopMovers(n) => {
                out.push(5);
                n.put(out);
            }
            Request::ProbeTruth(p) => {
                out.push(6);
                p.0.put(out);
            }
            Request::ServerStats => out.push(7),
            Request::DaemonSnapshot => out.push(8),
            Request::DaemonProbe(p) => {
                out.push(9);
                p.0.put(out);
            }
            Request::IngestStats => out.push(10),
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<Request, WireError> {
        Ok(match r.u8()? {
            0 => Request::Ping,
            1 => Request::ProbeRecords(ProbeId(r.u32()?)),
            2 => Request::ProbeSeries(ProbeId(r.u32()?)),
            3 => Request::AsSummary(Asn(r.u32()?)),
            4 => Request::CountrySummary(r.string()?),
            5 => Request::TopMovers(r.u32()?),
            6 => Request::ProbeTruth(ProbeId(r.u32()?)),
            7 => Request::ServerStats,
            8 => Request::DaemonSnapshot,
            9 => Request::DaemonProbe(ProbeId(r.u32()?)),
            10 => Request::IngestStats,
            n => return Err(WireError(format!("unknown request tag {n}"))),
        })
    }
}

impl Wire for Response {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::ProbeRecords(v) => {
                out.push(1);
                v.put(out);
            }
            Response::ProbeSeries(v) => {
                out.push(2);
                v.put(out);
            }
            Response::AsSummary(v) => {
                out.push(3);
                v.put(out);
            }
            Response::CountrySummary(v) => {
                out.push(4);
                v.put(out);
            }
            Response::TopMovers(v) => {
                out.push(5);
                v.put(out);
            }
            Response::ProbeTruth(v) => {
                out.push(6);
                v.put(out);
            }
            Response::Error(msg) => {
                out.push(7);
                msg.put(out);
            }
            Response::ServerStats(v) => {
                out.push(8);
                v.put(out);
            }
            Response::DaemonSnapshot(v) => {
                out.push(9);
                v.put(out);
            }
            Response::DaemonProbe(v) => {
                out.push(10);
                v.put(out);
            }
            Response::IngestStats(v) => {
                out.push(11);
                v.put(out);
            }
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<Response, WireError> {
        Ok(match r.u8()? {
            0 => Response::Pong,
            1 => Response::ProbeRecords(Wire::take(r)?),
            2 => Response::ProbeSeries(Wire::take(r)?),
            3 => Response::AsSummary(Wire::take(r)?),
            4 => Response::CountrySummary(Wire::take(r)?),
            5 => Response::TopMovers(Wire::take(r)?),
            6 => Response::ProbeTruth(Wire::take(r)?),
            7 => Response::Error(r.string()?),
            8 => Response::ServerStats(Wire::take(r)?),
            9 => Response::DaemonSnapshot(Wire::take(r)?),
            10 => Response::DaemonProbe(Wire::take(r)?),
            11 => Response::IngestStats(Wire::take(r)?),
            n => return Err(WireError(format!("unknown response tag {n}"))),
        })
    }
}

/// Encodes any wire value as a standalone message body.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out);
    out
}

/// Decodes a standalone message body; trailing bytes are an error.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::take(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame. `Ok(None)` is a clean EOF before the first length
/// byte; anything else short is an [`io::ErrorKind::UnexpectedEof`]. The
/// body buffer is sized by the bytes received, never by the header alone.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame length"));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated frame body: {} of {len} bytes", body.len()),
        ));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
        // Determinism: re-encoding yields the same bytes.
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Ping,
            Request::ProbeRecords(ProbeId(0)),
            Request::ProbeSeries(ProbeId(u32::MAX)),
            Request::AsSummary(Asn(64512)),
            Request::CountrySummary("DE".into()),
            Request::TopMovers(25),
            Request::ProbeTruth(ProbeId(7)),
            Request::ServerStats,
            Request::DaemonSnapshot,
            Request::DaemonProbe(ProbeId(31)),
            Request::IngestStats,
        ] {
            roundtrip(&req);
        }
    }

    #[test]
    fn daemon_responses_roundtrip() {
        roundtrip(&Response::ServerStats(ServerStatsReply {
            uptime_secs: 90,
            connections_total: 4,
            requests_total: 1000,
            requests_by_tag: vec![(0, 1), (2, 998), (7, 1)],
            cache_hits: 600,
            cache_misses: 400,
            cache_evictions: 17,
        }));
        roundtrip(&Response::DaemonSnapshot(DaemonSnapshotReply {
            total: 100,
            ipv6_only: 3,
            dual_stack: 5,
            tagged: 2,
            multihomed: 1,
            testing_only: 4,
            never_changed: 40,
            analyzable_geo: 45,
            multi_as: 5,
            analyzable_as: 40,
            changes: 1234,
            gaps: 2345,
            network_outages: 17,
            reboots: 9,
            frontier_secs: -1,
            probes_tracked: 100,
            sealed: false,
        }));
        roundtrip(&Response::DaemonProbe(None));
        roundtrip(&Response::DaemonProbe(Some(DaemonProbeReply {
            probe: 31,
            class: 6,
            multi_as: true,
            entries: 50,
            changes: 7,
            gaps: 8,
            network_outages: 2,
            reboots: 1,
            had_testing: false,
        })));
        roundtrip(&Response::IngestStats(IngestStatsReply {
            meta_rows: 100,
            connection_rows: 5000,
            kroot_rows: 40000,
            uptime_rows: 900,
            unknown_probe_rows: 3,
            frontier_secs: i64::MIN,
            rows_ingested: 45900,
            rows_planned: 45903,
            elapsed_ms: 1500,
            sealed: true,
        }));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(&Response::Pong);
        roundtrip(&Response::Error("segment 3 corrupt".into()));
        roundtrip(&Response::AsSummary(None));
        roundtrip(&Response::ProbeRecords(ProbeRecordsReply {
            probe: 9,
            meta: Some(MetaReply { version: 3, country: "JP".into(), tags: vec![3, 7] }),
            connections: vec![
                ConnReply { start: -5, end: 100, peer: vec![10, 0, 0, 1] },
                ConnReply { start: 50, end: 60, peer: vec![0; 16] },
            ],
            kroot: vec![KrootReply { timestamp: 1, sent: 3, success: 0, lts_secs: 900 }],
            uptime: vec![UptimeReply { timestamp: 2, uptime_secs: 3600 }],
        }));
        roundtrip(&Response::ProbeSeries(ProbeSeriesReply {
            probe: 4,
            meta: None,
            changes: vec![ChangeReply {
                gap_start: 10,
                gap_end: 20,
                from: [10, 0, 0, 1],
                to: [10, 0, 0, 2],
            }],
            spans: vec![SpanReply { addr: [10, 0, 0, 1], start: 0, end: 10, complete: false }],
            gaps: vec![GapReply { start: 10, end: 20, address_changed: true }],
            outages: vec![OutageReply { start: 5, end: 6 }],
            reboots: vec![RebootReply { boot_time: 1, report_time: 2 }],
            had_testing_entry: true,
            v6_entries: 3,
        }));
        roundtrip(&Response::TopMovers(vec![MoverReply {
            probe: 1,
            changes: 44,
            asn: 64512,
            country: "BR".into(),
        }]));
        roundtrip(&Response::ProbeTruth(Some(ProbeTruthReply {
            probe: 2,
            changes: vec![TruthChangeReply {
                time: 77,
                from: None,
                to: [192, 0, 2, 1],
                cause: 5,
            }],
            outages: vec![TruthOutageReply {
                kind: 1,
                start: 9,
                duration: 1200,
                address_changed: false,
            }],
        })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&Request::Ping);
        bytes.push(0);
        assert!(from_bytes::<Request>(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(from_bytes::<Request>(&[200]).is_err());
        assert!(from_bytes::<Response>(&[200]).is_err());
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// Serves `data` and records the size of every buffer it is offered.
    struct Recorder<'a> {
        data: &'a [u8],
        offered: Vec<usize>,
    }

    impl Read for Recorder<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.offered.push(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn frame_buffer_grows_with_the_body_not_the_header() {
        // A header claiming the largest legal body, then a few bytes and
        // EOF: an error, and no read is offered more than the reserve.
        let mut header = (MAX_FRAME as u32).to_le_bytes().to_vec();
        header.extend_from_slice(b"abc");
        let mut r = Recorder { data: &header, offered: Vec::new() };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let largest = r.offered.iter().copied().max().unwrap();
        assert!(largest <= FRAME_RESERVE, "offered a {largest}-byte buffer");

        // A body longer than the reserve still arrives whole.
        let body: Vec<u8> = (0..3 * FRAME_RESERVE + 7).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let mut r = Recorder { data: &buf, offered: Vec::new() };
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), body);

        // A few-byte request frame costs one allocation of its own size.
        let mut buf = Vec::new();
        write_frame(&mut buf, &to_bytes(&Request::ProbeSeries(ProbeId(4242)))).unwrap();
        let small = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(small.capacity(), small.len());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
