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
//! The per-probe replies carry the dataset's own types: the log rows
//! ([`ProbeMeta`], [`ConnectionLogEntry`], [`KrootPingRecord`],
//! [`SosUptimeRecord`]), the events detected from them ([`AddressChange`],
//! [`AddressSpan`], [`Gap`], [`NetworkOutage`], [`Reboot`]) and the ground
//! truth ([`TruthChange`], [`TruthOutage`]). One row codec writes each
//! row without its probe id, which the reply header carries once, and
//! hands the id back to every row it decodes. The daemon's replies carry
//! the analyzer's own [`FilterCounts`] and [`ProbeView`]. Every row and
//! plain message is encoded from one field list in wire order (`row!`,
//! `message!`), each field in its own type's encoding. Enum codes are the
//! types' own `code()`s, the numbering the store's columns use too.
//!
//! Decoding is total and canonical: malformed bytes are a [`WireError`],
//! never a panic, and every body that decodes re-encodes to exactly
//! itself. So varints must be minimal (no zero padding byte), enum codes
//! known, countries two uppercase letters and peer addresses 4 or 16
//! bytes.
//!
//! Frames are capped at [`MAX_FRAME`] on read, and a frame's buffer grows
//! only as its body arrives (from at most 64 KiB up front), so a corrupt
//! or hostile length prefix cannot make the reader allocate more than the
//! sender actually sends.

use dynaddr_atlas::logs::{
    ConnectionLogEntry, KrootPingRecord, PeerAddr, ProbeMeta, SosUptimeRecord,
};
use dynaddr_atlas::truth::{ChangeCause, TruthChange, TruthOutage, TruthOutageKind};
use dynaddr_core::changes::{AddressChange, AddressSpan, Gap};
use dynaddr_core::outages::{NetworkOutage, Reboot};
use dynaddr_core::{FilterCounts, ProbeClass, ProbeView};
use dynaddr_store::varint;
use dynaddr_types::{Asn, Country, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

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

impl Request {
    /// The byte that selects this variant on the wire, 0 through 10. The
    /// server counts requests by it.
    pub fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::ProbeRecords(_) => 1,
            Request::ProbeSeries(_) => 2,
            Request::AsSummary(_) => 3,
            Request::CountrySummary(_) => 4,
            Request::TopMovers(_) => 5,
            Request::ProbeTruth(_) => 6,
            Request::ServerStats => 7,
            Request::DaemonSnapshot => 8,
            Request::DaemonProbe(_) => 9,
            Request::IngestStats => 10,
        }
    }
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

/// Answer payload for [`Request::ProbeRecords`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeRecordsReply {
    /// The probe asked about.
    pub probe: u32,
    /// Metadata row, if present.
    pub meta: Option<ProbeMeta>,
    /// Connection-log rows, in store order.
    pub connections: Vec<ConnectionLogEntry>,
    /// K-root ping rows, in store order.
    pub kroot: Vec<KrootPingRecord>,
    /// SOS-uptime rows, in store order.
    pub uptime: Vec<SosUptimeRecord>,
}

/// Answer payload for [`Request::ProbeSeries`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSeriesReply {
    /// The probe asked about.
    pub probe: u32,
    /// Metadata row, if present.
    pub meta: Option<ProbeMeta>,
    /// Observed address changes, in time order.
    pub changes: Vec<AddressChange>,
    /// Address spans, in time order.
    pub spans: Vec<AddressSpan>,
    /// Inter-connection gaps, in time order.
    pub gaps: Vec<Gap>,
    /// Detected network outages, in time order.
    pub outages: Vec<NetworkOutage>,
    /// Detected reboots, in time order.
    pub reboots: Vec<Reboot>,
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

/// Answer payload for [`Request::ProbeTruth`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTruthReply {
    /// The probe asked about.
    pub probe: u32,
    /// Its ground-truth changes, in time order.
    pub changes: Vec<TruthChange>,
    /// Its ground-truth outages, in time order.
    pub outages: Vec<TruthOutage>,
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
    /// Cache hits, when the backend has a cache (zeros otherwise). For
    /// `queryd`, probe lookups served from the probe cache: one lookup
    /// per `ProbeRecords` or `ProbeSeries` request whose probe a log
    /// segment's span holds.
    pub cache_hits: u64,
    /// Cache misses: for `queryd`, probe lookups that decoded the probe's
    /// rows.
    pub cache_misses: u64,
    /// Cache evictions: for `queryd`, probes dropped to make room.
    pub cache_evictions: u64,
}

/// Answer payload for [`Request::DaemonSnapshot`]: the rolling Table 2
/// funnel over everything ingested so far. Provisional by construction —
/// classes can still migrate until the stream is sealed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonSnapshotReply {
    /// The funnel counts over the probes with metadata pushed so far.
    pub counts: FilterCounts,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonProbeReply {
    /// The probe asked about.
    pub probe: u32,
    /// Its rolling state.
    pub view: ProbeView,
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

    /// A minimal varint. The encoder never ends one on a zero byte after
    /// a continuation byte, so such padding would give a value a second
    /// encoding, and is rejected.
    fn u64(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let v = varint::read_u64(self.buf, &mut self.pos).map_err(|e| WireError(e.reason))?;
        if self.pos - start > 1 && self.buf[self.pos - 1] == 0 {
            return Err(WireError("overlong varint".into()));
        }
        Ok(v)
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        self.u64().map(varint::unzigzag)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.u64()?).map_err(|_| WireError("u32 out of range".into()))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| WireError("truncated".into()))?;
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
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| WireError("length overflow".into()))?;
        if end > self.buf.len() {
            return Err(WireError("truncated".into()));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u64()? as usize;
        self.raw(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let s = std::str::from_utf8(self.bytes()?);
        s.map(str::to_owned)
            .map_err(|_| WireError("string is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
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

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, *self as u64);
    }
    fn take(r: &mut WireReader<'_>) -> Result<usize, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError("usize out of range".into()))
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

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<u8, WireError> {
        r.u8()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut WireReader<'_>) -> Result<bool, WireError> {
        r.bool()
    }
}

impl Wire for SimTime {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<SimTime, WireError> {
        r.i64().map(SimTime)
    }
}

impl Wire for SimDuration {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<SimDuration, WireError> {
        r.i64().map(SimDuration)
    }
}

impl Wire for Ipv4Addr {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.octets());
    }
    fn take(r: &mut WireReader<'_>) -> Result<Ipv4Addr, WireError> {
        let o: [u8; 4] = r.raw(4)?.try_into().expect("4 bytes");
        Ok(Ipv4Addr::from(o))
    }
}

/// Length-prefixed octets: 4 for IPv4, 16 for IPv6.
impl Wire for PeerAddr {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PeerAddr::V4(a) => put_bytes(out, &a.octets()),
            PeerAddr::V6(a) => put_bytes(out, &a.octets()),
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<PeerAddr, WireError> {
        let octets = r.bytes()?;
        PeerAddr::from_octets(octets).ok_or_else(|| {
            WireError(format!(
                "peer address of {} bytes (want 4 or 16)",
                octets.len()
            ))
        })
    }
}

/// The two-letter code as a string. Only uppercase decodes: `Country`
/// uppercases what it parses, so "de" would re-encode as "DE".
impl Wire for Country {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_string().put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Country, WireError> {
        let code = r.string()?;
        if code.len() != 2 || !code.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(WireError(format!(
                "country {code:?} is not two uppercase letters"
            )));
        }
        Country::new(&code).map_err(|e| WireError(e.to_string()))
    }
}

/// Enums travel as one byte, their type's own `code()`: the numbering the
/// store's columns use.
macro_rules! wire_code {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(self.code());
            }
            fn take(r: &mut WireReader<'_>) -> Result<$ty, WireError> {
                let code = r.u8()?;
                $ty::from_code(code).ok_or_else(|| {
                    WireError(format!("unknown {} code {code}", stringify!($ty)))
                })
            }
        }
    )+};
}

wire_code!(
    ProbeVersion,
    ProbeTag,
    ChangeCause,
    TruthOutageKind,
    ProbeClass
);

fn put_option<T>(out: &mut Vec<u8>, v: Option<&T>, put: impl Fn(&T, &mut Vec<u8>)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(v, out);
        }
    }
}

fn take_option<T>(
    r: &mut WireReader<'_>,
    take: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(take(r)?)),
        n => Err(WireError(format!("option byte {n}"))),
    }
}

fn put_seq<T>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&T, &mut Vec<u8>)) {
    varint::write_u64(out, items.len() as u64);
    for v in items {
        put(v, out);
    }
}

fn take_seq<T>(
    r: &mut WireReader<'_>,
    mut take: impl FnMut(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.u64()? as usize;
    // Guard against a hostile count: cap the pre-allocation, let the
    // truncation check catch the lie.
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(take(r)?);
    }
    Ok(out)
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_option(out, self.as_ref(), T::put);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Option<T>, WireError> {
        take_option(r, T::take)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self, T::put);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
        take_seq(r, T::take)
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

/// A dataset row or detected event inside a per-probe reply: every field
/// but its probe id, which the reply header carries once.
trait Row: Sized {
    fn put_row(&self, out: &mut Vec<u8>);
    /// Decodes one row of `probe`, the id its reply header carries.
    fn take_row(r: &mut WireReader<'_>, probe: ProbeId) -> Result<Self, WireError>;
}

/// Implements [`Row`] from a type's fields other than `probe`, in wire
/// order. The decode builds the struct from exactly these fields, so a
/// field added to the type and not listed here fails to compile.
macro_rules! row {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Row for $ty {
            fn put_row(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn take_row(r: &mut WireReader<'_>, probe: ProbeId) -> Result<$ty, WireError> {
                Ok($ty { probe, $($field: Wire::take(r)?),+ })
            }
        }
    )+};
}

row! {
    ProbeMeta { version, country, tags }
    ConnectionLogEntry { start, end, peer }
    KrootPingRecord { timestamp, sent, success, lts_secs }
    SosUptimeRecord { timestamp, uptime_secs }
    AddressChange { gap_start, gap_end, from, to }
    AddressSpan { addr, start, end, complete }
    Gap { start, end, address_changed }
    NetworkOutage { start, end }
    Reboot { boot_time, report_time }
    TruthChange { time, from, to, cause }
    TruthOutage { kind, start, duration, address_changed }
}

fn put_rows<R: Row>(out: &mut Vec<u8>, rows: &[R]) {
    put_seq(out, rows, R::put_row);
}

fn take_rows<R: Row>(r: &mut WireReader<'_>, probe: ProbeId) -> Result<Vec<R>, WireError> {
    take_seq(r, |r| R::take_row(r, probe))
}

impl Wire for ProbeRecordsReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        put_option(out, self.meta.as_ref(), Row::put_row);
        put_rows(out, &self.connections);
        put_rows(out, &self.kroot);
        put_rows(out, &self.uptime);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ProbeRecordsReply, WireError> {
        let probe = r.u32()?;
        let id = ProbeId(probe);
        Ok(ProbeRecordsReply {
            probe,
            meta: take_option(r, |r| Row::take_row(r, id))?,
            connections: take_rows(r, id)?,
            kroot: take_rows(r, id)?,
            uptime: take_rows(r, id)?,
        })
    }
}

impl Wire for ProbeSeriesReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        put_option(out, self.meta.as_ref(), Row::put_row);
        put_rows(out, &self.changes);
        put_rows(out, &self.spans);
        put_rows(out, &self.gaps);
        put_rows(out, &self.outages);
        put_rows(out, &self.reboots);
        self.had_testing_entry.put(out);
        self.v6_entries.put(out);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ProbeSeriesReply, WireError> {
        let probe = r.u32()?;
        let id = ProbeId(probe);
        Ok(ProbeSeriesReply {
            probe,
            meta: take_option(r, |r| Row::take_row(r, id))?,
            changes: take_rows(r, id)?,
            spans: take_rows(r, id)?,
            gaps: take_rows(r, id)?,
            outages: take_rows(r, id)?,
            reboots: take_rows(r, id)?,
            had_testing_entry: r.bool()?,
            v6_entries: r.u64()?,
        })
    }
}

impl Wire for ProbeTruthReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.probe.put(out);
        put_rows(out, &self.changes);
        put_rows(out, &self.outages);
    }
    fn take(r: &mut WireReader<'_>) -> Result<ProbeTruthReply, WireError> {
        let probe = r.u32()?;
        let id = ProbeId(probe);
        Ok(ProbeTruthReply {
            probe,
            changes: take_rows(r, id)?,
            outages: take_rows(r, id)?,
        })
    }
}

/// Implements [`Wire`] for a message from its fields in wire order, each
/// in its own encoding, one after another. The decode builds the struct
/// from exactly these fields, so a field added to the type and not listed
/// here fails to compile.
macro_rules! message {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn take(r: &mut WireReader<'_>) -> Result<$ty, WireError> {
                Ok($ty { $($field: Wire::take(r)?),+ })
            }
        }
    )+};
}

message! {
    MoverReply { probe, changes, asn, country }
    AsSummaryReply {
        asn, probes, connections, v6_connections, changes, online_secs, countries, top_movers
    }
    CountrySummaryReply {
        country, probes, connections, v6_connections, changes, online_secs, asns, top_movers
    }
    ServerStatsReply {
        uptime_secs, connections_total, requests_total, requests_by_tag, cache_hits,
        cache_misses, cache_evictions
    }
    FilterCounts {
        total, ipv6_only, dual_stack, tagged, multihomed, testing_only, never_changed,
        analyzable_geo, multi_as, analyzable_as
    }
    DaemonSnapshotReply {
        counts, changes, gaps, network_outages, reboots, frontier_secs, probes_tracked, sealed
    }
    ProbeView { class, multi_as, entries, changes, gaps, network_outages, reboots, had_testing }
    DaemonProbeReply { probe, view }
    IngestStatsReply {
        meta_rows, connection_rows, kroot_rows, uptime_rows, unknown_probe_rows, frontier_secs,
        rows_ingested, rows_planned, elapsed_ms, sealed
    }
}

impl Wire for Request {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Request::ProbeRecords(p)
            | Request::ProbeSeries(p)
            | Request::ProbeTruth(p)
            | Request::DaemonProbe(p) => p.0.put(out),
            Request::AsSummary(a) => a.0.put(out),
            Request::CountrySummary(cc) => cc.put(out),
            Request::TopMovers(n) => n.put(out),
            Request::Ping
            | Request::ServerStats
            | Request::DaemonSnapshot
            | Request::IngestStats => {}
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
        fn tagged(out: &mut Vec<u8>, tag: u8, body: &impl Wire) {
            out.push(tag);
            body.put(out);
        }
        match self {
            Response::Pong => out.push(0),
            Response::ProbeRecords(v) => tagged(out, 1, v),
            Response::ProbeSeries(v) => tagged(out, 2, v),
            Response::AsSummary(v) => tagged(out, 3, v),
            Response::CountrySummary(v) => tagged(out, 4, v),
            Response::TopMovers(v) => tagged(out, 5, v),
            Response::ProbeTruth(v) => tagged(out, 6, v),
            Response::Error(msg) => tagged(out, 7, msg),
            Response::ServerStats(v) => tagged(out, 8, v),
            Response::DaemonSnapshot(v) => tagged(out, 9, v),
            Response::DaemonProbe(v) => tagged(out, 10, v),
            Response::IngestStats(v) => tagged(out, 11, v),
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
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated frame length",
            ));
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
    use std::net::Ipv6Addr;

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
            counts: FilterCounts {
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
            },
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
            view: ProbeView {
                class: ProbeClass::Analyzable,
                multi_as: true,
                entries: 50,
                changes: 7,
                gaps: 8,
                network_outages: 2,
                reboots: 1,
                had_testing: false,
            },
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
        let (probe, t) = (ProbeId(9), SimTime);
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        roundtrip(&Response::Pong);
        roundtrip(&Response::Error("segment 3 corrupt".into()));
        roundtrip(&Response::AsSummary(None));
        roundtrip(&Response::ProbeRecords(ProbeRecordsReply {
            probe: 9,
            meta: Some(ProbeMeta {
                probe,
                version: ProbeVersion::V3,
                country: Country::new("JP").unwrap(),
                tags: vec![ProbeTag::Dsl, ProbeTag::Home],
            }),
            connections: vec![
                ConnectionLogEntry {
                    probe,
                    start: t(-5),
                    end: t(100),
                    peer: a.into(),
                },
                ConnectionLogEntry {
                    probe,
                    start: t(50),
                    end: t(60),
                    peer: Ipv6Addr::LOCALHOST.into(),
                },
            ],
            kroot: vec![KrootPingRecord {
                probe,
                timestamp: t(1),
                sent: 3,
                success: 0,
                lts_secs: 900,
            }],
            uptime: vec![SosUptimeRecord {
                probe,
                timestamp: t(2),
                uptime_secs: 3600,
            }],
        }));
        roundtrip(&Response::ProbeSeries(ProbeSeriesReply {
            probe: 9,
            meta: None,
            changes: vec![AddressChange {
                probe,
                gap_start: t(10),
                gap_end: t(20),
                from: a,
                to: b,
            }],
            spans: vec![AddressSpan {
                probe,
                addr: a,
                start: t(0),
                end: t(10),
                complete: false,
            }],
            gaps: vec![Gap {
                probe,
                start: t(10),
                end: t(20),
                address_changed: true,
            }],
            outages: vec![NetworkOutage {
                probe,
                start: t(5),
                end: t(6),
            }],
            reboots: vec![Reboot {
                probe,
                boot_time: t(1),
                report_time: t(2),
            }],
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
            probe: 9,
            changes: vec![TruthChange {
                probe,
                time: t(77),
                from: None,
                to: Ipv4Addr::new(192, 0, 2, 1),
                cause: ChangeCause::AdminRenumber,
            }],
            outages: vec![TruthOutage {
                probe,
                kind: TruthOutageKind::Power,
                start: t(9),
                duration: SimDuration(1200),
                address_changed: false,
            }],
        })));
    }

    #[test]
    fn domain_values_outside_the_encoder_range_are_rejected() {
        let meta = |country: &str, version: u8, tag: u8| {
            let mut b = vec![1, 9, 1, version];
            country.to_string().put(&mut b);
            b.extend_from_slice(&[1, tag, 0, 0, 0]);
            b
        };
        assert!(from_bytes::<Response>(&meta("JP", 3, 7)).is_ok());
        // Countries that are not two uppercase letters, unknown enum codes.
        let bad = [
            ("jp", 3, 7),
            ("J1", 3, 7),
            ("JPN", 3, 7),
            ("JP", 4, 7),
            ("JP", 3, 8),
        ];
        for (country, version, tag) in bad {
            let bytes = meta(country, version, tag);
            assert!(from_bytes::<Response>(&bytes).is_err(), "{bytes:?} decoded");
        }
        // A daemon probe view's class is one of the seven funnel codes.
        let view = |class: u8| [10, 1, 31, class, 0, 0, 0, 0, 0, 0, 0];
        assert!(from_bytes::<Response>(&view(6)).is_ok());
        assert!(from_bytes::<Response>(&view(7)).is_err());
        // A connection row's peer is 4 or 16 octets.
        for (len, ok) in [(4, true), (16, true), (0, false), (5, false), (15, false)] {
            let mut b = vec![1, 9, 0, 1, 0, 0, len];
            b.resize(b.len() + usize::from(len), 7);
            b.extend_from_slice(&[0, 0]);
            assert_eq!(from_bytes::<Response>(&b).is_ok(), ok, "{len}-byte peer");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&Request::Ping);
        bytes.push(0);
        assert!(from_bytes::<Request>(&bytes).is_err());
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // `[1, 0]` is `ProbeRecords(ProbeId(0))`; the same id padded with
        // a zero continuation byte would re-encode shorter.
        assert_eq!(
            from_bytes::<Request>(&[1, 0]),
            Ok(Request::ProbeRecords(ProbeId(0)))
        );
        assert!(from_bytes::<Request>(&[1, 0x80, 0x00]).is_err());
        // A signed field: `DaemonSnapshot`'s `frontier_secs` follows the
        // tag and fourteen one-byte counters.
        let mut snapshot = to_bytes(&Response::DaemonSnapshot(DaemonSnapshotReply::default()));
        assert_eq!(snapshot[15], 0);
        snapshot.splice(15..16, [0x80, 0x00]);
        assert!(from_bytes::<Response>(&snapshot).is_err());
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
        let mut r = Recorder {
            data: &header,
            offered: Vec::new(),
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let largest = r.offered.iter().copied().max().unwrap();
        assert!(largest <= FRAME_RESERVE, "offered a {largest}-byte buffer");

        // A body longer than the reserve still arrives whole.
        let body: Vec<u8> = (0..3 * FRAME_RESERVE + 7).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let mut r = Recorder {
            data: &buf,
            offered: Vec::new(),
        };
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
