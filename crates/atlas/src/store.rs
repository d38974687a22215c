//! Columnar store codecs for the Atlas tables (`dynaddr-store` backend).
//!
//! Maps every dataset and ground-truth table onto the segmented columnar
//! format: integers (probe ids, timestamps, counters, enum codes) become
//! delta + zigzag + varint columns, addresses and strings become
//! length-prefixed byte columns. Enum codes are fixed here, independent of
//! declaration order, so files stay readable across refactors; addresses
//! carry their family in the payload length (4 bytes = IPv4, 16 = IPv6)
//! and floats travel as exact IEEE-754 bit patterns — a decode reproduces
//! the in-memory value byte for byte.
//!
//! Datasets are written as one multi-table file (`dataset.store`), ground
//! truth as another (`truth.store`); see [`crate::logs::AtlasDataset::save_dir`]
//! for the directory wiring.

use crate::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, PeerAddr, ProbeIndex, ProbeMeta,
    SosUptimeRecord,
};
use crate::truth::{
    ChangeCause, GroundTruth, IspPolicyTruth, TruthChange, TruthOutage, TruthOutageKind,
};
use dynaddr_store::{
    ColumnBuilder, ColumnKind, ColumnReader, ColumnarRecord, DecodeError, FileReader, FileWriter,
    ReadMode, RecoveryReport, StoreError,
};
use dynaddr_types::{Asn, Country, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

// ---------------------------------------------------------------------------
// Shared column helpers
// ---------------------------------------------------------------------------

fn u32_col(v: i64, what: &str) -> Result<u32, DecodeError> {
    u32::try_from(v).map_err(|_| DecodeError::new(format!("{what} {v} out of range")))
}

fn u8_col(v: i64, what: &str) -> Result<u8, DecodeError> {
    u8::try_from(v).map_err(|_| DecodeError::new(format!("{what} {v} out of range")))
}

fn u64_col(v: i64, what: &str) -> Result<u64, DecodeError> {
    u64::try_from(v).map_err(|_| DecodeError::new(format!("{what} {v} out of range")))
}

fn bool_col(v: i64, what: &str) -> Result<bool, DecodeError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError::new(format!("{what} {other} is not a boolean"))),
    }
}

fn push_peer(col: &mut ColumnBuilder, peer: PeerAddr) {
    match peer {
        PeerAddr::V4(a) => col.push_bytes(&a.octets()),
        PeerAddr::V6(a) => col.push_bytes(&a.octets()),
    }
}

fn peer_from(bytes: &[u8]) -> Result<PeerAddr, DecodeError> {
    match bytes.len() {
        4 => {
            let o: [u8; 4] = bytes.try_into().expect("4 bytes");
            Ok(PeerAddr::V4(Ipv4Addr::from(o)))
        }
        16 => {
            let o: [u8; 16] = bytes.try_into().expect("16 bytes");
            Ok(PeerAddr::V6(Ipv6Addr::from(o)))
        }
        n => Err(DecodeError::new(format!("address of {n} bytes (want 4 or 16)"))),
    }
}

fn v4_from(bytes: &[u8], what: &str) -> Result<Ipv4Addr, DecodeError> {
    let o: [u8; 4] = bytes
        .try_into()
        .map_err(|_| DecodeError::new(format!("{what}: {} bytes (want 4)", bytes.len())))?;
    Ok(Ipv4Addr::from(o))
}

fn version_code(v: ProbeVersion) -> i64 {
    match v {
        ProbeVersion::V1 => 1,
        ProbeVersion::V2 => 2,
        ProbeVersion::V3 => 3,
    }
}

fn version_from(code: i64) -> Result<ProbeVersion, DecodeError> {
    match code {
        1 => Ok(ProbeVersion::V1),
        2 => Ok(ProbeVersion::V2),
        3 => Ok(ProbeVersion::V3),
        other => Err(DecodeError::new(format!("unknown probe version code {other}"))),
    }
}

fn tag_code(t: ProbeTag) -> u8 {
    match t {
        ProbeTag::Multihomed => 0,
        ProbeTag::Datacentre => 1,
        ProbeTag::Core => 2,
        ProbeTag::Dsl => 3,
        ProbeTag::Cable => 4,
        ProbeTag::Fibre => 5,
        ProbeTag::Nat => 6,
        ProbeTag::Home => 7,
    }
}

fn tag_from(code: u8) -> Result<ProbeTag, DecodeError> {
    Ok(match code {
        0 => ProbeTag::Multihomed,
        1 => ProbeTag::Datacentre,
        2 => ProbeTag::Core,
        3 => ProbeTag::Dsl,
        4 => ProbeTag::Cable,
        5 => ProbeTag::Fibre,
        6 => ProbeTag::Nat,
        7 => ProbeTag::Home,
        other => return Err(DecodeError::new(format!("unknown probe tag code {other}"))),
    })
}

fn cause_code(c: ChangeCause) -> i64 {
    match c {
        ChangeCause::PeriodicCap => 0,
        ChangeCause::PoolRotation => 1,
        ChangeCause::ScheduledReconnect => 2,
        ChangeCause::NetworkOutage => 3,
        ChangeCause::PowerOutage => 4,
        ChangeCause::AdminRenumber => 5,
        ChangeCause::Moved => 6,
    }
}

fn cause_from(code: i64) -> Result<ChangeCause, DecodeError> {
    Ok(match code {
        0 => ChangeCause::PeriodicCap,
        1 => ChangeCause::PoolRotation,
        2 => ChangeCause::ScheduledReconnect,
        3 => ChangeCause::NetworkOutage,
        4 => ChangeCause::PowerOutage,
        5 => ChangeCause::AdminRenumber,
        6 => ChangeCause::Moved,
        other => return Err(DecodeError::new(format!("unknown change cause code {other}"))),
    })
}

fn outage_kind_code(k: TruthOutageKind) -> i64 {
    match k {
        TruthOutageKind::Network => 0,
        TruthOutageKind::Power => 1,
        TruthOutageKind::CpeOnlyPower => 2,
        TruthOutageKind::ProbeOnlyReboot => 3,
    }
}

fn outage_kind_from(code: i64) -> Result<TruthOutageKind, DecodeError> {
    Ok(match code {
        0 => TruthOutageKind::Network,
        1 => TruthOutageKind::Power,
        2 => TruthOutageKind::CpeOnlyPower,
        3 => TruthOutageKind::ProbeOnlyReboot,
        other => return Err(DecodeError::new(format!("unknown outage kind code {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Dataset tables
// ---------------------------------------------------------------------------

impl ColumnarRecord for ProbeMeta {
    const TABLE_ID: u8 = 1;
    const TABLE_NAME: &'static str = "meta";
    const COLUMNS: &'static [ColumnKind] =
        &[ColumnKind::I64, ColumnKind::I64, ColumnKind::Bytes, ColumnKind::Bytes];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(version_code(r.version));
            cols[2].push_bytes(r.country.to_string().as_bytes());
            let tags: Vec<u8> = r.tags.iter().map(|&t| tag_code(t)).collect();
            cols[3].push_bytes(&tags);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let probe = ProbeId(u32_col(cols[0].next_i64()?, "probe id")?);
            let version = version_from(cols[1].next_i64()?)?;
            let code = cols[2].next_bytes()?;
            let code = std::str::from_utf8(code)
                .map_err(|_| DecodeError::new("country code is not UTF-8"))?;
            let country = Country::new(code)
                .map_err(|e| DecodeError::new(format!("bad country code: {e}")))?;
            let tags = cols[3]
                .next_bytes()?
                .iter()
                .map(|&c| tag_from(c))
                .collect::<Result<Vec<ProbeTag>, DecodeError>>()?;
            out.push(ProbeMeta { probe, version, country, tags });
        }
        Ok(out)
    }
}

impl ColumnarRecord for ConnectionLogEntry {
    const TABLE_ID: u8 = 2;
    const TABLE_NAME: &'static str = "connections";
    const COLUMNS: &'static [ColumnKind] =
        &[ColumnKind::I64, ColumnKind::I64, ColumnKind::I64, ColumnKind::Bytes];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(r.start.0);
            cols[2].push_i64(r.end.0);
            push_peer(&mut cols[3], r.peer);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(ConnectionLogEntry {
                probe: ProbeId(u32_col(cols[0].next_i64()?, "probe id")?),
                start: SimTime(cols[1].next_i64()?),
                end: SimTime(cols[2].next_i64()?),
                peer: peer_from(cols[3].next_bytes()?)?,
            });
        }
        Ok(out)
    }
}

impl ColumnarRecord for KrootPingRecord {
    const TABLE_ID: u8 = 3;
    const TABLE_NAME: &'static str = "kroot";
    const COLUMNS: &'static [ColumnKind] = &[
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
    ];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(r.timestamp.0);
            cols[2].push_i64(i64::from(r.sent));
            cols[3].push_i64(i64::from(r.success));
            cols[4].push_i64(r.lts_secs);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(KrootPingRecord {
                probe: ProbeId(u32_col(cols[0].next_i64()?, "probe id")?),
                timestamp: SimTime(cols[1].next_i64()?),
                sent: u8_col(cols[2].next_i64()?, "sent count")?,
                success: u8_col(cols[3].next_i64()?, "success count")?,
                lts_secs: cols[4].next_i64()?,
            });
        }
        Ok(out)
    }
}

impl ColumnarRecord for SosUptimeRecord {
    const TABLE_ID: u8 = 4;
    const TABLE_NAME: &'static str = "uptime";
    const COLUMNS: &'static [ColumnKind] =
        &[ColumnKind::I64, ColumnKind::I64, ColumnKind::I64];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(r.timestamp.0);
            cols[2].push_i64(r.uptime_secs as i64);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(SosUptimeRecord {
                probe: ProbeId(u32_col(cols[0].next_i64()?, "probe id")?),
                timestamp: SimTime(cols[1].next_i64()?),
                uptime_secs: u64_col(cols[2].next_i64()?, "uptime")?,
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Ground-truth tables
// ---------------------------------------------------------------------------

impl ColumnarRecord for TruthChange {
    const TABLE_ID: u8 = 16;
    const TABLE_NAME: &'static str = "truth_changes";
    const COLUMNS: &'static [ColumnKind] = &[
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::Bytes,
        ColumnKind::Bytes,
        ColumnKind::I64,
    ];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(r.time.0);
            // `from` is optional: zero bytes = first assignment.
            match r.from {
                Some(a) => cols[2].push_bytes(&a.octets()),
                None => cols[2].push_bytes(&[]),
            }
            cols[3].push_bytes(&r.to.octets());
            cols[4].push_i64(cause_code(r.cause));
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let probe = ProbeId(u32_col(cols[0].next_i64()?, "probe id")?);
            let time = SimTime(cols[1].next_i64()?);
            let from_bytes = cols[2].next_bytes()?;
            let from = if from_bytes.is_empty() {
                None
            } else {
                Some(v4_from(from_bytes, "from address")?)
            };
            let to = v4_from(cols[3].next_bytes()?, "to address")?;
            let cause = cause_from(cols[4].next_i64()?)?;
            out.push(TruthChange { probe, time, from, to, cause });
        }
        Ok(out)
    }
}

impl ColumnarRecord for TruthOutage {
    const TABLE_ID: u8 = 17;
    const TABLE_NAME: &'static str = "truth_outages";
    const COLUMNS: &'static [ColumnKind] = &[
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
    ];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(outage_kind_code(r.kind));
            cols[2].push_i64(r.start.0);
            cols[3].push_i64(r.duration.0);
            cols[4].push_i64(i64::from(r.address_changed));
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(TruthOutage {
                probe: ProbeId(u32_col(cols[0].next_i64()?, "probe id")?),
                kind: outage_kind_from(cols[1].next_i64()?)?,
                start: SimTime(cols[2].next_i64()?),
                duration: SimDuration(cols[3].next_i64()?),
                address_changed: bool_col(cols[4].next_i64()?, "address_changed")?,
            });
        }
        Ok(out)
    }
}

/// Row form of `GroundTruth::firmware_reboots` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FirmwareReboot {
    probe: ProbeId,
    time: SimTime,
}

impl ColumnarRecord for FirmwareReboot {
    const TABLE_ID: u8 = 18;
    const TABLE_NAME: &'static str = "truth_firmware_reboots";
    const COLUMNS: &'static [ColumnKind] = &[ColumnKind::I64, ColumnKind::I64];

    fn key(&self) -> u32 {
        self.probe.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.probe.0));
            cols[1].push_i64(r.time.0);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(FirmwareReboot {
                probe: ProbeId(u32_col(cols[0].next_i64()?, "probe id")?),
                time: SimTime(cols[1].next_i64()?),
            });
        }
        Ok(out)
    }
}

/// Row form of `GroundTruth::firmware_dates` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FirmwareDate(SimTime);

impl ColumnarRecord for FirmwareDate {
    const TABLE_ID: u8 = 19;
    const TABLE_NAME: &'static str = "truth_firmware_dates";
    const COLUMNS: &'static [ColumnKind] = &[ColumnKind::I64];

    fn key(&self) -> u32 {
        0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(r.0 .0);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(FirmwareDate(SimTime(cols[0].next_i64()?)));
        }
        Ok(out)
    }
}

/// Row form of one `GroundTruth::isp_policies` entry. The float weight
/// travels as its exact IEEE-754 bit pattern, the hour list as a nested
/// varint list inside a bytes column.
#[derive(Debug, Clone, PartialEq)]
struct PolicyRow {
    asn: u32,
    policy: IspPolicyTruth,
}

impl ColumnarRecord for PolicyRow {
    const TABLE_ID: u8 = 20;
    const TABLE_NAME: &'static str = "truth_isp_policies";
    const COLUMNS: &'static [ColumnKind] = &[
        ColumnKind::I64,
        ColumnKind::Bytes,
        ColumnKind::Bytes,
        ColumnKind::Bytes,
        ColumnKind::I64,
        ColumnKind::I64,
        ColumnKind::I64,
    ];

    fn key(&self) -> u32 {
        self.asn
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.asn));
            cols[1].push_bytes(r.policy.name.as_bytes());
            cols[2].push_bytes(r.policy.country.as_bytes());
            let mut hours = Vec::new();
            dynaddr_store::varint::write_u64(&mut hours, r.policy.periodic_hours.len() as u64);
            for &h in &r.policy.periodic_hours {
                dynaddr_store::varint::write_i64(&mut hours, h);
            }
            cols[3].push_bytes(&hours);
            cols[4].push_i64(i64::from(r.policy.renumbers_on_reconnect));
            cols[5].push_i64(r.policy.periodic_weight.to_bits() as i64);
            cols[6].push_i64(r.policy.probes as i64);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let asn = u32_col(cols[0].next_i64()?, "asn")?;
            let name = String::from_utf8(cols[1].next_bytes()?.to_vec())
                .map_err(|_| DecodeError::new("ISP name is not UTF-8"))?;
            let country = String::from_utf8(cols[2].next_bytes()?.to_vec())
                .map_err(|_| DecodeError::new("ISP country is not UTF-8"))?;
            let hours_bytes = cols[3].next_bytes()?;
            let mut pos = 0usize;
            let count = dynaddr_store::varint::read_u64(hours_bytes, &mut pos)?;
            if count > hours_bytes.len() as u64 {
                return Err(DecodeError::new(format!("implausible hour count {count}")));
            }
            let mut periodic_hours = Vec::with_capacity(count as usize);
            for _ in 0..count {
                periodic_hours.push(dynaddr_store::varint::read_i64(hours_bytes, &mut pos)?);
            }
            if pos != hours_bytes.len() {
                return Err(DecodeError::new("trailing bytes in periodic hour list"));
            }
            let renumbers_on_reconnect = bool_col(cols[4].next_i64()?, "renumber flag")?;
            let periodic_weight = f64::from_bits(cols[5].next_i64()? as u64);
            let probes = u64_col(cols[6].next_i64()?, "probe count")? as usize;
            out.push(PolicyRow {
                asn,
                policy: IspPolicyTruth {
                    name,
                    country,
                    periodic_hours,
                    renumbers_on_reconnect,
                    periodic_weight,
                    probes,
                },
            });
        }
        Ok(out)
    }
}

/// Row form of the optional `GroundTruth::admin_renumbering` event
/// (zero or one rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AdminRow {
    asn: Asn,
    time: SimTime,
}

impl ColumnarRecord for AdminRow {
    const TABLE_ID: u8 = 21;
    const TABLE_NAME: &'static str = "truth_admin_renumbering";
    const COLUMNS: &'static [ColumnKind] = &[ColumnKind::I64, ColumnKind::I64];

    fn key(&self) -> u32 {
        self.asn.0
    }

    fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
        for r in rows {
            cols[0].push_i64(i64::from(r.asn.0));
            cols[1].push_i64(r.time.0);
        }
    }

    fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(AdminRow {
                asn: Asn(u32_col(cols[0].next_i64()?, "asn")?),
                time: SimTime(cols[1].next_i64()?),
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Whole-object encode/decode
// ---------------------------------------------------------------------------

/// Encodes a dataset as one multi-table store file.
pub fn dataset_to_bytes(ds: &AtlasDataset) -> Vec<u8> {
    let mut w = FileWriter::new();
    w.write_table(&ds.meta);
    w.write_table(&ds.connections);
    w.write_table(&ds.kroot);
    w.write_table(&ds.uptime);
    w.finish()
}

/// Decodes a dataset store file, normalizing the result (the per-probe
/// index is derived data and is rebuilt). In either mode, rows out of
/// probe order are a [`StoreError::OutOfOrder`]: the meta table must hold
/// one row per probe in ascending order, and a log table's probe ids must
/// never decrease.
pub fn dataset_from_bytes(
    bytes: &[u8],
    mode: ReadMode,
) -> Result<(AtlasDataset, RecoveryReport), StoreError> {
    let (reader, notes) = open(bytes, mode)?;
    let mut report = RecoveryReport { notes, dropped: Vec::new() };
    let meta = decode_ordered::<ProbeMeta>(&reader, mode, &mut report)?;
    let connections = decode_ordered::<ConnectionLogEntry>(&reader, mode, &mut report)?;
    let kroot = decode_ordered::<KrootPingRecord>(&reader, mode, &mut report)?;
    let uptime = decode_ordered::<SosUptimeRecord>(&reader, mode, &mut report)?;
    let mut ds =
        AtlasDataset { meta, connections, kroot, uptime, index: ProbeIndex::default() };
    ds.normalize();
    Ok((ds, report))
}

/// Decodes one dataset table, recording dropped segments, and checks its
/// probe order.
fn decode_ordered<R: ColumnarRecord>(
    reader: &FileReader<'_>,
    mode: ReadMode,
    report: &mut RecoveryReport,
) -> Result<Vec<R>, StoreError> {
    let (rows, dropped) = reader.decode_table::<R>(mode)?;
    report.dropped.extend(dropped);
    check_probe_order(&rows, None)?;
    Ok(rows)
}

/// Checks that `rows`, in file order and following a row keyed `prev`,
/// keep [`AtlasDataset`]'s probe order: the meta table holds one row per
/// probe in ascending order, and a log table's probe ids never decrease.
/// Returns the last key seen. The analysis drivers rely on this order and
/// disagree without it, and the query engine's binary searches need it,
/// so every reader rejects a file that breaks it.
pub fn check_probe_order<R: ColumnarRecord>(
    rows: &[R],
    mut prev: Option<u32>,
) -> Result<Option<u32>, StoreError> {
    let one_per_probe = R::TABLE_ID == ProbeMeta::TABLE_ID;
    for row in rows {
        let key = row.key();
        if let Some(prev) = prev.filter(|&p| key < p || (one_per_probe && key == p)) {
            return Err(StoreError::OutOfOrder { table: R::TABLE_NAME.to_string(), key, prev });
        }
        prev = Some(key);
    }
    Ok(prev)
}

/// Encodes a ground truth as one multi-table store file.
pub fn truth_to_bytes(truth: &GroundTruth) -> Vec<u8> {
    let mut w = FileWriter::new();
    w.write_table(&truth.changes);
    w.write_table(&truth.outages);
    let reboots: Vec<FirmwareReboot> = truth
        .firmware_reboots
        .iter()
        .map(|&(probe, time)| FirmwareReboot { probe, time })
        .collect();
    w.write_table(&reboots);
    let dates: Vec<FirmwareDate> =
        truth.firmware_dates.iter().map(|&t| FirmwareDate(t)).collect();
    w.write_table(&dates);
    let policies: Vec<PolicyRow> = truth
        .isp_policies
        .iter()
        .map(|(&asn, policy)| PolicyRow { asn, policy: policy.clone() })
        .collect();
    w.write_table(&policies);
    let admin: Vec<AdminRow> = truth
        .admin_renumbering
        .iter()
        .map(|&(asn, time)| AdminRow { asn, time })
        .collect();
    w.write_table(&admin);
    w.finish()
}

/// Decodes a ground-truth store file.
pub fn truth_from_bytes(
    bytes: &[u8],
    mode: ReadMode,
) -> Result<(GroundTruth, RecoveryReport), StoreError> {
    let (reader, notes) = open(bytes, mode)?;
    let mut report = RecoveryReport { notes, dropped: Vec::new() };
    let (changes, d) = reader.decode_table::<TruthChange>(mode)?;
    report.dropped.extend(d);
    let (outages, d) = reader.decode_table::<TruthOutage>(mode)?;
    report.dropped.extend(d);
    let (reboots, d) = reader.decode_table::<FirmwareReboot>(mode)?;
    report.dropped.extend(d);
    let (dates, d) = reader.decode_table::<FirmwareDate>(mode)?;
    report.dropped.extend(d);
    let (policies, d) = reader.decode_table::<PolicyRow>(mode)?;
    report.dropped.extend(d);
    let (admin, d) = reader.decode_table::<AdminRow>(mode)?;
    report.dropped.extend(d);
    let truth = GroundTruth {
        changes,
        outages,
        firmware_reboots: reboots.into_iter().map(|r| (r.probe, r.time)).collect(),
        isp_policies: policies
            .into_iter()
            .map(|r| (r.asn, r.policy))
            .collect::<BTreeMap<u32, IspPolicyTruth>>(),
        firmware_dates: dates.into_iter().map(|d| d.0).collect(),
        admin_renumbering: admin.first().map(|a| (a.asn, a.time)),
    };
    Ok((truth, report))
}

fn open(bytes: &[u8], mode: ReadMode) -> Result<(FileReader<'_>, Vec<String>), StoreError> {
    match mode {
        ReadMode::Strict => FileReader::open(bytes).map(|r| (r, Vec::new())),
        ReadMode::Recover => FileReader::open_recover(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_types::SimDuration;

    fn sample_dataset() -> AtlasDataset {
        let mut ds = AtlasDataset::default();
        for p in 0..12u32 {
            ds.meta.push(ProbeMeta {
                probe: ProbeId(p),
                version: [ProbeVersion::V1, ProbeVersion::V2, ProbeVersion::V3][p as usize % 3],
                country: Country::new(["DE", "US", "JP", "BR"][p as usize % 4]).unwrap(),
                tags: if p % 2 == 0 {
                    vec![ProbeTag::Home, ProbeTag::Dsl]
                } else {
                    vec![]
                },
            });
            for k in 0..5i64 {
                ds.connections.push(ConnectionLogEntry {
                    probe: ProbeId(p),
                    start: SimTime(k * 10_000 + i64::from(p)),
                    end: SimTime(k * 10_000 + 5_000),
                    peer: if k == 4 {
                        PeerAddr::V6("2001:db8::1".parse().unwrap())
                    } else {
                        PeerAddr::V4(Ipv4Addr::new(10, 0, p as u8, k as u8))
                    },
                });
                ds.kroot.push(KrootPingRecord {
                    probe: ProbeId(p),
                    timestamp: SimTime(k * 240),
                    sent: 3,
                    success: (k % 4) as u8,
                    lts_secs: 86 + k,
                });
            }
            ds.uptime.push(SosUptimeRecord {
                probe: ProbeId(p),
                timestamp: SimTime(i64::from(p) * 7),
                uptime_secs: 262_531 + u64::from(p),
            });
        }
        ds.normalize();
        ds
    }

    fn sample_truth() -> GroundTruth {
        let mut truth = GroundTruth::default();
        for p in 0..6u32 {
            truth.changes.push(TruthChange {
                probe: ProbeId(p),
                time: SimTime(i64::from(p) * 1000),
                from: (p > 0).then(|| Ipv4Addr::new(10, 1, p as u8, 1)),
                to: Ipv4Addr::new(10, 1, p as u8, 2),
                cause: [
                    ChangeCause::PeriodicCap,
                    ChangeCause::PoolRotation,
                    ChangeCause::ScheduledReconnect,
                    ChangeCause::NetworkOutage,
                    ChangeCause::PowerOutage,
                    ChangeCause::Moved,
                ][p as usize % 6],
            });
            truth.outages.push(TruthOutage {
                probe: ProbeId(p),
                kind: [
                    TruthOutageKind::Network,
                    TruthOutageKind::Power,
                    TruthOutageKind::CpeOnlyPower,
                    TruthOutageKind::ProbeOnlyReboot,
                ][p as usize % 4],
                start: SimTime(i64::from(p) * 500),
                duration: SimDuration::from_mins(i64::from(p) + 1),
                address_changed: p % 2 == 0,
            });
        }
        truth.firmware_reboots.push((ProbeId(3), SimTime(12_345)));
        truth.firmware_dates.push(SimTime::from_date(6, 1, 0, 0, 0));
        truth.isp_policies.insert(
            3320,
            IspPolicyTruth {
                name: "Deutsche Telekom".to_string(),
                country: "DE".to_string(),
                periodic_hours: vec![24],
                renumbers_on_reconnect: true,
                periodic_weight: 0.97,
                probes: 1234,
            },
        );
        truth.admin_renumbering = Some((Asn(6830), SimTime::from_date(9, 1, 2, 0, 0)));
        truth.normalize();
        truth
    }

    #[test]
    fn dataset_roundtrips_exactly() {
        let ds = sample_dataset();
        let bytes = dataset_to_bytes(&ds);
        let (back, report) = dataset_from_bytes(&bytes, ReadMode::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(ds, back);
        // Re-encode is idempotent.
        assert_eq!(bytes, dataset_to_bytes(&back));
    }

    #[test]
    fn truth_roundtrips_exactly() {
        let truth = sample_truth();
        let bytes = truth_to_bytes(&truth);
        let (back, report) = truth_from_bytes(&bytes, ReadMode::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(truth.changes, back.changes);
        assert_eq!(truth.outages, back.outages);
        assert_eq!(truth.firmware_reboots, back.firmware_reboots);
        assert_eq!(truth.firmware_dates, back.firmware_dates);
        assert_eq!(truth.isp_policies, back.isp_policies);
        assert_eq!(truth.admin_renumbering, back.admin_renumbering);
        assert_eq!(bytes, truth_to_bytes(&back));
    }

    #[test]
    fn empty_objects_roundtrip() {
        let ds = AtlasDataset::default();
        let (back, _) =
            dataset_from_bytes(&dataset_to_bytes(&ds), ReadMode::Strict).unwrap();
        assert_eq!(ds, back);
        let truth = GroundTruth::default();
        let (back, _) = truth_from_bytes(&truth_to_bytes(&truth), ReadMode::Strict).unwrap();
        assert_eq!(truth.admin_renumbering, back.admin_renumbering);
        assert!(back.changes.is_empty() && back.isp_policies.is_empty());
    }

    #[test]
    fn float_weights_roundtrip_bit_exactly() {
        let mut truth = GroundTruth::default();
        for (i, w) in [0.1f64, 2.0 / 3.0, f64::MIN_POSITIVE, 1e300].into_iter().enumerate() {
            truth.isp_policies.insert(
                i as u32,
                IspPolicyTruth {
                    name: format!("isp{i}"),
                    country: "DE".to_string(),
                    periodic_hours: vec![],
                    renumbers_on_reconnect: false,
                    periodic_weight: w,
                    probes: 0,
                },
            );
        }
        let (back, _) = truth_from_bytes(&truth_to_bytes(&truth), ReadMode::Strict).unwrap();
        for (asn, policy) in &truth.isp_policies {
            assert_eq!(
                policy.periodic_weight.to_bits(),
                back.isp_policies[asn].periodic_weight.to_bits()
            );
        }
    }
}
