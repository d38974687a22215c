//! Columnar store codecs for the Atlas tables (`dynaddr-store` backend).
//!
//! Every dataset and ground-truth table is one [`ColumnarRecord`] whose
//! codec is generated from a single column list: the table's id, name and
//! key, then `field: Type` in column order. `COLUMNS`, `encode` and
//! `decode` all come from that list, so a field added to a table is one
//! line here, and a field left out fails to compile.
//!
//! Each field type converts to its column once, in a crate-private
//! `Column` impl. Integers (probe ids, timestamps, counters, flags, enum
//! codes) become delta + zigzag + varint columns; addresses and strings
//! become length-prefixed byte columns. Enum codes are the types' own
//! `code()`s ([`ProbeVersion::code`], [`ProbeTag::code`],
//! [`ChangeCause::code`], [`TruthOutageKind::code`]), written out per
//! variant and shared with the query wire, so files stay readable across
//! refactors; addresses carry their family in the payload length (4 bytes
//! = IPv4, 16 = IPv6, checked once by [`PeerAddr::from_octets`]) and
//! floats travel as exact IEEE-754 bit patterns — a decode reproduces the
//! in-memory value byte for byte.
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
    varint, ColumnBuilder, ColumnKind, ColumnReader, ColumnarRecord, DecodeError, FileReader,
    ReadMode, RecoveryReport, StoreError, StreamWriter,
};
use dynaddr_types::{Asn, Country, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// Column conversions
// ---------------------------------------------------------------------------

/// How one field type is stored: its column's kind, and the conversion
/// each way. `take` must reject, never panic on, any value `put` could
/// not have written.
trait Column: Sized {
    const KIND: ColumnKind;
    fn put(&self, col: &mut ColumnBuilder);
    fn take(col: &mut ColumnReader<'_>) -> Result<Self, DecodeError>;
}

/// An integer column value that must fit the field's type.
fn in_range<T: TryFrom<i64>>(v: i64) -> Result<T, DecodeError> {
    T::try_from(v).map_err(|_| {
        DecodeError::new(format!(
            "{v} out of range for {}",
            std::any::type_name::<T>()
        ))
    })
}

/// An enum code column value, decoded through the type's `from_code`.
fn known_code<T>(v: i64, from_code: fn(u8) -> Option<T>) -> Result<T, DecodeError> {
    u8::try_from(v)
        .ok()
        .and_then(from_code)
        .ok_or_else(|| DecodeError::new(format!("unknown {} code {v}", std::any::type_name::<T>())))
}

/// Implements [`Column`] for integer columns: `|v| to` gives the stored
/// `i64` of a field value `v`, `|v| from` the field value of a stored `v`
/// or a [`DecodeError`].
macro_rules! int_column {
    ($($ty:ty: |$v:ident| $to:expr, |$w:ident| $from:expr;)+) => {$(
        impl Column for $ty {
            const KIND: ColumnKind = ColumnKind::I64;
            fn put(&self, col: &mut ColumnBuilder) {
                let $v = *self;
                col.push_i64($to);
            }
            fn take(col: &mut ColumnReader<'_>) -> Result<$ty, DecodeError> {
                let $w = col.next_i64()?;
                $from
            }
        }
    )+};
}

int_column! {
    i64: |v| v, |v| Ok(v);
    u8: |v| i64::from(v), |v| in_range(v);
    u32: |v| i64::from(v), |v| in_range(v);
    u64: |v| v as i64, |v| in_range(v);
    usize: |v| v as i64, |v| in_range(v);
    bool: |v| i64::from(v), |v| match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::new(format!("{v} is not a boolean"))),
    };
    f64: |v| v.to_bits() as i64, |v| Ok(f64::from_bits(v as u64));
    ProbeId: |v| i64::from(v.0), |v| in_range(v).map(ProbeId);
    Asn: |v| i64::from(v.0), |v| in_range(v).map(Asn);
    SimTime: |v| v.0, |v| Ok(SimTime(v));
    SimDuration: |v| v.0, |v| Ok(SimDuration(v));
    ProbeVersion: |v| i64::from(v.code()), |v| known_code(v, ProbeVersion::from_code);
    ChangeCause: |v| i64::from(v.code()), |v| known_code(v, ChangeCause::from_code);
    TruthOutageKind: |v| i64::from(v.code()), |v| known_code(v, TruthOutageKind::from_code);
}

/// Implements [`Column`] for byte columns: `|v, col| put` pushes a field
/// value `v` into `col`, `|b| from` gives the field value of stored bytes
/// `b` or a [`DecodeError`].
macro_rules! bytes_column {
    ($($ty:ty: |$v:ident, $col:ident| $put:expr, |$b:ident| $from:expr;)+) => {$(
        impl Column for $ty {
            const KIND: ColumnKind = ColumnKind::Bytes;
            fn put(&self, $col: &mut ColumnBuilder) {
                let $v = self;
                $put
            }
            fn take(col: &mut ColumnReader<'_>) -> Result<$ty, DecodeError> {
                let $b = col.next_bytes()?;
                $from
            }
        }
    )+};
}

/// A 4-byte IPv4 address.
fn v4(bytes: &[u8]) -> Result<Ipv4Addr, DecodeError> {
    let o: [u8; 4] = bytes
        .try_into()
        .map_err(|_| DecodeError::new(format!("{} address bytes (want 4)", bytes.len())))?;
    Ok(Ipv4Addr::from(o))
}

fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError::new("not UTF-8"))
}

bytes_column! {
    PeerAddr: |v, col| match v {
        PeerAddr::V4(a) => col.push_bytes(&a.octets()),
        PeerAddr::V6(a) => col.push_bytes(&a.octets()),
    }, |b| PeerAddr::from_octets(b).ok_or_else(|| {
        DecodeError::new(format!("address of {} bytes (want 4 or 16)", b.len()))
    });
    Ipv4Addr: |v, col| col.push_bytes(&v.octets()), |b| v4(b);
    // Zero bytes: no address (a first assignment).
    Option<Ipv4Addr>: |v, col| match v {
        Some(a) => col.push_bytes(&a.octets()),
        None => col.push_bytes(&[]),
    }, |b| if b.is_empty() { Ok(None) } else { v4(b).map(Some) };
    Country: |v, col| col.push_bytes(v.to_string().as_bytes()),
        |b| Country::new(utf8(b)?).map_err(|e| DecodeError::new(e.to_string()));
    // One code byte per tag.
    Vec<ProbeTag>: |v, col| col.push_bytes(&v.iter().map(|t| t.code()).collect::<Vec<u8>>()),
        |b| b.iter().map(|&c| known_code(i64::from(c), ProbeTag::from_code)).collect();
    String: |v, col| col.push_bytes(v.as_bytes()), |b| utf8(b).map(str::to_owned);
    // A varint count, then each hour as a zigzag varint.
    Vec<i64>: |v, col| {
        let mut hours = Vec::new();
        varint::write_u64(&mut hours, v.len() as u64);
        for &h in v {
            varint::write_i64(&mut hours, h);
        }
        col.push_bytes(&hours);
    }, |b| {
        let mut pos = 0usize;
        let count = varint::read_u64(b, &mut pos)?;
        if count > b.len() as u64 {
            return Err(DecodeError::new(format!("implausible hour count {count}")));
        }
        let hours = (0..count).map(|_| varint::read_i64(b, &mut pos)).collect::<Result<_, _>>()?;
        if pos != b.len() {
            return Err(DecodeError::new("trailing bytes in hour list"));
        }
        Ok(hours)
    };
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Implements [`ColumnarRecord`] for a row type from its column list:
/// `Type = id "name", key |row| key;` then `field: ColumnType` in column
/// order. The decode builds the row from exactly these fields, so a field
/// added to the type and not listed here fails to compile. With a leading
/// `struct`, the list also declares the row type (the ground truth's
/// private row forms).
macro_rules! table {
    ($(#[$doc:meta])* struct $ty:ident = $id:literal $name:literal, key $key:expr;
        $($field:ident: $col:ty),+ $(,)?) => {
        $(#[$doc])*
        struct $ty {
            $($field: $col),+
        }
        table! { $ty = $id $name, key $key; $($field: $col),+ }
    };
    ($ty:ident = $id:literal $name:literal, key $key:expr; $($field:ident: $col:ty),+ $(,)?) => {
        impl ColumnarRecord for $ty {
            const TABLE_ID: u8 = $id;
            const TABLE_NAME: &'static str = $name;
            const COLUMNS: &'static [ColumnKind] = &[$(<$col as Column>::KIND),+];

            fn key(&self) -> u32 {
                let key: fn(&$ty) -> u32 = $key;
                key(self)
            }

            fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
                let [$($field),+] = cols else {
                    panic!("{} takes {} column builders", $name, Self::COLUMNS.len());
                };
                for row in rows {
                    $(<$col as Column>::put(&row.$field, $field);)+
                }
            }

            fn decode(
                cols: &mut [ColumnReader<'_>],
                rows: usize,
            ) -> Result<Vec<Self>, DecodeError> {
                let [$($field),+] = cols else {
                    let want = Self::COLUMNS.len();
                    return Err(DecodeError::new(format!("{} columns, want {want}", cols.len())));
                };
                let mut out = Vec::with_capacity(rows);
                for _ in 0..rows {
                    out.push($ty { $($field: <$col as Column>::take($field)?),+ });
                }
                Ok(out)
            }
        }
    };
}

table! { ProbeMeta = 1 "meta", key |r| r.probe.0;
    probe: ProbeId,
    version: ProbeVersion,
    country: Country,
    tags: Vec<ProbeTag>,
}

table! { ConnectionLogEntry = 2 "connections", key |r| r.probe.0;
    probe: ProbeId,
    start: SimTime,
    end: SimTime,
    peer: PeerAddr,
}

table! { KrootPingRecord = 3 "kroot", key |r| r.probe.0;
    probe: ProbeId,
    timestamp: SimTime,
    sent: u8,
    success: u8,
    lts_secs: i64,
}

table! { SosUptimeRecord = 4 "uptime", key |r| r.probe.0;
    probe: ProbeId,
    timestamp: SimTime,
    uptime_secs: u64,
}

table! { TruthChange = 16 "truth_changes", key |r| r.probe.0;
    probe: ProbeId,
    time: SimTime,
    from: Option<Ipv4Addr>,
    to: Ipv4Addr,
    cause: ChangeCause,
}

table! { TruthOutage = 17 "truth_outages", key |r| r.probe.0;
    probe: ProbeId,
    kind: TruthOutageKind,
    start: SimTime,
    duration: SimDuration,
    address_changed: bool,
}

table! {
    /// Row form of `GroundTruth::firmware_reboots` entries.
    struct FirmwareReboot = 18 "truth_firmware_reboots", key |r| r.probe.0;
    probe: ProbeId,
    time: SimTime,
}

table! {
    /// Row form of `GroundTruth::firmware_dates` entries; every row keys 0.
    struct FirmwareDate = 19 "truth_firmware_dates", key |_| 0;
    time: SimTime,
}

table! {
    /// Row form of one `GroundTruth::isp_policies` entry: its AS, then the
    /// [`IspPolicyTruth`] fields.
    struct PolicyRow = 20 "truth_isp_policies", key |r| r.asn;
    asn: u32,
    name: String,
    country: String,
    periodic_hours: Vec<i64>,
    renumbers_on_reconnect: bool,
    periodic_weight: f64,
    probes: usize,
}

table! {
    /// Row form of the optional `GroundTruth::admin_renumbering` event
    /// (zero or one rows).
    struct AdminRow = 21 "truth_admin_renumbering", key |r| r.asn.0;
    asn: Asn,
    time: SimTime,
}

// ---------------------------------------------------------------------------
// Whole-object encode/decode
// ---------------------------------------------------------------------------

/// Encodes a dataset as one multi-table store file.
pub fn dataset_to_bytes(ds: &AtlasDataset) -> Vec<u8> {
    let write = || {
        let mut w = StreamWriter::new(Vec::new())?;
        w.write_table(&ds.meta)?;
        w.write_table(&ds.connections)?;
        w.write_table(&ds.kroot)?;
        w.write_table(&ds.uptime)?;
        w.finish()
    };
    write().expect("a write into memory cannot fail")
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
    let mut report = RecoveryReport {
        notes,
        dropped: Vec::new(),
    };
    let meta = decode_ordered::<ProbeMeta>(&reader, mode, &mut report)?;
    let connections = decode_ordered::<ConnectionLogEntry>(&reader, mode, &mut report)?;
    let kroot = decode_ordered::<KrootPingRecord>(&reader, mode, &mut report)?;
    let uptime = decode_ordered::<SosUptimeRecord>(&reader, mode, &mut report)?;
    let mut ds = AtlasDataset {
        meta,
        connections,
        kroot,
        uptime,
        index: ProbeIndex::default(),
    };
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
            return Err(StoreError::OutOfOrder {
                table: R::TABLE_NAME.to_string(),
                key,
                prev,
            });
        }
        prev = Some(key);
    }
    Ok(prev)
}

/// Encodes a ground truth as one multi-table store file.
pub fn truth_to_bytes(truth: &GroundTruth) -> Vec<u8> {
    let reboots: Vec<FirmwareReboot> = truth
        .firmware_reboots
        .iter()
        .map(|&(probe, time)| FirmwareReboot { probe, time })
        .collect();
    let dates: Vec<FirmwareDate> = truth
        .firmware_dates
        .iter()
        .map(|&time| FirmwareDate { time })
        .collect();
    let policies: Vec<PolicyRow> = truth
        .isp_policies
        .iter()
        .map(|(&asn, p)| PolicyRow {
            asn,
            name: p.name.clone(),
            country: p.country.clone(),
            periodic_hours: p.periodic_hours.clone(),
            renumbers_on_reconnect: p.renumbers_on_reconnect,
            periodic_weight: p.periodic_weight,
            probes: p.probes,
        })
        .collect();
    let admin: Vec<AdminRow> = truth
        .admin_renumbering
        .iter()
        .map(|&(asn, time)| AdminRow { asn, time })
        .collect();
    let write = || {
        let mut w = StreamWriter::new(Vec::new())?;
        w.write_table(&truth.changes)?;
        w.write_table(&truth.outages)?;
        w.write_table(&reboots)?;
        w.write_table(&dates)?;
        w.write_table(&policies)?;
        w.write_table(&admin)?;
        w.finish()
    };
    write().expect("a write into memory cannot fail")
}

/// Decodes a ground-truth store file.
pub fn truth_from_bytes(
    bytes: &[u8],
    mode: ReadMode,
) -> Result<(GroundTruth, RecoveryReport), StoreError> {
    let (reader, notes) = open(bytes, mode)?;
    let mut report = RecoveryReport {
        notes,
        dropped: Vec::new(),
    };
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
            .map(|r| {
                let policy = IspPolicyTruth {
                    name: r.name,
                    country: r.country,
                    periodic_hours: r.periodic_hours,
                    renumbers_on_reconnect: r.renumbers_on_reconnect,
                    periodic_weight: r.periodic_weight,
                    probes: r.probes,
                };
                (r.asn, policy)
            })
            .collect::<BTreeMap<u32, IspPolicyTruth>>(),
        firmware_dates: dates.into_iter().map(|d| d.time).collect(),
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
        let (back, _) = dataset_from_bytes(&dataset_to_bytes(&ds), ReadMode::Strict).unwrap();
        assert_eq!(ds, back);
        let truth = GroundTruth::default();
        let (back, _) = truth_from_bytes(&truth_to_bytes(&truth), ReadMode::Strict).unwrap();
        assert_eq!(truth.admin_renumbering, back.admin_renumbering);
        assert!(back.changes.is_empty() && back.isp_policies.is_empty());
    }

    #[test]
    fn float_weights_roundtrip_bit_exactly() {
        let mut truth = GroundTruth::default();
        for (i, w) in [0.1f64, 2.0 / 3.0, f64::MIN_POSITIVE, 1e300]
            .into_iter()
            .enumerate()
        {
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
