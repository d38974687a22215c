//! The three RIPE Atlas log datasets (§3) and their on-disk format.
//!
//! * **Connection logs** (§3.1) — one entry per TCP connection from a probe
//!   to its central controller: start, end (last receipt of data), and the
//!   publicly visible peer address.
//! * **k-root ping dataset** (§3.4) — every four minutes a probe sends three
//!   pings to the k-root DNS server and reports how many succeeded, plus the
//!   LTS ("last time synchronised") value.
//! * **SOS-uptime dataset** (§3.5) — the probe's uptime counter, reported on
//!   every new TCP connection; a counter reset reveals a reboot.
//!
//! On disk a dataset directory holds one `dataset.store` file: the
//! segmented columnar binary of [`crate::store`], with per-segment
//! checksums and a parallel decoder. [`AtlasDataset::save_dir`] writes it
//! and [`AtlasDataset::load_dir`] reads it back, with errors naming the
//! file (and segment) that failed.

use dynaddr_store::{ReadMode, RecoveryReport, StoreError};
use dynaddr_types::{Country, ProbeId, ProbeTag, ProbeVersion, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};

/// The RIPE NCC testing address probes use before being shipped (§3.3).
pub fn testing_address() -> Ipv4Addr {
    Ipv4Addr::new(193, 0, 0, 78)
}

/// The publicly visible address a connection came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerAddr {
    /// An IPv4 peer — the subject of the study.
    V4(Ipv4Addr),
    /// An IPv6 peer — present in the raw logs, filtered by the pipeline.
    V6(Ipv6Addr),
}

impl PeerAddr {
    /// The IPv4 address, if this is a v4 peer.
    pub fn v4(self) -> Option<Ipv4Addr> {
        match self {
            PeerAddr::V4(a) => Some(a),
            PeerAddr::V6(_) => None,
        }
    }

    /// Whether this is an IPv4 peer.
    pub fn is_v4(self) -> bool {
        matches!(self, PeerAddr::V4(_))
    }

    /// The peer whose address octets are `octets`, the form the store and
    /// the query wire carry it in: 4 bytes for IPv4, 16 for IPv6. Any
    /// other length is `None`.
    pub fn from_octets(octets: &[u8]) -> Option<PeerAddr> {
        match *octets {
            [a, b, c, d] => Some(PeerAddr::V4(Ipv4Addr::new(a, b, c, d))),
            _ => Some(PeerAddr::V6(<[u8; 16]>::try_from(octets).ok()?.into())),
        }
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerAddr::V4(a) => write!(f, "{a}"),
            PeerAddr::V6(a) => write!(f, "{a}"),
        }
    }
}

impl From<Ipv4Addr> for PeerAddr {
    fn from(a: Ipv4Addr) -> PeerAddr {
        PeerAddr::V4(a)
    }
}

impl From<Ipv6Addr> for PeerAddr {
    fn from(a: Ipv6Addr) -> PeerAddr {
        PeerAddr::V6(a)
    }
}

/// One connection-log entry (§3.1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionLogEntry {
    /// The probe that made the connection.
    pub probe: ProbeId,
    /// When the TCP connection was established.
    pub start: SimTime,
    /// Last receipt of data on the connection.
    pub end: SimTime,
    /// The publicly visible peer address (the CPE's WAN address).
    pub peer: PeerAddr,
}

/// One k-root ping measurement record (§3.4, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KrootPingRecord {
    /// The measuring probe.
    pub probe: ProbeId,
    /// When the measurement ran.
    pub timestamp: SimTime,
    /// Pings sent (3 in the built-in measurement).
    pub sent: u8,
    /// Pings answered.
    pub success: u8,
    /// "Last time synchronised": seconds since the probe last synced its
    /// clock with the controller. Grows while the network is down.
    pub lts_secs: i64,
}

impl KrootPingRecord {
    /// Whether every ping in the round was lost.
    pub fn all_lost(&self) -> bool {
        self.sent > 0 && self.success == 0
    }
}

/// One SOS-uptime record (§3.5, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SosUptimeRecord {
    /// The reporting probe.
    pub probe: ProbeId,
    /// When the record was reported (at TCP connection establishment).
    pub timestamp: SimTime,
    /// Seconds since the probe booted.
    pub uptime_secs: u64,
}

impl SosUptimeRecord {
    /// The boot instant implied by this record.
    pub fn boot_time(&self) -> SimTime {
        SimTime(self.timestamp.0 - self.uptime_secs as i64)
    }
}

/// Probe metadata from the probe archive (§3.1): hardware version, country,
/// and voluntary tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeMeta {
    /// The probe id.
    pub probe: ProbeId,
    /// Hardware generation.
    pub version: ProbeVersion,
    /// Country the host registered the probe in.
    pub country: Country,
    /// Voluntary user-provided tags.
    pub tags: Vec<ProbeTag>,
}

/// The complete scraped dataset for one measurement year.
#[derive(Debug, Clone, Default)]
pub struct AtlasDataset {
    /// Probe metadata, one entry per active probe.
    pub meta: Vec<ProbeMeta>,
    /// Connection-log entries, sorted by (probe, start).
    pub connections: Vec<ConnectionLogEntry>,
    /// k-root ping records, sorted by (probe, timestamp).
    pub kroot: Vec<KrootPingRecord>,
    /// SOS-uptime records, sorted by (probe, timestamp).
    pub uptime: Vec<SosUptimeRecord>,
    /// Per-probe range index over the three logs, built by
    /// [`AtlasDataset::normalize`]. Derived data: excluded from equality.
    pub index: ProbeIndex,
}

/// Per-probe `(start, end)` ranges into the sorted log vectors, so the
/// `*_of` accessors cost one hash lookup instead of two binary searches.
///
/// An empty index (the state before [`AtlasDataset::normalize`] runs) makes
/// the accessors fall back to binary search over whatever order the data is
/// in, preserving the old contract for hand-assembled datasets.
#[derive(Debug, Clone, Default)]
pub struct ProbeIndex {
    connections: HashMap<u32, (usize, usize)>,
    kroot: HashMap<u32, (usize, usize)>,
    uptime: HashMap<u32, (usize, usize)>,
}

// The index is a cache over the four data vectors; two datasets with equal
// data are equal regardless of whether either has been normalized.
impl PartialEq for AtlasDataset {
    fn eq(&self, other: &AtlasDataset) -> bool {
        self.meta == other.meta
            && self.connections == other.connections
            && self.kroot == other.kroot
            && self.uptime == other.uptime
    }
}

impl Default for ProbeMeta {
    fn default() -> ProbeMeta {
        ProbeMeta {
            probe: ProbeId(0),
            version: ProbeVersion::V3,
            country: Country::new("DE").expect("static code"),
            tags: Vec::new(),
        }
    }
}

impl AtlasDataset {
    /// Sorts every log by (probe, time) — the order the pipeline expects —
    /// and rebuilds the per-probe range index. The four sorts touch disjoint
    /// vectors, so each gets its own scoped thread when the executor allows.
    pub fn normalize(&mut self) {
        let AtlasDataset {
            meta,
            connections,
            kroot,
            uptime,
            index,
        } = self;
        let sorts: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| meta.sort_by_key(|m| m.probe)),
            Box::new(|| connections.sort_by_key(|c| (c.probe, c.start, c.end))),
            Box::new(|| kroot.sort_by_key(|k| (k.probe, k.timestamp))),
            Box::new(|| uptime.sort_by_key(|u| (u.probe, u.timestamp))),
        ];
        dynaddr_exec::par_run(sorts);
        index.connections = range_index(connections, |c| c.probe);
        index.kroot = range_index(kroot, |k| k.probe);
        index.uptime = range_index(uptime, |u| u.probe);
    }

    /// All connection-log entries of one probe (requires normalized data).
    pub fn connections_of(&self, probe: ProbeId) -> &[ConnectionLogEntry] {
        indexed_slice(
            &self.connections,
            &self.index.connections,
            |c| c.probe,
            probe,
        )
    }

    /// All k-root records of one probe (requires normalized data).
    pub fn kroot_of(&self, probe: ProbeId) -> &[KrootPingRecord] {
        indexed_slice(&self.kroot, &self.index.kroot, |k| k.probe, probe)
    }

    /// All SOS-uptime records of one probe (requires normalized data).
    pub fn uptime_of(&self, probe: ProbeId) -> &[SosUptimeRecord] {
        indexed_slice(&self.uptime, &self.index.uptime, |u| u.probe, probe)
    }

    /// Metadata for one probe.
    pub fn meta_of(&self, probe: ProbeId) -> Option<&ProbeMeta> {
        self.meta
            .binary_search_by_key(&probe, |m| m.probe)
            .ok()
            .map(|i| &self.meta[i])
    }

    /// Validates structural invariants external data must satisfy before
    /// analysis: one metadata row per probe, per-probe connection entries
    /// non-overlapping with `end >= start`, k-root success counts within
    /// sent counts, and every log row belonging to a probe with metadata.
    /// Returns human-readable problems (empty = valid). Call after
    /// [`AtlasDataset::normalize`].
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for pair in self.meta.windows(2) {
            if pair[0].probe == pair[1].probe {
                problems.push(format!("{}: duplicate metadata rows", pair[0].probe));
            }
        }
        let known: std::collections::HashSet<u32> = self.meta.iter().map(|m| m.probe.0).collect();
        for c in &self.connections {
            if c.end < c.start {
                problems.push(format!(
                    "{}: connection ends before it starts ({} > {})",
                    c.probe, c.start, c.end
                ));
            }
            if !known.contains(&c.probe.0) {
                problems.push(format!("{}: connection entry without metadata", c.probe));
            }
        }
        for pair in self.connections.windows(2) {
            if pair[0].probe == pair[1].probe && pair[1].start < pair[0].end {
                problems.push(format!(
                    "{}: overlapping connections at {}",
                    pair[0].probe, pair[1].start
                ));
            }
        }
        for k in &self.kroot {
            if k.success > k.sent {
                problems.push(format!(
                    "{}: k-root success {} exceeds sent {}",
                    k.probe, k.success, k.sent
                ));
            }
            if !known.contains(&k.probe.0) {
                problems.push(format!("{}: k-root record without metadata", k.probe));
            }
        }
        for u in &self.uptime {
            if !known.contains(&u.probe.0) {
                problems.push(format!("{}: uptime record without metadata", u.probe));
            }
        }
        problems.truncate(100);
        problems
    }

    /// Encodes the dataset as one segmented columnar store file
    /// (see [`crate::store`]).
    pub fn to_store_bytes(&self) -> Vec<u8> {
        crate::store::dataset_to_bytes(self)
    }

    /// Decodes a dataset from store bytes, failing on the first corrupt
    /// segment. The result is normalized.
    pub fn from_store_bytes(bytes: &[u8]) -> Result<AtlasDataset, StoreError> {
        crate::store::dataset_from_bytes(bytes, ReadMode::Strict).map(|(ds, _)| ds)
    }

    /// Decodes a dataset from store bytes, skipping corrupt segments and
    /// reporting what was dropped.
    pub fn from_store_bytes_recover(
        bytes: &[u8],
    ) -> Result<(AtlasDataset, RecoveryReport), StoreError> {
        crate::store::dataset_from_bytes(bytes, ReadMode::Recover)
    }

    /// Writes the dataset to `dir/dataset.store`, creating `dir` if needed.
    pub fn save_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("dataset.store"), self.to_store_bytes())
    }

    /// Loads the dataset [`AtlasDataset::save_dir`] wrote to `dir`.
    /// Errors name the offending file (and segment).
    pub fn load_dir(dir: &Path) -> Result<AtlasDataset, LoadError> {
        Self::load_file(&dir.join("dataset.store"))
    }

    /// Loads a dataset from one store file under any name.
    pub fn load_file(path: &Path) -> Result<AtlasDataset, LoadError> {
        let bytes = read_file(path)?;
        AtlasDataset::from_store_bytes(&bytes).map_err(|source| LoadError::Store {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Like [`AtlasDataset::load_dir`], but a corrupt store segment is
    /// skipped instead of fatal; the report says what was dropped.
    pub fn load_dir_recover(dir: &Path) -> Result<(AtlasDataset, RecoveryReport), LoadError> {
        let path = dir.join("dataset.store");
        let bytes = read_file(&path)?;
        AtlasDataset::from_store_bytes_recover(&bytes)
            .map_err(|source| LoadError::Store { path, source })
    }
}

/// Error from loading a dataset directory, naming the file that failed.
#[derive(Debug)]
pub enum LoadError {
    /// A file could not be read.
    Io {
        /// The file that failed.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A store file failed to decode.
    Store {
        /// The file that failed.
        path: PathBuf,
        /// The store error (naming the corrupt segment, if any).
        source: StoreError,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            LoadError::Store { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { source, .. } => Some(source),
            LoadError::Store { source, .. } => Some(source),
        }
    }
}

impl From<LoadError> for std::io::Error {
    fn from(e: LoadError) -> std::io::Error {
        match e {
            LoadError::Io { source, .. } => source,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, LoadError> {
    std::fs::read(path).map_err(|source| LoadError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Contiguous slice of a (probe, …)-sorted log belonging to one probe.
fn slice_of<T, F: Fn(&T) -> ProbeId>(items: &[T], key: F, probe: ProbeId) -> &[T] {
    let lo = items.partition_point(|t| key(t) < probe);
    let hi = items.partition_point(|t| key(t) <= probe);
    &items[lo..hi]
}

/// One pass over a (probe, …)-sorted log, recording each probe's
/// `(start, end)` range.
fn range_index<T, F: Fn(&T) -> ProbeId>(items: &[T], key: F) -> HashMap<u32, (usize, usize)> {
    let mut map = HashMap::new();
    let mut start = 0;
    for i in 1..=items.len() {
        if i == items.len() || key(&items[i]) != key(&items[start]) {
            map.insert(key(&items[start]).0, (start, i));
            start = i;
        }
    }
    map
}

/// Index lookup with a binary-search fallback for un-indexed data.
fn indexed_slice<'a, T, F: Fn(&T) -> ProbeId>(
    items: &'a [T],
    ranges: &HashMap<u32, (usize, usize)>,
    key: F,
    probe: ProbeId,
) -> &'a [T] {
    if ranges.is_empty() && !items.is_empty() {
        return slice_of(items, key, probe);
    }
    match ranges.get(&probe.0) {
        Some(&(lo, hi)) => &items[lo..hi],
        None => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_types::SimDuration;

    fn v4(s: &str) -> PeerAddr {
        PeerAddr::V4(s.parse().unwrap())
    }

    fn entry(probe: u32, start: i64, end: i64, peer: &str) -> ConnectionLogEntry {
        ConnectionLogEntry {
            probe: ProbeId(probe),
            start: SimTime(start),
            end: SimTime(end),
            peer: v4(peer),
        }
    }

    #[test]
    fn peer_addr_families() {
        let a = v4("91.55.174.103");
        assert!(a.is_v4());
        assert_eq!(a.v4(), Some("91.55.174.103".parse().unwrap()));
        let b: PeerAddr = "2001:db8::1".parse::<Ipv6Addr>().unwrap().into();
        assert!(!b.is_v4());
        assert_eq!(b.v4(), None);
        assert_eq!(b.to_string(), "2001:db8::1");
    }

    #[test]
    fn kroot_all_lost() {
        let ok = KrootPingRecord {
            probe: ProbeId(1),
            timestamp: SimTime(0),
            sent: 3,
            success: 3,
            lts_secs: 86,
        };
        assert!(!ok.all_lost());
        let lost = KrootPingRecord { success: 0, ..ok };
        assert!(lost.all_lost());
        let empty = KrootPingRecord {
            sent: 0,
            success: 0,
            ..ok
        };
        assert!(!empty.all_lost(), "no pings attempted is not loss");
    }

    #[test]
    fn sos_boot_time_matches_paper_example() {
        // Table 4: uptime 19 at 17:50:55 → boot at 17:50:36.
        let rec = SosUptimeRecord {
            probe: ProbeId(206),
            timestamp: SimTime::from_date(1, 1, 17, 50, 55),
            uptime_secs: 19,
        };
        assert_eq!(rec.boot_time(), SimTime::from_date(1, 1, 17, 50, 36));
    }

    #[test]
    fn normalize_sorts_and_slices() {
        let mut ds = AtlasDataset::default();
        ds.connections.push(entry(2, 100, 200, "10.0.0.2"));
        ds.connections.push(entry(1, 300, 400, "10.0.0.1"));
        ds.connections.push(entry(1, 0, 90, "10.0.0.1"));
        ds.meta.push(ProbeMeta {
            probe: ProbeId(2),
            ..ProbeMeta::default()
        });
        ds.meta.push(ProbeMeta {
            probe: ProbeId(1),
            ..ProbeMeta::default()
        });
        ds.normalize();
        let one = ds.connections_of(ProbeId(1));
        assert_eq!(one.len(), 2);
        assert!(one[0].start < one[1].start);
        assert_eq!(ds.connections_of(ProbeId(2)).len(), 1);
        assert_eq!(ds.connections_of(ProbeId(3)).len(), 0);
        assert!(ds.meta_of(ProbeId(2)).is_some());
        assert!(ds.meta_of(ProbeId(9)).is_none());
    }

    #[test]
    fn save_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("dynaddr-test-{}", std::process::id()));
        let mut ds = AtlasDataset::default();
        ds.meta.push(ProbeMeta::default());
        ds.connections.push(entry(0, 0, 10, "203.0.113.5"));
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        let back = AtlasDataset::load_dir(&dir).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_accepts_clean_and_flags_dirty() {
        let mut ds = AtlasDataset::default();
        ds.meta.push(ProbeMeta::default());
        ds.connections.push(entry(0, 100, 200, "10.0.0.1"));
        ds.connections.push(entry(0, 300, 400, "10.0.0.1"));
        ds.kroot.push(KrootPingRecord {
            probe: ProbeId(0),
            timestamp: SimTime(50),
            sent: 3,
            success: 3,
            lts_secs: 10,
        });
        ds.normalize();
        assert!(ds.validate().is_empty());

        // Overlap.
        ds.connections.push(entry(0, 350, 500, "10.0.0.1"));
        ds.normalize();
        assert!(ds.validate().iter().any(|p| p.contains("overlapping")));

        // Negative-length entry.
        let mut bad = AtlasDataset::default();
        bad.meta.push(ProbeMeta::default());
        bad.connections.push(entry(0, 200, 100, "10.0.0.1"));
        bad.normalize();
        assert!(bad.validate().iter().any(|p| p.contains("ends before")));

        // Orphan rows and impossible ping counts.
        let mut orphan = AtlasDataset::default();
        orphan.connections.push(entry(9, 0, 10, "10.0.0.1"));
        orphan.kroot.push(KrootPingRecord {
            probe: ProbeId(9),
            timestamp: SimTime(0),
            sent: 3,
            success: 5,
            lts_secs: 1,
        });
        orphan.normalize();
        let problems = orphan.validate();
        assert!(problems.iter().any(|p| p.contains("without metadata")));
        assert!(problems.iter().any(|p| p.contains("exceeds sent")));

        // A probe introduced twice.
        ds.meta.push(ProbeMeta::default());
        ds.normalize();
        assert!(ds
            .validate()
            .iter()
            .any(|p| p.contains("duplicate metadata")));
    }

    #[test]
    fn testing_address_is_ripe_ncc() {
        assert_eq!(testing_address().to_string(), "193.0.0.78");
    }

    #[test]
    fn durations_of_table1_shape() {
        // Jan 2 02:41:55 → Jan 3 02:18:00 is 23.6 h, matching Table 1.
        let e = entry(
            206,
            SimTime::from_date(1, 2, 2, 41, 55).0,
            SimTime::from_date(1, 3, 2, 18, 0).0,
            "91.55.141.95",
        );
        let dur: SimDuration = e.end - e.start;
        assert!((dur.as_hours() - 23.6).abs() < 0.01);
    }
}
