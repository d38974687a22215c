//! Batched, out-of-core reading of a `dataset.store` file.
//!
//! [`DatasetStream`] walks a store file on disk and yields a sequence of
//! small [`AtlasDataset`]s, each holding a contiguous range of whole
//! probes — every row of a probe is in exactly one batch, so any per-probe
//! computation (filtering, outage detection) sees the same inputs it would
//! see on the materialized dataset. Peak memory is one batch plus one
//! decoded segment per table, never the file.
//!
//! Batch boundaries are driven by the meta table (one row per probe in a
//! normalized file): a batch takes the next `batch_probes` meta rows, then
//! drains each log table through the last included probe id. Rows inside
//! a store file are already in canonical `normalize()` order, so each
//! batch is born normalized (the constructor's `normalize()` call only
//! rebuilds the per-probe range index).

use crate::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use crate::store::check_probe_order;
use dynaddr_store::{ColumnarRecord, SegmentFileReader, SegmentInfo, StoreError};
use std::path::Path;

/// Default probes per batch: large enough that per-batch overhead
/// (index rebuild, executor dispatch) is noise, small enough that a batch
/// of the heaviest table stays a few megabytes.
pub const DEFAULT_BATCH_PROBES: usize = 512;

/// Sequential cursor over one table's segments in a store file.
struct TableCursor<R> {
    /// This table's segments in file order, with their within-table
    /// ordinals (for error naming).
    segs: Vec<(usize, SegmentInfo)>,
    next: usize,
    /// Decoded rows of the current segment not yet handed out.
    buf: Vec<R>,
    /// Key of the last row handed out; every row is handed out once, in
    /// file order, so checking each take against it checks the table.
    last: Option<u32>,
}

impl<R: ColumnarRecord> TableCursor<R> {
    fn new(reader: &SegmentFileReader) -> TableCursor<R> {
        let segs = reader
            .segments()
            .iter()
            .filter(|e| e.table == R::TABLE_ID)
            .copied()
            .enumerate()
            .collect();
        TableCursor { segs, next: 0, buf: Vec::new(), last: None }
    }

    fn exhausted(&self) -> bool {
        self.buf.is_empty() && self.next == self.segs.len()
    }

    /// Takes up to `n` rows, decoding segments as needed.
    fn take_count(
        &mut self,
        reader: &mut SegmentFileReader,
        n: usize,
    ) -> Result<Vec<R>, StoreError> {
        let mut out = Vec::new();
        while out.len() < n {
            if self.buf.is_empty() {
                let Some(&(idx, info)) = self.segs.get(self.next) else { break };
                self.buf = reader.read_segment::<R>(idx, info)?;
                self.next += 1;
            }
            let take = (n - out.len()).min(self.buf.len());
            out.extend(self.buf.drain(..take));
        }
        self.last = check_probe_order(&out, self.last)?;
        Ok(out)
    }

    /// Takes every remaining row with key ≤ `hi` (rows are key-sorted, so
    /// this is a prefix; segments whose `key_lo` exceeds `hi` stay on
    /// disk untouched).
    fn take_through(
        &mut self,
        reader: &mut SegmentFileReader,
        hi: u32,
    ) -> Result<Vec<R>, StoreError> {
        let mut out = Vec::new();
        loop {
            if self.buf.is_empty() {
                let Some(&(idx, info)) = self.segs.get(self.next) else { break };
                if info.key_lo > hi {
                    break;
                }
                self.buf = reader.read_segment::<R>(idx, info)?;
                self.next += 1;
            }
            let take = self.buf.partition_point(|r| r.key() <= hi);
            out.extend(self.buf.drain(..take));
            if !self.buf.is_empty() {
                break;
            }
        }
        self.last = check_probe_order(&out, self.last)?;
        Ok(out)
    }
}

/// Streams a `dataset.store` file as a sequence of whole-probe batches.
pub struct DatasetStream {
    reader: SegmentFileReader,
    meta: TableCursor<ProbeMeta>,
    connections: TableCursor<ConnectionLogEntry>,
    kroot: TableCursor<KrootPingRecord>,
    uptime: TableCursor<SosUptimeRecord>,
    batch_probes: usize,
}

impl DatasetStream {
    /// Opens a store file for streaming with [`DEFAULT_BATCH_PROBES`]
    /// probes per batch. Only the footer index is read here.
    pub fn open(path: &Path) -> Result<DatasetStream, StoreError> {
        DatasetStream::with_batch_probes(path, DEFAULT_BATCH_PROBES)
    }

    /// [`DatasetStream::open`] with an explicit batch size (clamped to at
    /// least 1 probe).
    pub fn with_batch_probes(path: &Path, batch_probes: usize) -> Result<DatasetStream, StoreError> {
        let reader = SegmentFileReader::open(path)?;
        Ok(DatasetStream {
            meta: TableCursor::new(&reader),
            connections: TableCursor::new(&reader),
            kroot: TableCursor::new(&reader),
            uptime: TableCursor::new(&reader),
            reader,
            batch_probes,
        })
    }

    /// Probes (meta rows) the file's index records, available before any
    /// batch is decoded.
    pub fn total_probes(&self) -> u64 {
        self.reader.table_rows(ProbeMeta::TABLE_ID)
    }

    /// Rows of the three log tables the file's index records, available
    /// before any batch is decoded.
    pub fn total_log_rows(&self) -> u64 {
        [ConnectionLogEntry::TABLE_ID, KrootPingRecord::TABLE_ID, SosUptimeRecord::TABLE_ID]
            .into_iter()
            .map(|table| self.reader.table_rows(table))
            .sum()
    }

    /// Decodes and returns the next batch of whole probes, `None` once
    /// every table is drained. Each batch is normalized and indexed, so
    /// `connections_of`/`kroot_of`/`uptime_of` work as on the full
    /// dataset (restricted to the batch's probes). Rows out of probe order
    /// are a [`StoreError::OutOfOrder`], as in
    /// [`crate::store::dataset_from_bytes`]; a log row that goes back to a
    /// lower probe id may only surface in a later batch.
    pub fn next_batch(&mut self) -> Result<Option<AtlasDataset>, StoreError> {
        let meta = self.meta.take_count(&mut self.reader, self.batch_probes)?;
        // Rows beyond the last meta'd probe can only exist in a file not
        // produced by the simulator; u32::MAX drains such stragglers into
        // the final batch rather than losing them.
        let hi = if self.meta.exhausted() {
            u32::MAX
        } else {
            meta.last().expect("cursor not exhausted, batch_probes >= 1").probe.0
        };
        let connections = self.connections.take_through(&mut self.reader, hi)?;
        let kroot = self.kroot.take_through(&mut self.reader, hi)?;
        let uptime = self.uptime.take_through(&mut self.reader, hi)?;
        if meta.is_empty() && connections.is_empty() && kroot.is_empty() && uptime.is_empty() {
            return Ok(None);
        }
        let mut batch =
            AtlasDataset { meta, connections, kroot, uptime, ..AtlasDataset::default() };
        batch.normalize();
        Ok(Some(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logs::PeerAddr;
    use crate::world::paper_world;
    use crate::{simulate, SimOptions};
    use dynaddr_store::FileWriter;
    use dynaddr_types::{Country, ProbeId, ProbeVersion, SimTime};

    /// Writes `ds` as a store file with a given segment row cap, so tests
    /// can force one probe's rows across a segment boundary.
    fn write_store(ds: &AtlasDataset, segment_rows: usize, name: &str) -> std::path::PathBuf {
        let mut w = FileWriter::with_segment_rows(segment_rows);
        w.write_table(&ds.meta);
        w.write_table(&ds.connections);
        w.write_table(&ds.kroot);
        w.write_table(&ds.uptime);
        let dir = std::env::temp_dir().join("dynaddr-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.store", std::process::id()));
        std::fs::write(&path, w.finish()).unwrap();
        path
    }

    fn meta(probe: u32) -> ProbeMeta {
        ProbeMeta {
            probe: ProbeId(probe),
            version: ProbeVersion::V3,
            country: Country::new("DE").unwrap(),
            tags: Vec::new(),
        }
    }

    fn conn(probe: u32, start: i64) -> ConnectionLogEntry {
        ConnectionLogEntry {
            probe: ProbeId(probe),
            start: SimTime(start),
            end: SimTime(start + 60),
            peer: PeerAddr::V4("10.0.0.1".parse().unwrap()),
        }
    }

    #[test]
    fn empty_store_yields_no_batches() {
        let ds = AtlasDataset::default();
        let path = write_store(&ds, 4, "empty");
        let mut stream = DatasetStream::open(&path).unwrap();
        assert_eq!(stream.total_probes(), 0);
        assert!(stream.next_batch().unwrap().is_none());
        // Stays drained: asking again is fine and still empty.
        assert!(stream.next_batch().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_probe_store_is_one_batch_at_any_batch_size() {
        let mut ds = AtlasDataset {
            meta: vec![meta(7)],
            connections: vec![conn(7, 0), conn(7, 100), conn(7, 200)],
            kroot: vec![KrootPingRecord {
                probe: ProbeId(7),
                timestamp: SimTime(50),
                sent: 3,
                success: 3,
                lts_secs: 10,
            }],
            uptime: vec![SosUptimeRecord {
                probe: ProbeId(7),
                timestamp: SimTime(100),
                uptime_secs: 90,
            }],
            ..AtlasDataset::default()
        };
        ds.normalize();
        let path = write_store(&ds, 4, "single");
        for batch_probes in [1usize, 2, DEFAULT_BATCH_PROBES] {
            let mut stream = DatasetStream::with_batch_probes(&path, batch_probes).unwrap();
            assert_eq!(stream.total_probes(), 1);
            let batch = stream.next_batch().unwrap().expect("one batch");
            assert_eq!(batch, ds, "batch_probes={batch_probes}");
            assert!(stream.next_batch().unwrap().is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A probe whose connection rows span a segment boundary must still
    /// arrive whole in one batch: `take_through` keeps draining segments
    /// until the probe's key range ends, not just until the first segment
    /// boundary.
    #[test]
    fn probe_spanning_a_segment_boundary_stays_whole() {
        let mut ds = AtlasDataset {
            meta: vec![meta(1), meta(2)],
            // Probe 1 fills most of the first 4-row segment; probe 2's six
            // rows then straddle segments {1|2}: [1,1,1,2][2,2,2,2][2].
            connections: vec![
                conn(1, 0),
                conn(1, 100),
                conn(1, 200),
                conn(2, 0),
                conn(2, 100),
                conn(2, 200),
                conn(2, 300),
                conn(2, 400),
                conn(2, 500),
            ],
            ..AtlasDataset::default()
        };
        ds.normalize();
        let path = write_store(&ds, 4, "boundary");
        let mut stream = DatasetStream::with_batch_probes(&path, 1).unwrap();

        let first = stream.next_batch().unwrap().expect("probe 1");
        assert_eq!(first.meta.len(), 1);
        assert_eq!(first.meta[0].probe, ProbeId(1));
        assert_eq!(first.connections.len(), 3);

        let second = stream.next_batch().unwrap().expect("probe 2");
        assert_eq!(second.meta.len(), 1);
        assert_eq!(second.meta[0].probe, ProbeId(2));
        assert_eq!(second.connections.len(), 6, "rows split across segments reassemble");
        assert!(second.connections.iter().all(|e| e.probe == ProbeId(2)));

        assert!(stream.next_batch().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batches_reassemble_the_dataset_at_any_batch_size() {
        let out = simulate(&paper_world(0.01, 3));
        let dir = std::env::temp_dir().join("dynaddr-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reassemble.store");
        crate::sim::simulate_to_store(&paper_world(0.01, 3), &SimOptions::default(), &path)
            .unwrap();

        for batch_probes in [1usize, 7, 64, 100_000] {
            let mut stream = DatasetStream::with_batch_probes(&path, batch_probes).unwrap();
            assert_eq!(stream.total_probes(), out.dataset.meta.len() as u64);
            let log_rows =
                out.dataset.connections.len() + out.dataset.kroot.len() + out.dataset.uptime.len();
            assert_eq!(stream.total_log_rows(), log_rows as u64);
            let mut rebuilt = AtlasDataset::default();
            let mut last_hi: Option<u32> = None;
            while let Some(batch) = stream.next_batch().unwrap() {
                // Whole probes, in ascending order, never split.
                let lo = batch.meta.first().unwrap().probe.0;
                if let Some(prev) = last_hi {
                    assert!(lo > prev, "batch overlaps its predecessor");
                }
                last_hi = Some(batch.meta.last().unwrap().probe.0);
                rebuilt.meta.extend(batch.meta.iter().cloned());
                rebuilt.connections.extend(batch.connections.iter().cloned());
                rebuilt.kroot.extend(batch.kroot.iter().cloned());
                rebuilt.uptime.extend(batch.uptime.iter().cloned());
            }
            rebuilt.normalize();
            assert_eq!(rebuilt, out.dataset, "batch_probes={batch_probes}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
