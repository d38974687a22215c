//! Append-capable segment sink: out-of-order producers, canonical files.
//!
//! The simulator finishes shards in whatever order the scheduler likes,
//! but a store file has exactly one canonical byte sequence: segments in
//! table order, rows in global key order, chunk boundaries restarting at
//! row 0 for each table. [`SegmentSink`] reconciles the two. Producers
//! append *runs* — independent, key-sorted row sequences (one per shard) —
//! as they complete; the sink writes each batch through a [`StreamWriter`]
//! into a spill, an ordinary store file, so a finished shard's rows never
//! sit in memory. [`SegmentSink::finish`] reopens the spill as a
//! [`SegmentFileReader`] inside a [`RunMerger`], which streams a k-way
//! merge of the runs into the output [`StreamWriter`], producing bytes
//! identical to writing the globally sorted rows with
//! [`StreamWriter::write_table`]. Spilled segments pass the same frame
//! check as every other segment read.
//!
//! Memory during the merge is bounded by one decoded segment per run, and
//! during appends by one batch — the full table never materializes.
//!
//! Ordering contract (debug-asserted): within one `(table, run)`, appended
//! batches arrive with non-decreasing keys, and runs with equal keys merge
//! in run-id order (with key-disjoint runs, as shard splitting guarantees,
//! the tie-break never fires).

use crate::file::{SegmentFileReader, SegmentInfo, StreamWriter};
use crate::record::ColumnarRecord;
use crate::{StoreError, DEFAULT_SEGMENT_ROWS};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The spilled segments of each `(table, run)`, in append order (= key
/// order), each with its ordinal among the spill's segments of that table.
type Runs = BTreeMap<(u8, u64), Vec<(usize, SegmentInfo)>>;

/// Collects key-sorted runs of rows from concurrent producers, writing
/// them into a spilled store file as they arrive. See the module docs for
/// the ordering contract.
pub struct SegmentSink {
    spill: StreamWriter<BufWriter<std::fs::File>>,
    path: PathBuf,
    runs: Runs,
    /// Segments written so far per table, for each segment's ordinal.
    table_segments: BTreeMap<u8, usize>,
}

impl SegmentSink {
    /// A sink spilling to a fresh scratch file at `path` (truncated if it
    /// exists), chunking appended batches with the default segment size.
    pub fn create(path: &Path) -> Result<SegmentSink, StoreError> {
        SegmentSink::with_segment_rows(path, DEFAULT_SEGMENT_ROWS)
    }

    /// [`SegmentSink::create`] with an explicit segment row budget
    /// (clamped to at least 1).
    pub fn with_segment_rows(path: &Path, segment_rows: usize) -> Result<SegmentSink, StoreError> {
        let file = std::fs::File::create(path)
            .map_err(|e| StoreError::io(format!("create spill {}", path.display()), e))?;
        Ok(SegmentSink {
            spill: StreamWriter::with_segment_rows(BufWriter::new(file), segment_rows)?,
            path: path.to_path_buf(),
            runs: BTreeMap::new(),
            table_segments: BTreeMap::new(),
        })
    }

    /// The path of the scratch file (the caller removes it when done).
    pub fn spill_path(&self) -> &Path {
        &self.path
    }

    /// Appends one key-sorted batch of rows to run `run` of table `R`.
    /// Batches of the same run must arrive in ascending key order; an
    /// empty batch is a no-op.
    pub fn append<R: ColumnarRecord>(&mut self, run: u64, rows: &[R]) -> Result<(), StoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        debug_assert!(
            rows.windows(2).all(|w| w[0].key() <= w[1].key()),
            "batch not key-sorted"
        );
        let before = self.spill.segments().len();
        self.spill.write_table(rows)?;
        let ordinal = self.table_segments.entry(R::TABLE_ID).or_default();
        let segs = self.runs.entry((R::TABLE_ID, run)).or_default();
        for &info in &self.spill.segments()[before..] {
            segs.push((*ordinal, info));
            *ordinal += 1;
        }
        Ok(())
    }

    /// Finishes the spill file and reopens it for merging.
    pub fn finish(self) -> Result<RunMerger, StoreError> {
        self.spill.finish()?;
        let spill = SegmentFileReader::open(&self.path)?;
        Ok(RunMerger {
            spill,
            runs: self.runs,
            path: self.path,
        })
    }
}

/// Streams the k-way merge of a finished [`SegmentSink`]'s runs into a
/// [`StreamWriter`], one table per call, in ascending key order.
pub struct RunMerger {
    spill: SegmentFileReader,
    runs: Runs,
    path: PathBuf,
}

/// Merge-side cursor over one spilled run: the next undecoded segment plus
/// the decoded head segment's remaining rows.
struct RunCursor<R> {
    segs: Vec<(usize, SegmentInfo)>,
    next_seg: usize,
    buf: Vec<R>,
    pos: usize,
}

impl<R: ColumnarRecord> RunCursor<R> {
    /// The smallest key this run can still produce: the buffered head
    /// row's key, else the next segment's `key_lo` (exact, rows sorted).
    fn peek(&self) -> Option<u32> {
        if self.pos < self.buf.len() {
            return Some(self.buf[self.pos].key());
        }
        self.segs.get(self.next_seg).map(|(_, s)| s.key_lo)
    }
}

impl RunMerger {
    /// The spill path, for removal once every table has been merged.
    pub fn spill_path(&self) -> &Path {
        &self.path
    }

    /// Merges every run of table `R` into `w` in global key order (ties
    /// across runs resolved by run id), chunked exactly like
    /// [`StreamWriter::write_table`]. Call once per table, in the file's
    /// table order.
    pub fn merge_table<R: ColumnarRecord + Clone, W: Write>(
        &mut self,
        w: &mut StreamWriter<W>,
    ) -> Result<(), StoreError> {
        let mut cursors: Vec<RunCursor<R>> = self
            .runs
            .range((R::TABLE_ID, 0)..=(R::TABLE_ID, u64::MAX))
            .map(|(_, segs)| RunCursor {
                segs: segs.clone(),
                next_seg: 0,
                buf: Vec::new(),
                pos: 0,
            })
            .collect();
        // Min-heap of (peek key, run ordinal): the run ordinal both breaks
        // key ties deterministically and finds the cursor to drain.
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = cursors
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.peek().map(|k| Reverse((k, i))))
            .collect();
        dynaddr_obs::gauge_max("sink.spill_runs", cursors.len() as u64);
        dynaddr_obs::gauge_max("sink.merge_heap_depth", heap.len() as u64);
        let mut out: Vec<R> = Vec::with_capacity(w.segment_rows());
        while let Some(Reverse((_, ri))) = heap.pop() {
            // Everything below the runner-up's peek belongs to this run.
            let limit = heap.peek().map(|Reverse((k, i))| (*k, *i));
            loop {
                let cur = &mut cursors[ri];
                if cur.pos == cur.buf.len() {
                    let Some(&(ordinal, seg)) = cur.segs.get(cur.next_seg) else {
                        break;
                    };
                    if !below_limit(seg.key_lo, ri, limit) {
                        break;
                    }
                    cur.buf = self.spill.read_segment::<R>(ordinal, seg)?;
                    cur.pos = 0;
                    cur.next_seg += 1;
                }
                let cur = &mut cursors[ri];
                while cur.pos < cur.buf.len() {
                    if !below_limit(cur.buf[cur.pos].key(), ri, limit) {
                        break;
                    }
                    out.push(cur.buf[cur.pos].clone());
                    cur.pos += 1;
                    if out.len() == w.segment_rows() {
                        w.write_segment(&out)?;
                        out.clear();
                    }
                }
                if cur.pos < cur.buf.len() {
                    break;
                }
            }
            if let Some(k) = cursors[ri].peek() {
                heap.push(Reverse((k, ri)));
            }
        }
        if !out.is_empty() {
            w.write_segment(&out)?;
        }
        self.runs.retain(|(table, _), _| *table != R::TABLE_ID);
        Ok(())
    }
}

/// Whether a row with `key` in run `ri` still sorts before the best other
/// run's `(key, run)` pair — the stable tie-break that makes equal keys
/// merge in run-id order.
fn below_limit(key: u32, ri: usize, limit: Option<(u32, usize)>) -> bool {
    match limit {
        None => true,
        Some((lk, li)) => key < lk || (key == lk && ri < li),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnBuilder, ColumnKind, ColumnReader, DecodeError};
    use crate::{FileReader, ReadMode};

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Row {
        key: u32,
        value: i64,
    }

    impl ColumnarRecord for Row {
        const TABLE_ID: u8 = 9;
        const TABLE_NAME: &'static str = "sink_rows";
        const COLUMNS: &'static [ColumnKind] = &[ColumnKind::I64, ColumnKind::I64];

        fn key(&self) -> u32 {
            self.key
        }

        fn encode(rows: &[Self], cols: &mut [ColumnBuilder]) {
            for r in rows {
                cols[0].push_i64(i64::from(r.key));
                cols[1].push_i64(r.value);
            }
        }

        fn decode(cols: &mut [ColumnReader<'_>], rows: usize) -> Result<Vec<Self>, DecodeError> {
            (0..rows)
                .map(|_| {
                    let key = cols[0].next_i64()?;
                    Ok(Row {
                        key: u32::try_from(key)
                            .map_err(|_| DecodeError::new(format!("key {key} exceeds u32")))?,
                        value: cols[1].next_i64()?,
                    })
                })
                .collect()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dynaddr-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Probes striped across three runs, appended out of order and in two
    /// batches per run, must merge to the same bytes as `write_table` fed
    /// the globally sorted rows.
    #[test]
    fn interleaved_runs_merge_to_canonical_bytes() {
        let rows: Vec<Row> = (0..90)
            .map(|i| Row {
                key: i / 3,
                value: i64::from(i) * 7 - 100,
            })
            .collect();
        let run_of = |r: &Row| u64::from(r.key % 3);

        let path = scratch("interleave.spill");
        let mut sink = SegmentSink::with_segment_rows(&path, 7).unwrap();
        for run in [2u64, 0, 1] {
            let mine: Vec<Row> = rows.iter().filter(|r| run_of(r) == run).cloned().collect();
            let (a, b) = mine.split_at(mine.len() / 2);
            sink.append(run, a).unwrap();
            sink.append(run, b).unwrap();
        }
        let mut merger = sink.finish().unwrap();
        let mut bytes = Vec::new();
        let mut w = StreamWriter::with_segment_rows(&mut bytes, 7).unwrap();
        merger.merge_table::<Row, _>(&mut w).unwrap();
        w.finish().unwrap();
        std::fs::remove_file(merger.spill_path()).unwrap();

        let mut sorted = rows.clone();
        sorted.sort_by_key(|r| r.key);
        let mut canonical = StreamWriter::with_segment_rows(Vec::new(), 7).unwrap();
        canonical.write_table(&sorted).unwrap();
        assert_eq!(
            bytes,
            canonical.finish().unwrap(),
            "merged bytes differ from write_table's"
        );

        let reader = FileReader::open(&bytes).unwrap();
        let (decoded, dropped) = reader.decode_table::<Row>(ReadMode::Strict).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(decoded, sorted);
    }

    /// Runs with overlapping equal keys merge stably in run-id order.
    #[test]
    fn equal_keys_across_runs_merge_in_run_order() {
        let path = scratch("ties.spill");
        let mut sink = SegmentSink::with_segment_rows(&path, 4).unwrap();
        sink.append(1, &[Row { key: 5, value: 10 }, Row { key: 5, value: 11 }])
            .unwrap();
        sink.append(0, &[Row { key: 5, value: 0 }, Row { key: 6, value: 1 }])
            .unwrap();
        let mut merger = sink.finish().unwrap();
        let mut bytes = Vec::new();
        let mut w = StreamWriter::with_segment_rows(&mut bytes, 4).unwrap();
        merger.merge_table::<Row, _>(&mut w).unwrap();
        w.finish().unwrap();
        std::fs::remove_file(merger.spill_path()).unwrap();

        let reader = FileReader::open(&bytes).unwrap();
        let (decoded, _) = reader.decode_table::<Row>(ReadMode::Strict).unwrap();
        let values: Vec<i64> = decoded.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![0, 10, 11, 1], "run 0's key-5 rows come first");
    }
}
