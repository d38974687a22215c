//! Append-capable segment sink: out-of-order producers, canonical files.
//!
//! The simulator finishes shards in whatever order the scheduler likes,
//! but a store file has exactly one canonical byte sequence: segments in
//! table order, rows in global key order, chunk boundaries restarting at
//! row 0 for each table. [`SegmentSink`] reconciles the two. Producers
//! append *runs* — independent, key-sorted row sequences (one per shard) —
//! as they complete, from any thread: each batch is encoded on its
//! producer's thread and written into a spill, an ordinary store file, so
//! a finished shard's rows never sit in memory. [`SegmentSink::finish`]
//! reopens the spill as a [`SegmentFileReader`] inside a [`RunMerger`],
//! which streams a k-way merge of the runs into the output
//! [`StreamWriter`], producing bytes identical to writing the globally
//! sorted rows with [`StreamWriter::write_table`]. Spilled segments pass
//! the same frame check as every other segment read.
//!
//! The merge's heap runs on one thread, but it decodes spilled segments
//! ahead in windows, in parallel, and writes merged rows a window's worth
//! of whole segments at a time, which `write_table` encodes in parallel.
//! Memory during the merge is bounded by one decoded segment per run plus
//! one window: its decoded segments and as many merged, not yet written
//! segments. During appends it is one batch per producer — the full table
//! never materializes.
//!
//! Ordering contract (debug-asserted): within one `(table, run)`, appended
//! batches arrive with non-decreasing keys, and runs with equal keys merge
//! in run-id order (with key-disjoint runs, as shard splitting guarantees,
//! the tie-break never fires).

use crate::file::{decode_frame, SegmentFileReader, SegmentInfo, StreamWriter};
use crate::record::ColumnarRecord;
use crate::segment::encode_segment;
use crate::{StoreError, DEFAULT_SEGMENT_ROWS};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Spilled segments the merge decodes ahead per worker, and whole output
/// segments it writes per `write_table` call. Each window pays two
/// scoped-thread spawns (decode, encode), so small windows lose to them.
const WINDOW_SEGMENTS_PER_WORKER: usize = 8;

/// The most segments one window holds, whatever the worker count, so many
/// workers cannot undo the out-of-core merge's memory bound.
const MAX_WINDOW_SEGMENTS: usize = 64;

/// The spilled segments of each `(table, run)`, in append order (= key
/// order), each with its ordinal among the spill's segments of that table.
type Runs = BTreeMap<(u8, u64), Vec<(usize, SegmentInfo)>>;

/// Collects key-sorted runs of rows from concurrent producers, writing
/// them into a spilled store file as they arrive. See the module docs for
/// the ordering contract.
pub struct SegmentSink {
    spill: Mutex<Spill>,
    path: PathBuf,
    segment_rows: usize,
}

/// What [`SegmentSink::append`] writes under the sink's lock.
struct Spill {
    writer: StreamWriter<BufWriter<std::fs::File>>,
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
        let writer = StreamWriter::with_segment_rows(BufWriter::new(file), segment_rows)?;
        Ok(SegmentSink {
            segment_rows: writer.segment_rows(),
            spill: Mutex::new(Spill {
                writer,
                runs: BTreeMap::new(),
                table_segments: BTreeMap::new(),
            }),
            path: path.to_path_buf(),
        })
    }

    /// The path of the scratch file (the caller removes it when done).
    pub fn spill_path(&self) -> &Path {
        &self.path
    }

    /// Appends one key-sorted batch of rows to run `run` of table `R`.
    /// Batches of the same run must arrive in ascending key order; an
    /// empty batch is a no-op. The batch's segments are encoded on the
    /// calling thread; the sink's lock is held only to write and index
    /// them, so producers on several threads encode concurrently.
    pub fn append<R: ColumnarRecord>(&self, run: u64, rows: &[R]) -> Result<(), StoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        debug_assert!(
            rows.windows(2).all(|w| w[0].key() <= w[1].key()),
            "batch not key-sorted"
        );
        let frames: Vec<_> = rows
            .chunks(self.segment_rows)
            .map(|chunk| (encode_segment(chunk), chunk.len()))
            .collect();
        let mut spill = self.spill.lock().expect("spill lock");
        let Spill {
            writer,
            runs,
            table_segments,
        } = &mut *spill;
        let ordinal = table_segments.entry(R::TABLE_ID).or_default();
        let segs = runs.entry((R::TABLE_ID, run)).or_default();
        for (frame, n) in frames {
            segs.push((*ordinal, writer.put_frame::<R>(frame, n)?));
            *ordinal += 1;
        }
        Ok(())
    }

    /// Finishes the spill file and reopens it for merging.
    pub fn finish(self) -> Result<RunMerger, StoreError> {
        let spill = self.spill.into_inner().expect("spill lock");
        spill.writer.finish()?;
        Ok(RunMerger {
            spill: SegmentFileReader::open(&self.path)?,
            runs: spill.runs,
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

/// Where the merge finds a spilled segment: its run's ordinal among the
/// table's runs, and its position within the run.
type RunSegment = (usize, usize);

/// One spilled segment as the merge opens it: its [`RunSegment`], and its
/// ordinal and footer entry in the spill.
type SegmentRef = (RunSegment, (usize, SegmentInfo));

/// Decodes one table's spilled segments ahead of the merge, a window at a
/// time. A window is the next segments in the order the heap opens them:
/// ascending `(key_lo, run, segment)`, because a run's segment opens only
/// once every other run's rows below its first key are out, so the window
/// is a plain queue. Its frames are read serially, then checked and
/// decoded under `par_map`.
struct DecodeAhead<R> {
    /// The table's segments not yet windowed, in open order.
    order: std::vec::IntoIter<SegmentRef>,
    size: usize,
    window: VecDeque<(RunSegment, Result<Vec<R>, StoreError>)>,
}

impl<R: ColumnarRecord> DecodeAhead<R> {
    fn new(cursors: &[RunCursor<R>], size: usize) -> DecodeAhead<R> {
        let mut order: Vec<SegmentRef> = cursors
            .iter()
            .enumerate()
            .flat_map(|(ri, c)| {
                c.segs
                    .iter()
                    .enumerate()
                    .map(move |(s, &seg)| ((ri, s), seg))
            })
            .collect();
        order.sort_by_key(|&((ri, s), (_, info))| (info.key_lo, ri, s));
        DecodeAhead {
            order: order.into_iter(),
            size,
            window: VecDeque::new(),
        }
    }

    /// The rows of segment `s` of run `ri`, which must be the next
    /// segment in open order: the window's front, refilled when it runs
    /// dry.
    fn take(
        &mut self,
        spill: &mut SegmentFileReader,
        at: RunSegment,
    ) -> Result<Vec<R>, StoreError> {
        if self.window.is_empty() {
            self.fill(spill);
        }
        let (_, rows) = self
            .window
            .pop_front()
            .filter(|(next, _)| *next == at)
            .expect("the heap opens each spilled segment once, in (key_lo, run, segment) order");
        rows
    }

    /// Reads and decodes the next window of segments.
    fn fill(&mut self, spill: &mut SegmentFileReader) {
        let (at, frames): (Vec<RunSegment>, Vec<_>) = self
            .order
            .by_ref()
            .take(self.size)
            .map(|(at, (ordinal, info))| (at, (spill.read_frame(info), ordinal, info)))
            .unzip();
        let decoded = dynaddr_exec::par_map(&frames, |(frame, ordinal, info)| {
            decode_frame::<R>(frame.as_deref(), *ordinal, *info)
        });
        self.window.extend(at.into_iter().zip(decoded));
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
        let window =
            (dynaddr_exec::current_threads() * WINDOW_SEGMENTS_PER_WORKER).min(MAX_WINDOW_SEGMENTS);
        let mut ahead = DecodeAhead::<R>::new(&cursors, window);
        // Min-heap of (peek key, run ordinal): the run ordinal both breaks
        // key ties deterministically and finds the cursor to drain.
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = cursors
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.peek().map(|k| Reverse((k, i))))
            .collect();
        dynaddr_obs::gauge_max("sink.spill_runs", cursors.len() as u64);
        dynaddr_obs::gauge_max("sink.merge_heap_depth", heap.len() as u64);
        // A multiple of the segment size, so every flush but the last
        // leaves the segment boundaries where one write_table would.
        let flush_rows = window.saturating_mul(w.segment_rows());
        let mut out: Vec<R> = Vec::new();
        while let Some(Reverse((_, ri))) = heap.pop() {
            // Everything below the runner-up's peek belongs to this run.
            let limit = heap.peek().map(|Reverse((k, i))| (*k, *i));
            loop {
                let cur = &mut cursors[ri];
                if cur.pos == cur.buf.len() {
                    let Some((_, seg)) = cur.segs.get(cur.next_seg) else {
                        break;
                    };
                    if !below_limit(seg.key_lo, ri, limit) {
                        break;
                    }
                    cur.buf = ahead.take(&mut self.spill, (ri, cur.next_seg))?;
                    cur.pos = 0;
                    cur.next_seg += 1;
                }
                while cur.pos < cur.buf.len() {
                    if !below_limit(cur.buf[cur.pos].key(), ri, limit) {
                        break;
                    }
                    out.push(cur.buf[cur.pos].clone());
                    cur.pos += 1;
                    if out.len() == flush_rows {
                        w.write_table(&out)?;
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
        w.write_table(&out)?;
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
        let sink = SegmentSink::with_segment_rows(&path, 7).unwrap();
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

    /// 60 runs of 3-row segments, appended from four threads in several
    /// batches each, so the decode-ahead windows and the `write_table`
    /// flushes wrap many times at every worker count. Run 0's key 0 has
    /// seven rows, which fill two whole spilled segments with the same
    /// `key_lo` and start a third; keys that are multiples of 50 also
    /// appear in a second run, whose rows follow in run order.
    fn windowed_runs() -> Vec<Vec<Row>> {
        (0..60u32)
            .map(|run| {
                let mut keys: Vec<u32> = (0..1800).filter(|k| k % 60 == run).collect();
                if run == 7 {
                    keys.extend((0..1800).step_by(50).filter(|k| k % 60 != 7));
                    keys.sort_unstable();
                }
                keys.iter()
                    .flat_map(|&key| {
                        let n = if key == 0 { 7 } else { 1 + key % 4 };
                        (0..n).map(move |i| Row {
                            key,
                            value: i64::from(run) * 1_000_000 + i64::from(key) * 10 + i64::from(i),
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// Writes `runs` into a fresh 3-row spill, appending each run in
    /// batches of at most 50 rows from four threads at once.
    fn spill_runs(name: &str, runs: &[Vec<Row>]) -> SegmentSink {
        let sink = SegmentSink::with_segment_rows(&scratch(name), 3).unwrap();
        std::thread::scope(|scope| {
            for lane in 0..4 {
                let sink = &sink;
                scope.spawn(move || {
                    for (run, rows) in runs.iter().enumerate().skip(lane).step_by(4) {
                        for batch in rows.chunks(50) {
                            sink.append(run as u64, batch).unwrap();
                        }
                    }
                });
            }
        });
        sink
    }

    #[test]
    fn windowed_merge_matches_write_table_at_any_worker_count() {
        let runs = windowed_runs();
        let mut sorted: Vec<Row> = runs.concat();
        sorted.sort_by_key(|r| r.key);
        let mut canonical = StreamWriter::with_segment_rows(Vec::new(), 3).unwrap();
        canonical.write_table(&sorted).unwrap();
        let canonical = canonical.finish().unwrap();
        for threads in [1, 2, 3, 64] {
            dynaddr_exec::set_threads(Some(threads));
            let mut merger = spill_runs("windowed.spill", &runs).finish().unwrap();
            let segments: Vec<usize> = merger.runs.values().map(Vec::len).collect();
            assert!(
                segments.iter().sum::<usize>() > 20 * MAX_WINDOW_SEGMENTS,
                "too few spilled segments to wrap the windows: {segments:?}"
            );
            let zero: Vec<u32> = merger.runs[&(Row::TABLE_ID, 0)][..3]
                .iter()
                .map(|(_, s)| s.key_lo)
                .collect();
            assert_eq!(zero, [0, 0, 0], "key 0 straddles run 0's segments");
            let mut w = StreamWriter::with_segment_rows(Vec::new(), 3).unwrap();
            merger.merge_table::<Row, _>(&mut w).unwrap();
            std::fs::remove_file(merger.spill_path()).unwrap();
            assert!(
                w.finish().unwrap() == canonical,
                "merged bytes differ from write_table's at threads={threads}"
            );
        }
        dynaddr_exec::set_threads(None);
    }

    /// A flipped body byte in the spill fails the merge with the damaged
    /// segment's table and ordinal, whatever the window size.
    #[test]
    fn damaged_spill_fails_the_merge_with_segment_corrupt() {
        let runs = windowed_runs();
        for threads in [1, 2, 64] {
            dynaddr_exec::set_threads(Some(threads));
            let mut merger = spill_runs("damaged.spill", &runs).finish().unwrap();
            let path = merger.spill_path().to_path_buf();
            let spilled = SegmentFileReader::open(&path).unwrap().segments().to_vec();
            let ordinal = spilled.len() * 2 / 3;
            let victim = spilled[ordinal];
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[victim.offset as usize + 6] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();

            let mut w = StreamWriter::with_segment_rows(Vec::new(), 3).unwrap();
            let err = merger.merge_table::<Row, _>(&mut w).unwrap_err();
            std::fs::remove_file(&path).unwrap();
            match err {
                StoreError::SegmentCorrupt {
                    table,
                    index,
                    offset,
                    reason,
                } => {
                    assert_eq!(table, "sink_rows");
                    assert_eq!(index, ordinal, "threads={threads}");
                    assert_eq!(offset, victim.offset);
                    assert_eq!(reason, "checksum mismatch");
                }
                other => panic!("expected SegmentCorrupt, got {other:?}"),
            }
        }
        dynaddr_exec::set_threads(None);
    }

    /// Runs with overlapping equal keys merge stably in run-id order.
    #[test]
    fn equal_keys_across_runs_merge_in_run_order() {
        let path = scratch("ties.spill");
        let sink = SegmentSink::with_segment_rows(&path, 4).unwrap();
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
