//! Key directories: one key's rows out of a verified segment, without
//! decoding the rest.
//!
//! A segment's columns are delta- and length-coded streams, so a reader
//! cannot start in the middle of one without its state at that row: the
//! byte position in each column and, for an integer column, the value
//! before it (the delta base). [`index_segment_at`] verifies and decodes a
//! segment exactly as [`decode_segment_at`] does, then walks its columns
//! once more and records that state at the first row of every key run.
//! These are the restart points of an LSM-tree block or a Parquet page
//! index, built in memory: the store's bytes, format and writers do not
//! change.
//!
//! [`KeyDirectory::decode_key`] rebuilds the [`ColumnReader`]s at one run
//! and hands them to the table's own [`ColumnarRecord::decode`] for that
//! run's rows only, so each row costs what it costs in a full decode.
//!
//! A directory describes the bytes it was built from and no others. It
//! does not re-check the segment's CRC, so a caller must keep those bytes
//! unchanged between [`index_segment_at`] and every
//! [`KeyDirectory::decode_key`] (the query engine holds the whole file,
//! immutable, from open). It never panics: a decode that fails, or that
//! yields rows of another key, is a [`StoreError::SegmentCorrupt`] naming
//! the segment.

use crate::column::{ColumnKind, ColumnReader};
use crate::file::{decode_segment_at, SegmentInfo};
use crate::record::ColumnarRecord;
use crate::segment::column_spans;
use crate::StoreError;
use std::ops::Range;

/// One column reader's state at the first row of a key run.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnState {
    /// Byte position within the column's payload.
    pos: usize,
    /// The delta base of an integer column; 0 for a byte-string column.
    prev: i64,
}

impl ColumnState {
    fn of(reader: &ColumnReader<'_>) -> ColumnState {
        match *reader {
            ColumnReader::I64 { prev, pos, .. } => ColumnState { pos, prev },
            ColumnReader::Bytes { pos, .. } => ColumnState { pos, prev: 0 },
        }
    }
}

/// Where each key's rows start inside one segment, with the column reader
/// state there. Built by [`index_segment_at`]; see the module docs.
#[derive(Debug)]
pub struct KeyDirectory {
    /// The segment's table id, ordinal and offset, for checks and errors.
    table: u8,
    index: usize,
    offset: u64,
    /// Each column's kind and payload byte range in the file.
    columns: Vec<(ColumnKind, Range<usize>)>,
    /// The key of each run of equal keys, in row order.
    keys: Vec<u32>,
    /// The first row of each run, then the segment's row count: run `i`
    /// holds rows `starts[i]..starts[i + 1]`.
    starts: Vec<usize>,
    /// The column reader states at each run's first row, `columns.len()`
    /// per run.
    states: Vec<ColumnState>,
}

/// Verifies and decodes one indexed segment with [`decode_segment_at`],
/// unchanged, and builds its [`KeyDirectory`]. The decoded rows come back
/// too: the directory finds a key by binary search, so it answers for rows
/// in ascending key order only, and the caller checks that order on them.
pub fn index_segment_at<R: ColumnarRecord>(
    bytes: &[u8],
    index: usize,
    info: SegmentInfo,
) -> Result<(Vec<R>, KeyDirectory), StoreError> {
    let rows = decode_segment_at::<R>(bytes, index, info)?;
    let corrupt = |reason: String| StoreError::SegmentCorrupt {
        table: R::TABLE_NAME.to_string(),
        index,
        offset: info.offset,
        reason,
    };
    // The frame passed its check, so its body is in bounds and its
    // columns locate; a failure here is still an error, not a panic.
    let body_at = info.offset as usize + 4;
    let body = bytes
        .get(body_at..body_at + info.len as usize)
        .ok_or_else(|| corrupt("segment extends past end of file".to_string()))?;
    let (_, spans) = column_spans::<R>(body).map_err(|e| corrupt(e.reason))?;

    let (mut keys, mut starts) = (Vec::new(), Vec::new());
    for (i, row) in rows.iter().enumerate() {
        let key = row.key();
        if keys.last() != Some(&key) {
            keys.push(key);
            starts.push(i);
        }
    }
    starts.push(rows.len());
    let width = spans.len();
    let mut states = vec![ColumnState::default(); keys.len() * width];
    for (c, (&kind, span)) in R::COLUMNS.iter().zip(&spans).enumerate() {
        let mut reader = ColumnReader::new(kind, &body[span.clone()]);
        let mut run = 0;
        for row in 0..rows.len() {
            if starts[run] == row {
                states[run * width + c] = ColumnState::of(&reader);
                run += 1;
            }
            let step = match kind {
                ColumnKind::I64 => reader.next_i64().map(drop),
                ColumnKind::Bytes => reader.next_bytes().map(drop),
            };
            step.map_err(|e| corrupt(e.reason))?;
        }
    }
    let columns = R::COLUMNS
        .iter()
        .zip(spans)
        .map(|(&kind, span)| (kind, body_at + span.start..body_at + span.end))
        .collect();
    let table = R::TABLE_ID;
    let dir = KeyDirectory { table, index, offset: info.offset, columns, keys, starts, states };
    Ok((rows, dir))
}

impl KeyDirectory {
    /// The positions of `key`'s rows in the segment; empty when the
    /// segment holds none.
    pub fn rows(&self, key: u32) -> Range<usize> {
        match self.keys.binary_search(&key) {
            Ok(run) => self.starts[run]..self.starts[run + 1],
            Err(_) => 0..0,
        }
    }

    /// Decodes `key`'s rows, and only those, out of `bytes`: the bytes the
    /// directory was built from (see the module docs). No rows when the
    /// segment holds none.
    pub fn decode_key<R: ColumnarRecord>(
        &self,
        bytes: &[u8],
        key: u32,
    ) -> Result<Vec<R>, StoreError> {
        let corrupt = |reason: String| StoreError::SegmentCorrupt {
            table: R::TABLE_NAME.to_string(),
            index: self.index,
            offset: self.offset,
            reason,
        };
        if R::TABLE_ID != self.table {
            let reason = format!("directory of table id {} read as {}", self.table, R::TABLE_ID);
            return Err(corrupt(reason));
        }
        let Ok(run) = self.keys.binary_search(&key) else {
            return Ok(Vec::new());
        };
        let width = self.columns.len();
        let mut readers = Vec::with_capacity(width);
        for ((kind, span), state) in self.columns.iter().zip(&self.states[run * width..]) {
            let buf = bytes
                .get(span.clone())
                .ok_or_else(|| corrupt("column runs past the end of these bytes".to_string()))?;
            readers.push(match kind {
                ColumnKind::I64 => ColumnReader::I64 { prev: state.prev, buf, pos: state.pos },
                ColumnKind::Bytes => ColumnReader::Bytes { buf, pos: state.pos },
            });
        }
        let count = self.starts[run + 1] - self.starts[run];
        let rows = R::decode(&mut readers, count).map_err(|e| corrupt(e.reason))?;
        if let Some(other) = rows.iter().map(R::key).find(|&k| k != key) {
            return Err(corrupt(format!("key {key}'s run decoded a row of key {other}")));
        }
        Ok(rows)
    }
}
