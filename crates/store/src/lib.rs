//! # dynaddr-store
//!
//! A binary, segmented, columnar on-disk format for the project's datasets:
//! the one file format between the simulator, the analyzer and the
//! servers.
//!
//! A store file is a sequence of independent **segments**, each covering a
//! contiguous run of rows of one table. Within a segment every column is
//! encoded on its own — integers as delta + zigzag + LEB128 varints, byte
//! strings length-prefixed — and the whole segment body is covered by a
//! CRC32 checksum behind a length-prefixed header. A **footer** indexes
//! every segment (table, key range, row count, offset), so readers can
//! decode segments in parallel on the `dynaddr-exec` executor and can
//! random-access a single key (probe) without scanning the file.
//!
//! Robustness is part of the contract:
//!
//! * any flipped bit surfaces as a typed [`StoreError`] naming the segment
//!   it hit — never a panic, never silently wrong data;
//! * a segment whose rows do not span exactly the key range its footer
//!   entry records is corrupt too, so readers that find segments by span
//!   and readers that keep every row see the same file;
//! * [`ReadMode::Recover`] skips corrupt segments (and rebuilds the index by
//!   scanning when the footer itself is damaged), reporting exactly what was
//!   dropped via [`DroppedSegment`]s and recovery notes.
//!
//! The crate is generic over row types: anything implementing
//! [`ColumnarRecord`] (see `dynaddr-atlas` for the Atlas log and
//! ground-truth tables). One writer, [`StreamWriter`], writes every file
//! into any `Write` sink: bytes in memory, a file on disk, or the spill of
//! a [`SegmentSink`]. Its [`StreamWriter::write_table`] encodes a table's
//! segments in parallel. [`FileReader`] reads a file from memory and
//! [`SegmentFileReader`] one segment at a time from disk; both, and the
//! spill merge, check every segment frame in one place: length prefix,
//! CRC, row count and key span against the footer entry.
//! [`index_segment_at`] also builds a segment's [`KeyDirectory`], so a
//! reader can then decode one key's rows without the rest. Encode and
//! decode are deterministic: the bytes and the decoded rows are identical
//! at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod crc32;
pub mod directory;
pub mod file;
pub mod record;
mod segment;
pub mod sink;
pub mod varint;

pub use column::{ColumnBuilder, ColumnKind, ColumnReader, DecodeError};
pub use directory::{index_segment_at, KeyDirectory};
pub use file::{
    decode_segment_at, FileReader, SegmentFileReader, SegmentInfo, StreamWriter,
    DEFAULT_SEGMENT_ROWS, MAGIC,
};
pub use record::ColumnarRecord;
pub use sink::{RunMerger, SegmentSink};

use std::fmt;

/// How a reader treats damaged data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Any corruption is an error naming the damaged region.
    Strict,
    /// Corrupt segments are skipped and reported; a damaged footer is
    /// rebuilt by scanning the segment framing from the head of the file.
    Recover,
}

/// A segment skipped by a [`ReadMode::Recover`] read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedSegment {
    /// Table the segment belonged to.
    pub table: String,
    /// Segment ordinal within that table (0-based).
    pub index: usize,
    /// Byte offset of the segment's length prefix in the file.
    pub offset: u64,
    /// Rows lost with the segment (from the index entry).
    pub rows: u64,
    /// Why the segment was unreadable.
    pub reason: String,
}

impl fmt::Display for DroppedSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} segment {} at offset {} ({} rows): {}",
            self.table, self.index, self.offset, self.rows, self.reason
        )
    }
}

/// What a [`ReadMode::Recover`] read had to leave behind.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// File-level notes (e.g. "footer rebuilt by scanning").
    pub notes: Vec<String>,
    /// Segments skipped because their checksum or structure was damaged.
    pub dropped: Vec<DroppedSegment>,
}

impl RecoveryReport {
    /// Total rows lost across all dropped segments.
    pub fn rows_dropped(&self) -> u64 {
        self.dropped.iter().map(|d| d.rows).sum()
    }

    /// Whether the read recovered everything (nothing dropped, no notes).
    pub fn is_clean(&self) -> bool {
        self.notes.is_empty() && self.dropped.is_empty()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "recovered cleanly");
        }
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        for d in &self.dropped {
            writeln!(f, "{d}")?;
        }
        write!(f, "{} segments dropped, {} rows lost", self.dropped.len(), self.rows_dropped())
    }
}

/// Typed error for every way a store file can be unreadable.
#[derive(Debug)]
pub enum StoreError {
    /// The file is too short to be a store file at all.
    TooShort {
        /// Observed file length in bytes.
        len: usize,
    },
    /// The leading magic bytes are not a store header.
    BadMagic {
        /// The bytes found where the magic was expected.
        found: Vec<u8>,
    },
    /// The fixed-size trailer (footer offset + end marker) is damaged.
    BadTrailer {
        /// What was wrong with it.
        reason: String,
    },
    /// The footer index failed its checksum or does not parse.
    BadFooter {
        /// What was wrong with it.
        reason: String,
    },
    /// One segment is damaged: checksum mismatch, framing disagreement
    /// with the footer, or a column payload that does not decode.
    SegmentCorrupt {
        /// Table the segment belongs to.
        table: String,
        /// Segment ordinal within that table (0-based).
        index: usize,
        /// Byte offset of the segment's length prefix in the file.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A table's rows are out of key order: a key repeats in a table that
    /// holds one row per key, or a key is lower than the one before it.
    OutOfOrder {
        /// The table.
        table: String,
        /// The offending row's key (the probe id).
        key: u32,
        /// The key of the row before it in the file.
        prev: u32,
    },
    /// An underlying file operation failed (streamed writers and the
    /// file-backed reader only; in-memory paths never produce this).
    Io {
        /// What the store was doing when the operation failed.
        context: String,
        /// The failing operation's error.
        source: std::io::Error,
    },
}

impl StoreError {
    /// Wraps an I/O failure with what the store was doing at the time.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> StoreError {
        StoreError::Io { context: context.into(), source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TooShort { len } => {
                write!(f, "store file too short ({len} bytes)")
            }
            StoreError::BadMagic { found } => {
                write!(f, "not a store file: bad magic {found:?}")
            }
            StoreError::BadTrailer { reason } => write!(f, "bad store trailer: {reason}"),
            StoreError::BadFooter { reason } => write!(f, "bad store footer: {reason}"),
            StoreError::SegmentCorrupt { table, index, offset, reason } => write!(
                f,
                "corrupt {table} segment {index} at offset {offset}: {reason}"
            ),
            StoreError::OutOfOrder { table, key, prev } => write!(
                f,
                "{table} rows out of probe order: probe {key} after probe {prev}"
            ),
            StoreError::Io { context, source } => write!(f, "store i/o: {context}: {source}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
