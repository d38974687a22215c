//! Column encodings: how one field of a table is laid out inside a segment.
//!
//! Two physical kinds cover every logical field in the workspace:
//!
//! * [`ColumnKind::I64`] — a sequence of integers stored as **delta +
//!   zigzag + varint**: the first value zigzag-varint coded directly, each
//!   subsequent value as the zigzag-varint of its difference from the
//!   previous one. Sorted probe-id and timestamp columns collapse to ~1
//!   byte per row.
//! * [`ColumnKind::Bytes`] — a sequence of byte strings, each as a varint
//!   length followed by the raw bytes (addresses, tags, names, nested
//!   varint lists).
//!
//! Builders and readers never panic on malformed input: every read is
//! bounds-checked and returns a [`DecodeError`] that the segment layer
//! wraps with the segment's identity.

use crate::varint;
use std::fmt;

/// Error from decoding a column payload (wrapped by the segment layer into
/// a [`crate::StoreError::SegmentCorrupt`] naming the segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub reason: String,
}

impl DecodeError {
    /// A decode error with the given reason.
    pub fn new(reason: impl Into<String>) -> DecodeError {
        DecodeError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Physical encoding of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Delta + zigzag + varint coded integers.
    I64,
    /// Varint-length-prefixed byte strings.
    Bytes,
}

/// Accumulates one column's values during segment encode.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// An integer column; `prev` is the delta base.
    I64 {
        /// Last value pushed (delta base for the next push).
        prev: i64,
        /// Encoded payload so far.
        buf: Vec<u8>,
    },
    /// A byte-string column.
    Bytes {
        /// Encoded payload so far.
        buf: Vec<u8>,
    },
}

impl ColumnBuilder {
    /// An empty builder of the given kind.
    pub fn new(kind: ColumnKind) -> ColumnBuilder {
        match kind {
            ColumnKind::I64 => ColumnBuilder::I64 {
                prev: 0,
                buf: Vec::new(),
            },
            ColumnKind::Bytes => ColumnBuilder::Bytes { buf: Vec::new() },
        }
    }

    /// Appends an integer (panics if the column is a bytes column — a
    /// schema bug in the `ColumnarRecord` impl, not a data error).
    pub fn push_i64(&mut self, v: i64) {
        match self {
            ColumnBuilder::I64 { prev, buf } => {
                varint::write_i64(buf, v.wrapping_sub(*prev));
                *prev = v;
            }
            ColumnBuilder::Bytes { .. } => panic!("push_i64 on a bytes column"),
        }
    }

    /// Appends a byte string (panics if the column is an integer column).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        match self {
            ColumnBuilder::Bytes { buf } => {
                varint::write_u64(buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            }
            ColumnBuilder::I64 { .. } => panic!("push_bytes on an integer column"),
        }
    }

    /// The finished column payload.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            ColumnBuilder::I64 { buf, .. } | ColumnBuilder::Bytes { buf } => buf,
        }
    }
}

/// Streams one column's values back out of a segment payload.
#[derive(Debug)]
pub enum ColumnReader<'a> {
    /// An integer column mid-decode.
    I64 {
        /// Last value decoded (delta base for the next read).
        prev: i64,
        /// The column payload.
        buf: &'a [u8],
        /// Read position within `buf`.
        pos: usize,
    },
    /// A byte-string column mid-decode.
    Bytes {
        /// The column payload.
        buf: &'a [u8],
        /// Read position within `buf`.
        pos: usize,
    },
}

impl<'a> ColumnReader<'a> {
    /// A reader over one column's payload bytes.
    pub fn new(kind: ColumnKind, buf: &'a [u8]) -> ColumnReader<'a> {
        match kind {
            ColumnKind::I64 => ColumnReader::I64 {
                prev: 0,
                buf,
                pos: 0,
            },
            ColumnKind::Bytes => ColumnReader::Bytes { buf, pos: 0 },
        }
    }

    /// Next integer value.
    pub fn next_i64(&mut self) -> Result<i64, DecodeError> {
        match self {
            ColumnReader::I64 { prev, buf, pos } => {
                let delta = varint::read_i64(buf, pos)?;
                *prev = prev.wrapping_add(delta);
                Ok(*prev)
            }
            ColumnReader::Bytes { .. } => Err(DecodeError::new("integer read on bytes column")),
        }
    }

    /// Next byte string.
    pub fn next_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        match self {
            ColumnReader::Bytes { buf, pos } => {
                let len = varint::read_u64(buf, pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= buf.len())
                    .ok_or_else(|| DecodeError::new("byte string runs past column end"))?;
                let out = &buf[*pos..end];
                *pos = end;
                Ok(out)
            }
            ColumnReader::I64 { .. } => Err(DecodeError::new("bytes read on integer column")),
        }
    }

    /// Verifies the whole payload was consumed — trailing garbage in a
    /// column is corruption even when every row decoded.
    pub fn finish(&self) -> Result<(), DecodeError> {
        let (pos, len) = match self {
            ColumnReader::I64 { buf, pos, .. } | ColumnReader::Bytes { buf, pos } => {
                (*pos, buf.len())
            }
        };
        if pos != len {
            return Err(DecodeError::new(format!(
                "column has {} trailing bytes",
                len - pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_column_roundtrips_and_deltas_compress() {
        let values = [100i64, 101, 102, 103, 50, -7, i64::MAX, i64::MIN];
        let mut b = ColumnBuilder::new(ColumnKind::I64);
        for &v in &values {
            b.push_i64(v);
        }
        let bytes = b.into_bytes();
        let mut r = ColumnReader::new(ColumnKind::I64, &bytes);
        for &v in &values {
            assert_eq!(r.next_i64().unwrap(), v);
        }
        r.finish().unwrap();

        // A sorted run costs one byte per element.
        let mut sorted = ColumnBuilder::new(ColumnKind::I64);
        for v in 1_000_000i64..1_000_100 {
            sorted.push_i64(v);
        }
        let sorted_bytes = sorted.into_bytes();
        assert!(
            sorted_bytes.len() <= 104,
            "sorted run should delta-compress"
        );
    }

    #[test]
    fn bytes_column_roundtrips() {
        let rows: [&[u8]; 4] = [b"", b"a", b"\xff\x00\x80\x7f", b"longer row payload"];
        let mut b = ColumnBuilder::new(ColumnKind::Bytes);
        for row in rows {
            b.push_bytes(row);
        }
        let bytes = b.into_bytes();
        let mut r = ColumnReader::new(ColumnKind::Bytes, &bytes);
        for row in rows {
            assert_eq!(r.next_bytes().unwrap(), row);
        }
        r.finish().unwrap();
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        // Byte string length pointing past the end.
        let mut r = ColumnReader::new(ColumnKind::Bytes, &[200, 1, 0]);
        assert!(r.next_bytes().is_err());
        // Truncated varint.
        let mut r = ColumnReader::new(ColumnKind::I64, &[0x80]);
        assert!(r.next_i64().is_err());
        // Trailing garbage.
        let r = ColumnReader::new(ColumnKind::I64, &[0x02]);
        assert!(r.finish().is_err());
        // Kind mismatch is a decode error, not a panic.
        let mut r = ColumnReader::new(ColumnKind::I64, &[0x02]);
        assert!(r.next_bytes().is_err());
    }
}
