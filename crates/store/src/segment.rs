//! Segment framing: one checksummed, self-describing run of rows.
//!
//! On the wire a segment is
//!
//! ```text
//! len(u32 LE) | body | crc32(body) (u32 LE)
//! body := table_id(u8) key_lo(varint) key_hi(varint)
//!         row_count(varint) col_count(varint)
//!         { col_len(varint) col_payload }*
//! ```
//!
//! The CRC covers the entire body, so a bit flip anywhere in the header
//! fields or any column payload is detected before decoding starts. The
//! length prefix is redundant with the footer entry (readers cross-check
//! the two), and lets a recover-mode scan re-frame the file when the
//! footer itself is lost.

use crate::column::{ColumnBuilder, ColumnReader, DecodeError};
use crate::crc32::crc32;
use crate::record::ColumnarRecord;
use crate::varint;
use std::ops::Range;

/// Parsed segment body header (everything before the column payloads).
pub(crate) struct SegmentHeader {
    pub table: u8,
    pub key_lo: u32,
    pub key_hi: u32,
    pub rows: u64,
    /// Byte position just after the header, where column payloads start.
    pub payload_at: usize,
    pub cols: u64,
}

/// Encodes one run of rows as a framed segment (`len | body | crc`),
/// returning the frame and the key range it covers. `rows` must be
/// non-empty — empty tables simply have no segments.
pub(crate) fn encode_segment<R: ColumnarRecord>(rows: &[R]) -> (Vec<u8>, u32, u32) {
    debug_assert!(!rows.is_empty(), "empty segments are never written");
    let mut cols: Vec<ColumnBuilder> =
        R::COLUMNS.iter().map(|&kind| ColumnBuilder::new(kind)).collect();
    R::encode(rows, &mut cols);

    let (mut key_lo, mut key_hi) = (u32::MAX, 0u32);
    for r in rows {
        key_lo = key_lo.min(r.key());
        key_hi = key_hi.max(r.key());
    }

    let mut body = Vec::new();
    body.push(R::TABLE_ID);
    varint::write_u64(&mut body, u64::from(key_lo));
    varint::write_u64(&mut body, u64::from(key_hi));
    varint::write_u64(&mut body, rows.len() as u64);
    varint::write_u64(&mut body, cols.len() as u64);
    for col in cols {
        let payload = col.into_bytes();
        varint::write_u64(&mut body, payload.len() as u64);
        body.extend_from_slice(&payload);
    }

    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    (frame, key_lo, key_hi)
}

/// Parses just the body header — enough for a recover-mode scan to rebuild
/// a footer entry without decoding the columns.
pub(crate) fn parse_header(body: &[u8]) -> Result<SegmentHeader, DecodeError> {
    let mut pos = 0usize;
    let table = *body.first().ok_or_else(|| DecodeError::new("empty segment body"))?;
    pos += 1;
    let key_lo = read_u32(body, &mut pos, "key_lo")?;
    let key_hi = read_u32(body, &mut pos, "key_hi")?;
    let rows = varint::read_u64(body, &mut pos)?;
    // Every row costs at least one byte per column, so a row count larger
    // than the body is unconditionally corrupt — reject it before it can
    // size an allocation.
    if rows > body.len() as u64 {
        return Err(DecodeError::new(format!("implausible row count {rows}")));
    }
    let cols = varint::read_u64(body, &mut pos)?;
    Ok(SegmentHeader { table, key_lo, key_hi, rows, payload_at: pos, cols })
}

fn read_u32(body: &[u8], pos: &mut usize, what: &str) -> Result<u32, DecodeError> {
    let v = varint::read_u64(body, pos)?;
    u32::try_from(v).map_err(|_| DecodeError::new(format!("{what} {v} exceeds u32")))
}

/// Checks a segment body's header against `R`'s table id and column
/// schema and locates its column payloads. Returns the header's row count
/// and each column's byte range within `body`, in schema order.
pub(crate) fn column_spans<R: ColumnarRecord>(
    body: &[u8],
) -> Result<(u64, Vec<Range<usize>>), DecodeError> {
    let header = parse_header(body)?;
    if header.table != R::TABLE_ID {
        return Err(DecodeError::new(format!(
            "table id {} where {} ({}) was expected",
            header.table,
            R::TABLE_ID,
            R::TABLE_NAME
        )));
    }
    if header.cols != R::COLUMNS.len() as u64 {
        return Err(DecodeError::new(format!(
            "{} columns where the {} schema has {}",
            header.cols,
            R::TABLE_NAME,
            R::COLUMNS.len()
        )));
    }
    let mut pos = header.payload_at;
    let mut spans = Vec::with_capacity(R::COLUMNS.len());
    for _ in R::COLUMNS {
        let len = varint::read_u64(body, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| DecodeError::new("column payload runs past segment end"))?;
        spans.push(pos..end);
        pos = end;
    }
    if pos != body.len() {
        return Err(DecodeError::new(format!(
            "segment has {} trailing bytes",
            body.len() - pos
        )));
    }
    Ok((header.rows, spans))
}

/// Decodes a segment body (CRC already verified by the caller) into typed
/// rows, checking the table id and column schema against `R`.
pub(crate) fn decode_segment<R: ColumnarRecord>(body: &[u8]) -> Result<Vec<R>, DecodeError> {
    let (rows, spans) = column_spans::<R>(body)?;
    let mut readers: Vec<ColumnReader<'_>> = R::COLUMNS
        .iter()
        .zip(spans)
        .map(|(&kind, span)| ColumnReader::new(kind, &body[span]))
        .collect();
    let rows = R::decode(&mut readers, rows as usize)?;
    for r in &readers {
        r.finish()?;
    }
    Ok(rows)
}
