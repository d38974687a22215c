//! Whole-file layout: magic, segments, footer index, trailer.
//!
//! ```text
//! file    := MAGIC(8) segment* footer trailer
//! footer  := entry_count(varint) entry* crc32(footer bytes) (u32 LE)
//! entry   := table_id(u8) key_lo key_hi rows offset len   (all varints)
//! trailer := footer_offset(u64 LE) MAGIC_END(8)
//! ```
//!
//! The footer is the random-access index: readers locate it through the
//! fixed-size trailer, verify its checksum, and then know every segment's
//! table, key range, offset, and length — so segments decode independently
//! (and in parallel on `dynaddr-exec`), and a single key's segments can be
//! read without touching the rest of the file. When the footer or trailer
//! is damaged, [`FileReader::open_recover`] falls back to scanning the
//! segment framing from the head of the file and rebuilds the index from
//! the per-segment headers.

use crate::column::DecodeError;
use crate::crc32::crc32;
use crate::record::ColumnarRecord;
use crate::segment::{decode_segment, encode_segment, parse_header};
use crate::varint;
use crate::{DroppedSegment, ReadMode, StoreError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Leading magic bytes identifying a store file (version 1).
pub const MAGIC: [u8; 8] = *b"DYNSTOR1";
/// Trailing magic bytes closing a store file.
const MAGIC_END: [u8; 8] = *b"DYNSTEND";
/// Byte length of the fixed trailer: footer offset + end magic.
const TRAILER_LEN: usize = 8 + 8;

/// Default maximum rows per segment. Small enough that a year of logs
/// yields many segments for the parallel decoder, large enough that the
/// per-segment framing overhead is noise.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// One footer entry: where a segment lives and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Table the segment belongs to.
    pub table: u8,
    /// Smallest key in the segment.
    pub key_lo: u32,
    /// Largest key in the segment.
    pub key_hi: u32,
    /// Rows in the segment.
    pub rows: u64,
    /// Byte offset of the segment's length prefix in the file.
    pub offset: u64,
    /// Body length in bytes (length prefix and checksum excluded).
    pub len: u64,
}

/// Encodes the footer (entry index + CRC) and the fixed trailer for a file
/// whose segments end at `footer_offset`.
fn footer_and_trailer(entries: &[SegmentInfo], footer_offset: u64) -> Vec<u8> {
    let mut footer = Vec::new();
    varint::write_u64(&mut footer, entries.len() as u64);
    for e in entries {
        footer.push(e.table);
        varint::write_u64(&mut footer, u64::from(e.key_lo));
        varint::write_u64(&mut footer, u64::from(e.key_hi));
        varint::write_u64(&mut footer, e.rows);
        varint::write_u64(&mut footer, e.offset);
        varint::write_u64(&mut footer, e.len);
    }
    let crc = crc32(&footer);
    footer.extend_from_slice(&crc.to_le_bytes());
    footer.extend_from_slice(&footer_offset.to_le_bytes());
    footer.extend_from_slice(&MAGIC_END);
    footer
}

/// Writes a store file to any [`Write`] sink: a `Vec<u8>` for bytes in
/// memory, a file on disk, or a [`crate::SegmentSink`]'s spill.
///
/// Segments go out as they are encoded and only the footer index stays in
/// memory. Within a table every segment but the last holds exactly
/// `segment_rows` rows, counted from the table's first row, and rows
/// arrive in ascending key order (see [`ColumnarRecord`]). A table may be
/// written in several [`write_table`](StreamWriter::write_table) calls,
/// as the spill merge does: when every call but the last passes a multiple
/// of `segment_rows` rows, the bytes are those of one call with all rows.
pub struct StreamWriter<W: Write> {
    out: W,
    offset: u64,
    entries: Vec<SegmentInfo>,
    segment_rows: usize,
}

impl<W: Write> StreamWriter<W> {
    /// A writer with the default segment size. Writes the leading magic
    /// immediately.
    pub fn new(out: W) -> Result<StreamWriter<W>, StoreError> {
        StreamWriter::with_segment_rows(out, DEFAULT_SEGMENT_ROWS)
    }

    /// A writer splitting tables into segments of at most `segment_rows`
    /// rows (clamped to at least 1).
    pub fn with_segment_rows(
        mut out: W,
        segment_rows: usize,
    ) -> Result<StreamWriter<W>, StoreError> {
        out.write_all(&MAGIC)
            .map_err(|e| StoreError::io("write magic", e))?;
        Ok(StreamWriter {
            out,
            offset: MAGIC.len() as u64,
            entries: Vec::new(),
            segment_rows: segment_rows.max(1),
        })
    }

    /// The segment row budget this writer chunks tables into.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// Every segment written so far, in file order.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.entries
    }

    /// Appends one whole table of key-sorted rows. Its segments encode in
    /// parallel on the `dynaddr-exec` executor and are written in order,
    /// so the bytes are identical at any worker count. An empty table
    /// writes no segments and decodes back as empty.
    pub fn write_table<R: ColumnarRecord>(&mut self, rows: &[R]) -> Result<(), StoreError> {
        let chunks: Vec<&[R]> = rows.chunks(self.segment_rows).collect();
        let frames = dynaddr_exec::par_map(&chunks, |chunk| encode_segment(chunk));
        for (chunk, frame) in chunks.iter().zip(frames) {
            self.put_frame::<R>(frame, chunk.len())?;
        }
        Ok(())
    }

    /// Writes one encoded frame of `rows` rows and returns the footer
    /// entry that indexes it. The caller owns the chunk discipline:
    /// [`SegmentSink`](crate::SegmentSink) encodes its batches on its
    /// producers' threads and writes the frames here.
    pub(crate) fn put_frame<R: ColumnarRecord>(
        &mut self,
        (frame, key_lo, key_hi): (Vec<u8>, u32, u32),
        rows: usize,
    ) -> Result<SegmentInfo, StoreError> {
        let info = SegmentInfo {
            table: R::TABLE_ID,
            key_lo,
            key_hi,
            rows: rows as u64,
            offset: self.offset,
            // Frame = 4-byte length prefix + body + 4-byte CRC.
            len: (frame.len() - 8) as u64,
        };
        self.entries.push(info);
        self.out
            .write_all(&frame)
            .map_err(|e| StoreError::io(format!("write {} segment", R::TABLE_NAME), e))?;
        self.offset += frame.len() as u64;
        dynaddr_obs::counter_add("store.segments_written", 1);
        dynaddr_obs::counter_add("store.bytes_written", frame.len() as u64);
        dynaddr_obs::hist_record("store.segment_bytes", frame.len() as u64);
        Ok(info)
    }

    /// Writes the footer and trailer, flushes, and returns the sink.
    pub fn finish(mut self) -> Result<W, StoreError> {
        self.out
            .write_all(&footer_and_trailer(&self.entries, self.offset))
            .map_err(|e| StoreError::io("write footer", e))?;
        self.out.flush().map_err(|e| StoreError::io("flush", e))?;
        Ok(self.out)
    }
}

/// Reads tables out of a store file's bytes.
pub struct FileReader<'a> {
    bytes: &'a [u8],
    entries: Vec<SegmentInfo>,
    /// Whether the index was rebuilt by scanning (recover mode only).
    pub footer_rebuilt: bool,
}

impl<'a> FileReader<'a> {
    /// Opens a file strictly: any damage to the magic, trailer, or footer
    /// is an error.
    pub fn open(bytes: &'a [u8]) -> Result<FileReader<'a>, StoreError> {
        check_magic(bytes)?;
        let entries = parse_footer(bytes)?;
        Ok(FileReader {
            bytes,
            entries,
            footer_rebuilt: false,
        })
    }

    /// Opens a file for recovery. The leading magic must still match —
    /// without it the bytes cannot be trusted to be a store file at all —
    /// but a damaged footer or trailer is repaired by scanning the segment
    /// framing, with notes describing what happened.
    pub fn open_recover(bytes: &'a [u8]) -> Result<(FileReader<'a>, Vec<String>), StoreError> {
        check_magic(bytes)?;
        match parse_footer(bytes) {
            Ok(entries) => Ok((
                FileReader {
                    bytes,
                    entries,
                    footer_rebuilt: false,
                },
                Vec::new(),
            )),
            Err(err) => {
                let (entries, mut notes) = scan_segments(bytes);
                notes.insert(
                    0,
                    format!(
                        "footer unreadable ({err}); index rebuilt by scanning: \
                         {} segments recovered",
                        entries.len()
                    ),
                );
                Ok((
                    FileReader {
                        bytes,
                        entries,
                        footer_rebuilt: true,
                    },
                    notes,
                ))
            }
        }
    }

    /// Every indexed segment, in file order.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.entries
    }

    /// Rows the index records for one table.
    pub fn table_rows(&self, table: u8) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.table == table)
            .map(|e| e.rows)
            .sum()
    }

    /// Decodes every segment of table `R`, in parallel, reassembling rows
    /// in file order. In [`ReadMode::Strict`] the first damaged segment is
    /// an error; in [`ReadMode::Recover`] damaged segments are skipped and
    /// returned as [`DroppedSegment`]s.
    pub fn decode_table<R: ColumnarRecord>(
        &self,
        mode: ReadMode,
    ) -> Result<(Vec<R>, Vec<DroppedSegment>), StoreError> {
        let segs: Vec<(usize, SegmentInfo)> = self
            .entries
            .iter()
            .filter(|e| e.table == R::TABLE_ID)
            .copied()
            .enumerate()
            .collect();
        let decoded: Vec<Result<Vec<R>, StoreError>> =
            dynaddr_exec::par_map(&segs, |&(i, info)| decode_segment_at(self.bytes, i, info));
        dynaddr_obs::counter_add("store.segments_read", segs.len() as u64);
        dynaddr_obs::counter_add(
            "store.bytes_read",
            segs.iter().map(|&(_, info)| info.len + 8).sum(),
        );
        let mut rows = Vec::new();
        let mut dropped = Vec::new();
        for (result, &(index, info)) in decoded.into_iter().zip(&segs) {
            match result {
                Ok(mut seg_rows) => rows.append(&mut seg_rows),
                Err(err) => match mode {
                    ReadMode::Strict => return Err(err),
                    ReadMode::Recover => {
                        dynaddr_obs::counter_add("store.recover_dropped_segments", 1);
                        dropped.push(DroppedSegment {
                            table: R::TABLE_NAME.to_string(),
                            index,
                            offset: info.offset,
                            rows: info.rows,
                            reason: err.to_string(),
                        })
                    }
                },
            }
        }
        Ok((rows, dropped))
    }
}

/// Verifies and decodes one indexed segment out of store-file bytes: the
/// inline length prefix, the CRC, the decoded row count and the rows' key
/// span must all agree with the footer entry, and any failure is a
/// [`StoreError::SegmentCorrupt`] naming the segment. This is the building
/// block callers with their own parsed footer use to read segments
/// without re-opening a [`FileReader`]; [`crate::index_segment_at`]
/// builds on it.
pub fn decode_segment_at<R: ColumnarRecord>(
    bytes: &[u8],
    index: usize,
    info: SegmentInfo,
) -> Result<Vec<R>, StoreError> {
    let start = info.offset as usize;
    let frame = (info.len as usize)
        .checked_add(8)
        .and_then(|n| bytes.get(start..start.checked_add(n)?));
    decode_frame(frame, index, info)
}

/// The one check of a segment frame (`len | body | crc`) against its
/// footer entry, shared by every reader. `frame` is the entry's
/// `len + 8` bytes at its offset, or `None` when the file ends first. The
/// length prefix must equal the entry's length, the body must match its
/// CRC and decode as table `R`, and the rows must number the entry's
/// count and span exactly its `key_lo..=key_hi`: readers that find or
/// skip segments by span (`DatasetStream`, the query engine) and readers
/// that keep every row (`load_dir`) must see the same file. Rows in order
/// settle the span from their ends; rows out of order pay for a scan and,
/// if their span holds, reach the callers' probe-order checks.
pub(crate) fn decode_frame<R: ColumnarRecord>(
    frame: Option<&[u8]>,
    index: usize,
    info: SegmentInfo,
) -> Result<Vec<R>, StoreError> {
    let corrupt = |reason: String| StoreError::SegmentCorrupt {
        table: R::TABLE_NAME.to_string(),
        index,
        offset: info.offset,
        reason,
    };
    let Some(frame) = frame else {
        return Err(corrupt("segment extends past end of file".to_string()));
    };
    let (prefix, rest) = frame.split_at(4);
    let (body, crc) = rest.split_at(rest.len() - 4);
    let inline_len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
    if u64::from(inline_len) != info.len {
        return Err(corrupt(format!(
            "length prefix {inline_len} disagrees with index length {}",
            info.len
        )));
    }
    if crc32(body) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    let rows = decode_segment::<R>(body).map_err(|e: DecodeError| corrupt(e.reason))?;
    if rows.len() as u64 != info.rows {
        return Err(corrupt(format!(
            "decoded {} rows where the index records {}",
            rows.len(),
            info.rows
        )));
    }
    let span = (info.key_lo, info.key_hi);
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        if (first.key(), last.key()) != span {
            let (lo, hi) = rows
                .iter()
                .map(R::key)
                .fold((u32::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)));
            if (lo, hi) != span {
                return Err(corrupt(format!(
                    "rows span keys {lo}..={hi} where the index records {}..={}",
                    info.key_lo, info.key_hi
                )));
            }
        }
    }
    Ok(rows)
}

/// Reads a store file directly from disk, one segment at a time.
///
/// Where [`FileReader`] needs the whole file in memory, this reader holds
/// only the footer index and seeks to each segment on demand — the
/// out-of-core side of [`StreamWriter`]. Every segment passes the same
/// frame check as [`FileReader`]'s.
pub struct SegmentFileReader {
    file: std::fs::File,
    entries: Vec<SegmentInfo>,
}

impl SegmentFileReader {
    /// Opens a store file strictly, reading only the magic, trailer, and
    /// footer (the segments stay on disk).
    pub fn open(path: &Path) -> Result<SegmentFileReader, StoreError> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| StoreError::io(format!("open {}", path.display()), e))?;
        let io = |context: &str| {
            let context = context.to_string();
            move |e: std::io::Error| StoreError::io(context, e)
        };
        let n = file.seek(SeekFrom::End(0)).map_err(io("seek to end"))? as usize;
        if n < MAGIC.len() + 5 + TRAILER_LEN {
            return Err(StoreError::TooShort { len: n });
        }
        let mut magic = [0u8; 8];
        file.seek(SeekFrom::Start(0)).map_err(io("seek to magic"))?;
        file.read_exact(&mut magic).map_err(io("read magic"))?;
        check_magic(&magic)?;
        let mut trailer = [0u8; TRAILER_LEN];
        file.seek(SeekFrom::Start((n - TRAILER_LEN) as u64))
            .map_err(io("seek to trailer"))?;
        file.read_exact(&mut trailer).map_err(io("read trailer"))?;
        let footer_offset = parse_trailer(&trailer, n)?;
        let mut region = vec![0u8; n - TRAILER_LEN - footer_offset];
        file.seek(SeekFrom::Start(footer_offset as u64))
            .map_err(io("seek to footer"))?;
        file.read_exact(&mut region).map_err(io("read footer"))?;
        let entries = parse_footer_region(&region, footer_offset as u64)?;
        Ok(SegmentFileReader { file, entries })
    }

    /// Every indexed segment, in file order.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.entries
    }

    /// Rows the index records for one table.
    pub fn table_rows(&self, table: u8) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.table == table)
            .map(|e| e.rows)
            .sum()
    }

    /// Reads and decodes one segment (identified by its index entry and
    /// its ordinal within table `R`, for error naming), with the same
    /// checks as [`decode_segment_at`].
    pub fn read_segment<R: ColumnarRecord>(
        &mut self,
        index: usize,
        info: SegmentInfo,
    ) -> Result<Vec<R>, StoreError> {
        let frame = self.read_frame(info);
        decode_frame(frame.as_deref(), index, info)
    }

    /// Reads one segment's raw frame (`len + 8` bytes at its offset)
    /// unchecked, or `None` when the file ends first; [`decode_frame`]
    /// checks and decodes it. The spill merge reads a window of frames
    /// here and decodes them in parallel.
    pub(crate) fn read_frame(&mut self, info: SegmentInfo) -> Option<Vec<u8>> {
        let mut frame = vec![0u8; info.len as usize + 8];
        self.file
            .seek(SeekFrom::Start(info.offset))
            .and_then(|_| self.file.read_exact(&mut frame))
            .ok()?;
        dynaddr_obs::counter_add("store.segments_read", 1);
        dynaddr_obs::counter_add("store.bytes_read", frame.len() as u64);
        Some(frame)
    }
}

fn check_magic(bytes: &[u8]) -> Result<(), StoreError> {
    if bytes.len() < MAGIC.len() {
        return Err(StoreError::TooShort { len: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic {
            found: bytes[..MAGIC.len()].to_vec(),
        });
    }
    Ok(())
}

/// Locates and parses the footer through the trailer, verifying its
/// checksum and bounds-checking every entry.
fn parse_footer(bytes: &[u8]) -> Result<Vec<SegmentInfo>, StoreError> {
    let n = bytes.len();
    // Minimum: magic + empty footer (1-byte count + 4-byte CRC) + trailer.
    if n < MAGIC.len() + 5 + TRAILER_LEN {
        return Err(StoreError::TooShort { len: n });
    }
    if bytes[n - 8..] != MAGIC_END {
        return Err(StoreError::BadTrailer {
            reason: "end marker missing".to_string(),
        });
    }
    let footer_offset = parse_trailer(&bytes[n - TRAILER_LEN..], n)?;
    let region = &bytes[footer_offset..n - TRAILER_LEN];
    parse_footer_region(region, footer_offset as u64)
}

/// Validates the 16-byte trailer against a file of `n` bytes and returns
/// the footer offset it points at.
fn parse_trailer(trailer: &[u8], n: usize) -> Result<usize, StoreError> {
    if trailer[8..] != MAGIC_END {
        return Err(StoreError::BadTrailer {
            reason: "end marker missing".to_string(),
        });
    }
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes")) as usize;
    if footer_offset < MAGIC.len() || footer_offset + 5 > n - TRAILER_LEN {
        return Err(StoreError::BadTrailer {
            reason: format!("footer offset {footer_offset} out of bounds"),
        });
    }
    Ok(footer_offset)
}

/// Parses the footer region (entry index + CRC, trailer excluded) located
/// at `footer_offset`, verifying its checksum and bounds-checking every
/// entry against the segment area `[MAGIC.len(), footer_offset)`.
fn parse_footer_region(region: &[u8], footer_offset: u64) -> Result<Vec<SegmentInfo>, StoreError> {
    let (footer, crc_bytes) = region.split_at(region.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(footer) != stored_crc {
        return Err(StoreError::BadFooter {
            reason: "checksum mismatch".to_string(),
        });
    }

    let bad = |reason: String| StoreError::BadFooter { reason };
    let mut pos = 0usize;
    let count = varint::read_u64(footer, &mut pos).map_err(|e| bad(e.reason))?;
    // Each entry is at least 6 bytes; reject counts the footer cannot hold.
    if count > (footer.len() as u64) {
        return Err(bad(format!("implausible segment count {count}")));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for i in 0..count {
        let entry = || -> Result<SegmentInfo, DecodeError> {
            let table = *footer
                .get(pos)
                .ok_or_else(|| DecodeError::new("footer truncated"))?;
            pos += 1;
            let key_lo = varint::read_u64(footer, &mut pos)?;
            let key_hi = varint::read_u64(footer, &mut pos)?;
            let rows = varint::read_u64(footer, &mut pos)?;
            let offset = varint::read_u64(footer, &mut pos)?;
            let len = varint::read_u64(footer, &mut pos)?;
            Ok(SegmentInfo {
                table,
                key_lo: u32::try_from(key_lo)
                    .map_err(|_| DecodeError::new("key_lo exceeds u32"))?,
                key_hi: u32::try_from(key_hi)
                    .map_err(|_| DecodeError::new("key_hi exceeds u32"))?,
                rows,
                offset,
                len,
            })
        }()
        .map_err(|e| bad(format!("entry {i}: {}", e.reason)))?;
        let seg_end = entry
            .offset
            .checked_add(entry.len)
            .and_then(|v| v.checked_add(8));
        match seg_end {
            Some(end) if entry.offset >= MAGIC.len() as u64 && end <= footer_offset => {}
            _ => {
                return Err(bad(format!(
                    "entry {i}: segment at offset {} (len {}) out of bounds",
                    entry.offset, entry.len
                )))
            }
        }
        entries.push(entry);
    }
    if pos != footer.len() {
        return Err(bad(format!("{} trailing bytes", footer.len() - pos)));
    }
    Ok(entries)
}

/// Rebuilds the segment index by walking the framing from the head of the
/// file: length prefix, checksummed body, repeat. Stops at the first
/// position that does not frame a valid segment (in an intact file that is
/// the footer itself). Returns the recovered entries plus notes about
/// where and why the scan stopped.
fn scan_segments(bytes: &[u8]) -> (Vec<SegmentInfo>, Vec<String>) {
    let mut entries = Vec::new();
    let mut notes = Vec::new();
    let mut pos = MAGIC.len();
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let body_start = pos + 4;
        let Some(body_end) = body_start
            .checked_add(len)
            .filter(|&e| e + 4 <= bytes.len())
        else {
            notes.push(format!(
                "scan stopped at offset {pos}: frame length {len} runs past end of file"
            ));
            break;
        };
        let body = &bytes[body_start..body_end];
        let stored_crc =
            u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().expect("4 bytes"));
        if crc32(body) != stored_crc {
            // Either the footer region (expected end of the scan) or a
            // segment too damaged to re-frame; everything beyond it is
            // unreachable without the footer.
            notes.push(format!(
                "scan stopped at offset {pos}: bytes do not frame a valid segment \
                 (footer region or corruption); {} bytes not indexed",
                bytes.len() - pos
            ));
            break;
        }
        match parse_header(body) {
            Ok(h) => entries.push(SegmentInfo {
                table: h.table,
                key_lo: h.key_lo,
                key_hi: h.key_hi,
                rows: h.rows,
                offset: pos as u64,
                len: len as u64,
            }),
            Err(e) => {
                notes.push(format!(
                    "scan stopped at offset {pos}: checksummed region is not a segment \
                     ({})",
                    e.reason
                ));
                break;
            }
        }
        pos = body_end + 4;
    }
    (entries, notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnBuilder, ColumnKind, ColumnReader};

    /// Minimal two-column row for exercising the file machinery.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Row {
        key: u32,
        value: i64,
    }

    impl ColumnarRecord for Row {
        const TABLE_ID: u8 = 7;
        const TABLE_NAME: &'static str = "rows";
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
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                let key = cols[0].next_i64()?;
                let key = u32::try_from(key)
                    .map_err(|_| DecodeError::new(format!("key {key} exceeds u32")))?;
                let value = cols[1].next_i64()?;
                out.push(Row { key, value });
            }
            Ok(out)
        }
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row {
                key: (i / 3) as u32,
                value: i as i64 * 17 - 40,
            })
            .collect()
    }

    fn sample_file(n: usize, segment_rows: usize) -> Vec<u8> {
        let mut w = StreamWriter::with_segment_rows(Vec::new(), segment_rows).unwrap();
        w.write_table(&sample_rows(n)).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_single_and_multi_segment() {
        for (n, seg) in [(0usize, 4), (1, 4), (10, 4), (100, 7), (100, 4096)] {
            let bytes = sample_file(n, seg);
            let reader = FileReader::open(&bytes).unwrap();
            let (rows, dropped) = reader.decode_table::<Row>(ReadMode::Strict).unwrap();
            assert!(dropped.is_empty());
            assert_eq!(rows, sample_rows(n), "n={n} seg={seg}");
            assert_eq!(reader.table_rows(Row::TABLE_ID), n as u64);
        }
    }

    #[test]
    fn encode_is_thread_count_invariant() {
        dynaddr_exec::set_threads(Some(1));
        let one = sample_file(1000, 64);
        for threads in [2, 8] {
            dynaddr_exec::set_threads(Some(threads));
            assert_eq!(one, sample_file(1000, 64), "threads={threads}");
        }
        dynaddr_exec::set_threads(None);
    }

    #[test]
    fn every_single_bit_flip_is_detected_strictly() {
        let clean = sample_file(40, 8);
        let mut bytes = clean.clone();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let outcome = FileReader::open(&bytes)
                .and_then(|r| r.decode_table::<Row>(ReadMode::Strict).map(|_| ()));
            assert!(outcome.is_err(), "bit flip {bit} went undetected");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(bytes, clean);
    }

    #[test]
    fn recover_skips_corrupt_segment_and_reports_it() {
        let mut bytes = sample_file(40, 8);
        let reader = FileReader::open(&bytes).unwrap();
        let victim = reader.segments()[2];
        drop(reader);
        // Flip a byte inside the victim's column payload.
        bytes[victim.offset as usize + 10] ^= 0x40;

        let err = FileReader::open(&bytes)
            .and_then(|r| r.decode_table::<Row>(ReadMode::Strict).map(|_| ()))
            .unwrap_err();
        match &err {
            StoreError::SegmentCorrupt {
                table,
                index,
                offset,
                ..
            } => {
                assert_eq!(table, "rows");
                assert_eq!(*index, 2);
                assert_eq!(*offset, victim.offset);
            }
            other => panic!("expected SegmentCorrupt, got {other:?}"),
        }

        let (reader, notes) = FileReader::open_recover(&bytes).unwrap();
        assert!(notes.is_empty(), "footer is intact");
        let (rows, dropped) = reader.decode_table::<Row>(ReadMode::Recover).unwrap();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].index, 2);
        assert_eq!(dropped[0].rows, victim.rows);
        let all = sample_rows(40);
        let want: Vec<Row> = all[..16].iter().chain(&all[24..]).cloned().collect();
        assert_eq!(rows, want, "all other segments survive");
    }

    #[test]
    fn recover_rebuilds_index_when_footer_is_damaged() {
        let mut bytes = sample_file(40, 8);
        // Smash the trailer's footer offset.
        let n = bytes.len();
        bytes[n - 12] ^= 0xff;
        assert!(matches!(
            FileReader::open(&bytes),
            Err(StoreError::BadTrailer { .. })
        ));

        let (reader, notes) = FileReader::open_recover(&bytes).unwrap();
        assert!(reader.footer_rebuilt);
        assert!(!notes.is_empty());
        let (rows, dropped) = reader.decode_table::<Row>(ReadMode::Recover).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(rows, sample_rows(40), "scan recovers every segment");
    }

    #[test]
    fn bad_magic_is_typed_in_both_modes() {
        let mut bytes = sample_file(4, 8);
        bytes[0] ^= 1;
        assert!(matches!(
            FileReader::open(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            FileReader::open_recover(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            FileReader::open(&[]),
            Err(StoreError::TooShort { .. })
        ));
    }
}
