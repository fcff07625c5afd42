//! The binary columnar backend.
//!
//! On-disk layout (all integers varint-encoded except the fixed-width
//! trailer; signed values zigzag-folded first):
//!
//! ```text
//! [magic "MSTORE1\n" : 8 bytes]
//! [row group]*
//!     varint row_count
//!     8 column blocks (time, rack, dc_temp_f, dc_rh, flow_gpm,
//!                      inlet_f, outlet_f, power_kw), each:
//!         varint payload_len
//!         varint zigzag(min), varint zigzag(max)      -- zone map
//!         payload: delta + zigzag + varint stream
//! [footer]
//!     magic "FTR1"
//!     varint group_count
//!     per group: varint offset, varint byte_len, varint rows,
//!                zigzag(t_min), zigzag(t_max),
//!                6 x (zigzag(min), zigzag(max))       -- time index
//!     varint csv_bytes                 -- equivalent-CSV accounting
//!     varint ras_count
//!     4 RAS column blocks (time, rack, kind, severity), each:
//!         varint payload_len + delta stream
//! [trailer]
//!     u64 LE footer_len, magic "MSTOREND"             -- 16 bytes
//! ```
//!
//! A reader seeks to the trailer, loads the footer, and prunes row
//! groups against the query span via the time index before touching
//! any data bytes; within a touched group, only the column blocks the
//! projection asks for are decoded. Appending truncates the footer,
//! appends new groups, and rewrites it — version bumps change the
//! leading magic, so every reader fails closed on formats it does not
//! speak.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mira_facility::RackId;
use mira_ras::{FailureKind, RasEvent, Severity};
use mira_timeseries::SimTime;
use mira_units::convert;

use crate::codec::{
    decode_deltas, encode_deltas, read_varint, write_varint, zigzag_decode, zigzag_encode,
};
use crate::error::StoreError;
use crate::record::{ras_csv_len, Channel, Projection, TelemetryRecord, TELEMETRY_HEADER};
use crate::{Archive, ArchiveStat, ScanStats};

const MAGIC: &[u8; 8] = b"MSTORE1\n";
const FOOTER_MAGIC: &[u8; 4] = b"FTR1";
const TRAILER_MAGIC: &[u8; 8] = b"MSTOREND";
const TRAILER_LEN: u64 = 16;

/// Rows per row group unless overridden; small enough that a narrow
/// span touches few bytes, large enough that varint deltas amortize.
pub const DEFAULT_GROUP_ROWS: usize = 4096;

/// Footer metadata for one row group: where it lives and what the
/// zone maps admit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupMeta {
    offset: u64,
    len: u64,
    rows: u64,
    t_min: i64,
    t_max: i64,
    zones: [(i64, i64); 6],
}

/// The columnar file-backed archive.
///
/// Appends buffer in memory and flush as full row groups; the footer
/// is (re)written by [`Archive::flush`], any scan, or drop, so the
/// file on disk is always either the previous consistent state or the
/// new one.
#[derive(Debug)]
pub struct ColumnarArchive {
    path: PathBuf,
    file: File,
    groups: Vec<GroupMeta>,
    ras: Vec<RasEvent>,
    pending: Vec<TelemetryRecord>,
    group_rows: usize,
    csv_bytes: u64,
    data_end: u64,
    synced: bool,
    scratch: Scratch,
}

/// Buffers every row group is encoded or decoded through, kept for
/// the archive's lifetime so appends and scans allocate only while
/// the buffers grow.
#[derive(Debug, Default)]
struct Scratch {
    /// One encoded row group.
    group: Vec<u8>,
    /// One column's delta stream, while encoding.
    payload: Vec<u8>,
    /// The group's column values, [`Channel::ALL`] order.
    columns: [Vec<i64>; 8],
}

impl ColumnarArchive {
    /// Creates (or truncates) a columnar store at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be created or written.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        let mut store = ColumnarArchive {
            path: path.to_path_buf(),
            file,
            groups: Vec::new(),
            ras: Vec::new(),
            pending: Vec::new(),
            group_rows: DEFAULT_GROUP_ROWS,
            csv_bytes: header_bytes(),
            data_end: u64_len(MAGIC.len()),
            synced: false,
            scratch: Scratch::default(),
        };
        store.write_footer()?;
        Ok(store)
    }

    /// Overrides the row-group size (rows per group) for subsequent
    /// appends. Smaller groups prune harder; larger groups compress
    /// slightly better.
    #[must_use]
    pub fn with_group_rows(mut self, rows: usize) -> Self {
        self.group_rows = rows.max(1);
        self
    }

    /// The file this archive is backed by.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn flush_group(&mut self, take: usize) -> Result<(), StoreError> {
        let rows = self.pending.get(..take).unwrap_or_default();
        if rows.is_empty() {
            return Ok(());
        }
        let Scratch {
            group,
            payload,
            columns,
        } = &mut self.scratch;
        group.clear();
        write_varint(group, u64_len(rows.len()));

        let mut t_min = i64::MAX;
        let mut t_max = i64::MIN;
        let mut zones = [(0i64, 0i64); 6];
        for (ch, column) in Channel::ALL.into_iter().zip(columns.iter_mut()) {
            column.clear();
            match ch.value_index() {
                None if ch == Channel::Time => {
                    column.extend(rows.iter().map(|r| r.time.epoch_seconds()));
                }
                None => {
                    column.extend(rows.iter().map(|r| convert::i64_from_usize(r.rack.index())));
                }
                Some(vi) => {
                    column.extend(rows.iter().map(|r| r.milli.get(vi).copied().unwrap_or(0)));
                }
            }
            let lo = column.iter().copied().min().unwrap_or(0);
            let hi = column.iter().copied().max().unwrap_or(0);
            if ch == Channel::Time {
                t_min = lo;
                t_max = hi;
            }
            if let Some(vi) = ch.value_index() {
                if let Some(z) = zones.get_mut(vi) {
                    *z = (lo, hi);
                }
            }
            payload.clear();
            encode_deltas(column, payload);
            write_varint(group, u64_len(payload.len()));
            write_varint(group, zigzag_encode(lo));
            write_varint(group, zigzag_encode(hi));
            group.extend_from_slice(payload);
        }
        let row_count = u64_len(rows.len());
        let group_len = u64_len(group.len());

        self.file.seek(SeekFrom::Start(self.data_end))?;
        self.file.write_all(group)?;
        self.pending.drain(..take);
        self.groups.push(GroupMeta {
            offset: self.data_end,
            len: group_len,
            rows: row_count,
            t_min,
            t_max,
            zones,
        });
        self.data_end += group_len;
        self.synced = false;
        Ok(())
    }

    fn write_footer(&mut self) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(FOOTER_MAGIC);
        write_varint(&mut buf, u64_len(self.groups.len()));
        for g in &self.groups {
            write_varint(&mut buf, g.offset);
            write_varint(&mut buf, g.len);
            write_varint(&mut buf, g.rows);
            write_varint(&mut buf, zigzag_encode(g.t_min));
            write_varint(&mut buf, zigzag_encode(g.t_max));
            for (lo, hi) in g.zones {
                write_varint(&mut buf, zigzag_encode(lo));
                write_varint(&mut buf, zigzag_encode(hi));
            }
        }
        write_varint(&mut buf, self.csv_bytes);
        write_varint(&mut buf, u64_len(self.ras.len()));
        let ras_columns: [Vec<i64>; 4] = [
            self.ras.iter().map(|e| e.time.epoch_seconds()).collect(),
            self.ras
                .iter()
                .map(|e| convert::i64_from_usize(e.rack.index()))
                .collect(),
            self.ras.iter().map(|e| kind_index(e.kind)).collect(),
            self.ras
                .iter()
                .map(|e| severity_index(e.severity))
                .collect(),
        ];
        for column in &ras_columns {
            let mut payload = Vec::new();
            encode_deltas(column, &mut payload);
            write_varint(&mut buf, u64_len(payload.len()));
            buf.extend_from_slice(&payload);
        }

        self.file.seek(SeekFrom::Start(self.data_end))?;
        self.file.write_all(&buf)?;
        self.file.write_all(&u64_len(buf.len()).to_le_bytes())?;
        self.file.write_all(TRAILER_MAGIC)?;
        self.file
            .set_len(self.data_end + u64_len(buf.len()) + TRAILER_LEN)?;
        self.file.flush()?;
        self.synced = true;
        Ok(())
    }

    /// Flushes pending rows into a (possibly partial) final group and
    /// rewrites the footer, leaving the file consistent.
    fn commit(&mut self) -> Result<(), StoreError> {
        if !self.pending.is_empty() {
            let take = self.pending.len();
            self.flush_group(take)?;
        }
        if !self.synced {
            self.write_footer()?;
        }
        Ok(())
    }
}

/// Reads one row group's bytes into `buf`.
fn read_group(file: &mut File, meta: GroupMeta, buf: &mut Vec<u8>) -> Result<(), StoreError> {
    buf.clear();
    buf.resize(usize_len(meta.len), 0);
    file.seek(SeekFrom::Start(meta.offset))?;
    file.read_exact(buf)?;
    Ok(())
}

impl Drop for ColumnarArchive {
    fn drop(&mut self) {
        // Best-effort durability; explicit flush() reports errors.
        let _ = self.commit();
    }
}

fn group_id(index: usize) -> u32 {
    u32::try_from(index).unwrap_or(u32::MAX)
}

fn kind_index(kind: FailureKind) -> i64 {
    convert::i64_from_usize(
        FailureKind::ALL
            .iter()
            .position(|k| *k == kind)
            .unwrap_or(0),
    )
}

fn kind_from_index(i: i64) -> Option<FailureKind> {
    usize::try_from(i)
        .ok()
        .and_then(|i| FailureKind::ALL.get(i).copied())
}

fn severity_index(s: Severity) -> i64 {
    match s {
        Severity::Warn => 0,
        Severity::Fatal => 1,
    }
}

fn severity_from_index(i: i64) -> Option<Severity> {
    match i {
        0 => Some(Severity::Warn),
        1 => Some(Severity::Fatal),
        _ => None,
    }
}

fn rack_from_column(value: i64) -> Option<RackId> {
    usize::try_from(value)
        .ok()
        .filter(|i| *i < RackId::COUNT)
        .map(RackId::from_index)
}

/// Telemetry-header bytes counted once into the equivalent-CSV size.
fn header_bytes() -> u64 {
    u64_len(TELEMETRY_HEADER.len() + 1)
}

fn u64_len(n: usize) -> u64 {
    convert::u64_from_usize(n)
}

fn usize_len(n: u64) -> usize {
    convert::usize_from_u64(n)
}

/// Opens an existing columnar store, parsing and validating its
/// footer.
///
/// # Errors
///
/// [`StoreError::Io`] when the file is missing or unreadable;
/// [`StoreError::Corrupt`] (with the failing offset) on bad magic, a
/// truncated trailer, or an undecodable footer.
fn open_columnar(path: &Path) -> Result<ColumnarArchive, StoreError> {
    let mut file = File::options().read(true).write(true).open(path)?;
    let file_len = file.metadata()?.len();
    let min_len = u64_len(MAGIC.len()) + u64_len(FOOTER_MAGIC.len()) + TRAILER_LEN;
    if file_len < min_len {
        return Err(StoreError::corrupt(
            file_len,
            "file too short for magic + footer + trailer",
        ));
    }
    let mut magic = [0u8; 8];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(StoreError::corrupt(0, "bad magic (not a MSTORE1 file)"));
    }
    let mut trailer = [0u8; 16];
    file.seek(SeekFrom::Start(file_len - TRAILER_LEN))?;
    file.read_exact(&mut trailer)?;
    let (len_bytes, trailer_magic) = trailer.split_at(8);
    if trailer_magic != TRAILER_MAGIC {
        return Err(StoreError::corrupt(
            file_len - 8,
            "bad trailer magic (truncated or overwritten file)",
        ));
    }
    let footer_len = u64::from_le_bytes(len_bytes.try_into().unwrap_or([0u8; 8]));
    let Some(footer_start) = file_len
        .checked_sub(TRAILER_LEN)
        .and_then(|v| v.checked_sub(footer_len))
        .filter(|start| *start >= u64_len(MAGIC.len()))
    else {
        return Err(StoreError::corrupt(
            file_len - TRAILER_LEN,
            "footer length exceeds file",
        ));
    };
    let mut footer = vec![0u8; usize_len(footer_len)];
    file.seek(SeekFrom::Start(footer_start))?;
    file.read_exact(&mut footer)?;

    let at = |pos: usize| footer_start + u64_len(pos);
    let corrupt = |pos: usize, message: &str| StoreError::corrupt(at(pos), message.to_string());
    if footer.len() < FOOTER_MAGIC.len() || !footer.starts_with(FOOTER_MAGIC) {
        return Err(corrupt(0, "bad footer magic"));
    }
    let mut pos = FOOTER_MAGIC.len();
    fn next(footer: &[u8], pos: &mut usize, base: u64) -> Result<u64, StoreError> {
        read_varint(footer, pos).map_err(|e| {
            StoreError::corrupt(base + u64_len(e.offset), format!("footer: {}", e.message))
        })
    }
    let group_count = usize_len(next(&footer, &mut pos, footer_start)?);
    let mut groups = Vec::with_capacity(group_count.min(1 << 20));
    for gi in 0..group_count {
        let offset = next(&footer, &mut pos, footer_start)?;
        let len = next(&footer, &mut pos, footer_start)?;
        let rows = next(&footer, &mut pos, footer_start)?;
        let t_min = zigzag_decode(next(&footer, &mut pos, footer_start)?);
        let t_max = zigzag_decode(next(&footer, &mut pos, footer_start)?);
        let mut zones = [(0i64, 0i64); 6];
        for z in &mut zones {
            let lo = zigzag_decode(next(&footer, &mut pos, footer_start)?);
            let hi = zigzag_decode(next(&footer, &mut pos, footer_start)?);
            *z = (lo, hi);
        }
        let end = offset.saturating_add(len);
        if offset < u64_len(MAGIC.len()) || end > footer_start {
            return Err(StoreError::corrupt_block(
                at(pos),
                group_id(gi),
                None,
                "group extent escapes the data section",
            ));
        }
        groups.push(GroupMeta {
            offset,
            len,
            rows,
            t_min,
            t_max,
            zones,
        });
    }
    let csv_bytes = next(&footer, &mut pos, footer_start)?;
    let ras_count = usize_len(next(&footer, &mut pos, footer_start)?);
    let mut ras_columns: [Vec<i64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for column in &mut ras_columns {
        let payload_len = usize_len(next(&footer, &mut pos, footer_start)?);
        let start = pos;
        let Some(payload) = start
            .checked_add(payload_len)
            .and_then(|end| footer.get(start..end))
        else {
            return Err(corrupt(start, "ras payload extends past footer"));
        };
        column.reserve(ras_count);
        decode_deltas(payload, ras_count, column).map_err(|e| {
            StoreError::corrupt(at(start + e.offset), format!("ras column: {}", e.message))
        })?;
        pos = start + payload_len;
    }
    let mut ras = Vec::with_capacity(ras_count);
    let [times, racks, kinds, severities] = &ras_columns;
    for i in 0..ras_count {
        let get = |v: &Vec<i64>| v.get(i).copied().unwrap_or(0);
        let rack = rack_from_column(get(racks))
            .ok_or_else(|| corrupt(pos, "ras rack index out of range"))?;
        let kind = kind_from_index(get(kinds))
            .ok_or_else(|| corrupt(pos, "ras failure kind out of range"))?;
        let severity = severity_from_index(get(severities))
            .ok_or_else(|| corrupt(pos, "ras severity out of range"))?;
        ras.push(RasEvent {
            time: SimTime::from_epoch_seconds(get(times)),
            rack,
            kind,
            severity,
        });
    }

    Ok(ColumnarArchive {
        path: path.to_path_buf(),
        file,
        groups,
        ras,
        pending: Vec::new(),
        group_rows: DEFAULT_GROUP_ROWS,
        csv_bytes,
        data_end: footer_start,
        synced: true,
        scratch: Scratch::default(),
    })
}

impl Archive for ColumnarArchive {
    fn open(path: &Path) -> Result<Self, StoreError> {
        open_columnar(path)
    }

    fn append_telemetry(&mut self, rows: &[TelemetryRecord]) -> Result<(), StoreError> {
        for row in rows {
            self.csv_bytes += u64_len(row.csv_len() + 1);
            self.pending.push(*row);
            self.synced = false;
        }
        while self.pending.len() >= self.group_rows {
            self.flush_group(self.group_rows)?;
        }
        Ok(())
    }

    fn append_ras(&mut self, events: &[RasEvent]) -> Result<(), StoreError> {
        for e in events {
            self.csv_bytes += u64_len(ras_csv_len(e) + 1);
            self.ras.push(*e);
            self.synced = false;
        }
        Ok(())
    }

    fn scan_span(
        &mut self,
        from: SimTime,
        to: SimTime,
        projection: Projection,
        sink: &mut dyn FnMut(&TelemetryRecord),
    ) -> Result<ScanStats, StoreError> {
        self.commit()?;
        let (from_s, to_s) = (from.epoch_seconds(), to.epoch_seconds());
        let mut stats = ScanStats {
            groups_total: u64_len(self.groups.len()),
            ..ScanStats::default()
        };
        let Scratch {
            group: buf,
            columns,
            ..
        } = &mut self.scratch;
        for (gi, meta) in self.groups.iter().copied().enumerate() {
            // Zone-map pruning: skip any group whose time range misses
            // the half-open query span entirely.
            if meta.t_max < from_s || meta.t_min >= to_s {
                continue;
            }
            stats.groups_scanned += 1;
            stats.bytes_read += meta.len;
            read_group(&mut self.file, meta, buf)?;
            let mut pos = 0usize;
            let block_err = |pos: usize, ch: Option<Channel>, message: String| {
                StoreError::corrupt_block(meta.offset + u64_len(pos), group_id(gi), ch, message)
            };
            let rows = usize_len(
                read_varint(buf, &mut pos)
                    .map_err(|e| block_err(e.offset, None, e.message.to_string()))?,
            );
            if rows != usize_len(meta.rows) {
                return Err(block_err(
                    0,
                    None,
                    "group row count disagrees with footer".into(),
                ));
            }
            for (ci, ch) in Channel::ALL.iter().enumerate() {
                let payload_len = usize_len(
                    read_varint(buf, &mut pos)
                        .map_err(|e| block_err(e.offset, Some(*ch), e.message.to_string()))?,
                );
                let _zone_lo = read_varint(buf, &mut pos)
                    .map_err(|e| block_err(e.offset, Some(*ch), e.message.to_string()))?;
                let _zone_hi = read_varint(buf, &mut pos)
                    .map_err(|e| block_err(e.offset, Some(*ch), e.message.to_string()))?;
                let Some(column) = columns.get_mut(ci) else {
                    continue;
                };
                column.clear();
                let start = pos;
                let Some(payload) = buf.get(start..start + payload_len) else {
                    return Err(block_err(
                        start,
                        Some(*ch),
                        "column payload extends past group".into(),
                    ));
                };
                if projection.contains(*ch) {
                    stats.blocks_decoded += 1;
                    decode_deltas(payload, rows, column).map_err(|e| {
                        block_err(start + e.offset, Some(*ch), e.message.to_string())
                    })?;
                }
                pos = start + payload_len;
            }
            if pos != buf.len() {
                return Err(block_err(
                    pos,
                    None,
                    "trailing bytes after final block".into(),
                ));
            }
            let value_column = |vi: usize, i: usize| -> i64 {
                columns
                    .get(vi + 2)
                    .and_then(|c| c.get(i))
                    .copied()
                    .unwrap_or(0)
            };
            for i in 0..rows {
                let t = columns.first().and_then(|c| c.get(i)).copied().unwrap_or(0);
                if t < from_s || t >= to_s {
                    continue;
                }
                let rack_raw = columns.get(1).and_then(|c| c.get(i)).copied().unwrap_or(-1);
                let Some(rack) = rack_from_column(rack_raw) else {
                    return Err(block_err(
                        0,
                        Some(Channel::Rack),
                        format!("rack index {rack_raw} out of range"),
                    ));
                };
                let record = TelemetryRecord {
                    time: SimTime::from_epoch_seconds(t),
                    rack,
                    milli: [
                        value_column(0, i),
                        value_column(1, i),
                        value_column(2, i),
                        value_column(3, i),
                        value_column(4, i),
                        value_column(5, i),
                    ],
                };
                stats.rows_scanned += 1;
                sink(&record);
            }
        }
        Ok(stats)
    }

    fn ras_events(&mut self) -> Result<Vec<RasEvent>, StoreError> {
        self.commit()?;
        Ok(self.ras.clone())
    }

    fn stat(&mut self) -> Result<ArchiveStat, StoreError> {
        self.commit()?;
        let file_bytes = self.file.metadata()?.len();
        let mut rows = 0u64;
        let mut time_range: Option<(i64, i64)> = None;
        let mut zones: Option<[(i64, i64); 6]> = None;
        for g in &self.groups {
            rows += g.rows;
            time_range = Some(match time_range {
                None => (g.t_min, g.t_max),
                Some((lo, hi)) => (lo.min(g.t_min), hi.max(g.t_max)),
            });
            zones = Some(match zones {
                None => g.zones,
                Some(mut merged) => {
                    for (m, z) in merged.iter_mut().zip(g.zones.iter()) {
                        m.0 = m.0.min(z.0);
                        m.1 = m.1.max(z.1);
                    }
                    merged
                }
            });
        }
        Ok(ArchiveStat {
            rows,
            ras_events: u64_len(self.ras.len()),
            groups: u64_len(self.groups.len()),
            file_bytes,
            csv_bytes: self.csv_bytes,
            time_range: time_range.map(|(lo, hi)| {
                (
                    SimTime::from_epoch_seconds(lo),
                    SimTime::from_epoch_seconds(hi),
                )
            }),
            zones,
        })
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.commit()
    }
}
