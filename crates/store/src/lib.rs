//! # mira-store — the columnar telemetry archive
//!
//! A standard-library-only storage layer for Mira's coolant-monitor
//! telemetry and RAS log, fronted by one [`Archive`] trait with three
//! backends:
//!
//! - [`ColumnarArchive`]: the binary columnar format — per-channel
//!   column blocks (delta + zigzag + varint) grouped into row groups,
//!   each block carrying a min/max zone map, with a footer time index
//!   so span queries read only the row groups that intersect the span
//!   and decode only the column blocks the projection asks for.
//! - [`CsvArchive`]: the pre-existing CSV format (telemetry file plus
//!   a `.ras` sidecar), kept as a backend so every query surface works
//!   against either representation.
//! - [`MemArchive`]: an in-memory backend for tests and round-trip
//!   oracles.
//!
//! All backends speak [`TelemetryRecord`] — channel values quantized
//! to milli-units by exact integer rounding equal to the `{:.3}`
//! rendering the exports use — so
//! a span scanned from the columnar store, from CSV, or from a live
//! simulation re-renders byte-identical output.

pub mod codec;
pub mod columnar;
pub mod csvfile;
pub mod error;
pub mod mem;
pub mod record;

use std::path::Path;

use mira_obs::MetricsPartial;
use mira_ras::RasEvent;
use mira_timeseries::SimTime;
use mira_units::convert;

pub use columnar::{ColumnarArchive, DEFAULT_GROUP_ROWS};
pub use csvfile::CsvArchive;
pub use error::StoreError;
pub use mem::MemArchive;
pub use record::{
    f64_from_milli, format_milli, milli_from_f64, milli_from_str, write_ras_csv, Channel,
    Projection, TelemetryRecord, TELEMETRY_HEADER,
};

/// The RAS CSV header shared by the CSV backend and the core exports.
pub const RAS_HEADER: &str = "time,rack,kind,severity";

/// Counters describing what one [`Archive::scan_span`] call touched —
/// the observable basis for the "reads only intersecting blocks"
/// guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows delivered to the sink (rows inside the query span).
    pub rows_scanned: u64,
    /// Row groups in the archive, scanned or not.
    pub groups_total: u64,
    /// Row groups whose zone map intersected the span and were read.
    pub groups_scanned: u64,
    /// Column blocks actually decoded (pruned groups and unprojected
    /// channels decode nothing).
    pub blocks_decoded: u64,
    /// Data bytes read from the backing file.
    pub bytes_read: u64,
}

impl ScanStats {
    /// Folds another scan's counters into this one.
    pub fn absorb(&mut self, other: ScanStats) {
        self.rows_scanned += other.rows_scanned;
        self.groups_total += other.groups_total;
        self.groups_scanned += other.groups_scanned;
        self.blocks_decoded += other.blocks_decoded;
        self.bytes_read += other.bytes_read;
    }

    /// Records the counters into a metrics partial under `store.*`
    /// keys, so scans show up in the observability surface.
    pub fn record(&self, metrics: &mut MetricsPartial) {
        metrics.add("store.rows_scanned", self.rows_scanned);
        metrics.add("store.groups_total", self.groups_total);
        metrics.add("store.groups_scanned", self.groups_scanned);
        metrics.add("store.blocks_decoded", self.blocks_decoded);
        metrics.add("store.bytes_read", self.bytes_read);
    }
}

/// Archive-wide shape and size summary, as printed by
/// `mira-ops archive stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveStat {
    /// Telemetry rows stored.
    pub rows: u64,
    /// RAS events stored.
    pub ras_events: u64,
    /// Row groups (1 for non-columnar backends with any rows).
    pub groups: u64,
    /// Bytes the archive occupies on disk.
    pub file_bytes: u64,
    /// Bytes the same data occupies as CSV (the compression baseline).
    pub csv_bytes: u64,
    /// Archived time range (min, max), when any rows exist.
    pub time_range: Option<(SimTime, SimTime)>,
    /// Global per-channel (min, max) zone maps in milli-units,
    /// [`Channel::VALUES`] order, when any rows exist.
    pub zones: Option<[(i64, i64); 6]>,
}

impl ArchiveStat {
    /// CSV bytes per stored byte — how much smaller than CSV the
    /// archive is.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            return 0.0;
        }
        convert::f64_from_u64(self.csv_bytes) / convert::f64_from_u64(self.file_bytes)
    }
}

/// The unified archive API: open a store, append telemetry and RAS
/// rows, and scan a time span with channel projection.
///
/// Scans deliver rows through a sink callback in deterministic order
/// (append order, filtered to the half-open span `[from, to)`) and
/// report [`ScanStats`] so callers can assert how much data was
/// touched. Implementations buffer appends; [`Archive::flush`] (and
/// drop, best-effort) makes them durable.
///
/// `Debug` is a supertrait so `Box<dyn Archive>` can sit inside
/// `#[derive(Debug)]` service state (e.g. the replay store behind
/// `mira-ops serve`).
pub trait Archive: std::fmt::Debug {
    /// Opens an existing archive at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened;
    /// [`StoreError::Corrupt`] when it is not a valid archive.
    fn open(path: &Path) -> Result<Self, StoreError>
    where
        Self: Sized;

    /// Appends telemetry rows (kept in append order).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when buffered groups cannot be written.
    fn append_telemetry(&mut self, rows: &[TelemetryRecord]) -> Result<(), StoreError>;

    /// Appends RAS events (kept in append order).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backing file cannot be written.
    fn append_ras(&mut self, events: &[RasEvent]) -> Result<(), StoreError>;

    /// Scans the half-open span `[from, to)`, delivering each matching
    /// row to `sink` with at least the projected channels materialized
    /// (unprojected channels read as `0`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] /
    /// [`StoreError::Parse`] when stored data cannot be decoded.
    fn scan_span(
        &mut self,
        from: SimTime,
        to: SimTime,
        projection: Projection,
        sink: &mut dyn FnMut(&TelemetryRecord),
    ) -> Result<ScanStats, StoreError>;

    /// All stored RAS events in append order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Parse`] when the RAS section
    /// cannot be read.
    fn ras_events(&mut self) -> Result<Vec<RasEvent>, StoreError>;

    /// Shape and size summary of the archive.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backing file cannot be inspected.
    fn stat(&mut self) -> Result<ArchiveStat, StoreError>;

    /// Makes all appended data durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when writing fails.
    fn flush(&mut self) -> Result<(), StoreError>;
}

/// Opens `path` as whichever on-disk backend it actually is: columnar
/// when the file leads with the `MSTORE1` magic, CSV otherwise.
///
/// # Errors
///
/// [`StoreError::Io`] when the file is missing or unreadable;
/// [`StoreError::Corrupt`] when a columnar file fails validation.
pub fn open_archive(path: &Path) -> Result<Box<dyn Archive + Send>, StoreError> {
    let head = {
        use std::io::Read;
        let mut f = std::fs::File::open(path)?;
        let mut head = [0u8; 8];
        let n = f.read(&mut head)?;
        head.get(..n).unwrap_or_default().to_vec()
    };
    if head.starts_with(b"MSTORE1\n") {
        Ok(Box::new(ColumnarArchive::open(path)?))
    } else {
        Ok(Box::new(CsvArchive::open(path)?))
    }
}
