//! Rack addressing in the paper's `(row, column)` notation.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Number of compute-rack rows on the floor.
pub const ROWS: u8 = 3;

/// Number of compute racks per row, labeled with hexadecimal columns
/// `0`–`F`.
pub const COLUMNS: u8 = 16;

/// Identifier of one of Mira's 48 compute racks.
///
/// The paper writes racks as `(row, column)` with a hexadecimal column
/// digit — `(0, D)` is row 0, column 13. `RackId` keeps that notation for
/// display and parsing, and provides a dense [`RackId::index`] for array
/// storage.
///
/// ```
/// use mira_facility::RackId;
///
/// let r = RackId::new(1, 8);
/// assert_eq!(r.to_string(), "(1, 8)");
/// assert_eq!(RackId::parse("(0, D)").unwrap().column(), 13);
/// assert_eq!(RackId::from_index(r.index()), r);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId {
    row: u8,
    column: u8,
}

impl RackId {
    /// Total number of compute racks.
    // u8 → usize widening cannot lose values; `as` is required in
    // const context.
    pub const COUNT: usize = (ROWS as usize) * (COLUMNS as usize);

    /// Creates a rack id.
    ///
    /// # Panics
    ///
    /// Panics if `row >= 3` or `column >= 16`.
    #[must_use]
    pub fn new(row: u8, column: u8) -> Self {
        assert!(row < ROWS, "row out of range: {row}");
        assert!(column < COLUMNS, "column out of range: {column}");
        Self { row, column }
    }

    /// The rack's row (0–2).
    #[must_use]
    pub fn row(self) -> u8 {
        self.row
    }

    /// The rack's column (0–15, displayed as a hex digit).
    #[must_use]
    pub fn column(self) -> u8 {
        self.column
    }

    /// Dense index in row-major order (`row * 16 + column`), in
    /// `0..RackId::COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.row) * usize::from(COLUMNS) + usize::from(self.column)
    }

    /// Builds a rack id from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= RackId::COUNT`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index < Self::COUNT, "rack index out of range: {index}");
        // index < COUNT bounds both digits well inside u8, so the
        // fallbacks are unreachable.
        Self {
            row: u8::try_from(index / usize::from(COLUMNS)).unwrap_or(0),
            column: u8::try_from(index % usize::from(COLUMNS)).unwrap_or(0),
        }
    }

    /// Iterates over all 48 racks in row-major order.
    pub fn all() -> impl Iterator<Item = RackId> {
        (0..Self::COUNT).map(Self::from_index)
    }

    /// Parses the paper's notation, e.g. `"(0, D)"` (whitespace after the
    /// comma optional, column case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseRackIdError`] when the string is not of the form
    /// `(<row>, <hex column>)` with row in `0..3`.
    pub fn parse(s: &str) -> Result<Self, ParseRackIdError> {
        match Self::parse_prefix(s)? {
            (rack, rest) if rest.trim_start().is_empty() => Ok(rack),
            _ => Err(ParseRackIdError),
        }
    }

    /// Parses the rack id at the front of `s` and returns it with the
    /// text after its `)`. This is the one rack grammar, read byte by
    /// byte: whitespace, `(`, a decimal row (optional `+`, leading
    /// zeros allowed), `,`, one hex column digit, `)`, with whitespace
    /// allowed around the row and the column. [`RackId::parse`] is
    /// this plus nothing but whitespace after the `)`; the CSV row
    /// scanner calls it in the middle of a line.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRackIdError`] when `s` does not start with
    /// `(<row>, <hex column>)` and row in `0..3`.
    pub fn parse_prefix(s: &str) -> Result<(Self, &str), ParseRackIdError> {
        let bytes = s.as_bytes();
        let at = |i: usize| bytes.get(i).copied();
        // Skips whitespace as `str::trim` defines it: spaces and other
        // printable ASCII decide at once, anything else goes through
        // `trim_start`. Every position passed in is a char boundary of
        // `s` (the start, or just past an ASCII byte).
        let skip_ws = |mut i: usize| {
            while at(i) == Some(b' ') {
                i += 1;
            }
            if at(i).is_some_and(|b| b.is_ascii_graphic()) {
                return i;
            }
            s.get(i..)
                .map_or(i, |rest| s.len() - rest.trim_start().len())
        };
        let mut i = skip_ws(0);
        if at(i) != Some(b'(') {
            return Err(ParseRackIdError);
        }
        i = skip_ws(i + 1);
        if at(i) == Some(b'+') {
            i += 1;
        }
        let digits = i;
        // Saturates well past the range check; leading zeros still
        // count as one row.
        let mut row = 0u16;
        while let Some(d) = at(i).filter(u8::is_ascii_digit) {
            row = (row * 10 + u16::from(d - b'0')).min(u16::from(u8::MAX) + 1);
            i += 1;
        }
        if i == digits {
            return Err(ParseRackIdError);
        }
        i = skip_ws(i);
        if at(i) != Some(b',') {
            return Err(ParseRackIdError);
        }
        i = skip_ws(i + 1);
        let column = at(i)
            .and_then(|c| char::from(c).to_digit(16))
            .ok_or(ParseRackIdError)?;
        i = skip_ws(i + 1);
        if at(i) != Some(b')') {
            return Err(ParseRackIdError);
        }
        let row = u8::try_from(row)
            .ok()
            .filter(|&r| r < ROWS)
            .ok_or(ParseRackIdError)?;
        let column = u8::try_from(column)
            .ok()
            .filter(|&c| c < COLUMNS)
            .ok_or(ParseRackIdError)?;
        Ok((Self { row, column }, s.get(i + 1..).unwrap_or_default()))
    }

    /// Distance (in rack slots) from the nearest end of the rack's row.
    ///
    /// The underfloor airflow study found obstructed flow near row ends —
    /// the last three or four racks on either side of every row run
    /// drier and hotter.
    #[must_use]
    pub fn distance_from_row_end(self) -> u8 {
        self.column.min(COLUMNS - 1 - self.column)
    }

    /// Racks physically adjacent in the same row.
    #[must_use]
    pub fn row_neighbors(self) -> Vec<RackId> {
        let mut out = Vec::with_capacity(2);
        if self.column > 0 {
            out.push(RackId::new(self.row, self.column - 1));
        }
        if self.column + 1 < COLUMNS {
            out.push(RackId::new(self.row, self.column + 1));
        }
        out
    }

    /// Manhattan distance on the floor grid (rows are ~aisle-width apart).
    #[must_use]
    pub fn grid_distance(self, other: RackId) -> u8 {
        self.row.abs_diff(other.row) + self.column.abs_diff(other.column)
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {:X})", self.row, self.column)
    }
}

impl FromStr for RackId {
    type Err = ParseRackIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Error returned when a rack id string cannot be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseRackIdError;

impl fmt::Display for ParseRackIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid rack id; expected \"(<row>, <hex column>)\"")
    }
}

impl std::error::Error for ParseRackIdError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(RackId::new(0, 13).to_string(), "(0, D)");
        assert_eq!(RackId::new(1, 8).to_string(), "(1, 8)");
        assert_eq!(RackId::new(2, 7).to_string(), "(2, 7)");
    }

    #[test]
    fn parse_accepts_paper_notation() {
        assert_eq!(RackId::parse("(0, D)").unwrap(), RackId::new(0, 13));
        assert_eq!(RackId::parse("(1,8)").unwrap(), RackId::new(1, 8));
        assert_eq!(RackId::parse(" (2, a) ").unwrap(), RackId::new(2, 10));
        assert_eq!("(0, A)".parse::<RackId>().unwrap(), RackId::new(0, 10));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "(3, 0)", "(0, G)", "0, A", "(0 A)", "(0, AA)", "(x, 1)"] {
            assert!(RackId::parse(bad).is_err(), "{bad} should fail");
        }
        let err = RackId::parse("nope").unwrap_err();
        assert!(err.to_string().contains("invalid rack id"));
    }

    #[test]
    fn all_covers_every_rack_once() {
        let racks: Vec<RackId> = RackId::all().collect();
        assert_eq!(racks.len(), 48);
        let mut seen = std::collections::HashSet::new();
        for r in &racks {
            assert!(seen.insert(*r));
        }
    }

    #[test]
    fn distance_from_row_end_symmetry() {
        assert_eq!(RackId::new(0, 0).distance_from_row_end(), 0);
        assert_eq!(RackId::new(0, 15).distance_from_row_end(), 0);
        assert_eq!(RackId::new(0, 7).distance_from_row_end(), 7);
        assert_eq!(RackId::new(0, 8).distance_from_row_end(), 7);
    }

    #[test]
    fn neighbors_at_edges() {
        assert_eq!(RackId::new(1, 0).row_neighbors(), vec![RackId::new(1, 1)]);
        assert_eq!(
            RackId::new(1, 5).row_neighbors(),
            vec![RackId::new(1, 4), RackId::new(1, 6)]
        );
    }

    #[test]
    fn grid_distance_is_manhattan() {
        assert_eq!(RackId::new(0, 0).grid_distance(RackId::new(2, 15)), 17);
        assert_eq!(RackId::new(1, 4).grid_distance(RackId::new(1, 4)), 0);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn new_rejects_bad_row() {
        let _ = RackId::new(3, 0);
    }

    #[test]
    #[should_panic(expected = "rack index out of range")]
    fn from_index_rejects_overflow() {
        let _ = RackId::from_index(48);
    }

    proptest! {
        #[test]
        fn index_round_trip(i in 0usize..48) {
            prop_assert_eq!(RackId::from_index(i).index(), i);
        }

        #[test]
        fn display_parse_round_trip(i in 0usize..48) {
            let r = RackId::from_index(i);
            prop_assert_eq!(RackId::parse(&r.to_string()).unwrap(), r);
        }
    }
}
