//! The unified `mira-core` error type.
//!
//! Every fallible public operation in this crate reports through
//! [`Error`], with the domain-specific enums ([`SweepError`],
//! [`mira_store::StoreError`]) kept as payloads so callers can still
//! match the precise cause. `From` impls let internal `?` call sites
//! and downstream wrappers convert without ceremony, and
//! [`std::error::Error::source`] exposes the underlying cause chain
//! (down to the `std::io::Error` inside a failed archive read).
//!
//! Storage faults carry structure: [`StoreError::Parse`] names the
//! offending CSV line, [`StoreError::Corrupt`] the byte offset,
//! row-group id, and channel of an undecodable columnar block.

use std::fmt;
use std::io;

use mira_store::StoreError;

use crate::sweep::SweepError;

/// Any error a `mira-core` operation can report.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A sweep could not run (bad span or step).
    Sweep(SweepError),
    /// A telemetry archive operation failed (I/O, text parse, or
    /// columnar corruption — see [`StoreError`] for the structure).
    Store(StoreError),
}

impl Error {
    /// The process exit code this error maps to — the same taxonomy the
    /// `mira-ops` CLI uses (`3` sweep, `4` store parse, `5` store I/O,
    /// `7` store corruption; usage errors are the CLI's own `2`).
    /// Long-running frontends (`mira-ops serve`) embed this in
    /// structured error replies so scripted clients branch on the same
    /// codes a batch invocation would exit with.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Sweep(_) => 3,
            Error::Store(StoreError::Parse { .. }) => 4,
            Error::Store(StoreError::Io(_)) => 5,
            Error::Store(StoreError::Corrupt { .. }) => 7,
        }
    }

    /// A short stable label for the error class (`"sweep"`,
    /// `"store-parse"`, `"store-io"`, `"store-corrupt"`), paired with
    /// [`Error::exit_code`] in structured replies.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Sweep(_) => "sweep",
            Error::Store(StoreError::Parse { .. }) => "store-parse",
            Error::Store(StoreError::Io(_)) => "store-io",
            Error::Store(StoreError::Corrupt { .. }) => "store-corrupt",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sweep(e) => e.fmt(f),
            Error::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sweep(e) => Some(e),
            Error::Store(e) => Some(e),
        }
    }
}

impl From<SweepError> for Error {
    fn from(e: SweepError) -> Self {
        Error::Sweep(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Store(StoreError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_delegates_to_the_cause() {
        let e = Error::from(SweepError::EmptySpan);
        assert_eq!(e.to_string(), SweepError::EmptySpan.to_string());
        let e = Error::from(StoreError::Parse {
            line: 3,
            message: "bad number".to_string(),
        });
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn source_chains_to_the_domain_error_and_below() {
        let e = Error::from(SweepError::NonPositiveStep);
        let cause = e.source().expect("sweep cause");
        assert_eq!(cause.to_string(), "sweep step must be positive");

        let io = io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed");
        let e = Error::from(io);
        let store = e.source().expect("store cause");
        let inner = store.source().expect("io cause");
        assert!(inner.to_string().contains("pipe closed"));
    }

    #[test]
    fn exit_codes_and_kinds_follow_the_cause() {
        let sweep = Error::from(SweepError::EmptySpan);
        assert_eq!((sweep.exit_code(), sweep.kind()), (3, "sweep"));
        let parse = Error::from(StoreError::Parse {
            line: 1,
            message: "bad".to_string(),
        });
        assert_eq!((parse.exit_code(), parse.kind()), (4, "store-parse"));
        let io = Error::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert_eq!((io.exit_code(), io.kind()), (5, "store-io"));
        let corrupt = Error::from(StoreError::corrupt(16, "bad magic"));
        assert_eq!((corrupt.exit_code(), corrupt.kind()), (7, "store-corrupt"));
    }

    #[test]
    fn io_errors_land_under_store() {
        let e = Error::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(matches!(e, Error::Store(StoreError::Io(_))));
    }
}
