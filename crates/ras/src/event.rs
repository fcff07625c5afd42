//! The RAS record model.

use std::fmt;

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::SimTime;

/// Severity of a RAS event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Low-risk situation worth recording.
    Warn,
    /// Severe error leading to a rack-level failure.
    Fatal,
}

impl Severity {
    /// Short log tag for the severity (its `Display` text).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Fatal => "fatal",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// The failure classes Mira's RAS log distinguishes (Fig. 14b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// Coolant monitor failure: the dew point approached the data-center
    /// temperature (condensation risk); solenoid valve closed and power
    /// cut.
    CoolantMonitor,
    /// Bulk power module failing to convert AC to DC at the appropriate
    /// level — half of all post-CMF failures.
    AcToDcPower,
    /// Blue Gene/Q compute-module failure (node cores).
    Bqc,
    /// Blue Gene/Q link-module failure (network links, load balancers,
    /// redundant devices).
    Bql,
    /// Clock-card failure (node synchronization).
    ClockCard,
    /// Software failure: buggy updates, bad network decisions.
    Software,
    /// Background daemon (process) failure — rare, under 2 %.
    Process,
}

impl FailureKind {
    /// All kinds, CMF first.
    pub const ALL: [FailureKind; 7] = [
        FailureKind::CoolantMonitor,
        FailureKind::AcToDcPower,
        FailureKind::Bqc,
        FailureKind::Bql,
        FailureKind::ClockCard,
        FailureKind::Software,
        FailureKind::Process,
    ];

    /// Whether this is a coolant monitor failure.
    #[must_use]
    pub fn is_cmf(self) -> bool {
        self == FailureKind::CoolantMonitor
    }

    /// Short log tag for the kind.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            FailureKind::CoolantMonitor => "CMF",
            FailureKind::AcToDcPower => "AC-DC",
            FailureKind::Bqc => "BQC",
            FailureKind::Bql => "BQL",
            FailureKind::ClockCard => "CARD",
            FailureKind::Software => "SW",
            FailureKind::Process => "PROC",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::CoolantMonitor => "coolant monitor",
            FailureKind::AcToDcPower => "AC to DC power",
            FailureKind::Bqc => "BQC compute module",
            FailureKind::Bql => "BQL link module",
            FailureKind::ClockCard => "clock card",
            FailureKind::Software => "software",
            FailureKind::Process => "process",
        })
    }
}

/// One RAS log record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RasEvent {
    /// Event timestamp.
    pub time: SimTime,
    /// Rack the event was recorded against.
    pub rack: RackId,
    /// Failure class.
    pub kind: FailureKind,
    /// Severity.
    pub severity: Severity,
}

impl RasEvent {
    /// Creates a fatal event.
    #[must_use]
    pub fn fatal(time: SimTime, rack: RackId, kind: FailureKind) -> Self {
        Self {
            time,
            rack,
            kind,
            severity: Severity::Fatal,
        }
    }

    /// Creates a warn event.
    #[must_use]
    pub fn warn(time: SimTime, rack: RackId, kind: FailureKind) -> Self {
        Self {
            time,
            rack,
            kind,
            severity: Severity::Warn,
        }
    }

    /// Whether this is a fatal coolant monitor failure.
    #[must_use]
    pub fn is_fatal_cmf(&self) -> bool {
        self.severity == Severity::Fatal && self.kind.is_cmf()
    }
}

impl fmt::Display for RasEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} on {}",
            self.time,
            self.severity,
            self.kind.tag(),
            self.rack
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::Date;

    #[test]
    fn constructors_set_severity() {
        let t = SimTime::from_date(Date::new(2016, 6, 1));
        let r = RackId::new(1, 8);
        assert_eq!(
            RasEvent::fatal(t, r, FailureKind::CoolantMonitor).severity,
            Severity::Fatal
        );
        assert_eq!(
            RasEvent::warn(t, r, FailureKind::Bql).severity,
            Severity::Warn
        );
    }

    #[test]
    fn fatal_cmf_detection() {
        let t = SimTime::from_date(Date::new(2016, 6, 1));
        let r = RackId::new(0, 0);
        assert!(RasEvent::fatal(t, r, FailureKind::CoolantMonitor).is_fatal_cmf());
        assert!(!RasEvent::warn(t, r, FailureKind::CoolantMonitor).is_fatal_cmf());
        assert!(!RasEvent::fatal(t, r, FailureKind::AcToDcPower).is_fatal_cmf());
    }

    #[test]
    fn display_is_informative() {
        let t = SimTime::from_date(Date::new(2016, 6, 1));
        let e = RasEvent::fatal(t, RackId::new(1, 8), FailureKind::CoolantMonitor);
        let s = e.to_string();
        assert!(s.contains("fatal"));
        assert!(s.contains("CMF"));
        assert!(s.contains("(1, 8)"));
    }

    #[test]
    fn kinds_cover_fig14_types() {
        assert_eq!(FailureKind::ALL.len(), 7);
        assert!(FailureKind::CoolantMonitor.is_cmf());
        assert!(!FailureKind::AcToDcPower.is_cmf());
        assert_eq!(FailureKind::AcToDcPower.to_string(), "AC to DC power");
    }
}
