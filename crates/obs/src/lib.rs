//! Deterministic observability for the `mira-ops` workspace.
//!
//! Production telemetry stacks live or die on a cheap, always-on
//! instrumentation layer with a uniform data model. This crate is that
//! layer for the simulator itself, split along the workspace's one
//! non-negotiable axis — determinism:
//!
//! - **Metrics** ([`MetricsPartial`]): counters, gauges, and
//!   fixed-bucket histograms against `&'static str` keys. A partial is
//!   a *mergeable* accumulator: sweep shards each fold their own, and
//!   merging in chronological shard order reproduces a single
//!   sequential fold — bit-for-bit identical snapshots for any worker
//!   count, exactly like the aggregation stack in `mira-core`.
//! - **Spans** ([`SpanStats`]): scoped regions keyed to *sim-time*
//!   (step index). The deterministic half (entry counts, sim-steps
//!   covered) lives in the byte-stable snapshot; wall-clock durations
//!   are read through an injectable [`Clock`] and land in a separate,
//!   explicitly nondeterministic [`Timings`] section that the
//!   byte-stability gate never compares.
//!
//! The only wall-clock read in the crate is [`WallClock::nanos`];
//! instrumented code elsewhere in the workspace never names a wall
//! clock, which keeps it clean under `mira-lint`'s `nondeterminism`
//! and `determinism-taint` rules. The sweep recorder in `mira-core`
//! fills these types and serve's `metrics` reply renders them; the
//! recorder checks [`ObsMode`] once per hook, so observability costs
//! nothing when it is off.
//!
//! ```
//! use mira_obs::{MetricsPartial, ObsReport, SpanStats};
//!
//! // Two shards fold their own partials; merging in shard order
//! // reproduces one sequential fold.
//! let mut first = MetricsPartial::new();
//! first.add("demo.events", 2);
//! let mut second = MetricsPartial::new();
//! second.add("demo.events", 1);
//! second.gauge("demo.level", 0.5);
//! first.merge(&second);
//!
//! let mut report = ObsReport::new();
//! report.metrics = first;
//! report.record_span("demo.region", SpanStats { count: 1, steps: 10 });
//! assert_eq!(report.metrics.counter("demo.events"), Some(3));
//! assert!(report.deterministic_json().contains("demo.region"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod report;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Histogram, MetricValue, MetricsPartial};
pub use report::{ObsReport, SpanStats, Timings};

/// Whether instrumentation is live. The sweep recorder branches on
/// this once per hook; the disabled arm does no work at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Collect nothing (the zero-cost default).
    #[default]
    Off,
    /// Collect metrics and spans.
    On,
}

impl ObsMode {
    /// `true` when instrumentation is live.
    #[must_use]
    #[inline]
    pub fn is_on(self) -> bool {
        matches!(self, ObsMode::On)
    }
}
