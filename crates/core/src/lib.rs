//! Six-year simulation and analysis of a liquid-cooled petascale system.
//!
//! This crate is the headline API of the `mira-ops` workspace — a
//! reproduction of *"Operating Liquid-Cooled Large-Scale Systems:
//! Long-Term Monitoring, Reliability Analysis, and Efficiency Measures"*
//! (HPCA 2021). The paper is a measurement study of the Mira Blue Gene/Q
//! supercomputer over 2014–2019; since its production telemetry is not
//! public, this workspace rebuilds the *system*: a physics- and
//! operations-informed simulator calibrated against every quantitative
//! anchor the paper reports, plus the full analysis and ML stack that
//! turns six years of coolant-monitor telemetry into the paper's
//! fourteen figures.
//!
//! # Layers
//!
//! - [`Simulation`] — builds the world from a seed: the coolant-monitor
//!   failure ground truth ([`mira_ras::CmfSchedule`], 361 rack failures),
//!   the assembled RAS log, and the [`TelemetryEngine`].
//! - [`TelemetryEngine`] — deterministic `(rack, time) → sample`
//!   telemetry: Chicago weather, the chilled-water plant with its
//!   waterside economizer, the flow network, per-rack heat exchangers,
//!   the workload model with allocation-year seasonality and Monday
//!   maintenance, and pre-failure signatures.
//! - [`SweepSummary`] — one streaming pass over any span, producing the
//!   calendar bins, weekly series, per-rack statistics, and energy
//!   ledgers every figure consumes.
//! - [`analysis`] — one function per paper figure (`fig2_…` through
//!   `fig15_…`).
//!
//! # Quickstart
//!
//! ```
//! use mira_core::{analysis, SimConfig, Simulation};
//! use mira_timeseries::{Date, Duration, SimTime};
//!
//! let sim = Simulation::new(SimConfig::with_seed(7));
//! // Fig. 10 needs no sweep: it reads the RAS log.
//! let fig10 = analysis::fig10_cmf_timeline(&sim);
//! assert_eq!(fig10.total, 361);
//!
//! // Temporal figures aggregate a telemetry sweep (a short one here).
//! // Spans are anything span-like: `FullSpan`, a `(from, to)` tuple,
//! // or a `from..to` range.
//! let summary = sim
//!     .summarize(
//!         SimTime::from_date(Date::new(2015, 1, 1))..SimTime::from_date(Date::new(2015, 2, 1)),
//!         Duration::from_hours(6),
//!     )
//!     .expect("non-empty span");
//! let fig2 = analysis::fig2_yearly_trends(&summary);
//! assert_eq!(fig2.power_by_year.len(), 1);
//! ```
//!
//! Long sweeps parallelize without changing the result — see
//! [`sweep::SweepPlan`]:
//!
//! ```no_run
//! use mira_core::{Duration, FullSpan, SimConfig, Simulation};
//!
//! let sim = Simulation::new(SimConfig::default());
//! let summary = sim
//!     .sweep_plan(FullSpan)
//!     .step(Duration::from_hours(1))
//!     .threads(4) // bit-for-bit identical to .threads(1)
//!     .summary()
//!     .expect("non-empty span");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod archive;
pub mod error;
pub mod incremental;
pub mod mitigation;
pub mod obs;
pub mod operator;
pub mod simulation;
pub mod summary;
pub mod sweep;
pub mod telemetry;
pub mod timeline;

pub use analysis::{full_report, FigureReport};
pub use error::Error;
pub use incremental::IncrementalSweep;
pub use mitigation::{
    compare_policies, evaluate_policy, CheckpointPolicy, MitigationCosts, MitigationReport,
};
pub use obs::{ObservedSweep, SweepObsRecorder};
pub use operator::{Alert, AlertLog, ConsoleConfig, ConsoleScore, OperatorConsole};
pub use simulation::{SimConfig, SimConfigBuilder, Simulation};
pub use summary::{ChannelAggregate, RackAggregate, SweepSummary};
pub use sweep::{FullSpan, Recorder, SweepError, SweepPlan, SweepSpan, SweepStep};
pub use telemetry::{
    CmfCursor, RackTruth, SweepBlock, SweepScratch, SystemSnapshot, TelemetryEngine,
};
pub use timeline::OperationalTimeline;

// Re-export the workspace's main types so downstream users need only
// one dependency.
pub use mira_cooling::{CoolantMonitorSample, PrecursorSignature};
pub use mira_facility::{Machine, RackId};
pub use mira_obs::{ObsMode, ObsReport};
pub use mira_predictor::{
    CmfPredictor, DatasetBuilder, FeatureConfig, PredictorConfig, TelemetryProvider,
};
pub use mira_ras::{CmfSchedule, FailureKind, RasEvent, RasLog, Severity};
pub use mira_store::{Archive, ArchiveStat, Projection, ScanStats, StoreError, TelemetryRecord};
pub use mira_timeseries::{Date, DateTime, Duration, SimTime};
