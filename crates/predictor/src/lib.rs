//! Coolant-monitor-failure prediction pipeline.
//!
//! Sec. VI-B of the paper: the otherwise-stable coolant telemetry moves
//! hours before a CMF, so a small neural network fed the *changes* of the
//! six coolant-monitor channels over the trailing six hours can predict
//! an impending failure — 87 % accuracy six hours out, 97 % at thirty
//! minutes (Fig. 13). This crate is that pipeline:
//!
//! - [`features`] — windowed change-features over the six telemetry
//!   channels (with a levels-only mode for the "thresholds are not
//!   enough" ablation).
//! - [`dataset`] — balanced positive/negative window extraction from any
//!   [`TelemetryProvider`] plus the CMF ground truth.
//! - [`pipeline`] — [`CmfPredictor`]: standardize → train the 12-12-6
//!   MLP → evaluate, including the paper's 3 : 1 : 1 split, 5-fold cross
//!   validation, and the lead-time sweep behind Fig. 13.
//! - [`tune`] — Bayesian-optimization architecture search over hidden
//!   layer sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cusum;
pub mod dataset;
pub mod features;
pub mod location;
pub mod pipeline;
pub mod threshold;
pub mod tune;

pub use cusum::{CusumChannel, CusumDetector};
pub use dataset::{DatasetBuilder, FloorRow, TelemetryProvider};
pub use features::{FeatureConfig, FeatureMode};
pub use location::{LocationPredictor, RackRanking, TopKAccuracy};
pub use pipeline::{CmfPredictor, LeadTimePoint, PredictorConfig};
pub use threshold::ThresholdDetector;
pub use tune::{tune_architecture, ArchitectureSearch};
