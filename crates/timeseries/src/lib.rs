//! Civil time, time-series containers, and streaming statistics.
//!
//! Everything in the Mira study is a function of *when*: year-over-year
//! trends, month-of-year medians, day-of-week effects (Monday
//! maintenance), and lead-times before failures. This crate provides the
//! time substrate the rest of the workspace builds on:
//!
//! - [`civil`] — a from-scratch proleptic-Gregorian calendar
//!   ([`Date`], [`DateTime`], [`Weekday`], [`Month`]) with exact
//!   epoch-second conversions, so the simulator can reason about
//!   "Monday 9 AM" and "December through March" without a dependency.
//! - [`time`] — [`SimTime`] (seconds since the Unix epoch) and
//!   [`Duration`], the simulator's clock vocabulary.
//! - [`series`] — [`TimeSeries`], an append-only timestamped `f64`
//!   container with slicing, resampling and summary statistics.
//! - [`stats`] — [`Welford`] online moments, percentiles, linear
//!   regression ([`LinearFit`]), Pearson and Spearman correlation, and the
//!   streaming [`P2Quantile`] estimator used for calendar-bin medians.
//! - [`bins`] — [`CalendarBins`], per-calendar-month and per-weekday
//!   accumulators whose merged yearly and month-of-year views power the
//!   paper's Figs. 2, 4 and 5.
//!
//! # Example
//!
//! ```
//! use mira_timeseries::{Date, DateTime, SimTime, Weekday};
//!
//! let start = DateTime::new(Date::new(2014, 1, 1), 0, 0, 0);
//! assert_eq!(start.date().weekday(), Weekday::Wednesday);
//! let t = SimTime::from_datetime(start);
//! assert_eq!(t.to_datetime(), start);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bins;
pub mod civil;
pub mod series;
pub mod stats;
pub mod time;

pub use bins::{CalendarBins, MonthProfile, WeekdayProfile, YearProfile};
pub use civil::{Date, DateTime, Month, Weekday};
pub use series::TimeSeries;
pub use stats::{
    autocorrelation, linear_fit, mean, median, pearson, percentile, spearman,
    spearman_permutation_pvalue, stddev, LinearFit, P2Quantile, Welford, WelfordRows,
};
pub use time::{CivilDayCache, CivilParts, Duration, SimTime, YearCursor};
