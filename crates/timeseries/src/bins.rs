//! Calendar-keyed streaming aggregation.
//!
//! The paper's temporal analyses are all calendar re-groupings of the same
//! telemetry stream: per-year trends (Fig. 2–3), month-of-year medians
//! (Fig. 4), and day-of-week medians (Fig. 5). [`CalendarBins`] performs
//! all of these in one pass with O(1) memory per bin: a [`Welford`]
//! accumulator for means/extremes plus a [`P2Quantile`] for the median.

use mira_units::convert;
use serde::{Deserialize, Serialize};

use crate::civil::{Month, Weekday};
use crate::stats::{P2Quantile, Welford};
use crate::time::{CivilParts, SimTime};

/// Combined mean/median summary of one calendar bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinSummary {
    welford: Welford,
    median: P2Quantile,
}

impl Default for BinSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl BinSummary {
    /// Creates an empty bin.
    #[must_use]
    pub fn new() -> Self {
        Self {
            welford: Welford::new(),
            median: P2Quantile::median(),
        }
    }

    fn push(&mut self, x: f64) {
        self.welford.push(x);
        self.median.push(x);
    }

    /// Merges another bin into this one ([`Welford::merge`] exactly,
    /// [`P2Quantile::merge`] approximately).
    pub fn merge(&mut self, other: &BinSummary) {
        self.welford.merge(&other.welford);
        self.median.merge(&other.median);
    }

    /// Number of observations in the bin.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Mean of the bin.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Streaming median estimate of the bin.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.median.value()
    }

    /// Minimum observation.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.welford.min()
    }

    /// Maximum observation.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Population standard deviation of the bin.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.welford.stddev()
    }
}

/// Per-year summary row (Fig. 2/3-style trends).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct YearProfile {
    /// Calendar year.
    pub year: i32,
    /// Mean over the year.
    pub mean: f64,
    /// Median over the year.
    pub median: f64,
    /// Minimum over the year.
    pub min: f64,
    /// Maximum over the year.
    pub max: f64,
    /// Number of samples in the year.
    pub count: u64,
}

/// Month-of-year summary row (Fig. 4-style profiles).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonthProfile {
    /// Month of year.
    pub month: Month,
    /// Median of the samples falling in this month (all years pooled).
    pub median: f64,
    /// Mean of the samples falling in this month.
    pub mean: f64,
    /// Number of samples.
    pub count: u64,
}

/// Day-of-week summary row (Fig. 5-style profiles).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeekdayProfile {
    /// Day of week (Monday first).
    pub weekday: Weekday,
    /// Median of the samples falling on this weekday.
    pub median: f64,
    /// Mean of the samples falling on this weekday.
    pub mean: f64,
    /// Number of samples.
    pub count: u64,
}

/// One-pass calendar aggregation of a telemetry channel.
///
/// ```
/// use mira_timeseries::{CalendarBins, Date, SimTime, Duration};
///
/// let mut bins = CalendarBins::new();
/// let mut t = SimTime::from_date(Date::new(2014, 1, 1));
/// for i in 0..1000 {
///     bins.push(t, f64::from(i % 10));
///     t += Duration::from_hours(6);
/// }
/// assert_eq!(bins.overall().count(), 1000);
/// assert!(!bins.yearly().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalendarBins {
    overall: BinSummary,
    years: Vec<(i32, BinSummary)>,
    months: Vec<BinSummary>,
    weekdays: Vec<BinSummary>,
    hours: Vec<BinSummary>,
}

impl Default for CalendarBins {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarBins {
    /// Creates an empty aggregation.
    #[must_use]
    // Aggregation constructor: the fixed month/weekday/hour bin vectors
    // are allocated once per recorder at setup, never per step.
    // mira-lint: allow(alloc-in-hot-path)
    pub fn new() -> Self {
        Self {
            overall: BinSummary::new(),
            years: Vec::new(),
            months: (0..12).map(|_| BinSummary::new()).collect(),
            weekdays: (0..7).map(|_| BinSummary::new()).collect(),
            hours: (0..24).map(|_| BinSummary::new()).collect(),
        }
    }

    /// Adds one timestamped observation to every bin it belongs to.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.push_parts(t.civil_parts(), value);
    }

    /// [`Self::push`] with the civil decomposition already in hand.
    ///
    /// The sweep hot path decomposes each instant once (through a
    /// [`crate::CivilDayCache`]) and feeds the same [`CivilParts`] to
    /// every channel's bins, instead of re-deriving the date per channel
    /// per step. `push(t, v)` is exactly `push_parts(t.civil_parts(), v)`.
    // month/weekday `.index()` and `hour` are bounded by their types'
    // contracts; the bin vectors are built with matching lengths.
    // mira-lint: allow(panic-reachability)
    pub fn push_parts(&mut self, parts: CivilParts, value: f64) {
        self.overall.push(value);
        let year = parts.date.year();
        // Chronological pushes land in the newest (last) year row, so
        // scan from the back; the match target is unique either way.
        match self.years.iter_mut().rev().find(|(y, _)| *y == year) {
            Some((_, bin)) => bin.push(value),
            None => {
                let mut bin = BinSummary::new();
                bin.push(value);
                self.years.push((year, bin));
                self.years.sort_by_key(|(y, _)| *y);
            }
        }
        self.months[parts.date.month().index()].push(value);
        self.weekdays[parts.weekday.index()].push(value);
        self.hours[usize::from(parts.hour)].push(value);
    }

    /// Merges another aggregation into this one, bin by bin.
    ///
    /// Year rows present on either side are kept (merged where both
    /// have them); month/weekday/hour bins combine element-wise. Means,
    /// counts, and extremes merge exactly; medians approximately (see
    /// [`P2Quantile::merge`]).
    pub fn merge(&mut self, other: &CalendarBins) {
        self.overall.merge(&other.overall);
        for (year, bin) in &other.years {
            match self.years.iter_mut().find(|(y, _)| y == year) {
                Some((_, mine)) => mine.merge(bin),
                None => {
                    let at = self.years.partition_point(|(y, _)| y < year);
                    self.years.insert(at, (*year, bin.clone()));
                }
            }
        }
        for (mine, theirs) in self.months.iter_mut().zip(&other.months) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.weekdays.iter_mut().zip(&other.weekdays) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.hours.iter_mut().zip(&other.hours) {
            mine.merge(theirs);
        }
    }

    /// Summary over all observations.
    #[must_use]
    pub fn overall(&self) -> &BinSummary {
        &self.overall
    }

    /// Per-year rows, in year order.
    #[must_use]
    pub fn yearly(&self) -> Vec<YearProfile> {
        self.years
            .iter()
            .map(|(year, bin)| YearProfile {
                year: *year,
                mean: bin.mean(),
                median: bin.median(),
                min: bin.min(),
                max: bin.max(),
                count: bin.count(),
            })
            .collect()
    }

    /// Twelve month-of-year rows, January first (empty months included).
    #[must_use]
    pub fn monthly(&self) -> Vec<MonthProfile> {
        Month::ALL
            .into_iter()
            .map(|m| {
                let bin = &self.months[m.index()];
                MonthProfile {
                    month: m,
                    median: bin.median(),
                    mean: bin.mean(),
                    count: bin.count(),
                }
            })
            .collect()
    }

    /// Seven day-of-week rows, Monday first.
    #[must_use]
    pub fn by_weekday(&self) -> Vec<WeekdayProfile> {
        Weekday::ALL
            .into_iter()
            .map(|w| {
                let bin = &self.weekdays[w.index()];
                WeekdayProfile {
                    weekday: w,
                    median: bin.median(),
                    mean: bin.mean(),
                    count: bin.count(),
                }
            })
            .collect()
    }

    /// Twenty-four hour-of-day bins (diurnal profile).
    #[must_use]
    pub fn by_hour(&self) -> &[BinSummary] {
        &self.hours
    }

    /// Relative change of each month's median from January's, the
    /// "less than 1.5 % change from January" statistic of Fig. 4.
    ///
    /// Returns `None` when January has no samples or a zero median.
    #[must_use]
    // months always holds twelve bins; indices are literals or
    // Month::index(). mira-lint: allow(panic-reachability)
    pub fn monthly_change_from_january(&self) -> Option<Vec<f64>> {
        let jan = self.months[0].median();
        // Exact-zero divide guard.
        if self.months[0].count() == 0 || jan == 0.0 {
            return None;
        }
        Some(
            Month::ALL
                .into_iter()
                .map(|m| (self.months[m.index()].median() - jan) / jan)
                .collect(),
        )
    }

    /// Relative change of the pooled non-Monday median from Monday's, the
    /// Fig. 5 "increases by ≈X % on days other than Mondays" statistic.
    ///
    /// Returns `None` when either side is empty or Monday's median is 0.
    #[must_use]
    pub fn non_monday_uplift(&self) -> Option<f64> {
        let monday = &self.weekdays[Weekday::Monday.index()];
        // Exact-zero divide guard.
        if monday.count() == 0 || monday.median() == 0.0 {
            return None;
        }
        // Pool the other six days by averaging their medians weighted by
        // sample count.
        let mut num = 0.0;
        let mut den = 0.0;
        for w in Weekday::ALL.into_iter().skip(1) {
            let bin = &self.weekdays[w.index()];
            num += bin.median() * convert::f64_from_u64(bin.count());
            den += convert::f64_from_u64(bin.count());
        }
        // Exact-zero divide guard.
        if den == 0.0 {
            return None;
        }
        Some((num / den - monday.median()) / monday.median())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::civil::Date;
    use crate::time::Duration;

    fn feed_constant_with_monday_dip(bump: f64) -> CalendarBins {
        let mut bins = CalendarBins::new();
        let mut t = SimTime::from_date(Date::new(2015, 1, 1));
        for _ in 0..(365 * 24) {
            let v = if t.date().weekday() == Weekday::Monday {
                100.0
            } else {
                100.0 + bump
            };
            bins.push(t, v);
            t += Duration::from_hours(1);
        }
        bins
    }

    #[test]
    fn yearly_rows_split_by_year() {
        let mut bins = CalendarBins::new();
        let mut t = SimTime::from_date(Date::new(2014, 12, 30));
        for i in 0..96 {
            bins.push(t, f64::from(i));
            t += Duration::from_hours(1);
        }
        let years = bins.yearly();
        assert_eq!(years.len(), 2);
        assert_eq!(years[0].year, 2014);
        assert_eq!(years[1].year, 2015);
        assert_eq!(years[0].count + years[1].count, 96);
    }

    #[test]
    fn monthly_covers_all_twelve() {
        let bins = feed_constant_with_monday_dip(0.0);
        let months = bins.monthly();
        assert_eq!(months.len(), 12);
        assert!(months.iter().all(|m| m.count > 0));
        assert!(months.iter().all(|m| (m.median - 100.0).abs() < 1e-9));
    }

    #[test]
    fn non_monday_uplift_detects_dip() {
        let bins = feed_constant_with_monday_dip(6.0);
        let uplift = bins.non_monday_uplift().expect("uplift");
        assert!((uplift - 0.06).abs() < 1e-9, "uplift = {uplift}");
    }

    #[test]
    fn monthly_change_from_january_zero_for_flat_signal() {
        let bins = feed_constant_with_monday_dip(0.0);
        let changes = bins.monthly_change_from_january().expect("changes");
        assert!(changes.iter().all(|c| c.abs() < 1e-9));
    }

    #[test]
    fn hour_bins_capture_diurnal_pattern() {
        let mut bins = CalendarBins::new();
        let mut t = SimTime::from_date(Date::new(2015, 6, 1));
        for _ in 0..(30 * 24) {
            let hour = t.to_datetime().hour();
            bins.push(t, if hour >= 12 { 10.0 } else { 0.0 });
            t += Duration::from_hours(1);
        }
        assert_eq!(bins.by_hour()[0].mean(), 0.0);
        assert_eq!(bins.by_hour()[23].mean(), 10.0);
    }

    #[test]
    fn empty_bins_are_safe() {
        let bins = CalendarBins::new();
        assert!(bins.yearly().is_empty());
        assert!(bins.monthly_change_from_january().is_none());
        assert!(bins.non_monday_uplift().is_none());
        assert_eq!(bins.overall().count(), 0);
    }
}
