//! Calendar-keyed streaming aggregation.
//!
//! The paper's temporal analyses are all calendar re-groupings of the same
//! telemetry stream: per-year trends (Fig. 2–3), month-of-year medians
//! (Fig. 4), and day-of-week medians (Fig. 5). [`CalendarBins`] keeps one
//! bin per calendar month and one per weekday, each O(1) memory: a
//! [`Welford`] accumulator for means/extremes plus a [`P2Quantile`] for
//! the median. The overall, yearly and month-of-year views are derived
//! on read by merging month bins.

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
/// Holds one bin per calendar month observed, in chronological order,
/// plus the seven weekday bins. A push costs one month-bin push and one
/// weekday push. The overall, yearly and month-of-year views are
/// chronological [`BinSummary::merge`] folds over the month bins, the
/// same left fold the month-sharded sweep performs over its shards.
/// Counts, means and extremes are exact; a view spanning several
/// months carries the merged median of [`P2Quantile::merge`].
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
    /// One bin per calendar month, keyed and sorted by (year, month).
    months: Vec<(i32, Month, BinSummary)>,
    weekdays: [BinSummary; 7],
}

impl Default for CalendarBins {
    fn default() -> Self {
        Self::new()
    }
}

/// Chronological fold of `bins` into one summary.
fn fold<'a>(bins: impl IntoIterator<Item = &'a BinSummary>) -> BinSummary {
    let mut acc = BinSummary::new();
    for bin in bins {
        acc.merge(bin);
    }
    acc
}

impl CalendarBins {
    /// Creates an empty aggregation.
    #[must_use]
    pub fn new() -> Self {
        Self {
            months: Vec::new(),
            weekdays: std::array::from_fn(|_| BinSummary::new()),
        }
    }

    /// Adds one timestamped observation to its month and weekday bins.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.push_parts(t.civil_parts(), value);
    }

    /// [`Self::push`] with the civil decomposition already in hand.
    ///
    /// The sweep hot path decomposes each instant once (through a
    /// [`crate::CivilDayCache`]) and feeds the same [`CivilParts`] to
    /// every channel's bins, instead of re-deriving the date per channel
    /// per step. `push(t, v)` is exactly `push_parts(t.civil_parts(), v)`.
    // weekday `.index()` is bounded by its type's contract; the weekday
    // array has matching length. mira-lint: allow(panic-reachability)
    pub fn push_parts(&mut self, parts: CivilParts, value: f64) {
        let (year, month) = (parts.date.year(), parts.date.month());
        // Chronological pushes land in the newest (last) month bin.
        match self.months.last_mut() {
            Some((y, m, bin)) if *y == year && *m == month => bin.push(value),
            _ => self.month_bin(year, month).push(value),
        }
        self.weekdays[parts.weekday.index()].push(value);
    }

    /// The bin for `(year, month)`, inserted empty in chronological
    /// position when absent.
    // `at` is a found-or-just-inserted position in `months`.
    // mira-lint: allow(panic-reachability)
    fn month_bin(&mut self, year: i32, month: Month) -> &mut BinSummary {
        let at = self
            .months
            .partition_point(|(y, m, _)| (*y, *m) < (year, month));
        if !matches!(self.months.get(at), Some((y, m, _)) if *y == year && *m == month) {
            self.months.insert(at, (year, month, BinSummary::new()));
        }
        &mut self.months[at].2
    }

    /// Merges another aggregation into this one.
    ///
    /// The other side's month bins are inserted in chronological
    /// position; a month present on both sides (a shard cut inside the
    /// month) is pooled. Weekday bins combine element-wise. Means,
    /// counts, and extremes merge exactly; medians approximately (see
    /// [`P2Quantile::merge`]), except that merging into an empty bin
    /// copies it.
    pub fn merge(&mut self, other: &CalendarBins) {
        for (year, month, bin) in &other.months {
            self.month_bin(*year, *month).merge(bin);
        }
        for (mine, theirs) in self.weekdays.iter_mut().zip(&other.weekdays) {
            mine.merge(theirs);
        }
    }

    /// Summary over all observations: the chronological fold of every
    /// month bin.
    #[must_use]
    pub fn overall(&self) -> BinSummary {
        fold(self.months.iter().map(|(_, _, bin)| bin))
    }

    /// Per-year rows, in year order, each the chronological fold of the
    /// year's month bins.
    #[must_use]
    // A `chunk_by` run is never empty. mira-lint: allow(panic-reachability)
    pub fn yearly(&self) -> Vec<YearProfile> {
        self.months
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let bin = fold(run.iter().map(|(_, _, bin)| bin));
                YearProfile {
                    year: run[0].0,
                    mean: bin.mean(),
                    median: bin.median(),
                    min: bin.min(),
                    max: bin.max(),
                    count: bin.count(),
                }
            })
            .collect()
    }

    /// The twelve month-of-year bins, January first: each folds that
    /// month's bins across the years, chronologically.
    // month `.index()` is bounded by its type's contract.
    // mira-lint: allow(panic-reachability)
    fn month_of_year(&self) -> [BinSummary; 12] {
        let mut acc: [BinSummary; 12] = std::array::from_fn(|_| BinSummary::new());
        for (_, month, bin) in &self.months {
            acc[month.index()].merge(bin);
        }
        acc
    }

    /// Twelve month-of-year rows, January first (empty months included).
    #[must_use]
    pub fn monthly(&self) -> Vec<MonthProfile> {
        Month::ALL
            .into_iter()
            .zip(self.month_of_year())
            .map(|(month, bin)| MonthProfile {
                month,
                median: bin.median(),
                mean: bin.mean(),
                count: bin.count(),
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

    /// Relative change of each month's median from January's, the
    /// "less than 1.5 % change from January" statistic of Fig. 4.
    ///
    /// Returns `None` when January has no samples or a zero median.
    #[must_use]
    pub fn monthly_change_from_january(&self) -> Option<Vec<f64>> {
        let months = self.month_of_year();
        let [january, ..] = &months;
        let jan = january.median();
        // Exact-zero divide guard.
        if january.count() == 0 || jan == 0.0 {
            return None;
        }
        Some(
            months
                .iter()
                .map(|bin| (bin.median() - jan) / jan)
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

    /// A stream of `n` hourly values from `start` with a non-trivial
    /// distribution (so the P² markers leave their start-up phase).
    fn stream(start: Date, n: u32) -> Vec<(SimTime, f64)> {
        let mut t = SimTime::from_date(start);
        (0..n)
            .map(|i| {
                let v = f64::from((i * 7919) % 1000) / 10.0 + f64::from(i % 24);
                let sample = (t, v);
                t += Duration::from_hours(1);
                sample
            })
            .collect()
    }

    /// The month-derived views, rendered bit for bit.
    fn month_views(bins: &CalendarBins) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            bins.overall(),
            bins.yearly(),
            bins.monthly(),
            bins.monthly_change_from_january()
        )
    }

    #[test]
    fn one_month_views_equal_a_sequential_bin() {
        let samples = stream(Date::new(2016, 3, 1), 31 * 24);
        let mut bins = CalendarBins::new();
        let mut seq = BinSummary::new();
        for &(t, v) in &samples {
            bins.push(t, v);
            seq.push(v);
        }
        assert_eq!(bins.overall(), seq);
        let yearly = bins.yearly();
        let [year] = yearly.as_slice() else {
            panic!("one year row")
        };
        assert_eq!(year.year, 2016);
        assert_eq!(year.count, seq.count());
        assert_eq!(year.mean.to_bits(), seq.mean().to_bits());
        assert_eq!(year.median.to_bits(), seq.median().to_bits());
        assert_eq!(year.min.to_bits(), seq.min().to_bits());
        assert_eq!(year.max.to_bits(), seq.max().to_bits());
        let march = &bins.monthly()[Month::March.index()];
        assert_eq!(march.count, seq.count());
        assert_eq!(march.mean.to_bits(), seq.mean().to_bits());
        assert_eq!(march.median.to_bits(), seq.median().to_bits());
    }

    #[test]
    fn month_split_partials_merge_to_the_whole_stream() {
        // Dec 2015 through Feb 2017: a year seam and two Januaries.
        let samples = stream(Date::new(2015, 12, 1), 430 * 24);
        let mut whole = CalendarBins::new();
        let mut merged = CalendarBins::new();
        let mut shard = CalendarBins::new();
        let mut shard_month = None;
        for &(t, v) in &samples {
            whole.push(t, v);
            let key = (t.date().year(), t.date().month());
            if shard_month.is_some_and(|m| m != key) {
                merged.merge(&std::mem::take(&mut shard));
            }
            shard_month = Some(key);
            shard.push(t, v);
        }
        merged.merge(&shard);
        assert_eq!(merged.yearly().len(), 3);
        assert_eq!(month_views(&merged), month_views(&whole));
        // Weekday bins span every shard, so they pool by merge: counts
        // exactly, medians approximately.
        for (m, w) in merged.by_weekday().iter().zip(whole.by_weekday()) {
            assert_eq!(m.count, w.count);
            assert!((m.mean - w.mean).abs() < 1e-9);
        }
    }

    #[test]
    fn mid_month_split_pools_counts_and_extremes() {
        let samples = stream(Date::new(2016, 5, 1), 31 * 24);
        let (first, second) = samples.split_at(300);
        let mut whole = CalendarBins::new();
        let mut a = CalendarBins::new();
        let mut b = CalendarBins::new();
        for &(t, v) in first {
            whole.push(t, v);
            a.push(t, v);
        }
        for &(t, v) in second {
            whole.push(t, v);
            b.push(t, v);
        }
        a.merge(&b);
        let (pooled, full) = (a.overall(), whole.overall());
        assert_eq!(pooled.count(), full.count());
        assert_eq!(pooled.min().to_bits(), full.min().to_bits());
        assert_eq!(pooled.max().to_bits(), full.max().to_bits());
        assert!((pooled.mean() - full.mean()).abs() < 1e-9);
        assert_eq!(a.yearly().len(), 1);
        assert_eq!(a.monthly()[Month::May.index()].count, full.count());
        let days: u64 = a.by_weekday().iter().map(|w| w.count).sum();
        assert_eq!(days, full.count());
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
