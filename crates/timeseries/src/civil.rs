//! A from-scratch proleptic-Gregorian calendar.
//!
//! The simulator needs exact civil-time arithmetic over 2014–2019 —
//! leap years (2016!), day-of-week (Monday maintenance), and month
//! boundaries (allocation years, free-cooling season). The conversions
//! between dates and day counts use the classic days-from-civil /
//! civil-from-days algorithms (Howard Hinnant), valid over the whole
//! proleptic Gregorian calendar.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A month of the civil year.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Month {
    January = 1,
    February = 2,
    March = 3,
    April = 4,
    May = 5,
    June = 6,
    July = 7,
    August = 8,
    September = 9,
    October = 10,
    November = 11,
    December = 12,
}

impl Month {
    /// All twelve months, January first.
    pub const ALL: [Month; 12] = [
        Month::January,
        Month::February,
        Month::March,
        Month::April,
        Month::May,
        Month::June,
        Month::July,
        Month::August,
        Month::September,
        Month::October,
        Month::November,
        Month::December,
    ];

    /// Builds a month from its 1-based number.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=12`.
    #[must_use]
    #[allow(clippy::panic, reason = "documented contract panic")]
    pub fn from_number(n: u8) -> Self {
        Self::ALL
            .get(usize::from(n.wrapping_sub(1)))
            .copied()
            // Documented contract panic. mira-lint: allow(panic-reachability)
            .unwrap_or_else(|| panic!("month number out of range: {n}"))
    }

    /// The 1-based month number (January = 1).
    #[must_use]
    pub fn number(self) -> u8 {
        self as u8
    }

    /// The month's zero-based index (January = 0), handy for array bins.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.number()) - 1
    }

    /// Whether this month falls in the Chicago free-cooling season
    /// (December through March), when the waterside economizer can carry
    /// part or all of the chilled-water load.
    #[must_use]
    pub fn is_free_cooling_season(self) -> bool {
        matches!(
            self,
            Month::December | Month::January | Month::February | Month::March
        )
    }

    /// Whether this month is in the second half of the calendar year,
    /// where INCITE projects race their allocation deadline and Mira's
    /// utilization peaks.
    #[must_use]
    pub fn is_second_half(self) -> bool {
        self.number() >= 7
    }

    /// Number of days in this month for the given year.
    #[must_use]
    pub fn days(self, year: i32) -> u8 {
        match self {
            Month::January
            | Month::March
            | Month::May
            | Month::July
            | Month::August
            | Month::October
            | Month::December => 31,
            Month::April | Month::June | Month::September | Month::November => 30,
            Month::February => {
                if is_leap_year(year) {
                    29
                } else {
                    28
                }
            }
        }
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Month::January => "January",
            Month::February => "February",
            Month::March => "March",
            Month::April => "April",
            Month::May => "May",
            Month::June => "June",
            Month::July => "July",
            Month::August => "August",
            Month::September => "September",
            Month::October => "October",
            Month::November => "November",
            Month::December => "December",
        };
        f.write_str(name)
    }
}

/// A day of the week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Weekday {
    Monday = 0,
    Tuesday = 1,
    Wednesday = 2,
    Thursday = 3,
    Friday = 4,
    Saturday = 5,
    Sunday = 6,
}

impl Weekday {
    /// All seven weekdays, Monday first (the paper's Fig. 5 ordering).
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Zero-based index with Monday = 0.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self as u8)
    }

    /// Builds a weekday from its Monday-based index.
    ///
    /// # Panics
    ///
    /// Panics if `i > 6`.
    #[must_use]
    #[allow(clippy::panic, reason = "documented contract panic")]
    pub fn from_index(i: usize) -> Self {
        Self::ALL
            .get(i)
            .copied()
            // Documented contract panic. mira-lint: allow(panic-reachability)
            .unwrap_or_else(|| panic!("weekday index out of range: {i}"))
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Weekday::Monday => "Monday",
            Weekday::Tuesday => "Tuesday",
            Weekday::Wednesday => "Wednesday",
            Weekday::Thursday => "Thursday",
            Weekday::Friday => "Friday",
            Weekday::Saturday => "Saturday",
            Weekday::Sunday => "Sunday",
        };
        f.write_str(name)
    }
}

/// Whether `year` is a Gregorian leap year.
#[must_use]
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// A civil date (proleptic Gregorian).
///
/// ```
/// use mira_timeseries::{Date, Weekday};
/// // Theta joined Mira's cooling loop in July 2016.
/// let theta = Date::new(2016, 7, 1);
/// assert_eq!(theta.weekday(), Weekday::Friday);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    year: i32,
    month: Month,
    day: u8,
}

impl Date {
    /// Creates a date from year, 1-based month number, and day of month.
    ///
    /// # Panics
    ///
    /// Panics if the month or day is out of range for that year.
    #[must_use]
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        let month = Month::from_number(month);
        assert!(
            day >= 1 && day <= month.days(year),
            "day {day} out of range for {month} {year}"
        );
        Self { year, month, day }
    }

    /// The calendar year.
    #[must_use]
    pub fn year(self) -> i32 {
        self.year
    }

    /// The month.
    #[must_use]
    pub fn month(self) -> Month {
        self.month
    }

    /// The day of month (1-based).
    #[must_use]
    pub fn day(self) -> u8 {
        self.day
    }

    /// Days since 1970-01-01 (may be negative before the epoch).
    ///
    /// Implements Hinnant's `days_from_civil`.
    #[must_use]
    pub fn days_since_epoch(self) -> i64 {
        let y = i64::from(self.year) - i64::from(self.month.number() <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(self.month.number());
        let d = i64::from(self.day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// Builds a date from days since 1970-01-01.
    ///
    /// Implements Hinnant's `civil_from_days`.
    #[must_use]
    pub fn from_days_since_epoch(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        #[allow(
            clippy::expect_used,
            reason = "only a year outside i32 (far beyond any telemetry horizon) can fail here"
        )]
        // See the allow above. mira-lint: allow(panic-reachability)
        let year = i32::try_from(y + i64::from(m <= 2)).expect("year out of i32 range");
        // `mp` bounds put `m` in [1, 12] and `d` in [1, 31]; `Date::new`
        // re-validates both, so the fallbacks are unreachable.
        Self::new(
            year,
            u8::try_from(m).unwrap_or(0),
            u8::try_from(d).unwrap_or(0),
        )
    }

    /// The weekday of this date (1970-01-01 was a Thursday).
    #[must_use]
    pub fn weekday(self) -> Weekday {
        let days = self.days_since_epoch();
        // Days-since-epoch 0 = Thursday = Monday-index 3.
        // rem_euclid(7) is non-negative and below 7, so the conversion
        // is lossless and the fallback is unreachable.
        let idx = (days + 3).rem_euclid(7);
        Weekday::from_index(usize::try_from(idx).unwrap_or(0))
    }

    /// The date `n` days after this one (`n` may be negative).
    #[must_use]
    pub fn plus_days(self, n: i64) -> Self {
        Self::from_days_since_epoch(self.days_since_epoch() + n)
    }

    /// Zero-based day of year (Jan 1 = 0).
    #[must_use]
    pub fn day_of_year(self) -> u16 {
        let jan1 = Date::new(self.year, 1, 1);
        // A date is 0..=365 days after its own January 1, so the
        // difference always fits u16.
        u16::try_from(self.days_since_epoch() - jan1.days_since_epoch()).unwrap_or(0)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}",
            self.year,
            self.month.number(),
            self.day
        )
    }
}

/// A civil date and time-of-day (no timezone; the facility clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DateTime {
    date: Date,
    hour: u8,
    minute: u8,
    second: u8,
}

impl DateTime {
    /// Creates a date-time.
    ///
    /// # Panics
    ///
    /// Panics if `hour > 23`, `minute > 59`, or `second > 59`.
    #[must_use]
    pub fn new(date: Date, hour: u8, minute: u8, second: u8) -> Self {
        assert!(hour <= 23, "hour out of range: {hour}");
        assert!(minute <= 59, "minute out of range: {minute}");
        assert!(second <= 59, "second out of range: {second}");
        Self {
            date,
            hour,
            minute,
            second,
        }
    }

    /// Midnight at the start of `date`.
    #[must_use]
    pub fn midnight(date: Date) -> Self {
        Self::new(date, 0, 0, 0)
    }

    /// The civil date.
    #[must_use]
    pub fn date(self) -> Date {
        self.date
    }

    /// Hour of day (0–23).
    #[must_use]
    pub fn hour(self) -> u8 {
        self.hour
    }

    /// Minute of hour (0–59).
    #[must_use]
    pub fn minute(self) -> u8 {
        self.minute
    }

    /// Second of minute (0–59).
    #[must_use]
    pub fn second(self) -> u8 {
        self.second
    }

    /// Seconds since 1970-01-01T00:00:00.
    #[must_use]
    pub fn seconds_since_epoch(self) -> i64 {
        self.date.days_since_epoch() * 86_400
            + i64::from(self.hour) * 3600
            + i64::from(self.minute) * 60
            + i64::from(self.second)
    }

    /// Builds a date-time from seconds since the epoch.
    #[must_use]
    pub fn from_seconds_since_epoch(secs: i64) -> Self {
        let days = secs.div_euclid(86_400);
        let sod = secs.rem_euclid(86_400);
        let date = Date::from_days_since_epoch(days);
        // sod = rem_euclid(86_400) lies in [0, 86_399], so every field is
        // in range; `Self::new` re-checks them.
        let hour = u8::try_from(sod / 3600).unwrap_or(0);
        let minute = u8::try_from((sod % 3600) / 60).unwrap_or(0);
        let second = u8::try_from(sod % 60).unwrap_or(0);
        Self::new(date, hour, minute, second)
    }

    /// Fractional hour of day in `[0, 24)`, used by diurnal models.
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        f64::from(self.hour) + f64::from(self.minute) / 60.0 + f64::from(self.second) / 3600.0
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:02}:{:02}:{:02}",
            self.date, self.hour, self.minute, self.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).days_since_epoch(), 0);
        assert_eq!(Date::new(1970, 1, 1).weekday(), Weekday::Thursday);
    }

    #[test]
    fn known_dates() {
        // Mira production start and end.
        assert_eq!(Date::new(2014, 1, 1).weekday(), Weekday::Wednesday);
        assert_eq!(Date::new(2019, 12, 31).weekday(), Weekday::Tuesday);
        // 2016 was a leap year.
        assert!(is_leap_year(2016));
        assert!(!is_leap_year(2100));
        assert!(is_leap_year(2000));
        assert_eq!(Month::February.days(2016), 29);
        assert_eq!(Month::February.days(2015), 28);
    }

    #[test]
    fn six_year_span_length() {
        let days =
            Date::new(2020, 1, 1).days_since_epoch() - Date::new(2014, 1, 1).days_since_epoch();
        // 2014..2019 inclusive: 4*365 + 2*366 (2016, plus... wait 2016 only).
        // 2014,2015,2017,2018,2019 are 365; 2016 is 366.
        assert_eq!(days, 5 * 365 + 366);
    }

    #[test]
    fn day_of_year_boundaries() {
        assert_eq!(Date::new(2016, 1, 1).day_of_year(), 0);
        assert_eq!(Date::new(2016, 12, 31).day_of_year(), 365);
        assert_eq!(Date::new(2015, 12, 31).day_of_year(), 364);
    }

    #[test]
    fn plus_days_crosses_boundaries() {
        assert_eq!(Date::new(2016, 2, 28).plus_days(1), Date::new(2016, 2, 29));
        assert_eq!(Date::new(2015, 12, 31).plus_days(1), Date::new(2016, 1, 1));
        assert_eq!(Date::new(2016, 1, 1).plus_days(-1), Date::new(2015, 12, 31));
    }

    #[test]
    fn free_cooling_season_months() {
        let season: Vec<Month> = Month::ALL
            .into_iter()
            .filter(|m| m.is_free_cooling_season())
            .collect();
        assert_eq!(
            season,
            vec![
                Month::January,
                Month::February,
                Month::March,
                Month::December
            ]
        );
    }

    #[test]
    fn datetime_round_trip_known() {
        let dt = DateTime::new(Date::new(2016, 7, 4), 9, 30, 15);
        let secs = dt.seconds_since_epoch();
        assert_eq!(DateTime::from_seconds_since_epoch(secs), dt);
    }

    #[test]
    fn hour_of_day_fractional() {
        let dt = DateTime::new(Date::new(2014, 1, 1), 12, 30, 0);
        assert!((dt.hour_of_day() - 12.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "day 30 out of range")]
    fn invalid_february_rejected() {
        let _ = Date::new(2015, 2, 30);
    }

    #[test]
    #[should_panic(expected = "month number out of range")]
    fn invalid_month_rejected() {
        let _ = Date::new(2015, 13, 1);
    }

    #[test]
    #[should_panic(expected = "hour out of range")]
    fn invalid_hour_rejected() {
        let _ = DateTime::new(Date::new(2015, 1, 1), 24, 0, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Date::new(2016, 7, 1).to_string(), "2016-07-01");
        assert_eq!(
            DateTime::new(Date::new(2016, 7, 1), 9, 5, 0).to_string(),
            "2016-07-01 09:05:00"
        );
        assert_eq!(Month::July.to_string(), "July");
        assert_eq!(Weekday::Monday.to_string(), "Monday");
    }

    #[test]
    fn weekday_sequence_is_cyclic() {
        let mut d = Date::new(2014, 1, 6); // a Monday
        assert_eq!(d.weekday(), Weekday::Monday);
        for expected in [
            Weekday::Tuesday,
            Weekday::Wednesday,
            Weekday::Thursday,
            Weekday::Friday,
            Weekday::Saturday,
            Weekday::Sunday,
            Weekday::Monday,
        ] {
            d = d.plus_days(1);
            assert_eq!(d.weekday(), expected);
        }
    }

    proptest! {
        #[test]
        fn date_round_trip(days in -1_000_000i64..1_000_000) {
            let d = Date::from_days_since_epoch(days);
            prop_assert_eq!(d.days_since_epoch(), days);
        }

        #[test]
        fn datetime_round_trip(secs in -50_000_000_000i64..50_000_000_000) {
            let dt = DateTime::from_seconds_since_epoch(secs);
            prop_assert_eq!(dt.seconds_since_epoch(), secs);
        }

        #[test]
        fn plus_days_is_additive(days in -100_000i64..100_000, a in -500i64..500, b in -500i64..500) {
            let d = Date::from_days_since_epoch(days);
            prop_assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
        }

        #[test]
        fn weekday_advances_by_one(days in -100_000i64..100_000) {
            let d = Date::from_days_since_epoch(days);
            let next = d.plus_days(1);
            prop_assert_eq!(
                (d.weekday().index() + 1) % 7,
                next.weekday().index()
            );
        }
    }
}
