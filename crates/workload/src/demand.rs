//! System-level demand: the utilization and job-mix trajectory.

use serde::{Deserialize, Serialize};

use mira_timeseries::{Date, Month, SimTime};
use mira_units::convert;
use mira_weather::{FractalCursor, NoiseCursor, ValueNoise};

use crate::maintenance::MaintenanceSchedule;

/// Cursor bundle for [`DemandModel::sample_with`]: noise cursors for the
/// four demand noise streams plus the production-period bounds.
///
/// Every cached value is a pure function of the model's constants or of
/// `(seed, lattice cell)`, so cursor-assisted sampling is bit-identical
/// to [`DemandModel::sample`] from any prior cursor state.
#[derive(Debug, Clone)]
pub struct DemandCursor {
    progress: Option<(i64, i64)>,
    util: FractalCursor,
    drop: NoiseCursor,
    drain: NoiseCursor,
    intensity: FractalCursor,
}

/// The system-wide workload state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemDemand {
    /// Fraction of the 49,152 nodes running jobs, in `[0, 1]`.
    pub utilization: f64,
    /// Mean CPU intensity of the running job mix, in `[0, 1]`.
    pub intensity: f64,
    /// Whether a maintenance window is active.
    pub in_maintenance: bool,
}

/// Models Mira's system-level utilization and job-mix trajectory
/// 2014–2019.
///
/// Components:
/// - a year-over-year ramp (≈80 % → ≈93 %, Fig. 2b) as the INCITE/ALCC
///   program mix matured;
/// - the allocation-year seasonality (H2 heavier than H1, December peak,
///   April–May trough — Fig. 4b);
/// - transient drops: rack reservations that go unused, large-job drains
///   the backfill cannot fill, and occasional outages (Fig. 2's
///   downward spikes);
/// - Monday maintenance windows with burner jobs: utilization dips
///   slightly, CPU intensity collapses (Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandModel {
    maintenance: MaintenanceSchedule,
    util_noise: ValueNoise,
    drop_noise: ValueNoise,
    drain_noise: ValueNoise,
    intensity_noise: ValueNoise,
}

impl DemandModel {
    /// Creates the demand model for a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            maintenance: MaintenanceSchedule::mira(),
            util_noise: ValueNoise::new(seed ^ 0x07D0_11A3, 9.0 * 86_400.0),
            drop_noise: ValueNoise::new(seed ^ 0xD10D_0000, 2.5 * 86_400.0),
            drain_noise: ValueNoise::new(seed ^ 0xD2A1_4000, 1.2 * 86_400.0),
            intensity_noise: ValueNoise::new(seed ^ 0x1247_E517, 6.0 * 86_400.0),
        }
    }

    /// The maintenance schedule in force.
    #[must_use]
    pub fn maintenance(&self) -> &MaintenanceSchedule {
        &self.maintenance
    }

    /// Fraction of the production period elapsed at `t`, clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn production_progress(t: SimTime) -> f64 {
        let start = SimTime::from_date(production_start());
        let end = SimTime::from_date(Date::new(2020, 1, 1));
        (convert::f64_from_i64((t - start).as_seconds())
            / convert::f64_from_i64((end - start).as_seconds()))
        .clamp(0.0, 1.0)
    }

    /// Allocation-year seasonal factor on utilization for a month.
    ///
    /// INCITE's January–December allocation year drives a second-half
    /// surge peaking in December; ALCC's July start adds the July
    /// shoulder. April–May are the trough.
    #[must_use]
    pub fn month_factor(month: Month) -> f64 {
        match month {
            Month::January => 0.990,
            Month::February => 0.985,
            Month::March => 0.982,
            Month::April => 0.972,
            Month::May => 0.972,
            Month::June => 0.985,
            Month::July => 1.008,
            Month::August => 1.000,
            Month::September => 1.005,
            Month::October => 1.012,
            Month::November => 1.018,
            Month::December => 1.032,
        }
    }

    /// Samples the system demand at `t`.
    #[must_use]
    pub fn sample(&self, t: SimTime) -> SystemDemand {
        let secs = convert::f64_from_i64(t.epoch_seconds());
        let progress = Self::production_progress(t);
        let month = t.date().month();

        // Year-over-year ramp with allocation-year seasonality.
        let mut util = (0.81 + 0.135 * progress) * Self::month_factor(month);
        util += self.util_noise.fractal(secs, 3) * 0.025;

        // Transient drops: reservations/outages (deep, day-scale) and
        // large-job drains (shallower, hour-scale).
        let d = self.drop_noise.sample(secs);
        if d > 0.66 {
            util *= 1.0 - (d - 0.66) / 0.34 * 0.40;
        }
        let drain = self.drain_noise.sample(secs + 5.0e7);
        if drain > 0.78 {
            util *= 1.0 - (drain - 0.78) / 0.22 * 0.18;
        }

        // Job-mix CPU intensity: drifts up over the years (denser, better
        // optimized codes), slightly heavier in H2.
        let mut intensity = 0.66
            + 0.085 * progress
            + if month.is_second_half() { 0.008 } else { 0.0 }
            + self.intensity_noise.fractal(secs + 9.0e7, 2) * 0.02;

        let in_maintenance = self.maintenance.in_window(t);
        if in_maintenance {
            // Drain user jobs; burner jobs keep nodes nominally busy but
            // nearly idle in CPU terms.
            util *= 0.91;
            intensity = 0.24;
        }

        SystemDemand {
            utilization: util.clamp(0.0, 1.0),
            intensity: intensity.clamp(0.0, 1.0),
            in_maintenance,
        }
    }

    /// Builds the cursor bundle for [`Self::sample_with`].
    #[must_use]
    pub fn cursor(&self) -> DemandCursor {
        DemandCursor {
            progress: None,
            util: self.util_noise.fractal_cursor(3),
            drop: NoiseCursor::default(),
            drain: NoiseCursor::default(),
            intensity: self.intensity_noise.fractal_cursor(2),
        }
    }

    /// [`Self::sample`] with the civil date of `t` already in hand and a
    /// [`DemandCursor`] memoizing the noise lattice values; bit-identical
    /// to the cold path.
    ///
    /// `date` must be the civil date of `t` (the sweep hot path derives
    /// it once per step and shares it across consumers).
    #[must_use]
    pub fn sample_with(&self, t: SimTime, date: Date, cursor: &mut DemandCursor) -> SystemDemand {
        let secs = convert::f64_from_i64(t.epoch_seconds());
        let (start, end) = *cursor.progress.get_or_insert_with(|| {
            (
                SimTime::from_date(production_start()).epoch_seconds(),
                SimTime::from_date(Date::new(2020, 1, 1)).epoch_seconds(),
            )
        });
        let progress = (convert::f64_from_i64(t.epoch_seconds() - start)
            / convert::f64_from_i64(end - start))
        .clamp(0.0, 1.0);
        let month = date.month();

        let mut util = (0.81 + 0.135 * progress) * Self::month_factor(month);
        util += self.util_noise.fractal_with(secs, &mut cursor.util) * 0.025;

        let d = self.drop_noise.sample_with(secs, &mut cursor.drop);
        if d > 0.66 {
            util *= 1.0 - (d - 0.66) / 0.34 * 0.40;
        }
        let drain = self
            .drain_noise
            .sample_with(secs + 5.0e7, &mut cursor.drain);
        if drain > 0.78 {
            util *= 1.0 - (drain - 0.78) / 0.22 * 0.18;
        }

        let mut intensity = 0.66
            + 0.085 * progress
            + if month.is_second_half() { 0.008 } else { 0.0 }
            + self
                .intensity_noise
                .fractal_with(secs + 9.0e7, &mut cursor.intensity)
                * 0.02;

        let in_maintenance = self.maintenance.in_window_on(date, t);
        if in_maintenance {
            util *= 0.91;
            intensity = 0.24;
        }

        SystemDemand {
            utilization: util.clamp(0.0, 1.0),
            intensity: intensity.clamp(0.0, 1.0),
            in_maintenance,
        }
    }
}

/// First day of Mira's production period (2014-01-01).
#[must_use]
pub fn production_start() -> Date {
    Date::new(2014, 1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::Duration;

    fn avg_util(model: &DemandModel, year: i32, month: u8) -> f64 {
        let mut t = SimTime::from_date(Date::new(year, month, 1));
        let mut total = 0.0;
        let mut n = 0u32;
        for _ in 0..(27 * 24) {
            total += model.sample(t).utilization;
            t += Duration::from_hours(1);
            n += 1;
        }
        total / f64::from(n)
    }

    #[test]
    fn utilization_ramps_over_years() {
        let m = DemandModel::new(5);
        let early = avg_util(&m, 2014, 3);
        let late = avg_util(&m, 2019, 10);
        assert!((0.72..0.85).contains(&early), "2014 ≈ 0.80, got {early}");
        assert!((0.86..0.97).contains(&late), "2019 ≈ 0.93, got {late}");
        assert!(late > early + 0.06);
    }

    #[test]
    fn december_beats_may() {
        let m = DemandModel::new(5);
        let may = avg_util(&m, 2017, 5);
        let dec = avg_util(&m, 2017, 12);
        assert!(dec > may + 0.02, "dec {dec} vs may {may}");
    }

    #[test]
    fn maintenance_collapses_intensity() {
        let m = DemandModel::new(5);
        // Find a maintenance instant.
        let mut t = SimTime::from_date(Date::new(2015, 1, 1));
        let end = SimTime::from_date(Date::new(2015, 3, 1));
        let mut found = false;
        while t < end {
            let d = m.sample(t);
            if d.in_maintenance {
                assert!(d.intensity < 0.3);
                found = true;
                break;
            }
            t += Duration::from_minutes(30);
        }
        assert!(found, "no maintenance window found in two months");
    }

    #[test]
    fn demand_stays_in_unit_interval() {
        let m = DemandModel::new(5);
        let mut t = SimTime::from_date(Date::new(2014, 1, 1));
        let end = SimTime::from_date(Date::new(2020, 1, 1));
        while t < end {
            let d = m.sample(t);
            assert!((0.0..=1.0).contains(&d.utilization));
            assert!((0.0..=1.0).contains(&d.intensity));
            t += Duration::from_hours(13);
        }
    }

    #[test]
    fn transient_drops_exist() {
        let m = DemandModel::new(5);
        let mut t = SimTime::from_date(Date::new(2016, 1, 1));
        let end = SimTime::from_date(Date::new(2017, 1, 1));
        let mut min = f64::INFINITY;
        while t < end {
            min = min.min(m.sample(t).utilization);
            t += Duration::from_hours(1);
        }
        assert!(
            min < 0.62,
            "expected at least one deep transient, min {min}"
        );
    }

    #[test]
    fn progress_clamps() {
        assert_eq!(
            DemandModel::production_progress(SimTime::from_date(Date::new(2010, 1, 1))),
            0.0
        );
        assert_eq!(
            DemandModel::production_progress(SimTime::from_date(Date::new(2022, 1, 1))),
            1.0
        );
    }
}
