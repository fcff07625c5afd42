//! Temporal analyses: Figs. 2–5 and 8, plus the free-cooling report.

use serde::{Deserialize, Serialize};

use mira_timeseries::{
    Date, LinearFit, MonthProfile, SimTime, Weekday, WeekdayProfile, YearProfile,
};
use mira_units::{convert, KilowattHours};

use crate::summary::{ChannelAggregate, SweepSummary};

/// Fig. 2: six-year power and utilization trends with linear fits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// Yearly system-power rows (MW).
    pub power_by_year: Vec<YearProfile>,
    /// Yearly utilization rows (percent of nodes).
    pub utilization_by_year: Vec<YearProfile>,
    /// OLS trend of weekly power means, slope in MW/day.
    pub power_fit: Option<LinearFit>,
    /// OLS trend of weekly utilization means, slope in %/day.
    pub utilization_fit: Option<LinearFit>,
}

/// Fig. 2.
#[must_use]
pub fn fig2_yearly_trends(summary: &SweepSummary) -> Fig2 {
    Fig2 {
        power_by_year: summary.power_mw.bins.yearly(),
        utilization_by_year: summary.utilization_pct.bins.yearly(),
        power_fit: summary.power_mw.weekly.trend_per_day(),
        utilization_fit: summary.utilization_pct.weekly.trend_per_day(),
    }
}

/// Fig. 3: coolant flow and temperature stability, with the Theta step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    /// Yearly loop-flow rows (GPM).
    pub flow_by_year: Vec<YearProfile>,
    /// Yearly inlet-temperature rows (F).
    pub inlet_by_year: Vec<YearProfile>,
    /// Yearly outlet-temperature rows (F).
    pub outlet_by_year: Vec<YearProfile>,
    /// Overall standard deviation of loop flow (paper: 41 GPM).
    pub flow_stddev: f64,
    /// Overall standard deviation of inlet temperature (paper: 0.61 F).
    pub inlet_stddev: f64,
    /// Overall standard deviation of outlet temperature (paper: 0.71 F).
    pub outlet_stddev: f64,
    /// Mean loop flow before Theta joined (paper: ≈1,250 GPM).
    pub flow_before_theta: f64,
    /// Mean loop flow after Theta joined (paper: ≈1,300 GPM).
    pub flow_after_theta: f64,
}

/// Fig. 3.
#[must_use]
pub fn fig3_coolant_trends(summary: &SweepSummary) -> Fig3 {
    let theta = SimTime::from_date(Date::new(2016, 7, 1));
    let split = |agg: &ChannelAggregate| {
        let before = agg.weekly.slice(summary.span.0, theta);
        let after = agg.weekly.slice(theta, summary.span.1);
        (before.mean(), after.mean())
    };
    let (flow_before_theta, flow_after_theta) = split(&summary.flow_gpm);
    Fig3 {
        flow_by_year: summary.flow_gpm.bins.yearly(),
        inlet_by_year: summary.inlet_f.bins.yearly(),
        outlet_by_year: summary.outlet_f.bins.yearly(),
        flow_stddev: summary.flow_gpm.bins.overall().stddev(),
        inlet_stddev: summary.inlet_f.bins.overall().stddev(),
        outlet_stddev: summary.outlet_f.bins.overall().stddev(),
        flow_before_theta,
        flow_after_theta,
    }
}

/// Fig. 4: month-of-year profiles of the five system channels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// Monthly power rows (MW).
    pub power: Vec<MonthProfile>,
    /// Monthly utilization rows (%).
    pub utilization: Vec<MonthProfile>,
    /// Monthly flow rows (GPM).
    pub flow: Vec<MonthProfile>,
    /// Monthly inlet rows (F).
    pub inlet: Vec<MonthProfile>,
    /// Monthly outlet rows (F).
    pub outlet: Vec<MonthProfile>,
    /// Relative change of each month's flow median from January.
    pub flow_change_from_january: Option<Vec<f64>>,
    /// Relative change of each month's inlet median from January.
    pub inlet_change_from_january: Option<Vec<f64>>,
    /// Relative change of each month's outlet median from January.
    pub outlet_change_from_january: Option<Vec<f64>>,
}

/// Fig. 4.
#[must_use]
pub fn fig4_monthly_profile(summary: &SweepSummary) -> Fig4 {
    Fig4 {
        power: summary.power_mw.bins.monthly(),
        utilization: summary.utilization_pct.bins.monthly(),
        flow: summary.flow_gpm.bins.monthly(),
        inlet: summary.inlet_f.bins.monthly(),
        outlet: summary.outlet_f.bins.monthly(),
        flow_change_from_january: summary.flow_gpm.bins.monthly_change_from_january(),
        inlet_change_from_january: summary.inlet_f.bins.monthly_change_from_january(),
        outlet_change_from_january: summary.outlet_f.bins.monthly_change_from_january(),
    }
}

/// Fig. 5: day-of-week profiles and the Monday-maintenance effect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// Per-weekday power rows (MW).
    pub power: Vec<WeekdayProfile>,
    /// Per-weekday utilization rows (%).
    pub utilization: Vec<WeekdayProfile>,
    /// Per-weekday flow rows (GPM).
    pub flow: Vec<WeekdayProfile>,
    /// Per-weekday inlet rows (F).
    pub inlet: Vec<WeekdayProfile>,
    /// Per-weekday outlet rows (F).
    pub outlet: Vec<WeekdayProfile>,
    /// Non-Monday power uplift (paper: ≈6 %).
    pub power_uplift: f64,
    /// Non-Monday utilization uplift (paper: ≈1.5 %).
    pub utilization_uplift: f64,
    /// Non-Monday outlet uplift (paper: ≈2 %).
    pub outlet_uplift: f64,
    /// Non-Monday flow uplift (paper: ≈0).
    pub flow_uplift: f64,
    /// Non-Monday inlet uplift (paper: ≈0).
    pub inlet_uplift: f64,
}

/// Mean-based non-Monday uplift over weekday rows.
fn mean_uplift(rows: &[WeekdayProfile]) -> f64 {
    let Some(monday) = rows.iter().find(|r| r.weekday == Weekday::Monday) else {
        return 0.0;
    };
    // Exact-zero divide guard.
    if monday.count == 0 || monday.mean == 0.0 {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for r in rows.iter().filter(|r| r.weekday != Weekday::Monday) {
        num += r.mean * convert::f64_from_u64(r.count);
        den += convert::f64_from_u64(r.count);
    }
    // Exact-zero divide guard.
    if den == 0.0 {
        return 0.0;
    }
    num / den / monday.mean - 1.0
}

/// Fig. 5.
#[must_use]
pub fn fig5_weekday_profile(summary: &SweepSummary) -> Fig5 {
    let power = summary.power_mw.bins.by_weekday();
    let utilization = summary.utilization_pct.bins.by_weekday();
    let flow = summary.flow_gpm.bins.by_weekday();
    let inlet = summary.inlet_f.bins.by_weekday();
    let outlet = summary.outlet_f.bins.by_weekday();
    Fig5 {
        power_uplift: mean_uplift(&power),
        utilization_uplift: mean_uplift(&utilization),
        outlet_uplift: mean_uplift(&outlet),
        flow_uplift: mean_uplift(&flow),
        inlet_uplift: mean_uplift(&inlet),
        power,
        utilization,
        flow,
        inlet,
        outlet,
    }
}

/// Fig. 8: ambient data-center temperature and humidity variability.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    /// Overall temperature standard deviation (paper: 2.48 F).
    pub temperature_stddev: f64,
    /// Temperature range observed (paper: 76–90 F).
    pub temperature_range: (f64, f64),
    /// Overall humidity standard deviation (paper: 3.66 RH).
    pub humidity_stddev: f64,
    /// Humidity range observed (paper: 28–37 RH).
    pub humidity_range: (f64, f64),
    /// Monthly humidity rows — the summer bulge.
    pub humidity_monthly: Vec<MonthProfile>,
    /// Monthly temperature rows.
    pub temperature_monthly: Vec<MonthProfile>,
}

/// Fig. 8.
#[must_use]
pub fn fig8_ambient_trends(summary: &SweepSummary) -> Fig8 {
    // Fig. 8's variability is over the full rack population, so the
    // pooled per-rack statistics (spatial + temporal) are the right
    // base; the monthly profiles use the room-level series.
    let t = &summary.dc_temp_all_racks;
    let h = &summary.dc_rh_all_racks;
    // Ranges describe the plotted room-level series; sigmas the pooled
    // rack population.
    let t_room = summary.dc_temp_f.bins.overall();
    let h_room = summary.dc_rh.bins.overall();
    Fig8 {
        temperature_stddev: t.stddev(),
        temperature_range: (t_room.min(), t_room.max()),
        humidity_stddev: h.stddev(),
        humidity_range: (h_room.min(), h_room.max()),
        humidity_monthly: summary.dc_rh.bins.monthly(),
        temperature_monthly: summary.dc_temp_f.bins.monthly(),
    }
}

/// The waterside-economizer savings report (Sec. II's 17,820 kWh/day and
/// 2,174,040 kWh/season numbers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FreeCoolingReport {
    /// Economizer savings per calendar year.
    pub saved_by_year: Vec<(i32, KilowattHours)>,
    /// Chiller energy actually spent per year.
    pub chiller_by_year: Vec<(i32, KilowattHours)>,
    /// Savings accumulated during December–March months.
    pub season_saved: KilowattHours,
    /// Total savings over the sweep.
    pub total_saved: KilowattHours,
}

/// Free-cooling energy accounting over a sweep.
#[must_use]
pub fn free_cooling_report(summary: &SweepSummary) -> FreeCoolingReport {
    let saved_by_year: Vec<(i32, KilowattHours)> = summary
        .yearly_energy
        .iter()
        .map(|(y, l)| (*y, l.saved()))
        .collect();
    let chiller_by_year = summary
        .yearly_energy
        .iter()
        .map(|(y, l)| (*y, l.chiller_energy()))
        .collect();
    let total_saved = saved_by_year
        .iter()
        .fold(KilowattHours::new(0.0), |acc, (_, s)| acc + *s);
    FreeCoolingReport {
        saved_by_year,
        chiller_by_year,
        season_saved: summary.season_saved,
        total_saved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{SimConfig, Simulation};
    use mira_timeseries::{Duration, Month};

    fn year_summary() -> SweepSummary {
        // One full year at 3 h steps: fast but seasonally complete.
        let sim = Simulation::new(SimConfig::with_seed(41));
        sim.summarize(
            SimTime::from_date(Date::new(2015, 1, 1))..SimTime::from_date(Date::new(2016, 1, 1)),
            Duration::from_hours(3),
        )
        .expect("valid span")
    }

    #[test]
    fn fig4_shapes_hold_within_a_year() {
        let s = year_summary();
        let fig4 = fig4_monthly_profile(&s);
        // December power above May power.
        let power = |m: Month| fig4.power.iter().find(|r| r.month == m).unwrap().median;
        assert!(power(Month::December) > power(Month::May));
        // Inlet warmer in free-cooling months.
        let inlet = |m: Month| fig4.inlet.iter().find(|r| r.month == m).unwrap().median;
        assert!(inlet(Month::January) > inlet(Month::August));
        // Flow/inlet/outlet stay within ±2.5 % of January.
        for changes in [
            fig4.flow_change_from_january.as_ref().unwrap(),
            fig4.inlet_change_from_january.as_ref().unwrap(),
            fig4.outlet_change_from_january.as_ref().unwrap(),
        ] {
            assert_eq!(changes.len(), 12);
            assert!(changes.iter().all(|c| c.abs() < 0.025), "{changes:?}");
        }
    }

    #[test]
    fn fig5_monday_effect() {
        let s = year_summary();
        let fig5 = fig5_weekday_profile(&s);
        assert!(
            (0.02..0.12).contains(&fig5.power_uplift),
            "power uplift {}",
            fig5.power_uplift
        );
        assert!(
            (0.002..0.04).contains(&fig5.utilization_uplift),
            "util uplift {}",
            fig5.utilization_uplift
        );
        assert!(
            fig5.power_uplift > fig5.utilization_uplift * 2.0,
            "power dips harder than utilization"
        );
        assert!(fig5.flow_uplift.abs() < 0.01);
        assert!(fig5.inlet_uplift.abs() < 0.01);
        assert!(fig5.outlet_uplift > 0.0);
    }

    #[test]
    fn fig8_bands() {
        let s = year_summary();
        let fig8 = fig8_ambient_trends(&s);
        assert!((1.0..4.0).contains(&fig8.temperature_stddev));
        assert!((1.5..5.0).contains(&fig8.humidity_stddev));
        let aug = fig8
            .humidity_monthly
            .iter()
            .find(|r| r.month == Month::August)
            .unwrap()
            .median;
        let feb = fig8
            .humidity_monthly
            .iter()
            .find(|r| r.month == Month::February)
            .unwrap()
            .median;
        assert!(aug > feb + 2.0, "summer humidity {aug} vs winter {feb}");
    }

    #[test]
    fn free_cooling_saves_in_winter() {
        let s = year_summary();
        let report = free_cooling_report(&s);
        assert!(report.season_saved.value() > 0.0);
        assert!(report.total_saved.value() >= report.season_saved.value() * 0.8);
        assert_eq!(report.saved_by_year.len(), 1);
        // Annual economizer savings should be order-of-magnitude of the
        // paper's seasonal number (hundreds of thousands of kWh).
        let annual = report.saved_by_year[0].1.value();
        assert!(annual > 1.0e5, "annual saving {annual} kWh");
        assert!(annual < 5.0e6, "annual saving {annual} kWh");
    }
}
