//! The combined rack-level workload model.

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::{Date, SimTime};

use crate::demand::{DemandCursor, DemandModel, SystemDemand};
use crate::spatial::{RackUsageProfile, WobbleCursor};

/// Cursor bundle for the workload hot path: the system-demand cursor
/// plus the per-rack placement-wobble bank.
///
/// Built by [`WorkloadModel::cursor`]; every cached value is a pure
/// function of model constants and lattice cells, so the cursor path is
/// bit-identical to the cold path from any prior state.
#[derive(Debug, Clone)]
pub struct WorkloadCursor {
    demand: DemandCursor,
    wobble: WobbleCursor,
}

/// The workload state of one rack at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackLoad {
    /// Fraction of the rack's 1,024 nodes running jobs.
    pub utilization: f64,
    /// Mean CPU intensity of the jobs on the rack.
    pub intensity: f64,
}

/// System demand × spatial profile = per-rack load.
///
/// ```
/// use mira_facility::RackId;
/// use mira_timeseries::{Date, SimTime};
/// use mira_workload::WorkloadModel;
///
/// let wl = WorkloadModel::new(42);
/// let t = SimTime::from_date(Date::new(2017, 10, 5));
/// let load = wl.rack_load_with(t, RackId::new(0, 10), &wl.system_demand(t));
/// assert!(load.utilization > 0.5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadModel {
    demand: DemandModel,
    profile: RackUsageProfile,
}

impl WorkloadModel {
    /// Creates the workload model for a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            demand: DemandModel::new(seed),
            profile: RackUsageProfile::mira(seed),
        }
    }

    /// The system-level demand component.
    #[must_use]
    pub fn demand(&self) -> &DemandModel {
        &self.demand
    }

    /// The spatial usage profile.
    #[must_use]
    pub fn profile(&self) -> &RackUsageProfile {
        &self.profile
    }

    /// Samples the system demand at `t`.
    #[must_use]
    pub fn system_demand(&self, t: SimTime) -> SystemDemand {
        self.demand.sample(t)
    }

    /// The load on `rack` at `t`, given an already-sampled system demand
    /// (lets one demand sample be shared across all 48 racks per step).
    #[must_use]
    pub fn rack_load_with(&self, t: SimTime, rack: RackId, demand: &SystemDemand) -> RackLoad {
        let f = self.profile.factors(rack);
        let wobble = self.profile.placement_wobble(rack, t);
        let utilization = (demand.utilization * f.utilization_factor * wobble).clamp(0.0, 1.0);
        // During maintenance every rack runs the same burner mix, so the
        // per-rack intensity structure disappears.
        let intensity = if demand.in_maintenance {
            demand.intensity
        } else {
            (demand.intensity * f.intensity_factor).clamp(0.0, 1.0)
        };
        RackLoad {
            utilization,
            intensity,
        }
    }

    /// Builds the cursor bundle for the cached sampling path.
    #[must_use]
    pub fn cursor(&self) -> WorkloadCursor {
        WorkloadCursor {
            demand: self.demand.cursor(),
            wobble: self.profile.wobble_cursor(),
        }
    }

    /// [`Self::system_demand`] through the cursor, with the civil date
    /// of `t` already in hand; bit-identical to the cold path.
    #[must_use]
    pub fn system_demand_with(
        &self,
        t: SimTime,
        date: Date,
        cursor: &mut WorkloadCursor,
    ) -> SystemDemand {
        self.demand.sample_with(t, date, &mut cursor.demand)
    }

    /// [`Self::rack_load_with`] for every rack at once: lane `l`
    /// receives rack `l`'s utilization and intensity. Bit-identical to
    /// the scalar path per lane — the wobble lanes are the same noise at
    /// the same per-rack phase, the clamp expressions match, and the
    /// maintenance branch is hoisted out of the lane loop (it depends
    /// only on the shared system demand).
    ///
    /// Lanes are computed for every rack regardless of availability;
    /// callers that zero out down racks (as the sweep does by skipping
    /// them) discard pure values, which cannot perturb any other lane.
    ///
    /// # Panics
    ///
    /// Panics if the output slices differ from the rack count.
    // Raw f64 lanes, same contract as `RackLoad`'s public fields.
    // mira-lint: allow(raw-f64-in-public-api)
    pub fn rack_load_lanes(
        &self,
        t: SimTime,
        demand: &SystemDemand,
        cursor: &mut WorkloadCursor,
        utilization: &mut [f64],
        intensity: &mut [f64],
    ) {
        // The wobble lanes land in `utilization` first (scratch reuse),
        // then each lane folds in the static factors.
        self.profile
            .placement_wobble_lanes_into(t, &mut cursor.wobble, utilization);
        let factors = self.profile.factors_slice();
        // Documented panic contract: one lane per rack.
        // mira-lint: allow(panic-reachability)
        assert_eq!(intensity.len(), factors.len(), "one lane per rack");
        if demand.in_maintenance {
            // Maintenance flattens the per-rack intensity structure.
            intensity.fill(demand.intensity);
            for (u, f) in utilization.iter_mut().zip(factors) {
                *u = (demand.utilization * f.utilization_factor * *u).clamp(0.0, 1.0);
            }
        } else {
            for ((u, i), f) in utilization
                .iter_mut()
                .zip(intensity.iter_mut())
                .zip(factors)
            {
                *u = (demand.utilization * f.utilization_factor * *u).clamp(0.0, 1.0);
                *i = (demand.intensity * f.intensity_factor).clamp(0.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::{Date, Duration};

    #[test]
    fn rack_load_bounded() {
        let wl = WorkloadModel::new(9);
        let mut t = SimTime::from_date(Date::new(2014, 1, 1));
        let end = SimTime::from_date(Date::new(2014, 3, 1));
        while t < end {
            for rack in [RackId::new(0, 0), RackId::new(1, 8), RackId::new(2, 15)] {
                let l = wl.rack_load_with(t, rack, &wl.system_demand(t));
                assert!((0.0..=1.0).contains(&l.utilization));
                assert!((0.0..=1.0).contains(&l.intensity));
            }
            t += Duration::from_hours(7);
        }
    }

    #[test]
    fn mean_rack_utilization_tracks_system_demand() {
        let wl = WorkloadModel::new(9);
        let t = SimTime::from_date(Date::new(2017, 2, 10)) + Duration::from_hours(14);
        let d = wl.system_demand(t);
        let mean: f64 = RackId::all()
            .map(|r| wl.rack_load_with(t, r, &d).utilization)
            .sum::<f64>()
            / 48.0;
        assert!(
            (mean - d.utilization).abs() < 0.05,
            "rack mean {mean} vs system {}",
            d.utilization
        );
    }

    /// Checks both cursor paths — the system demand and the rack-load
    /// lane kernel — bit for bit against the cold path at `t`; returns
    /// whether `t` falls in maintenance.
    fn assert_cursor_matches_cold(
        wl: &WorkloadModel,
        cursor: &mut WorkloadCursor,
        t: SimTime,
    ) -> bool {
        let mut util = [0.0f64; 48];
        let mut intensity = [0.0f64; 48];
        let cold = wl.system_demand(t);
        assert_eq!(wl.system_demand_with(t, t.date(), cursor), cold);
        wl.rack_load_lanes(t, &cold, cursor, &mut util, &mut intensity);
        for rack in RackId::all() {
            let load = wl.rack_load_with(t, rack, &cold);
            assert_eq!(util[rack.index()].to_bits(), load.utilization.to_bits());
            assert_eq!(intensity[rack.index()].to_bits(), load.intensity.to_bits());
        }
        cold.in_maintenance
    }

    #[test]
    fn cursor_path_is_bit_identical() {
        let wl = WorkloadModel::new(2014);
        let mut cursor = wl.cursor();
        // A fine sweep crossing maintenance Mondays, then jumps
        // (backwards, across years) that must invalidate cleanly.
        let mut t = SimTime::from_date(Date::new(2015, 1, 1));
        for _ in 0..(4 * 288) {
            assert_cursor_matches_cold(&wl, &mut cursor, t);
            t += Duration::from_minutes(15);
        }
        for date in [
            Date::new(2014, 1, 1),
            Date::new(2019, 12, 31),
            Date::new(2016, 2, 29),
            Date::new(2014, 6, 2),
        ] {
            let t = SimTime::from_date(date) + Duration::from_hours(10);
            assert_cursor_matches_cold(&wl, &mut cursor, t);
        }
    }

    #[test]
    fn lane_kernel_matches_cached_path_bitwise() {
        let wl = WorkloadModel::new(2014);
        let mut cursor = wl.cursor();
        // Uneven steps through maintenance Mondays: the lane kernel must
        // match the scalar `rack_load_with` bit for bit.
        let mut t = SimTime::from_date(Date::new(2016, 1, 1));
        let mut saw_maintenance = false;
        for k in 0..(5 * 288) {
            saw_maintenance |= assert_cursor_matches_cold(&wl, &mut cursor, t);
            t += Duration::from_minutes(if k % 7 == 0 { 35 } else { 5 });
        }
        assert!(saw_maintenance, "sweep should cross a maintenance window");
    }

    #[test]
    fn maintenance_flattens_intensity_structure() {
        let wl = WorkloadModel::new(9);
        // Find a maintenance instant.
        let mut t = SimTime::from_date(Date::new(2016, 1, 1));
        loop {
            let d = wl.system_demand(t);
            if d.in_maintenance {
                let a = wl.rack_load_with(t, RackId::new(0, 13), &d);
                let b = wl.rack_load_with(t, RackId::new(2, 0), &d);
                assert_eq!(a.intensity, b.intensity);
                break;
            }
            t += Duration::from_minutes(30);
        }
    }
}
