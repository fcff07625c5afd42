//! Per-rack usage structure: who runs what, where.
//!
//! Fig. 6 of the paper: row 0 (the `prod-long` queue) has the highest
//! utilization *and* power; rack `(0, A)` leads utilization while
//! `(0, D)` leads power; columns 2, 6, A and B host users who habitually
//! target specific racks; rack `(2, D)` has the lowest utilization yet
//! sits 7 % above the power minimum — because power tracks the CPU
//! intensity of the jobs on a rack, not just how many nodes are busy.
//! Across racks the paper measured only a 0.45 power–utilization
//! correlation.

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::SimTime;
use mira_units::convert;
use mira_weather::{FractalBank, ValueNoise};

/// Per-rack cursor bank for [`RackUsageProfile::placement_wobble_lanes_into`].
///
/// Each rack's wobble samples a distinct phase of the shared placement
/// noise, so each rack owns its own cursor lane of a [`FractalBank`]
/// (one contiguous buffer rather than 48 heap vectors); cached lattice
/// values are pure functions of `(seed, cell)` and the lane path is
/// bit-identical to [`RackUsageProfile::placement_wobble`].
#[derive(Debug, Clone)]
pub struct WobbleCursor {
    bank: FractalBank,
}

/// Static per-rack usage profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackFactors {
    /// Multiplier on system utilization for this rack.
    pub utilization_factor: f64,
    /// Multiplier on system CPU intensity for this rack (the job-mix
    /// effect that decorrelates power from utilization).
    pub intensity_factor: f64,
}

/// The spatial usage profile of the machine.
///
/// ```
/// use mira_facility::RackId;
/// use mira_workload::RackUsageProfile;
///
/// let profile = RackUsageProfile::mira(3);
/// let row0 = profile.factors(RackId::new(0, 5)).utilization_factor;
/// let row2 = profile.factors(RackId::new(2, 5)).utilization_factor;
/// assert!(row0 > row2, "prod-long keeps row 0 busier");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackUsageProfile {
    factors: Vec<RackFactors>,
    /// Per-rack temporal wobble in which jobs land where.
    placement_noise: ValueNoise,
}

/// Hotspot columns where users habitually submit to specific racks
/// (columns 2, 6, A, B in the paper).
pub const HOTSPOT_COLUMNS: [u8; 4] = [2, 6, 10, 11];

impl RackUsageProfile {
    /// Builds the Mira profile.
    #[must_use]
    pub fn mira(seed: u64) -> Self {
        let factors = RackId::all()
            .map(|rack| {
                // Row effect: prod-long on row 0 never underutilizes its
                // allocation.
                let mut util = match rack.row() {
                    0 => 1.025,
                    1 => 0.985,
                    _ => 0.975,
                };
                if HOTSPOT_COLUMNS.contains(&rack.column()) {
                    util += 0.022;
                }
                // Named anchors from Fig. 6.
                if rack == RackId::new(0, 10) {
                    util += 0.030; // (0, A): utilization leader
                }
                if rack == RackId::new(2, 13) {
                    util -= 0.075; // (2, D): utilization floor
                }
                // Small fixed per-rack scatter (user affinity).
                let h = (rack.index() as u64 + 3).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7);
                let u = convert::f64_from_u64((h >> 20) & 0xFFFF) / 65_535.0 - 0.5;
                util += u * 0.012;

                // Intensity: hash-distributed job mix, wide enough to pull
                // the power-utilization correlation down to ≈0.45. Row 0's
                // long capability jobs run a touch denser.
                let h2 = (rack.index() as u64 + 11).wrapping_mul(0xB529_7A4D_382E_5E23);
                let v = convert::f64_from_u64((h2 >> 18) & 0xFFFF) / 65_535.0; // [0, 1]
                let mut intensity = 0.90 + 0.22 * v;
                if rack.row() == 0 {
                    intensity += 0.015;
                }
                if rack == RackId::new(0, 13) {
                    intensity = 1.155; // (0, D): power leader via dense jobs
                }
                if rack == RackId::new(2, 13) {
                    intensity = 1.102; // (2, D): few nodes, hot jobs
                }

                RackFactors {
                    utilization_factor: util,
                    intensity_factor: intensity,
                }
            })
            .collect();
        Self {
            factors,
            placement_noise: ValueNoise::new(seed ^ 0x9ACE_0000, 2.0 * 86_400.0),
        }
    }

    /// The static factors for a rack.
    #[must_use]
    pub fn factors(&self, rack: RackId) -> RackFactors {
        self.factors[rack.index()]
    }

    /// The static factors for every rack, in rack-index order.
    pub(crate) fn factors_slice(&self) -> &[RackFactors] {
        &self.factors
    }

    /// Temporal placement wobble for a rack at `t`, a multiplier near 1:
    /// which jobs happen to sit on the rack right now.
    #[must_use]
    pub fn placement_wobble(&self, rack: RackId, t: SimTime) -> f64 {
        let phase = convert::f64_from_i64(t.epoch_seconds())
            + convert::f64_from_usize(rack.index()) * 4.321e6;
        1.0 + self.placement_noise.fractal(phase, 2) * 0.045
    }

    /// Builds the per-rack cursor bank for
    /// [`Self::placement_wobble_lanes_into`].
    #[must_use]
    pub fn wobble_cursor(&self) -> WobbleCursor {
        WobbleCursor {
            bank: self.placement_noise.fractal_bank(2, self.factors.len()),
        }
    }

    /// [`Self::placement_wobble`] for every rack at once: lane `l` of
    /// `out` receives rack `l`'s wobble at `t`, bit-identical to the
    /// scalar path (the per-rack phase offset `l * 4.321e6` is exactly
    /// the stride the scalar path adds).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the profile's rack count.
    // Dimensionless multipliers, same contract as `placement_wobble`.
    // mira-lint: allow(raw-f64-in-public-api)
    pub fn placement_wobble_lanes_into(
        &self,
        t: SimTime,
        cursor: &mut WobbleCursor,
        out: &mut [f64],
    ) {
        let base = convert::f64_from_i64(t.epoch_seconds());
        cursor.bank.fractal_lanes_into(base, 4.321e6, out);
        for v in out.iter_mut() {
            *v = 1.0 + *v * 0.045;
        }
    }

    /// The rack with the highest utilization factor.
    #[must_use]
    pub fn utilization_leader(&self) -> RackId {
        RackId::all()
            .max_by(|a, b| {
                self.factors(*a)
                    .utilization_factor
                    .total_cmp(&self.factors(*b).utilization_factor)
            })
            // RackId::all() always yields 48 racks.
            .unwrap_or_else(|| RackId::from_index(0))
    }

    /// The rack with the highest expected power (`util × intensity`).
    #[must_use]
    pub fn power_leader(&self) -> RackId {
        RackId::all()
            .max_by(|a, b| {
                let fa = self.factors(*a);
                let fb = self.factors(*b);
                (fa.utilization_factor * fa.intensity_factor)
                    .total_cmp(&(fb.utilization_factor * fb.intensity_factor))
            })
            // RackId::all() always yields 48 racks.
            .unwrap_or_else(|| RackId::from_index(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::{Date, Duration};

    #[test]
    fn anchors_match_fig6() {
        let p = RackUsageProfile::mira(1);
        assert_eq!(
            p.utilization_leader(),
            RackId::new(0, 10),
            "(0, A) leads util"
        );
        assert_eq!(p.power_leader(), RackId::new(0, 13), "(0, D) leads power");
        // (2, D) is the utilization floor.
        let floor = RackId::all()
            .min_by(|a, b| {
                p.factors(*a)
                    .utilization_factor
                    .total_cmp(&p.factors(*b).utilization_factor)
            })
            .unwrap();
        assert_eq!(floor, RackId::new(2, 13));
    }

    #[test]
    fn row0_is_busiest_on_average() {
        let p = RackUsageProfile::mira(1);
        let row_mean = |row: u8| {
            (0..16)
                .map(|c| p.factors(RackId::new(row, c)).utilization_factor)
                .sum::<f64>()
                / 16.0
        };
        assert!(row_mean(0) > row_mean(1));
        assert!(row_mean(0) > row_mean(2));
    }

    #[test]
    fn hotspot_columns_get_boost() {
        let p = RackUsageProfile::mira(1);
        let hot = p.factors(RackId::new(1, 2)).utilization_factor;
        let cold = p.factors(RackId::new(1, 3)).utilization_factor;
        assert!(hot > cold);
    }

    #[test]
    fn two_d_power_sits_above_floor_despite_low_util() {
        let p = RackUsageProfile::mira(1);
        let two_d = p.factors(RackId::new(2, 13));
        let x_two_d = two_d.utilization_factor * two_d.intensity_factor;
        let min_x = RackId::all()
            .map(|r| {
                let f = p.factors(r);
                f.utilization_factor * f.intensity_factor
            })
            .fold(f64::INFINITY, f64::min);
        let uplift = (x_two_d - min_x) / min_x;
        assert!(
            (0.02..0.15).contains(&uplift),
            "(2, D) power uplift over floor: {uplift}"
        );
    }

    #[test]
    fn wobble_is_small_and_time_varying() {
        let p = RackUsageProfile::mira(1);
        let r = RackId::new(1, 1);
        let t0 = SimTime::from_date(Date::new(2016, 4, 1));
        let w0 = p.placement_wobble(r, t0);
        let w1 = p.placement_wobble(r, t0 + Duration::from_days(3));
        assert!((0.9..1.1).contains(&w0));
        assert_ne!(w0, w1);
    }

    #[test]
    fn factors_are_positive_and_bounded() {
        let p = RackUsageProfile::mira(1);
        for r in RackId::all() {
            let f = p.factors(r);
            assert!((0.85..1.15).contains(&f.utilization_factor), "{r}");
            assert!((0.85..1.20).contains(&f.intensity_factor), "{r}");
        }
    }
}
