//! The per-rack bulk power module (BPM) model.
//!
//! Each rack's BPM converts 480 V three-phase AC from the 13.2 kV
//! substations into DC for the two midplanes, over four 60 A line cords.
//! The coolant monitor's "power" channel is the aggregate draw of the
//! rack's four power enclosures — compute load plus fans plus conversion
//! loss. This module maps (utilization, job CPU-intensity) to that
//! aggregate draw.

use serde::{Deserialize, Serialize};

use mira_units::{Kilowatts, Watts};

/// Per-rack AC→DC bulk power module.
///
/// The model is affine in compute activity:
///
/// `P = (idle + span · utilization · intensity) / efficiency`
///
/// - `idle` — draw of an empty, powered rack (fans, DC house-keeping,
///   leakage). Mira racks never fully idle in production, and burner jobs
///   keep them warm during maintenance.
/// - `span` — additional draw between idle and a fully-busy rack running
///   maximally CPU-intensive work.
/// - `intensity` — how hard the running jobs drive the cores (`0..=1`);
///   this is what decorrelates power from plain utilization (the paper
///   measured only 0.45 correlation).
/// - `efficiency` — AC→DC conversion efficiency of the BPM.
///
/// ```
/// use mira_facility::BulkPowerModule;
///
/// let bpm = BulkPowerModule::mira();
/// let idle = bpm.draw(0.0, 0.5);
/// let busy = bpm.draw(1.0, 1.0);
/// assert!(busy.value() > idle.value());
/// // 48 busy racks stay within the 6 MW provisioning.
/// assert!(busy.value() * 48.0 <= 6_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BulkPowerModule {
    idle_kw: f64,
    span_kw: f64,
    efficiency: f64,
}

/// Number of 480 V line cords feeding each rack's BPM.
pub const LINE_CORDS_PER_RACK: u32 = 4;

/// Line-cord current rating in amperes.
pub const LINE_CORD_AMPS: f64 = 60.0;

/// What a down rack's coolant monitor reports as power: its power
/// enclosures are off, so only the standby draw remains.
pub const STANDBY_DRAW: Kilowatts = Kilowatts::new(1.5);

impl BulkPowerModule {
    /// The Mira BPM calibration.
    ///
    /// Chosen so the 48-rack aggregate reproduces the paper's trajectory:
    /// ≈2.5 MW at 2014 utilization/intensity and ≈2.9 MW at 2019 levels,
    /// with headroom to the 6 MW provisioning limit.
    #[must_use]
    pub fn mira() -> Self {
        Self {
            idle_kw: 27.0,
            span_kw: 42.0,
            efficiency: 0.94,
        }
    }

    /// Creates a custom BPM model.
    ///
    /// # Panics
    ///
    /// Panics unless `idle_kw >= 0`, `span_kw >= 0`, and
    /// `0 < efficiency <= 1`.
    #[must_use]
    pub fn new(idle_kw: f64, span_kw: f64, efficiency: f64) -> Self {
        assert!(idle_kw >= 0.0, "idle draw must be non-negative");
        assert!(span_kw >= 0.0, "span must be non-negative");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        Self {
            idle_kw,
            span_kw,
            efficiency,
        }
    }

    /// AC-side draw for a rack at `utilization` (fraction of nodes busy)
    /// running jobs of the given mean CPU `intensity` (both clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn draw(&self, utilization: f64, intensity: f64) -> Kilowatts {
        let u = utilization.clamp(0.0, 1.0);
        let i = intensity.clamp(0.0, 1.0);
        Kilowatts::new((self.idle_kw + self.span_kw * u * i) / self.efficiency)
    }

    /// Heat dissipated into the rack's coolant loop, in watts.
    ///
    /// All DC power becomes heat in the rack; conversion loss heats the
    /// BPM enclosure (air-side) and is excluded from the liquid loop.
    #[must_use]
    // Dimensionless utilization/intensity fractions. mira-lint: allow(raw-f64-in-public-api)
    pub fn heat_to_coolant_watts(&self, utilization: f64, intensity: f64) -> Watts {
        Watts::new(self.coolant_watts(self.draw(utilization, intensity)))
    }

    /// The coolant-side heat, in watts, of an AC draw.
    fn coolant_watts(&self, draw: Kilowatts) -> f64 {
        draw.value() * self.efficiency * 1000.0
    }

    /// [`Self::draw`] and [`Self::heat_to_coolant_watts`] over a row of
    /// racks: lane `l` of `draw_kw` gets the AC draw in kW and lane `l`
    /// of `heat_w` the coolant heat in W of a rack at `utilization[l]`
    /// and `intensity[l]`, or [`STANDBY_DRAW`] and no heat where
    /// `up[l]` is false.
    ///
    /// Branch-free so the loop vectorizes: every lane computes the up
    /// rack's draw and heat with the scalar expressions, and the up mask
    /// then selects. Each lane is bit-identical to the scalar calls (or
    /// to the standby pair on a down rack).
    // Raw kW / W / fraction lane rows, re-wrapped in their newtypes by
    // the per-step view. mira-lint: allow(raw-f64-in-public-api)
    pub fn draw_lanes<const N: usize>(
        &self,
        up: &[bool; N],
        utilization: &[f64; N],
        intensity: &[f64; N],
        draw_kw: &mut [f64; N],
        heat_w: &mut [f64; N],
    ) {
        let rows = up.iter().zip(utilization.iter().zip(intensity));
        for ((&up, (&u, &i)), (d, h)) in rows.zip(draw_kw.iter_mut().zip(heat_w.iter_mut())) {
            let draw = self.draw(u, i);
            let heat = self.coolant_watts(draw);
            *d = if up {
                draw.value()
            } else {
                STANDBY_DRAW.value()
            };
            *h = if up { heat } else { 0.0 };
        }
    }

    /// Idle (zero-utilization) AC draw.
    #[must_use]
    pub fn idle_draw(&self) -> Kilowatts {
        self.draw(0.0, 0.0)
    }

    /// Maximum AC draw (full utilization, maximal intensity).
    #[must_use]
    pub fn max_draw(&self) -> Kilowatts {
        self.draw(1.0, 1.0)
    }

    /// AC→DC conversion efficiency.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Theoretical line-cord capacity at 480 V three-phase, in kW.
    #[must_use]
    pub fn line_capacity_kw(&self) -> Kilowatts {
        // P = √3 · V · I per cord.
        Kilowatts::new(
            f64::from(LINE_CORDS_PER_RACK) * 3f64.sqrt() * 480.0 * LINE_CORD_AMPS / 1000.0,
        )
    }
}

impl Default for BulkPowerModule {
    fn default() -> Self {
        Self::mira()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mira_power_trajectory_brackets_paper() {
        let bpm = BulkPowerModule::mira();
        // 2014: ~80 % utilization, moderate intensity.
        let early = bpm.draw(0.80, 0.72).value() * 48.0 / 1000.0;
        // 2019: ~93 % utilization, higher intensity mix.
        let late = bpm.draw(0.93, 0.80).value() * 48.0 / 1000.0;
        assert!((2.3..2.7).contains(&early), "2014 ≈ 2.5 MW, got {early}");
        assert!((2.7..3.1).contains(&late), "2019 ≈ 2.9 MW, got {late}");
    }

    #[test]
    fn draw_clamps_inputs() {
        let bpm = BulkPowerModule::mira();
        assert_eq!(bpm.draw(-1.0, 0.5), bpm.draw(0.0, 0.5));
        assert_eq!(bpm.draw(2.0, 1.5), bpm.draw(1.0, 1.0));
    }

    #[test]
    fn max_draw_within_line_capacity() {
        let bpm = BulkPowerModule::mira();
        assert!(bpm.max_draw().value() < bpm.line_capacity_kw().value());
    }

    #[test]
    fn heat_excludes_conversion_loss() {
        let bpm = BulkPowerModule::mira();
        let heat = bpm.heat_to_coolant_watts(1.0, 1.0).value();
        let ac = bpm.max_draw().value() * 1000.0;
        assert!(heat < ac);
        assert!((heat / ac - bpm.efficiency()).abs() < 1e-12);
    }

    #[test]
    fn draw_lanes_match_the_scalar_calls_bit_for_bit() {
        let bpm = BulkPowerModule::mira();
        // Up and down racks, clamped inputs, and both zeros.
        let up = [true, false, true, true, false, true, true, false];
        let util = [0.8, 0.8, 0.0, -0.0, 0.0, 1.7, -0.3, 0.93];
        let intensity = [0.72, 0.72, 0.5, 1.0, 0.0, 0.9, 0.4, 1.2];
        let (mut draw, mut heat) = ([f64::NAN; 8], [f64::NAN; 8]);
        bpm.draw_lanes(&up, &util, &intensity, &mut draw, &mut heat);
        for l in 0..8 {
            let (want_draw, want_heat) = if up[l] {
                (
                    bpm.draw(util[l], intensity[l]).value(),
                    bpm.heat_to_coolant_watts(util[l], intensity[l]).value(),
                )
            } else {
                (STANDBY_DRAW.value(), 0.0)
            };
            assert_eq!(draw[l].to_bits(), want_draw.to_bits(), "draw, lane {l}");
            assert_eq!(heat[l].to_bits(), want_heat.to_bits(), "heat, lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "efficiency must be in (0, 1]")]
    fn rejects_bad_efficiency() {
        let _ = BulkPowerModule::new(10.0, 10.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "idle draw must be non-negative")]
    fn rejects_negative_idle() {
        let _ = BulkPowerModule::new(-1.0, 10.0, 0.9);
    }

    proptest! {
        #[test]
        fn draw_is_monotone_in_utilization(
            a in 0.0f64..1.0, b in 0.0f64..1.0, i in 0.01f64..1.0,
        ) {
            let bpm = BulkPowerModule::mira();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bpm.draw(lo, i).value() <= bpm.draw(hi, i).value());
        }

        #[test]
        fn draw_bounded(u in -2.0f64..2.0, i in -2.0f64..2.0) {
            let bpm = BulkPowerModule::mira();
            let p = bpm.draw(u, i);
            prop_assert!(p.value() >= bpm.idle_draw().value() - 1e-12);
            prop_assert!(p.value() <= bpm.max_draw().value() + 1e-12);
        }
    }
}
