//! The per-rack heat exchanger between the external and internal loops.

use serde::{Deserialize, Serialize};

use mira_units::{Fahrenheit, Gpm, Watts};

/// Specific heat of water in J/(kg·K).
const WATER_CP: f64 = 4186.0;

/// Counter-flow heat exchanger under one rack.
///
/// The external (chilled) loop cools the rack's internal loop; the heat
/// picked up by the internal loop raises the coolant temperature between
/// the inlet and outlet ports the coolant monitor instruments:
///
/// `ΔT = Q / (ṁ · c_p · ε)`
///
/// where `ε` is the exchanger effectiveness — sub-unity effectiveness
/// shows up as a *larger* measured internal-loop ΔT for the same heat
/// transferred to the external loop.
///
/// With the paper's numbers this closes: ≈26 GPM per rack (1250 GPM / 48)
/// and a ≈64 °F inlet / ≈79 °F outlet split implies ≈55–60 kW of heat per
/// rack, which times 48 racks is the 2.5–2.9 MW system draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeatExchanger {
    effectiveness: f64,
}

impl HeatExchanger {
    /// The Mira HX calibration.
    #[must_use]
    pub fn mira() -> Self {
        Self {
            effectiveness: 0.92,
        }
    }

    /// Creates an exchanger with the given effectiveness.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < effectiveness <= 1`.
    #[must_use]
    // Dimensionless effectiveness in (0, 1]. mira-lint: allow(raw-f64-in-public-api)
    pub fn new(effectiveness: f64) -> Self {
        assert!(
            effectiveness > 0.0 && effectiveness <= 1.0,
            "effectiveness must be in (0, 1]"
        );
        Self { effectiveness }
    }

    /// Exchanger effectiveness.
    #[must_use]
    // Dimensionless effectiveness in (0, 1]. mira-lint: allow(raw-f64-in-public-api)
    pub fn effectiveness(&self) -> f64 {
        self.effectiveness
    }

    /// Coolant temperature rise across the rack for `heat` watts of load
    /// at the given flow.
    ///
    /// Returns a zero rise for non-positive flow (valve closed): with no
    /// coolant movement the monitor reads no ΔT (and the rack is about to
    /// trip on temperature instead).
    #[must_use]
    pub fn delta_t(&self, flow: Gpm, heat: Watts) -> Fahrenheit {
        Fahrenheit::new(self.rise(flow, heat.value()))
    }

    /// The rise of [`Self::delta_t`] in Fahrenheit degrees, branch-free:
    /// the division runs on every input (a zero flow divides to `inf`
    /// or NaN) and the no-flow / no-heat guard then selects zero.
    fn rise(&self, flow: Gpm, heat_w: f64) -> f64 {
        let m_dot = flow.mass_flow_kg_per_s();
        let dt_kelvin = heat_w / (m_dot * WATER_CP * self.effectiveness);
        // A kelvin step is 1.8 Fahrenheit steps.
        let rise = dt_kelvin * 1.8;
        if m_dot <= 1e-9 || heat_w <= 0.0 {
            0.0
        } else {
            rise
        }
    }

    /// Outlet coolant temperature for a given inlet, flow and heat load.
    #[must_use]
    pub fn outlet_temperature(&self, inlet: Fahrenheit, flow: Gpm, heat: Watts) -> Fahrenheit {
        inlet + self.delta_t(flow, heat)
    }

    /// [`Self::outlet_temperature`] over a row of racks: lane `l` of
    /// `outlet` gets the outlet temperature (F) for `inlet[l]` (F),
    /// `flow[l]` (GPM) and `heat_w[l]` (W).
    ///
    /// Branch-free (see [`Self::delta_t`]'s guard) so the loop
    /// vectorizes; each lane is bit-identical to the scalar call.
    // Raw F / GPM / W lane rows, re-wrapped in their newtypes by the
    // per-step view. mira-lint: allow(raw-f64-in-public-api)
    pub fn outlet_lanes<const N: usize>(
        &self,
        inlet: &[f64; N],
        flow: &[f64; N],
        heat_w: &[f64; N],
        outlet: &mut [f64; N],
    ) {
        let rows = inlet.iter().zip(flow.iter().zip(heat_w));
        for ((&inlet, (&flow, &heat)), out) in rows.zip(outlet.iter_mut()) {
            *out = inlet + self.rise(Gpm::new(flow), heat);
        }
    }

    /// The heat load implied by an observed ΔT at a given flow — the
    /// inverse model, useful for validating telemetry.
    #[must_use]
    pub fn implied_heat(&self, delta_t: Fahrenheit, flow: Gpm) -> Watts {
        let m_dot = flow.mass_flow_kg_per_s();
        Watts::new((delta_t.value() / 1.8) * m_dot * WATER_CP * self.effectiveness)
    }
}

impl Default for HeatExchanger {
    fn default() -> Self {
        Self::mira()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_operating_point_closes() {
        let hx = HeatExchanger::mira();
        // 26 GPM, ~57 kW -> outlet ~79 F from 64 F inlet.
        let out =
            hx.outlet_temperature(Fahrenheit::new(64.0), Gpm::new(26.0), Watts::new(57_000.0));
        assert!(
            (78.0..80.5).contains(&out.value()),
            "outlet {out} off the paper's ≈79 F"
        );
    }

    #[test]
    fn zero_flow_gives_zero_delta() {
        let hx = HeatExchanger::mira();
        assert_eq!(hx.delta_t(Gpm::new(0.0), Watts::new(50_000.0)).value(), 0.0);
        assert_eq!(hx.delta_t(Gpm::new(26.0), Watts::new(-5.0)).value(), 0.0);
    }

    #[test]
    fn inverse_model_round_trips() {
        let hx = HeatExchanger::mira();
        let flow = Gpm::new(27.5);
        let q = Watts::new(61_000.0);
        let dt = hx.delta_t(flow, q);
        assert!((hx.implied_heat(dt, flow).value() - q.value()).abs() < 1.0);
    }

    #[test]
    fn lower_effectiveness_raises_measured_delta() {
        let good = HeatExchanger::new(0.95);
        let fouled = HeatExchanger::new(0.75);
        let flow = Gpm::new(26.0);
        assert!(
            fouled.delta_t(flow, Watts::new(50_000.0)) > good.delta_t(flow, Watts::new(50_000.0))
        );
    }

    #[test]
    fn outlet_lanes_match_the_scalar_call_bit_for_bit() {
        let hx = HeatExchanger::mira();
        let bpm = mira_facility::BulkPowerModule::mira();
        // Up racks at their operating point, a down rack (no heat), zero
        // and near-zero flow (`m_dot <= 1e-9`), negative heat, a closed
        // valve on a down rack, and an inlet of `-0.0` (which the scalar
        // `inlet + 0.0` turns into `+0.0`).
        let up_heat = bpm.heat_to_coolant_watts(0.8, 0.72).value();
        let inlet = [64.0, 64.0, 63.5, 64.2, 64.0, -0.0, 58.9, 64.0];
        let flow = [26.0, 26.0, 0.0, 1e-12, 27.1, 26.0, 26.0, 0.0];
        let heat = [up_heat, 0.0, up_heat, up_heat, -5.0, 0.0, 61_000.0, 0.0];
        let mut outlet = [f64::NAN; 8];
        hx.outlet_lanes(&inlet, &flow, &heat, &mut outlet);
        for l in 0..8 {
            let want = hx.outlet_temperature(
                Fahrenheit::new(inlet[l]),
                Gpm::new(flow[l]),
                Watts::new(heat[l]),
            );
            assert_eq!(outlet[l].to_bits(), want.value().to_bits(), "lane {l}");
        }
        // The guarded lanes read their inlet unchanged (up to the zero's
        // sign); the live lanes carry a positive rise.
        assert_eq!(outlet[1].to_bits(), 64.0f64.to_bits());
        assert_eq!(outlet[2].to_bits(), 63.5f64.to_bits());
        assert_eq!(outlet[3].to_bits(), 64.2f64.to_bits());
        assert_eq!(outlet[5].to_bits(), 0.0f64.to_bits());
        assert!(outlet[0] > 64.0 && outlet[6] > 58.9);
    }

    #[test]
    #[should_panic(expected = "effectiveness must be in (0, 1]")]
    fn rejects_bad_effectiveness() {
        let _ = HeatExchanger::new(1.5);
    }

    proptest! {
        #[test]
        fn delta_monotone_in_heat(q1 in 0.0f64..100_000.0, q2 in 0.0f64..100_000.0) {
            let hx = HeatExchanger::mira();
            let flow = Gpm::new(26.0);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(hx.delta_t(flow, Watts::new(lo)).value() <= hx.delta_t(flow, Watts::new(hi)).value());
        }

        #[test]
        fn delta_inverse_in_flow(f1 in 5.0f64..50.0, f2 in 5.0f64..50.0) {
            let hx = HeatExchanger::mira();
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            prop_assert!(
                hx.delta_t(Gpm::new(hi), Watts::new(50_000.0)).value()
                    <= hx.delta_t(Gpm::new(lo), Watts::new(50_000.0)).value() + 1e-12
            );
        }
    }
}
