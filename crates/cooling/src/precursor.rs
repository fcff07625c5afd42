//! The telemetry signature in the hours before a coolant monitor failure.
//!
//! Fig. 12 of the paper: the otherwise rock-stable coolant temperatures
//! move hours before a CMF. The inlet temperature sags by up to 7 %
//! starting about four hours out, then snaps up by ~8 % in the last half
//! hour; the outlet follows with a ~5 % dip from three hours out; the
//! flow rate stays flat until roughly 30 minutes before the event and
//! then collapses — often *becoming* the proximate cause.
//!
//! [`PrecursorSignature`] encodes those shapes as multiplicative factors
//! on the healthy channel values as a function of lead time. The
//! simulator applies them to racks with a scheduled CMF; the predictor
//! learns to detect them.

use serde::{Deserialize, Serialize};

use mira_timeseries::Duration;

/// Piecewise-linear interpolation over `(lead_hours, factor)` knots,
/// with `lead_hours` descending toward the failure at 0.
// knots.len() >= 2 is asserted; windows(2) pairs have exactly two
// elements. mira-lint: allow(panic-reachability)
fn interp(knots: &[(f64, f64)], lead_hours: f64) -> f64 {
    assert!(knots.len() >= 2, "interp needs at least two knots");
    if lead_hours >= knots[0].0 {
        return knots[0].1;
    }
    for pair in knots.windows(2) {
        let (h1, f1) = pair[0];
        let (h0, f0) = pair[1];
        if lead_hours >= h0 {
            let t = (lead_hours - h0) / (h1 - h0);
            return f0 + (f1 - f0) * t;
        }
    }
    knots[knots.len() - 1].1
}

/// Multiplicative pre-failure factors for the coolant channels.
///
/// All factors are 1.0 at lead times beyond six hours (no signature) and
/// reach their Fig. 12 extremes as the failure approaches.
///
/// ```
/// use mira_cooling::PrecursorSignature;
/// use mira_timeseries::Duration;
///
/// let sig = PrecursorSignature::mira();
/// // Four hours out the inlet has sagged ~7 %.
/// let f = sig.inlet_factor(Duration::from_hours(3));
/// assert!(f < 0.94);
/// // Flow is still nominal one hour out...
/// assert!((sig.flow_factor(Duration::from_hours(1)) - 1.0).abs() < 1e-9);
/// // ...and collapsing at the event.
/// assert!(sig.flow_factor(Duration::ZERO) < 0.7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecursorSignature {
    inlet_knots: Vec<(f64, f64)>,
    outlet_knots: Vec<(f64, f64)>,
    flow_knots: Vec<(f64, f64)>,
}

impl PrecursorSignature {
    /// The signature calibrated to Fig. 12.
    #[must_use]
    pub fn mira() -> Self {
        Self {
            // Inlet: sag begins ~5 h out, trough −7 % from 4 h to 1 h,
            // sharp recovery overshooting to +0.5 % at the event
            // (an ~8 % rise off the trough in the last half hour).
            inlet_knots: vec![
                (12.0, 1.0),
                (9.0, 0.9965),
                (6.0, 0.991),
                (5.0, 0.985),
                (4.0, 0.935),
                (1.0, 0.93),
                (0.5, 0.945),
                (0.0, 1.005),
            ],
            // Outlet: follows with a −5 % dip from 3 h out, partial
            // recovery at the event. A faint drift exists earlier — far
            // below the Fig. 12 plotting scale but learnable.
            outlet_knots: vec![
                (12.0, 1.0),
                (8.0, 0.999),
                (6.0, 0.997),
                (4.5, 0.99),
                (3.0, 0.95),
                (0.5, 0.95),
                (0.0, 0.97),
            ],
            // Flow: flat until ~30 min out, then rapid collapse.
            flow_knots: vec![(12.0, 1.0), (0.5, 1.0), (0.25, 0.85), (0.0, 0.55)],
        }
    }

    /// Inlet-temperature factor at `lead` before the failure.
    #[must_use]
    // Dimensionless multiplier on the healthy channel value. mira-lint: allow(raw-f64-in-public-api)
    pub fn inlet_factor(&self, lead: Duration) -> f64 {
        interp(&self.inlet_knots, lead.as_hours().max(0.0))
    }

    /// Outlet-temperature factor at `lead` before the failure.
    #[must_use]
    // Dimensionless multiplier on the healthy channel value. mira-lint: allow(raw-f64-in-public-api)
    pub fn outlet_factor(&self, lead: Duration) -> f64 {
        interp(&self.outlet_knots, lead.as_hours().max(0.0))
    }

    /// Flow factor at `lead` before the failure.
    #[must_use]
    // Dimensionless multiplier on the healthy channel value. mira-lint: allow(raw-f64-in-public-api)
    pub fn flow_factor(&self, lead: Duration) -> f64 {
        interp(&self.flow_knots, lead.as_hours().max(0.0))
    }

    /// The horizon beyond which no signature is present. The visible
    /// Fig. 12 shape lives within six hours; a faint (sub-1 %) drift
    /// extends to twelve, which is what lets a learned detector work at
    /// long lead times where fixed thresholds cannot.
    #[must_use]
    pub fn horizon(&self) -> Duration {
        Duration::from_hours(12)
    }

    /// Per-event severity of the signature, in `[0.5, 1.2]`.
    ///
    /// Not every incident telegraphs equally: some loop anomalies are
    /// violent, some barely move the needle until the end. The severity
    /// is a deterministic hash of the failure instant, and scales every
    /// channel's deviation from 1.0. This is what keeps Fig. 13's
    /// accuracy *curve* a curve — weak events are missed at long leads
    /// and caught close in — instead of a step.
    #[must_use]
    // Dimensionless severity in [0.5, 1.2]. mira-lint: allow(raw-f64-in-public-api)
    pub fn event_severity(&self, rack_index: usize, failure_at_epoch: i64) -> f64 {
        let mut z = failure_at_epoch
            .cast_unsigned()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((rack_index as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 32;
        // 2^53: top 53 bits map exactly onto the f64 mantissa.
        let u = mira_units::convert::f64_from_u64(z >> 11) / 9_007_199_254_740_992.0;
        0.5 + 0.7 * u
    }

    /// Scales a factor's deviation from 1.0 by an event severity.
    #[must_use]
    // Dimensionless factors in, dimensionless factor out. mira-lint: allow(raw-f64-in-public-api)
    pub fn scale(factor: f64, severity: f64) -> f64 {
        1.0 + (factor - 1.0) * severity
    }
}

impl Default for PrecursorSignature {
    fn default() -> Self {
        Self::mira()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_signature_beyond_horizon() {
        let sig = PrecursorSignature::mira();
        for h in [12, 24, 48] {
            let lead = Duration::from_hours(h);
            assert_eq!(sig.inlet_factor(lead), 1.0);
            assert_eq!(sig.outlet_factor(lead), 1.0);
            assert_eq!(sig.flow_factor(lead), 1.0);
        }
    }

    #[test]
    fn early_drift_is_faint() {
        // Between 6 and 12 hours out the drift exists but stays under
        // 1 % — invisible at Fig. 12's plotting scale.
        let sig = PrecursorSignature::mira();
        for mins in [6 * 60 + 5, 8 * 60, 10 * 60] {
            let lead = Duration::from_minutes(mins);
            assert!(sig.inlet_factor(lead) < 1.0);
            assert!(sig.inlet_factor(lead) > 0.99);
            assert!(sig.outlet_factor(lead) > 0.995);
            assert_eq!(sig.flow_factor(lead), 1.0);
        }
    }

    #[test]
    fn severity_is_bounded_and_deterministic() {
        let sig = PrecursorSignature::mira();
        for k in 0..200 {
            let s = sig.event_severity(k % 48, 1_400_000_000 + k as i64 * 9973);
            assert!((0.5..=1.2).contains(&s), "severity {s}");
        }
        assert_eq!(
            sig.event_severity(7, 1_450_000_000),
            sig.event_severity(7, 1_450_000_000)
        );
        // Scaling leaves 1.0 fixed and contracts deviations.
        assert_eq!(PrecursorSignature::scale(1.0, 0.7), 1.0);
        assert!((PrecursorSignature::scale(0.9, 0.5) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn inlet_trough_is_seven_percent() {
        let sig = PrecursorSignature::mira();
        let trough = sig.inlet_factor(Duration::from_hours(2));
        assert!((0.92..0.94).contains(&trough), "trough {trough}");
    }

    #[test]
    fn inlet_recovers_eight_percent_in_last_half_hour() {
        let sig = PrecursorSignature::mira();
        let trough = sig.inlet_factor(Duration::from_hours(1));
        let at_event = sig.inlet_factor(Duration::ZERO);
        let rise = (at_event - trough) / trough;
        assert!((0.06..0.10).contains(&rise), "rise {rise}");
    }

    #[test]
    fn outlet_dip_is_five_percent_at_three_hours() {
        let sig = PrecursorSignature::mira();
        let dip = sig.outlet_factor(Duration::from_hours(3));
        assert!((0.945..0.955).contains(&dip), "dip {dip}");
    }

    #[test]
    fn flow_flat_then_collapses() {
        let sig = PrecursorSignature::mira();
        assert_eq!(sig.flow_factor(Duration::from_hours(2)), 1.0);
        assert_eq!(sig.flow_factor(Duration::from_minutes(30)), 1.0);
        let at_event = sig.flow_factor(Duration::ZERO);
        assert!((0.5..0.6).contains(&at_event), "collapse {at_event}");
    }

    #[test]
    fn negative_lead_clamps_to_event() {
        let sig = PrecursorSignature::mira();
        assert_eq!(
            sig.flow_factor(Duration::from_seconds(-100)),
            sig.flow_factor(Duration::ZERO)
        );
    }

    proptest! {
        #[test]
        fn factors_are_bounded_and_continuous(mins in 0i64..400) {
            let sig = PrecursorSignature::mira();
            let lead = Duration::from_minutes(mins);
            let next = Duration::from_minutes(mins + 1);
            for f in [
                PrecursorSignature::inlet_factor,
                PrecursorSignature::outlet_factor,
                PrecursorSignature::flow_factor,
            ] {
                let a = f(&sig, lead);
                let b = f(&sig, next);
                prop_assert!((0.5..=1.05).contains(&a));
                prop_assert!((a - b).abs() < 0.05, "jump {a} -> {b}");
            }
        }
    }
}
