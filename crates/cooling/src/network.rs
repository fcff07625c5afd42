//! Hydraulic flow distribution across the 48 rack heat exchangers.
//!
//! Underfloor piping from the CWP to the racks suffers partial blockage —
//! complex cable layout, space constraints, filter fouling — so the flow
//! each rack's monitor measures varies by up to 11 % even though the loop
//! setpoint is uniform (Fig. 7a). The network model distributes the loop
//! setpoint across racks in proportion to per-rack conductance, conserving
//! total flow, and drops a rack to zero when its solenoid valve closes
//! (the Blue Gene/Q control action on a fatal coolant event).

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::SimTime;
use mira_units::{convert, Gpm};
use mira_weather::{FractalBank, ValueNoise};

/// The drift-noise lane bank for [`FlowNetwork::distribute_lanes`].
///
/// Each rack samples a distinct phase of the shared drift noise, so the
/// bank holds one one-octave lane per rack; cached lattice values are
/// pure functions of `(seed, cell)`, which keeps the lane kernel
/// bit-identical to [`FlowNetwork::distribute`] from any prior cursor
/// state. A single-octave fractal is exactly `sample` (unit amplitude,
/// unit norm), so the bank reproduces the cold path's drift bits.
#[derive(Debug, Clone)]
pub struct FlowCursor {
    lanes: FractalBank,
}

/// The external-loop flow network.
///
/// ```
/// use mira_cooling::FlowNetwork;
/// use mira_facility::RackId;
/// use mira_timeseries::{Date, SimTime};
/// use mira_units::Gpm;
///
/// let net = FlowNetwork::mira(11);
/// let t = SimTime::from_date(Date::new(2015, 3, 1));
/// let open = [true; 48];
/// let flows = net.distribute(t, Gpm::new(1250.0), &open);
/// let total: f64 = flows.iter().map(|f| f.value()).sum();
/// assert!((total - 1250.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowNetwork {
    /// Static per-rack hydraulic conductance from the pipe layout.
    conductance: Vec<f64>,
    /// Slow drift of each rack's conductance (fouling, maintenance).
    drift: ValueNoise,
}

impl FlowNetwork {
    /// Builds the Mira network with deterministic per-rack blockage.
    #[must_use]
    pub fn mira(seed: u64) -> Self {
        let conductance = RackId::all()
            .map(|rack| {
                // Fixed wiring: hash, not RNG, so topology is stable
                // across runs with different stochastic seeds.
                let h = (rack.index() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                let u = convert::f64_from_u64((h >> 16) & 0xFFFF) / 65_535.0; // [0, 1]
                                                                              // Conductance in [0.90, 1.00]: an 11 % max/min spread.
                0.90 + 0.10 * u
            })
            .collect();
        Self {
            conductance,
            drift: ValueNoise::new(seed ^ 0xF10D_0000, 45.0 * 86_400.0),
        }
    }

    /// Effective conductance of a rack at `t` (static layout plus slow
    /// fouling/maintenance drift).
    #[must_use]
    // Dimensionless relative conductance. mira-lint: allow(raw-f64-in-public-api)
    pub fn conductance(&self, rack: RackId, t: SimTime) -> f64 {
        let phase = convert::f64_from_i64(t.epoch_seconds())
            + convert::f64_from_usize(rack.index()) * 8.64e6;
        let drift = self.drift.sample(phase) * 0.012;
        (self.conductance[rack.index()] + drift).max(0.05)
    }

    /// Distributes the loop setpoint across racks in proportion to
    /// conductance. `valve_open[i]` gates rack `i`; closed valves get
    /// zero flow and their share is redistributed.
    ///
    /// Returns 48 per-rack flows summing to `setpoint` (or all zero if
    /// every valve is closed).
    #[must_use]
    pub fn distribute(
        &self,
        t: SimTime,
        setpoint: Gpm,
        valve_open: &[bool; RackId::COUNT],
    ) -> Vec<Gpm> {
        let weights: Vec<f64> = RackId::all()
            .map(|r| {
                if valve_open[r.index()] {
                    self.conductance(r, t)
                } else {
                    0.0
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![Gpm::new(0.0); RackId::COUNT];
        }
        weights.iter().map(|w| setpoint * (w / total)).collect()
    }

    /// Builds the lane bank for [`Self::distribute_lanes`].
    #[must_use]
    // Cursor-bank constructor: allocates the lane buffers once per
    // worker (via sweep_scratch), never in the per-step fold.
    // mira-lint: allow(alloc-in-hot-path)
    pub fn flow_cursor(&self) -> FlowCursor {
        FlowCursor {
            lanes: self.drift.fractal_bank(1, self.conductance.len()),
        }
    }

    /// [`Self::distribute`] as a lane kernel: rack `i`'s flow lands in
    /// `out[i]` in GPM, with the weight buffer living on the stack — no
    /// heap allocation at all, warm or cold.
    ///
    /// Bit-identical to [`Self::distribute`]: drift is the same noise at
    /// the same per-rack phase (evaluated through the one-octave lane
    /// bank, which is exactly `sample`), weights apply the same
    /// conductance/floor expressions in rack order, the total is the
    /// same lane-order sum, and each lane applies the same
    /// `setpoint * (w / total)` expression. Drift is evaluated for
    /// closed-valve lanes too (the scalar path skips them) and then
    /// masked to zero — a discarded pure value, which cannot perturb any
    /// other lane, and cursor refills are bit-neutral from any state.
    // Raw GPM lanes; the materialized per-step view re-wraps them in
    // `Gpm`. Lane indexing is `enumerate` over same-length `[_; 48]`
    // rows. mira-lint: allow(raw-f64-in-public-api, panic-reachability)
    pub fn distribute_lanes(
        &self,
        t: SimTime,
        setpoint: Gpm,
        valve_open: &[bool; RackId::COUNT],
        cursor: &mut FlowCursor,
        out: &mut [f64; RackId::COUNT],
    ) {
        let base = convert::f64_from_i64(t.epoch_seconds());
        cursor.lanes.fractal_lanes_into(base, 8.64e6, out);
        for (i, w) in out.iter_mut().enumerate() {
            *w = if valve_open[i] {
                (self.conductance[i] + *w * 0.012).max(0.05)
            } else {
                0.0
            };
        }
        let total: f64 = out.iter().sum();
        if total <= 0.0 {
            out.fill(0.0);
            return;
        }
        let sp = setpoint.value();
        for w in out.iter_mut() {
            *w = sp * (*w / total);
        }
    }

    /// The relative spread `(max − min) / min` of per-rack flow with all
    /// valves open at `t`.
    #[must_use]
    // Dimensionless relative spread. mira-lint: allow(raw-f64-in-public-api)
    pub fn spread(&self, t: SimTime, setpoint: Gpm) -> f64 {
        let flows = self.distribute(t, setpoint, &[true; RackId::COUNT]);
        let min = flows
            .iter()
            .map(|f| f.value())
            .fold(f64::INFINITY, f64::min);
        let max = flows
            .iter()
            .map(|f| f.value())
            .fold(f64::NEG_INFINITY, f64::max);
        (max - min) / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::Date;

    fn t0() -> SimTime {
        SimTime::from_date(Date::new(2016, 1, 1))
    }

    #[test]
    fn conserves_total_flow() {
        let net = FlowNetwork::mira(1);
        let flows = net.distribute(t0(), Gpm::new(1300.0), &[true; 48]);
        let total: f64 = flows.iter().map(|f| f.value()).sum();
        assert!((total - 1300.0).abs() < 1e-6);
    }

    #[test]
    fn spread_matches_fig7_band() {
        let net = FlowNetwork::mira(1);
        let s = net.spread(t0(), Gpm::new(1250.0));
        assert!((0.07..=0.15).contains(&s), "spread {s} outside Fig. 7 band");
    }

    #[test]
    fn per_rack_flow_near_26_gpm() {
        let net = FlowNetwork::mira(1);
        let flows = net.distribute(t0(), Gpm::new(1250.0), &[true; 48]);
        for f in &flows {
            assert!((23.0..30.0).contains(&f.value()), "flow {f}");
        }
    }

    #[test]
    fn closed_valve_redistributes() {
        let net = FlowNetwork::mira(1);
        let mut open = [true; 48];
        open[RackId::new(1, 8).index()] = false;
        let flows = net.distribute(t0(), Gpm::new(1250.0), &open);
        assert_eq!(flows[RackId::new(1, 8).index()].value(), 0.0);
        let total: f64 = flows.iter().map(|f| f.value()).sum();
        assert!((total - 1250.0).abs() < 1e-6);
        // Everyone else gets a bit more than before.
        let before = net.distribute(t0(), Gpm::new(1250.0), &[true; 48]);
        let r = RackId::new(0, 0).index();
        assert!(flows[r].value() > before[r].value());
    }

    #[test]
    fn all_valves_closed_is_zero_everywhere() {
        let net = FlowNetwork::mira(1);
        let flows = net.distribute(t0(), Gpm::new(1250.0), &[false; 48]);
        assert!(flows.iter().all(|f| f.value() == 0.0));
    }

    #[test]
    fn cursor_distribution_is_bit_identical() {
        let net = FlowNetwork::mira(7);
        let mut cursor = net.flow_cursor();
        let mut lanes = [0.0f64; 48];
        let mut open = [true; 48];
        let mut t = t0();
        let mut check = |t: SimTime, sp: Gpm, gate: &[bool; 48]| {
            net.distribute_lanes(t, sp, gate, &mut cursor, &mut lanes);
            let cold = net.distribute(t, sp, gate);
            assert_eq!(cold.len(), lanes.len());
            for (a, b) in lanes.iter().zip(cold.iter()) {
                assert_eq!(a.to_bits(), b.value().to_bits());
            }
        };
        for step in 0..600usize {
            // Exercise valve churn, including the all-closed branch.
            if step % 37 == 0 {
                open[step % 48] = !open[step % 48];
            }
            let all_closed = step == 250;
            let gate = if all_closed { [false; 48] } else { open };
            let sp = Gpm::new(if step < 300 { 1250.0 } else { 1300.0 });
            check(t, sp, &gate);
            t += mira_timeseries::Duration::from_minutes(5);
        }
        // A backwards jump must invalidate cleanly.
        check(
            t0() - mira_timeseries::Duration::from_days(400),
            Gpm::new(1250.0),
            &open,
        );
    }

    #[test]
    fn drift_is_slow_and_bounded() {
        let net = FlowNetwork::mira(1);
        let rack = RackId::new(2, 3);
        let c0 = net.conductance(rack, t0());
        let c1 = net.conductance(rack, t0() + mira_timeseries::Duration::from_hours(6));
        assert!((c0 - c1).abs() < 0.01, "drift too fast: {c0} vs {c1}");
        assert!((0.85..1.05).contains(&c0));
    }
}
