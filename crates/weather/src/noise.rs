//! Seeded, time-indexed smooth noise.
//!
//! Weather systems arrive on multi-day timescales and are smooth; white
//! noise per sample would be wrong and an AR(1) stepper would make the
//! model order-dependent. [`ValueNoise`] is stateless: it hashes integer
//! lattice points of the time axis and interpolates between them with a
//! smoothstep, so `noise(t)` is a deterministic, C¹-continuous function of
//! `t` alone.

use mira_units::convert;
use serde::{Deserialize, Serialize};

/// Memo for one [`ValueNoise`] call site: the two lattice hashes around
/// the most recently sampled cell.
///
/// A sweep advancing in 300 s steps crosses a multi-day lattice cell
/// once every few thousand samples, so nearly every [`ValueNoise::sample_with`]
/// call reuses the cached pair and skips both avalanche hashes. The
/// cache is keyed on the cell (the floored phase, compared bit for bit;
/// a cold cursor holds NaN, which matches no cell), and the cached
/// values are a pure function of `(seed, cell)`, so cursor-assisted
/// sampling returns bit-identical results to [`ValueNoise::sample`] from
/// any prior cursor state — the cursor can be shared across sweeps,
/// carried across shard boundaries, or start cold without affecting a
/// single output bit.
#[derive(Debug, Clone, Copy)]
pub struct NoiseCursor {
    cell: f64,
    lo: f64,
    hi: f64,
}

impl Default for NoiseCursor {
    fn default() -> Self {
        Self {
            cell: f64::NAN,
            lo: 0.0,
            hi: 0.0,
        }
    }
}

/// Cursor bank for one [`ValueNoise::fractal`] call site: each octave's
/// derived layer plus its own [`NoiseCursor`].
///
/// Build once per call site with [`ValueNoise::fractal_cursor`]; the
/// layers are derived exactly as [`ValueNoise::fractal`] derives them,
/// so [`ValueNoise::fractal_with`] is bit-identical to `fractal`.
#[derive(Debug, Clone)]
pub struct FractalCursor {
    layers: Vec<(ValueNoise, NoiseCursor)>,
}

impl FractalCursor {
    /// Number of octaves this cursor serves.
    #[must_use]
    pub fn octaves(&self) -> usize {
        self.layers.len()
    }
}

/// Cursor bank for *many* call sites (lanes) of the same
/// [`ValueNoise::fractal`] source — e.g. one lane per rack.
///
/// A `Vec<FractalCursor>` scatters each lane's cursors across its own
/// heap allocation; the bank keeps the cursor state in three contiguous
/// structure-of-arrays buffers (octave-major: slot `o * lanes + lane`)
/// and derives the octave layers once, since they are identical for
/// every lane. The layout lets [`FractalBank::fractal_lanes_into`]
/// stream one octave across all lanes with unit-stride loads, which the
/// compiler autovectorizes. Sampling through a lane is bit-identical to
/// [`ValueNoise::fractal`] from any prior bank state.
#[derive(Debug, Clone)]
pub struct FractalBank {
    layers: Vec<ValueNoise>,
    lanes: usize,
    /// Cached cell (floored phase) per slot, octave-major; NaN until
    /// the slot's first fill, so a cold slot matches no cell.
    cells: Vec<f64>,
    /// Cached lattice value at `cell` per slot.
    lo: Vec<f64>,
    /// Cached lattice value at `cell + 1` per slot.
    hi: Vec<f64>,
    /// Per-lane cell scratch for [`Self::fractal_lanes_into`].
    floor: Vec<f64>,
    /// Per-lane fraction scratch for [`Self::fractal_lanes_into`].
    frac: Vec<f64>,
}

impl FractalBank {
    /// Evaluates every lane at once: lane `l` samples the fractal at
    /// phase `base + l * stride`, the exact phase arithmetic the scalar
    /// per-rack callers use, and the result lands in `out[l]`.
    ///
    /// The loop nest is octave-outer / lane-inner so each octave reads
    /// and writes its own contiguous cursor rows; per lane the octave
    /// contributions accumulate in the same order as
    /// [`ValueNoise::fractal`], and the final division by the shared
    /// norm matches the scalar `total / norm`, so every `out[l]` is
    /// bit-identical to [`ValueNoise::fractal`] at the same phase from
    /// any prior bank state.
    ///
    /// Each octave runs as three lane passes: a branch-free phase pass
    /// (`x = (base + l·stride) / period`, its floor and fraction, and
    /// whether any lane left its cached cell), a scalar refill pass over
    /// the stale lanes that runs only when one is (multi-day cells: a
    /// few times per thousand calls), and a branch-free
    /// smoothstep-accumulate pass. Staging the cell and fraction through
    /// the scratch rows is an exact `f64` store/reload, so the split
    /// changes no arithmetic — only which loops the compiler can
    /// vectorize.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the bank's lane count.
    // Raw seconds phase axis, same contract as `fractal`. The octave
    // rows are sized `octaves * lanes` by the constructor, `frac` is
    // sized `lanes`, the output slice is length-asserted, and every
    // lane index is `lane < lanes`.
    // mira-lint: allow(raw-f64-in-public-api, panic-reachability)
    pub fn fractal_lanes_into(&mut self, base: f64, stride: f64, out: &mut [f64]) {
        let lanes = self.lanes;
        // Documented panic contract: the output slice is one slot per
        // lane. mira-lint: allow(panic-reachability)
        assert_eq!(out.len(), lanes, "out must have one slot per lane");
        out.fill(0.0);
        let mut amplitude = 1.0;
        let mut norm = 0.0;
        for (o, layer) in self.layers.iter().enumerate() {
            let row = o * lanes..(o + 1) * lanes;
            let cells = &mut self.cells[row.clone()];
            let lo = &mut self.lo[row.clone()];
            let hi = &mut self.hi[row];
            let floor = &mut self.floor[..lanes];
            let frac = &mut self.frac[..lanes];
            let mut stale = false;
            for (lane, ((fl, f), cell)) in floor
                .iter_mut()
                .zip(frac.iter_mut())
                .zip(cells.iter())
                .enumerate()
            {
                let t = base + convert::f64_from_usize(lane) * stride;
                (*fl, *f) = split_phase(t / layer.period);
                stale |= fl.to_bits() != cell.to_bits();
            }
            if stale {
                for (((&fl, cell), l), h) in floor
                    .iter()
                    .zip(cells.iter_mut())
                    .zip(lo.iter_mut())
                    .zip(hi.iter_mut())
                {
                    if fl.to_bits() != cell.to_bits() {
                        *cell = fl;
                        (*l, *h) = layer.lattice_pair(fl);
                    }
                }
            }
            for (v, (&f, (&l, &h))) in out
                .iter_mut()
                .zip(frac.iter().zip(lo.iter().zip(hi.iter())))
            {
                let s = f * f * (3.0 - 2.0 * f);
                *v += (l * (1.0 - s) + h * s) * amplitude;
            }
            norm += amplitude;
            amplitude *= 0.5;
        }
        for v in out.iter_mut() {
            *v /= norm;
        }
    }
}

/// One-dimensional, seeded value noise over a time axis measured in
/// seconds.
///
/// ```
/// use mira_weather::ValueNoise;
///
/// let n = ValueNoise::new(42, 86_400.0); // one-day lattice
/// let a = n.sample(1_000.0);
/// assert_eq!(a, n.sample(1_000.0));       // pure function
/// assert!((-1.0..=1.0).contains(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueNoise {
    seed: u64,
    /// Lattice spacing in seconds: the correlation time of the noise.
    period: f64,
}

impl ValueNoise {
    /// Creates a noise source with lattice spacing `period_seconds`.
    ///
    /// # Panics
    ///
    /// Panics unless `period_seconds` is positive and finite.
    #[must_use]
    pub fn new(seed: u64, period_seconds: f64) -> Self {
        assert!(
            period_seconds.is_finite() && period_seconds > 0.0,
            "noise period must be positive"
        );
        Self {
            seed,
            period: period_seconds,
        }
    }

    /// The lattice values at `cell` and `cell + 1`, for an
    /// integer-valued `cell` (a [`split_phase`] floor).
    fn lattice_pair(&self, cell: f64) -> (f64, f64) {
        let i = convert::i64_from_f64_floor(cell);
        (self.lattice(i), self.lattice(i + 1))
    }

    /// Uniform value in `[-1, 1]` at integer lattice point `i`.
    fn lattice(&self, i: i64) -> f64 {
        // SplitMix64-style avalanche of (seed, i).
        let mut z = i
            .cast_unsigned()
            .wrapping_add(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        convert::f64_from_u64(z >> 11) / 9_007_199_254_740_992.0 * 2.0 - 1.0
    }

    /// Samples the noise at time `t` seconds; smooth, in `[-1, 1]`.
    #[must_use]
    pub fn sample(&self, t: f64) -> f64 {
        let (cell, frac) = split_phase(t / self.period);
        let (lo, hi) = self.lattice_pair(cell);
        // Smoothstep interpolation keeps the derivative continuous.
        let s = frac * frac * (3.0 - 2.0 * frac);
        lo * (1.0 - s) + hi * s
    }

    /// Sum of `octaves` noise layers, each halving the period and the
    /// amplitude, normalized back into `[-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero.
    #[must_use]
    pub fn fractal(&self, t: f64, octaves: u32) -> f64 {
        assert!(octaves > 0, "need at least one octave");
        let mut total = 0.0;
        let mut amplitude = 1.0;
        let mut norm = 0.0;
        for o in 0..octaves {
            let layer = ValueNoise {
                seed: self
                    .seed
                    .wrapping_add(u64::from(o).wrapping_mul(0x5851_F42D_4C95_7F2D)),
                period: self.period / f64::from(1u32 << o),
            };
            total += layer.sample(t) * amplitude;
            norm += amplitude;
            amplitude *= 0.5;
        }
        total / norm
    }

    /// [`Self::sample`] with a per-call-site memo of the two lattice
    /// values around the current cell. Bit-identical to `sample` for any
    /// prior cursor state (see [`NoiseCursor`]).
    #[must_use]
    // Raw seconds axis, same contract as `sample`. mira-lint: allow(raw-f64-in-public-api)
    pub fn sample_with(&self, t: f64, cursor: &mut NoiseCursor) -> f64 {
        let (cell, frac) = split_phase(t / self.period);
        if cursor.cell.to_bits() != cell.to_bits() {
            let (lo, hi) = self.lattice_pair(cell);
            *cursor = NoiseCursor { cell, lo, hi };
        }
        // Same smoothstep arithmetic as `sample`, with the lattice
        // hashes read from the cursor.
        let s = frac * frac * (3.0 - 2.0 * frac);
        cursor.lo * (1.0 - s) + cursor.hi * s
    }

    /// Builds the cursor bank for [`Self::fractal_with`], deriving the
    /// per-octave layers exactly as [`Self::fractal`] does.
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero (same contract as `fractal`).
    #[must_use]
    // Cursor constructor: the per-octave layer vector is built once per
    // worker (via sweep_scratch), never in the per-step fold.
    // mira-lint: allow(alloc-in-hot-path)
    pub fn fractal_cursor(&self, octaves: u32) -> FractalCursor {
        assert!(octaves > 0, "need at least one octave");
        let layers = (0..octaves)
            .map(|o| {
                let layer = ValueNoise {
                    seed: self
                        .seed
                        .wrapping_add(u64::from(o).wrapping_mul(0x5851_F42D_4C95_7F2D)),
                    period: self.period / f64::from(1u32 << o),
                };
                (layer, NoiseCursor::default())
            })
            .collect();
        FractalCursor { layers }
    }

    /// [`Self::fractal`] through a pre-built cursor bank; bit-identical
    /// to `fractal(t, cursor.octaves())` for any prior cursor state.
    #[must_use]
    // Raw seconds axis, same contract as `fractal`. mira-lint: allow(raw-f64-in-public-api)
    pub fn fractal_with(&self, t: f64, cursor: &mut FractalCursor) -> f64 {
        debug_assert!(!cursor.layers.is_empty(), "need at least one octave");
        let mut total = 0.0;
        let mut amplitude = 1.0;
        let mut norm = 0.0;
        for (layer, cur) in &mut cursor.layers {
            total += layer.sample_with(t, cur) * amplitude;
            norm += amplitude;
            amplitude *= 0.5;
        }
        total / norm
    }

    /// Builds a [`FractalBank`] with `lanes` independent cursor lanes,
    /// deriving the per-octave layers exactly as [`Self::fractal`] does.
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero (same contract as `fractal`).
    #[must_use]
    // Bank constructor: the layer and cursor vectors are built once per
    // worker (via sweep_scratch), never in the per-step fold.
    // mira-lint: allow(alloc-in-hot-path)
    pub fn fractal_bank(&self, octaves: u32, lanes: usize) -> FractalBank {
        assert!(octaves > 0, "need at least one octave");
        let layers: Vec<ValueNoise> = (0..octaves)
            .map(|o| ValueNoise {
                seed: self
                    .seed
                    .wrapping_add(u64::from(o).wrapping_mul(0x5851_F42D_4C95_7F2D)),
                period: self.period / f64::from(1u32 << o),
            })
            .collect();
        let slots = layers.len() * lanes;
        FractalBank {
            lanes,
            cells: vec![f64::NAN; slots],
            lo: vec![0.0; slots],
            hi: vec![0.0; slots],
            floor: vec![0.0; lanes],
            frac: vec![0.0; lanes],
            layers,
        }
    }
}

/// Splits a lattice phase into its cell (`x.floor()`) and the fraction
/// `x - cell` in `[0, 1]` (a phase a hair below a cell boundary rounds
/// its fraction up to 1).
///
/// `f64::floor` is exact, so every build computes the same bits: one
/// `roundsd` (or a `vroundpd` across lanes) at `x86-64-v3`, a libm call
/// at baseline `x86-64`. Phases stay far inside `±2^53`, where the cell
/// converts to the `i64` lattice index losslessly.
fn split_phase(x: f64) -> (f64, f64) {
    let cell = x.floor();
    (cell, x - cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ValueNoise::new(1, 3600.0);
        let b = ValueNoise::new(1, 3600.0);
        let c = ValueNoise::new(2, 3600.0);
        assert_eq!(a.sample(12_345.6), b.sample(12_345.6));
        assert_ne!(a.sample(12_345.6), c.sample(12_345.6));
    }

    #[test]
    fn interpolates_lattice_values_exactly() {
        let n = ValueNoise::new(9, 100.0);
        // At lattice points the sample equals the lattice value.
        for i in -3i64..4 {
            let t = i as f64 * 100.0;
            assert!((n.sample(t) - n.lattice(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn is_smooth_between_lattice_points() {
        let n = ValueNoise::new(5, 1000.0);
        let mut prev = n.sample(0.0);
        for k in 1..=1000 {
            let cur = n.sample(k as f64);
            assert!((cur - prev).abs() < 0.02, "jump at {k}");
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "noise period must be positive")]
    fn rejects_zero_period() {
        let _ = ValueNoise::new(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one octave")]
    fn fractal_rejects_zero_octaves() {
        let _ = ValueNoise::new(0, 1.0).fractal(0.0, 0);
    }

    #[test]
    fn cursor_sampling_is_bit_identical() {
        let n = ValueNoise::new(77, 3600.0);
        let mut cur = NoiseCursor::default();
        let mut fcur = n.fractal_cursor(3);
        // Fine steps (many cache hits) and coarse jumps (many cell
        // crossings, including backwards and across zero).
        for k in -5_000i64..5_000 {
            let t = k as f64 * 97.3;
            assert_eq!(n.sample(t).to_bits(), n.sample_with(t, &mut cur).to_bits());
            assert_eq!(
                n.fractal(t, 3).to_bits(),
                n.fractal_with(t, &mut fcur).to_bits()
            );
        }
        for k in [-40i64, 13, -7, 0, 40, 39, -40] {
            let t = k as f64 * 86_400.0 * 11.0;
            assert_eq!(n.sample(t).to_bits(), n.sample_with(t, &mut cur).to_bits());
            assert_eq!(
                n.fractal(t, 3).to_bits(),
                n.fractal_with(t, &mut fcur).to_bits()
            );
        }
    }

    #[test]
    fn bank_lanes_are_bit_identical_and_independent() {
        let n = ValueNoise::new(77, 3600.0);
        let mut bank = n.fractal_bank(2, 4);
        let mut out = [0.0f64; 4];
        // Lanes sample at distinct phases (as racks do), and each must
        // match the cold path at its own phase.
        for k in -2_000i64..2_000 {
            let base = k as f64 * 211.7;
            bank.fractal_lanes_into(base, 4.321e6, &mut out);
            for (lane, v) in out.iter().enumerate() {
                let t = base + lane as f64 * 4.321e6;
                assert_eq!(n.fractal(t, 2).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn lane_kernel_is_bit_identical_to_cold_fractal() {
        let n = ValueNoise::new(77, 3600.0);
        let mut bank = n.fractal_bank(2, 4);
        let stride = 4.321e6;
        let mut out = [0.0f64; 4];
        // Fine steps (cache hits), coarse jumps (cell crossings,
        // backwards and across zero) — cold start included.
        for k in [-2_000i64, -1_999, -1, 0, 1, 40, 39, -40, 2_000, 2_001] {
            let base = k as f64 * 211.7;
            bank.fractal_lanes_into(base, stride, &mut out);
            for (lane, v) in out.iter().enumerate() {
                let t = base + lane as f64 * stride;
                assert_eq!(n.fractal(t, 2).to_bits(), v.to_bits(), "lane {lane} at {t}");
            }
        }
    }

    /// `sample` through `convert::i64_from_f64_floor` (truncate, then
    /// step down below the value) instead of `split_phase`: an oracle
    /// that shares no floor code with the paths under test.
    fn sample_integer_floor(n: &ValueNoise, t: f64) -> f64 {
        let x = t / n.period;
        let cell = convert::i64_from_f64_floor(x);
        let frac = x - convert::f64_from_i64(cell);
        let s = frac * frac * (3.0 - 2.0 * frac);
        n.lattice(cell) * (1.0 - s) + n.lattice(cell + 1) * s
    }

    /// `fractal` over [`sample_integer_floor`].
    fn fractal_integer_floor(n: &ValueNoise, t: f64, octaves: u32) -> f64 {
        let (mut total, mut amplitude, mut norm) = (0.0, 1.0, 0.0);
        for o in 0..octaves {
            let layer = ValueNoise {
                seed: n
                    .seed
                    .wrapping_add(u64::from(o).wrapping_mul(0x5851_F42D_4C95_7F2D)),
                period: n.period / f64::from(1u32 << o),
            };
            total += sample_integer_floor(&layer, t) * amplitude;
            norm += amplitude;
            amplitude *= 0.5;
        }
        total / norm
    }

    /// Phases on and around the floor's edge cases: exact integers
    /// (lattice points), negatives, both zeros, and a hair either side
    /// of a cell boundary.
    fn edge_phases(period: f64) -> Vec<f64> {
        let mut ts = vec![0.0, -0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE];
        for k in [-7i64, -2, -1, 1, 2, 7, 40_000] {
            let on = k as f64 * period;
            ts.extend([on, on.next_down(), on.next_up(), on + 0.5 * period]);
        }
        ts
    }

    #[test]
    fn sample_with_is_bit_identical_at_floor_edges() {
        let n = ValueNoise::new(31, 3600.0);
        let mut cur = NoiseCursor::default();
        // Each phase twice: a refill, then a cache hit.
        for t in edge_phases(3600.0) {
            for _ in 0..2 {
                let want = sample_integer_floor(&n, t).to_bits();
                assert_eq!(n.sample(t).to_bits(), want, "sample at {t:?}");
                assert_eq!(n.sample_with(t, &mut cur).to_bits(), want, "at {t:?}");
            }
        }
        // A cold cursor and a cursor warmed on the other zero agree.
        let mut warm = NoiseCursor::default();
        let _ = n.sample_with(0.0, &mut warm);
        for t in [-0.0, 0.0] {
            let want = n.sample(t).to_bits();
            assert_eq!(
                n.sample_with(t, &mut NoiseCursor::default()).to_bits(),
                want
            );
            assert_eq!(n.sample_with(t, &mut warm).to_bits(), want);
        }
    }

    #[test]
    fn lane_kernel_is_bit_identical_at_floor_edges() {
        let n = ValueNoise::new(5, 3600.0);
        let mut out = [0.0f64; 6];
        // Integer strides keep every lane on a lattice point of both
        // octaves; a negative stride walks the lanes below zero, and
        // `-0.0 + 0.0 * -3600.0` puts lane 0 exactly on `-0.0`.
        for (base, stride) in [
            (0.0, 3600.0),
            (-0.0, -3600.0),
            (-7.0 * 3600.0, 1800.0),
            (3600.0f64.next_down(), -3600.0),
            (-1e-9, 1e-9),
        ] {
            // A cold bank, then the same call again on the warm bank.
            let mut bank = n.fractal_bank(2, out.len());
            for _ in 0..2 {
                bank.fractal_lanes_into(base, stride, &mut out);
                for (lane, v) in out.iter().enumerate() {
                    let t = base + lane as f64 * stride;
                    assert_eq!(
                        fractal_integer_floor(&n, t, 2).to_bits(),
                        v.to_bits(),
                        "lane {lane} at {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_kernel_crosses_cells_mid_block_with_lane_calls_between() {
        let n = ValueNoise::new(12, 3600.0);
        let lanes = 5;
        let stride = 1234.5;
        let mut bank = n.fractal_bank(3, lanes);
        let mut out = vec![0.0f64; lanes];
        // 300 s steps: one or two lanes leave their cell on any given
        // call while the rest hit their cache, and lane calls at other
        // phases rewrite some slots in between.
        for k in 0..200i64 {
            let base = -30_000.0 + k as f64 * 300.0;
            let between = (k % 7 == 3).then_some((base * 2.5, -stride));
            for (base, stride) in between.into_iter().chain([(base, stride)]) {
                bank.fractal_lanes_into(base, stride, &mut out);
                for (lane, v) in out.iter().enumerate() {
                    let t = base + lane as f64 * stride;
                    assert_eq!(
                        fractal_integer_floor(&n, t, 3).to_bits(),
                        v.to_bits(),
                        "lane {lane} at {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_is_near_zero() {
        let n = ValueNoise::new(11, 500.0);
        let mean: f64 = (0..10_000).map(|k| n.sample(k as f64 * 137.0)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    proptest! {
        #[test]
        fn bounded(seed in 0u64..1000, t in -1e9f64..1e9) {
            let n = ValueNoise::new(seed, 7200.0);
            let v = n.sample(t);
            prop_assert!((-1.0..=1.0).contains(&v));
            let f = n.fractal(t, 4);
            prop_assert!((-1.0..=1.0).contains(&f));
        }
    }
}
