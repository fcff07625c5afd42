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
/// cache is keyed on the integer cell index, and the cached values are a
/// pure function of `(seed, cell)`, so cursor-assisted sampling returns
/// bit-identical results to [`ValueNoise::sample`] from any prior cursor
/// state — the cursor can be shared across sweeps, carried across shard
/// boundaries, or start cold without affecting a single output bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseCursor {
    cell: i64,
    lo: f64,
    hi: f64,
    primed: bool,
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
/// heap allocation; the bank keeps the cursor state in four contiguous
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
    /// Cached cell index per slot (octave-major).
    cells: Vec<i64>,
    /// Cached lattice value at `cell` per slot.
    lo: Vec<f64>,
    /// Cached lattice value at `cell + 1` per slot.
    hi: Vec<f64>,
    /// Whether the slot's cache has been filled at least once.
    primed: Vec<bool>,
    /// Per-lane phase/fraction scratch for [`Self::fractal_lanes_into`]
    /// (holds `x`, then `frac`, between the kernel's passes).
    frac: Vec<f64>,
}

impl FractalBank {
    /// Number of octaves per lane.
    #[must_use]
    pub fn octaves(&self) -> usize {
        self.layers.len()
    }

    /// Number of lanes in the bank.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Evaluates every lane at once: lane `l` samples the fractal at
    /// phase `base + l * stride`, the exact phase arithmetic the scalar
    /// per-rack callers use, and the result lands in `out[l]`.
    ///
    /// The loop nest is octave-outer / lane-inner so each octave reads
    /// and writes its own contiguous cursor rows; per lane the octave
    /// contributions accumulate in the same order as
    /// [`ValueNoise::fractal`], and the final division by the shared
    /// norm matches the scalar `total / norm`, so every `out[l]` is
    /// bit-identical to [`ValueNoise::fractal_with_lane`] at the same
    /// phase from any prior bank state.
    ///
    /// Each octave runs as three lane passes: a branch-free phase pass
    /// (`x = (base + l·stride) / period`, the divisions vectorize), a
    /// scalar floor/refill pass whose staleness branch is almost never
    /// taken (multi-day cells), and a branch-free smoothstep-accumulate
    /// pass. Staging `x` and `frac` through the scratch row is an exact
    /// `f64` store/reload, so the split changes no arithmetic — only
    /// which loop the compiler can vectorize.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from `self.lanes()`.
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
            let hi = &mut self.hi[row.clone()];
            let primed = &mut self.primed[row];
            let frac = &mut self.frac[..lanes];
            for (lane, x) in frac.iter_mut().enumerate() {
                let t = base + convert::f64_from_usize(lane) * stride;
                *x = t / layer.period;
            }
            for lane in 0..lanes {
                let x = frac[lane];
                let cell = convert::i64_from_f64_floor(x);
                frac[lane] = x - convert::f64_from_i64(cell);
                if !primed[lane] || cells[lane] != cell {
                    cells[lane] = cell;
                    lo[lane] = layer.lattice(cell);
                    hi[lane] = layer.lattice(cell + 1);
                    primed[lane] = true;
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
        let x = t / self.period;
        // Integer floor (not `f64::floor`, a libm call on baseline
        // x86-64); `x - cell` equals `x - x.floor()` exactly since the
        // cell is the floor value reconstructed losslessly.
        let cell = convert::i64_from_f64_floor(x);
        let frac = x - convert::f64_from_i64(cell);
        // Smoothstep interpolation keeps the derivative continuous.
        let s = frac * frac * (3.0 - 2.0 * frac);
        self.lattice(cell) * (1.0 - s) + self.lattice(cell + 1) * s
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
        let x = t / self.period;
        // Same integer floor as [`Self::sample`] — no libm call.
        let cell = convert::i64_from_f64_floor(x);
        let frac = x - convert::f64_from_i64(cell);
        if !cursor.primed || cursor.cell != cell {
            *cursor = NoiseCursor {
                cell,
                lo: self.lattice(cell),
                hi: self.lattice(cell + 1),
                primed: true,
            };
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
            cells: vec![0; slots],
            lo: vec![0.0; slots],
            hi: vec![0.0; slots],
            primed: vec![false; slots],
            frac: vec![0.0; lanes],
            layers,
        }
    }

    /// [`Self::fractal`] through one lane of a pre-built bank;
    /// bit-identical to `fractal(t, bank.octaves())` for any prior bank
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of the bank's range.
    #[must_use]
    // Raw seconds axis, same contract as `fractal`. mira-lint: allow(raw-f64-in-public-api)
    pub fn fractal_with_lane(&self, t: f64, bank: &mut FractalBank, lane: usize) -> f64 {
        // Documented panic contract: `lane` must be below `bank.lanes()`,
        // and every bank is built with one lane per caller-side slot
        // (rack), so in-tree callers index with `rack.index()` into a
        // 48-lane bank. mira-lint: allow(panic-reachability)
        assert!(lane < bank.lanes, "lane out of range");
        let mut total = 0.0;
        let mut amplitude = 1.0;
        let mut norm = 0.0;
        for (o, layer) in bank.layers.iter().enumerate() {
            let slot = o * bank.lanes + lane;
            let x = t / layer.period;
            // Same integer floor and smoothstep as [`Self::sample_with`],
            // with the two lattice hashes read from the bank's SoA rows.
            let cell = convert::i64_from_f64_floor(x);
            let frac = x - convert::f64_from_i64(cell);
            if !bank.primed[slot] || bank.cells[slot] != cell {
                bank.cells[slot] = cell;
                bank.lo[slot] = layer.lattice(cell);
                bank.hi[slot] = layer.lattice(cell + 1);
                bank.primed[slot] = true;
            }
            let s = frac * frac * (3.0 - 2.0 * frac);
            total += (bank.lo[slot] * (1.0 - s) + bank.hi[slot] * s) * amplitude;
            norm += amplitude;
            amplitude *= 0.5;
        }
        total / norm
    }
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
        assert_eq!(bank.octaves(), 2);
        assert_eq!(bank.lanes(), 4);
        // Lanes sample interleaved at distinct phases (as racks do), and
        // each must match the cold path at its own phase.
        for k in -2_000i64..2_000 {
            for lane in 0..4usize {
                let t = k as f64 * 211.7 + lane as f64 * 4.321e6;
                assert_eq!(
                    n.fractal(t, 2).to_bits(),
                    n.fractal_with_lane(t, &mut bank, lane).to_bits()
                );
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
        // Interleaving the batch kernel with scalar lane sampling must
        // not disturb either path (shared cursor state, pure caches).
        for k in -500i64..500 {
            let base = k as f64 * 997.0;
            if k % 3 == 0 {
                for lane in 0..4usize {
                    let t = base + lane as f64 * stride;
                    assert_eq!(
                        n.fractal(t, 2).to_bits(),
                        n.fractal_with_lane(t, &mut bank, lane).to_bits()
                    );
                }
            } else {
                bank.fractal_lanes_into(base, stride, &mut out);
                for (lane, v) in out.iter().enumerate() {
                    let t = base + lane as f64 * stride;
                    assert_eq!(n.fractal(t, 2).to_bits(), v.to_bits());
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
