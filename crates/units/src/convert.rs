//! Documented numeric conversions between counts, indices, and `f64`.
//!
//! A bare `as` cast silently truncates, wraps, or rounds; clippy's
//! `cast_*` lints (denied for library code by `ci.sh`) flag every one of
//! them. These helpers are the sanctioned alternative: each contains
//! exactly one cast, states the domain over which it is exact, and
//! debug-asserts that domain, so call sites document their intent
//! instead of sprinkling `as`.

/// An integer count as an `f64`.
///
/// Exact for counts below 2^53 (~9e15). Every count in this workspace —
/// samples, racks, failures, epochs — is far below that, which the
/// debug assertion pins down.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    reason = "exact below 2^53, asserted above"
)]
pub fn f64_from_usize(n: usize) -> f64 {
    debug_assert!(n < (1_usize << 53), "count {n} exceeds exact f64 range");
    n as f64
}

/// An unsigned 64-bit count as an `f64`.
///
/// Exact for counts below 2^53, debug-asserted.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    reason = "exact below 2^53, asserted above"
)]
pub fn f64_from_u64(n: u64) -> f64 {
    debug_assert!(n < (1_u64 << 53), "count {n} exceeds exact f64 range");
    n as f64
}

/// A signed 64-bit value (epoch seconds, offsets) as an `f64`.
///
/// Exact for magnitudes below 2^53, debug-asserted. Epoch seconds stay
/// below 2^35 until the year 3058.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    reason = "exact below 2^53 magnitude, asserted above"
)]
pub fn f64_from_i64(n: i64) -> f64 {
    debug_assert!(
        n.unsigned_abs() < (1_u64 << 53),
        "value {n} exceeds exact f64 range"
    );
    n as f64
}

/// A 32-bit count as an `f64` (always exact).
#[must_use]
pub fn f64_from_u32(n: u32) -> f64 {
    f64::from(n)
}

/// A `u32` count as a `usize` index — lossless on every supported
/// target (`usize` is at least 32 bits here).
#[must_use]
pub fn usize_from_u32(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// A `usize` count as a `u32` (saturating above `u32::MAX`).
///
/// `const` so compile-time counts (rack totals, midplane totals) can use
/// it in constant expressions; small fleet-shaped counts never saturate.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "bounded by the saturating branch; `try_from` is not const-stable enough here"
)]
pub const fn u32_from_usize(n: usize) -> u32 {
    if n > u32::MAX as usize {
        u32::MAX
    } else {
        n as u32
    }
}

/// A `u64` as a `usize` index (saturating on 32-bit targets).
///
/// Every 64-bit target this workspace runs on makes this exact; the
/// saturation only matters on hypothetical 32-bit hosts.
#[must_use]
pub fn usize_from_u64(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// A `usize` count as an `i64` (saturating above `i64::MAX`).
#[must_use]
pub fn i64_from_usize(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// A `u64` as an `i64` (saturating above `i64::MAX`).
#[must_use]
pub fn i64_from_u64(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// A `usize` count as a `u64`. Lossless on every supported target
/// (`usize` is at most 64 bits); the saturation only matters on
/// hypothetical 128-bit hosts.
#[must_use]
pub fn u64_from_usize(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A non-negative `i64` (a step count, an index) as a `usize`.
///
/// Negative inputs clamp to 0, which the debug assertion flags; exact
/// for every non-negative value on 64-bit targets.
#[must_use]
pub fn usize_from_i64(n: i64) -> usize {
    debug_assert!(n >= 0, "index from negative {n}");
    usize::try_from(n).unwrap_or(0)
}

/// Floor of a non-negative `f64` as a `usize` index.
///
/// NaN and negative inputs clamp to 0; values beyond `usize::MAX` clamp
/// to `usize::MAX`. Intended for bin/index computations where the input
/// is a finite non-negative quantity by construction.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating float-to-int semantics do the clamping"
)]
pub fn usize_from_f64_floor(x: f64) -> usize {
    debug_assert!(!x.is_nan(), "index from NaN");
    debug_assert!(x >= 0.0, "index from negative {x}");
    x as usize
}

/// Ceiling of a non-negative `f64` as a `usize` index.
///
/// NaN and negative inputs clamp to 0; values beyond `usize::MAX` clamp
/// to `usize::MAX`.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating float-to-int semantics do the clamping"
)]
pub fn usize_from_f64_ceil(x: f64) -> usize {
    debug_assert!(!x.is_nan(), "index from NaN");
    debug_assert!(x >= 0.0, "index from negative {x}");
    x.ceil() as usize
}

/// Nearest-integer rounding of an `f64` to a `usize`.
///
/// NaN and negative inputs clamp to 0; out-of-range values saturate.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating float-to-int semantics do the clamping"
)]
pub fn usize_from_f64_round(x: f64) -> usize {
    debug_assert!(!x.is_nan(), "count from NaN");
    debug_assert!(x >= -0.5, "count from negative {x}");
    x.round() as usize
}

/// Nearest-integer rounding of an `f64` to a `u32` count.
///
/// NaN and negative inputs clamp to 0; values beyond `u32::MAX`
/// saturate. Intended for small counts (midplanes, jobs) produced by
/// scaling a fraction.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating float-to-int semantics do the clamping"
)]
pub fn u32_from_f64_round(x: f64) -> u32 {
    debug_assert!(!x.is_nan(), "count from NaN");
    debug_assert!(x >= -0.5, "count from negative {x}");
    x.round() as u32
}

/// Floor of a non-negative `f64` as a `u32` count.
///
/// NaN and negative inputs clamp to 0; values beyond `u32::MAX`
/// saturate.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating float-to-int semantics do the clamping"
)]
pub fn u32_from_f64_floor(x: f64) -> u32 {
    debug_assert!(!x.is_nan(), "count from NaN");
    debug_assert!(x >= 0.0, "count from negative {x}");
    x as u32
}

/// An exact-integer `f64` counter back as a `u64`.
///
/// Intended for counters staged through `f64` lanes (batched Welford
/// folds): counts stay far below 2⁵³, where every increment of 1.0 is
/// exact, so the round-trip through `f64` is lossless.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturating float-to-int semantics do the clamping"
)]
#[allow(
    clippy::float_cmp,
    reason = "`x == x.trunc()` is the exact-integer test itself; an epsilon would accept non-integers"
)]
pub fn u64_from_f64_exact(x: f64) -> u64 {
    debug_assert!(!x.is_nan(), "count from NaN");
    debug_assert!(x >= 0.0, "count from negative {x}");
    debug_assert!(
        x == x.trunc() && x < 9_007_199_254_740_992.0,
        "non-exact count {x}"
    );
    x as u64
}

/// Floor of an `f64` as an `i64` (saturating at the `i64` range, NaN → 0).
///
/// Implemented as truncate-and-adjust rather than `x.floor() as i64`:
/// on baseline x86-64 (no SSE4.1 `roundsd`) `f64::floor` is a libm
/// call, and this sits under every noise sample on the sweep hot path.
/// The result is identical for every input — truncation rounds toward
/// zero, so only negative non-integers need the `-1` adjustment, and
/// both paths saturate the same way at the `i64` range.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    reason = "exact below 2^53 magnitude; above it f64 holds integers only and the comparison is false"
)]
pub fn i64_from_f64_floor(x: f64) -> i64 {
    debug_assert!(!x.is_nan(), "integer from NaN");
    #[allow(
        clippy::cast_possible_truncation,
        reason = "saturating float-to-int semantics do the clamping"
    )]
    let t = x as i64;
    if t as f64 > x {
        t.saturating_sub(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact() {
        assert_eq!(f64_from_usize(0), 0.0);
        assert_eq!(f64_from_usize(48), 48.0);
        assert_eq!(f64_from_u64(630_000), 630_000.0);
        assert_eq!(f64_from_i64(-86_400), -86_400.0);
        assert_eq!(f64_from_u32(u32::MAX), 4_294_967_295.0);
    }

    #[test]
    fn u32_from_usize_is_const_and_saturates() {
        const FORTY_EIGHT: u32 = u32_from_usize(48);
        assert_eq!(FORTY_EIGHT, 48);
        assert_eq!(u32_from_usize(0), 0);
        assert_eq!(u32_from_usize(usize::MAX), u32::MAX);
    }

    #[test]
    fn usize_from_i64_clamps_negatives() {
        assert_eq!(usize_from_i64(42), 42);
        assert_eq!(usize_from_i64(0), 0);
    }

    #[test]
    fn floor_and_round_behave() {
        assert_eq!(usize_from_f64_floor(3.99), 3);
        assert_eq!(usize_from_f64_ceil(3.01), 4);
        assert_eq!(usize_from_f64_ceil(3.0), 3);
        assert_eq!(usize_from_f64_round(3.5), 4);
        assert_eq!(i64_from_f64_floor(-2.5), -3);
        assert_eq!(i64_from_f64_floor(7.9), 7);
    }

    #[test]
    fn integer_floor_matches_libm_floor() {
        // The truncate-and-adjust floor must equal `x.floor() as i64`
        // everywhere, including exact integers, negatives, and values
        // near the f64 integer-precision edge.
        let mut probes = vec![
            0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.999, -2.999, 1e-300, -1e-300,
        ];
        for k in -2000..2000 {
            probes.push(f64::from(k) * 0.37);
            probes.push(f64::from(k) * 86_400.123);
        }
        probes.push(9_007_199_254_740_991.0); // 2^53 - 1
        probes.push(-9_007_199_254_740_991.0);
        for x in probes {
            // The reference implementation this replaced.
            let reference = x.floor() as i64;
            assert_eq!(i64_from_f64_floor(x), reference, "at {x}");
        }
    }

    #[test]
    fn saturation_edges() {
        // Release builds must clamp rather than wrap.
        assert_eq!(usize_from_f64_floor(f64::MAX), usize::MAX);
        assert_eq!(i64_from_f64_floor(f64::MAX), i64::MAX);
        assert_eq!(i64_from_f64_floor(f64::MIN), i64::MIN);
    }
}
