//! Dimensionless quantities: fractions and percentages.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A dimensionless fraction, conventionally in `[0, 1]` but not clamped —
/// relative *changes* (e.g. "inlet temperature dropped by 7 %") are signed.
///
/// ```
/// use mira_units::Ratio;
/// let change = Ratio::relative_change(64.0, 59.5);
/// assert!((change.to_percent().value() + 7.03).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Ratio(f64);

/// A percentage — `Ratio` scaled by 100 for display and for quantities the
/// paper reports in percent (utilization, relative spreads).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Percent(f64);

impl Ratio {
    /// Creates a ratio from a raw fraction.
    #[must_use]
    pub const fn new(fraction: f64) -> Self {
        Self(fraction)
    }

    /// The relative change from `baseline` to `value`:
    /// `(value − baseline) / baseline`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is zero.
    #[must_use]
    pub fn relative_change(baseline: f64, value: f64) -> Self {
        // Exact-zero divide guard.
        assert!(baseline != 0.0, "relative change needs a nonzero baseline");
        Self((value - baseline) / baseline)
    }

    /// Returns the raw fraction.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to a percentage.
    #[must_use]
    pub fn to_percent(self) -> Percent {
        Percent(self.0 * 100.0)
    }

    /// Clamps into `[0, 1]`, for quantities that are by construction
    /// fractions of a whole (utilization, duty cycles).
    #[must_use]
    pub fn clamped(self) -> Self {
        Self(self.0.clamp(0.0, 1.0))
    }

    /// Absolute value of the ratio.
    #[must_use]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }
}

impl Percent {
    /// Creates a percentage from a raw percent value.
    #[must_use]
    pub const fn new(percent: f64) -> Self {
        Self(percent)
    }

    /// Returns the raw percent value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to a fraction.
    #[must_use]
    pub fn to_ratio(self) -> Ratio {
        Ratio(self.0 / 100.0)
    }
}

impl From<Ratio> for Percent {
    fn from(r: Ratio) -> Self {
        r.to_percent()
    }
}

impl From<Percent> for Ratio {
    fn from(p: Percent) -> Self {
        p.to_ratio()
    }
}

macro_rules! impl_ratio_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }
    };
}

impl_ratio_ops!(Ratio);
impl_ratio_ops!(Percent);

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl fmt::Display for Percent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} %", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relative_change_signs() {
        assert!(Ratio::relative_change(100.0, 93.0).value() < 0.0);
        assert!(Ratio::relative_change(100.0, 106.0).value() > 0.0);
        assert_eq!(Ratio::relative_change(50.0, 50.0).value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero baseline")]
    fn relative_change_rejects_zero_baseline() {
        let _ = Ratio::relative_change(0.0, 1.0);
    }

    #[test]
    fn percent_round_trip() {
        let p = Percent::new(93.0);
        assert_eq!(p.to_ratio().to_percent(), p);
    }

    #[test]
    fn clamped_restricts_to_unit_interval() {
        assert_eq!(Ratio::new(1.4).clamped().value(), 1.0);
        assert_eq!(Ratio::new(-0.2).clamped().value(), 0.0);
        assert_eq!(Ratio::new(0.8).clamped().value(), 0.8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Percent::new(87.0).to_string(), "87.00 %");
        assert_eq!(Ratio::new(0.45).to_string(), "0.4500");
    }

    proptest! {
        #[test]
        fn conversion_round_trip(x in -10.0f64..10.0) {
            let r = Ratio::new(x);
            prop_assert!((Ratio::from(Percent::from(r)).value() - x).abs() < 1e-12);
        }
    }
}
