//! Simulation time: a non-negative, totally ordered wrapper over `f64`.
//!
//! The paper measures everything in units of one phase execution; the
//! communication latency `c` and fault frequency `f` are expressed relative to
//! that unit. `Time` keeps the convenience of floating point while providing
//! the total order required by the event queue (NaN is rejected at
//! construction, so `Ord` is sound).
//!
//! Every value is a finite, non-negative `f64` with `-0.0` normalised to
//! `0.0`, and for such values the IEEE-754 bit pattern, read as a `u64`,
//! orders exactly as the value does. `Ord` compares those bits, and the
//! engine packs them into its integer commit key.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or duration of) simulation time. Never NaN, never negative.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

impl Time {
    pub const ZERO: Time = Time(0.0);

    /// Construct a time value; panics on NaN or negative input, which would
    /// corrupt the event queue ordering. `-0.0` becomes `0.0` (adding `+0.0`
    /// changes no other value), so equal times have equal bits.
    #[inline]
    pub fn new(value: f64) -> Time {
        assert!(
            value.is_finite() && value >= 0.0,
            "Time must be finite and non-negative, got {value}"
        );
        Time(value + 0.0)
    }

    /// The value's bit pattern, which orders exactly as the value does.
    #[inline]
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// Inverse of [`Time::to_bits`].
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> Time {
        Time(f64::from_bits(bits))
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: durations never go negative.
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time((self.0 - other.0).max(0.0))
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // The constructor admits only finite non-negative values without
        // -0.0, whose bit patterns order as the values do.
        self.to_bits().cmp(&other.to_bits())
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        // Two times sum to a value that is neither negative, NaN nor -0.0;
        // only an overflow to infinity is left to refuse.
        let sum = self.0 + rhs.0;
        assert!(
            sum.is_finite(),
            "Time must be finite and non-negative, got {sum}"
        );
        Time(sum)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: f64) -> Time {
        Time::new(self.0 * rhs)
    }
}

impl Div<Time> for Time {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl From<f64> for Time {
    #[inline]
    fn from(value: f64) -> Time {
        Time::new(value)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = Time::new(1.0);
        let b = Time::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = Time::new(1.5);
        let b = Time::new(0.5);
        assert_eq!((a + b).as_f64(), 2.0);
        assert_eq!((a - b).as_f64(), 1.0);
        assert_eq!((a * 2.0).as_f64(), 3.0);
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Time::new(1.0);
        let b = Time::new(2.0);
        assert_eq!(a.saturating_sub(b), Time::ZERO);
        assert_eq!(b.saturating_sub(a), Time::new(1.0));
    }

    #[test]
    fn negative_zero_is_zero() {
        let z = Time::new(-0.0);
        assert_eq!(z.to_bits(), Time::ZERO.to_bits());
        assert!(z.as_f64().is_sign_positive());
        assert_eq!((Time::new(1.0) * -0.0).to_bits(), 0);
    }

    #[test]
    fn bit_order_is_value_order() {
        let values = [
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            0.1,
            1.0,
            1.5,
            1e300,
            f64::MAX,
        ];
        for &a in &values {
            for &b in &values {
                let (ta, tb) = (Time::new(a), Time::new(b));
                assert_eq!(ta.cmp(&tb), a.partial_cmp(&b).unwrap(), "{a} vs {b}");
                assert_eq!(Time::from_bits(ta.to_bits()), ta);
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_negative() {
        let _ = Time::new(-1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = Time::new(1.0) - Time::new(2.0);
    }
}
