//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulated clock.
///
/// Time is a non-negative, finite `f64` measured in multiples of the mean
/// duration of one remote message (the paper normalizes the network so that a
/// remote invocation message has an exponentially distributed duration with
/// mean 1; see §4.1 of the paper).
///
/// `SimTime` is totally ordered: the constructor rejects NaN and negative
/// values, so `Ord` can be implemented without surprises.
///
/// # Example
///
/// ```
/// use oml_des::SimTime;
///
/// let t = SimTime::new(1.5) + 2.5;
/// assert_eq!(t, SimTime::new(4.0));
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t - SimTime::new(1.0), 3.0);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN, infinite or negative — such values would break
    /// the total order the event queue relies on.
    #[must_use]
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite() && t >= 0.0, "invalid simulation time: {t}");
        SimTime(t)
    }

    /// Returns the raw clock value.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Values are guaranteed finite and non-negative by construction.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances the clock by `rhs` time units.
    ///
    /// # Panics
    ///
    /// Panics if the result would not be a valid time (NaN/negative).
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;

    /// Returns the (possibly negative) span from `rhs` to `self`.
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(SimTime::ZERO.min(a), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::new(3.25);
        assert_eq!((t + 0.75).as_f64(), 4.0);
        assert_eq!(t - SimTime::new(1.25), 2.0);
        assert_eq!(f64::from(t), 3.25);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn rejects_nan() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn rejects_negative() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
    }
}
