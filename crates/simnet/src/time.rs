//! Simulated time.
//!
//! The simulator uses a single global clock with microsecond resolution.
//! [`SimTime`] is an absolute instant (microseconds since the start of the
//! simulation) and [`SimDuration`] is a span between two instants. Both are
//! thin wrappers around `u64` so they are `Copy`, totally ordered and cheap
//! to store inside events.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Number of microseconds in one millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;
/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant of simulated time, in microseconds since the start of
/// the simulation (time zero).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MILLI)
    }

    /// Builds an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Raw microseconds since time zero.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since time zero (as a float, for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    /// Seconds since time zero (as a float, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Index of the one-second bucket this instant falls into: whole
    /// seconds since time zero, rounded down. The experiment engine rounds
    /// its phase boundaries to whole seconds with it.
    pub fn second_bucket(self) -> usize {
        (self.0 / MICROS_PER_SEC) as usize
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    /// Builds a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a duration from a floating point number of milliseconds,
    /// rounding to the nearest microsecond. Negative inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((ms * MICROS_PER_MILLI as f64).round() as u64)
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds as a float, for reporting.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    /// Seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < MICROS_PER_MILLI {
            write!(f, "{}us", self.0)
        } else if self.0 < MICROS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(3);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_micros(), 3_250_000);
        assert_eq!(((t + d) - t), d);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!((early - late), SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1500);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert!((SimDuration::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(SimTime::from_millis(1500).second_bucket(), 1);
        assert_eq!(SimTime::from_millis(999).second_bucket(), 0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!((d * 3).as_micros(), 30_000);
        assert_eq!((d / 2).as_micros(), 5_000);
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
    }
}
