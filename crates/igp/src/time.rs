//! Simulation time: nanosecond timestamps and durations.
//!
//! The whole stack shares this clock. Timestamps are nanoseconds since
//! simulation start; arithmetic is checked in debug builds and
//! saturating in release (time never wraps).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Timestamp {
    /// The simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Timestamp {
        Timestamp(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000_000)
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Timestamp) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Construct from a float number of seconds (clamped at 0).
    pub fn from_secs_f64(s: f64) -> Dur {
        Dur((s.max(0.0) * 1e9).round() as u64)
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<Dur> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Dur) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Timestamp {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Dur;
    fn sub(self, rhs: Timestamp) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Timestamp::from_secs(2).0, 2_000_000_000);
        assert!((Timestamp::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Dur::from_secs(1), Dur::from_millis(1000));
        assert_eq!(Dur::from_secs_f64(0.25), Dur(250_000_000));
        assert_eq!(Dur::from_secs_f64(-3.0), Dur::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t + Dur::from_secs(5), Timestamp::from_secs(15));
        assert_eq!(t - Timestamp::from_secs(4), Dur::from_secs(6));
        assert_eq!(Timestamp::from_secs(4) - t, Dur::ZERO);
        assert_eq!(Timestamp(u64::MAX) + Dur::from_secs(1), Timestamp(u64::MAX));
        assert_eq!(t.since(Timestamp::ZERO), Dur::from_secs(10));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Timestamp::from_secs(1) < Timestamp::from_secs(2));
        assert!(Timestamp(u64::MAX) > Timestamp::from_secs(u32::MAX as u64));
        assert_eq!(format!("{}", Timestamp::from_millis(1500)), "t=1.500000s");
        assert_eq!(format!("{}", Dur::from_millis(250)), "0.250000s");
    }
}
