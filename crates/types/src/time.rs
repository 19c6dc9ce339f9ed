//! Time points and durations.
//!
//! The paper models time as a linearly ordered set of non-negative integers
//! (Section 2.1). We fix the tick to one **millisecond**: the paper's data
//! sets carry second-resolution time stamps, but high-rate synthetic streams
//! (thousands of events per second) need sub-second resolution so that the
//! strict `e_i.time < e_j.time` sequence semantics still admits matches.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in time, measured in milliseconds since the start of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of time in milliseconds (always non-negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Timestamp {
    /// The origin of the stream clock.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from whole seconds (the paper's native resolution).
    #[inline]
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Raw millisecond tick count.
    #[inline]
    pub fn millis(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// The timestamp `delta` earlier than `self`, saturating at the origin.
    #[inline]
    pub fn saturating_sub(self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta.0))
    }
}

impl TimeDelta {
    /// The empty duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        TimeDelta(secs * 1000)
    }

    /// Construct from whole minutes (the unit of the paper's `WITHIN`
    /// clauses, e.g. "a 10-minutes long time window that slides every
    /// minute").
    #[inline]
    pub fn from_mins(mins: u64) -> Self {
        TimeDelta(mins * 60_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        TimeDelta(ms)
    }

    /// Raw millisecond count.
    #[inline]
    pub fn millis(self) -> u64 {
        self.0
    }

    /// True if this is the zero duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        self.since(rhs)
    }
}

impl Add<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(60_000) && self.0 > 0 {
            write!(f, "{}min", self.0 / 60_000)
        } else if self.0.is_multiple_of(1000) && self.0 > 0 {
            write!(f, "{}s", self.0 / 1000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_and_minute_constructors() {
        assert_eq!(Timestamp::from_secs(2), Timestamp(2000));
        assert_eq!(TimeDelta::from_mins(10), TimeDelta(600_000));
        assert_eq!(TimeDelta::from_secs(3), TimeDelta(3000));
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(5);
        assert_eq!(t + TimeDelta::from_secs(2), Timestamp::from_secs(7));
        assert_eq!(
            Timestamp::from_secs(7) - Timestamp::from_secs(5),
            TimeDelta::from_secs(2)
        );
        // saturating: `since` never goes negative
        assert_eq!(
            Timestamp::from_secs(1).since(Timestamp::from_secs(9)),
            TimeDelta::ZERO
        );
        assert_eq!(
            Timestamp::from_secs(1).saturating_sub(TimeDelta::from_secs(9)),
            Timestamp::ZERO
        );
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(TimeDelta::from_mins(10).to_string(), "10min");
        assert_eq!(TimeDelta::from_secs(3).to_string(), "3s");
        assert_eq!(TimeDelta::from_millis(7).to_string(), "7ms");
        assert_eq!(Timestamp::from_millis(7).to_string(), "7ms");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Timestamp(1) < Timestamp(2));
        assert!(TimeDelta(1) < TimeDelta(2));
    }
}
