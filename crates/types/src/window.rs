//! Sliding windows (`WITHIN` / `SLIDE`).
//!
//! A query requires all events of a matched sequence to fall "within one
//! window `w`" and returns one aggregate "per group and per window"
//! (Definition 2). Windows are the classic slide-aligned instances: instance
//! `k` covers the half-open interval `[k·slide, k·slide + within)`.

use crate::time::{TimeDelta, Timestamp};
use std::fmt;

/// The `WITHIN w SLIDE s` clause of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window length (`WITHIN`).
    pub within: TimeDelta,
    /// Slide interval (`SLIDE`). Must be positive and at most `within`.
    pub slide: TimeDelta,
}

/// One window instance: `[start, start + within)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowInstance {
    /// Inclusive lower bound.
    pub start: Timestamp,
    /// Exclusive upper bound.
    pub end: Timestamp,
}

impl WindowSpec {
    /// Create a spec, validating `0 < slide <= within`.
    pub fn new(within: TimeDelta, slide: TimeDelta) -> Self {
        assert!(!slide.is_zero(), "SLIDE must be positive");
        assert!(slide <= within, "SLIDE must not exceed WITHIN");
        WindowSpec { within, slide }
    }

    /// A tumbling window (`slide == within`).
    pub fn tumbling(within: TimeDelta) -> Self {
        Self::new(within, within)
    }

    /// The paper's default traffic window: `WITHIN 10 min SLIDE 1 min`.
    pub fn paper_traffic() -> Self {
        Self::new(TimeDelta::from_mins(10), TimeDelta::from_mins(1))
    }

    /// Maximum number of window instances that can simultaneously contain a
    /// given time point: `⌈within / slide⌉`.
    pub fn max_open(&self) -> usize {
        (self.within.millis().div_ceil(self.slide.millis())) as usize
    }

    /// Start of the earliest window instance containing `t`: the smallest
    /// slide-aligned `s` with `s + within > t`.
    #[inline]
    pub fn first_start_covering(&self, t: Timestamp) -> Timestamp {
        let (t, w, s) = (t.millis(), self.within.millis(), self.slide.millis());
        if t < w {
            Timestamp(0)
        } else {
            // smallest multiple of `s` strictly greater than `t - w`
            Timestamp(((t - w) / s + 1) * s)
        }
    }

    /// The window instance beginning at `start`.
    #[inline]
    pub fn instance(&self, start: Timestamp) -> WindowInstance {
        WindowInstance {
            start,
            end: start + self.within,
        }
    }

    /// True if the window starting at `start` contains `t`.
    #[inline]
    pub fn contains(&self, start: Timestamp, t: Timestamp) -> bool {
        start <= t && t < start + self.within
    }
}

impl WindowInstance {
    /// True if `t` lies inside the instance.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WITHIN {} SLIDE {}", self.within, self.slide)
    }
}

impl fmt::Display for WindowInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(within: u64, slide: u64) -> WindowSpec {
        WindowSpec::new(TimeDelta(within), TimeDelta(slide))
    }

    #[test]
    fn max_open_windows() {
        assert_eq!(spec(10, 1).max_open(), 10);
        assert_eq!(spec(10, 3).max_open(), 4);
        assert_eq!(spec(10, 10).max_open(), 1);
        assert_eq!(WindowSpec::paper_traffic().max_open(), 10);
    }

    #[test]
    fn covering_bounds() {
        let w = spec(4, 1); // the running example of Figure 6(b)
                            // event at time 5: windows starting at 2,3,4,5
        assert_eq!(w.first_start_covering(Timestamp(5)), Timestamp(2));
    }

    #[test]
    fn early_times_are_clamped_to_origin() {
        let w = spec(10, 3);
        assert_eq!(w.first_start_covering(Timestamp(2)), Timestamp(0));
        // t = 10 is no longer inside window [0, 10)
        assert_eq!(w.first_start_covering(Timestamp(10)), Timestamp(3));
    }

    #[test]
    fn window_bounds_are_half_open() {
        let w = spec(4, 2);
        let inst = w.instance(Timestamp(2));
        assert!(inst.contains(Timestamp(2)));
        assert!(inst.contains(Timestamp(5)));
        assert!(!inst.contains(Timestamp(6)));
        assert!(!inst.contains(Timestamp(1)));
        assert!(w.contains(Timestamp(2), Timestamp(3)));
        assert!(!w.contains(Timestamp(2), Timestamp(6)));
    }

    #[test]
    fn tumbling() {
        let w = WindowSpec::tumbling(TimeDelta(5));
        assert_eq!(w.max_open(), 1);
        assert_eq!(w.first_start_covering(Timestamp(7)), Timestamp(5));
    }

    #[test]
    #[should_panic(expected = "SLIDE must be positive")]
    fn zero_slide_rejected() {
        spec(5, 0);
    }

    #[test]
    #[should_panic(expected = "SLIDE must not exceed WITHIN")]
    fn slide_larger_than_within_rejected() {
        spec(5, 6);
    }

    #[test]
    fn display() {
        assert_eq!(
            WindowSpec::paper_traffic().to_string(),
            "WITHIN 10min SLIDE 1min"
        );
        assert_eq!(spec(4, 2).instance(Timestamp(2)).to_string(), "[2ms, 6ms)");
    }
}
