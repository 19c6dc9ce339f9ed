//! Incremental aggregate cells.
//!
//! The online executors never materialize event sequences; they maintain,
//! per pattern prefix and per live START record, a small *aggregate cell*
//! describing the set of sequences matched so far (Section 3.2). Cells
//! support the three operations the Sharon executor needs:
//!
//! * `merge` — disjoint union of two sequence sets (e.g. "previously formed
//!   sequences are kept", Example 1);
//! * `extend` — append one event to every sequence in the set (the prefix
//!   recurrence `count(A,B) += count(A)`);
//! * `cross` — concatenate every sequence of one set with every sequence of
//!   another (the count *combination* step of the Shared method, Example 3:
//!   `count(A,B,c3,D) = count(A,B) × count(c3,D)`).
//!
//! [`CountCell`] is the specialized kernel for `COUNT(*)`/`COUNT(E)`
//! (exactly A-Seq's counts); [`StatsCell`] additionally carries sum/min/max
//! so one cell type serves `SUM`, `MIN`, `MAX`, and `AVG`.

use crate::checkpoint::{StateError, StateReader, StateWriter};
use sharon_query::aggregate::AggValue;
use sharon_query::{AggFunc, Query};

/// Per-event input to a cell update: whether the event is of the
/// aggregate's target type and, if so, the numeric attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Contribution {
    /// True if the event is of the aggregate's target type (always false
    /// for `COUNT(*)`, which needs no per-event values).
    pub relevant: bool,
    /// The target attribute's value (meaningful only if `relevant`).
    pub value: f64,
}

impl Contribution {
    /// The contribution of an event that the aggregate does not read.
    pub const NONE: Contribution = Contribution {
        relevant: false,
        value: 0.0,
    };

    /// The contribution of a target-type event carrying `value`.
    pub fn of(value: f64) -> Self {
        Contribution {
            relevant: true,
            value,
        }
    }
}

/// How a cell's fields map to the query's output value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// `COUNT(*)`: the sequence count.
    Count,
    /// `COUNT(E)` where `E` occurs `k` times in the pattern: `k × count`.
    CountTimes(u32),
    /// `SUM(E.attr)`.
    Sum,
    /// `MIN(E.attr)`.
    Min,
    /// `MAX(E.attr)`.
    Max,
    /// `AVG(E.attr)` where `E` occurs `k` times: `sum / (k × count)`.
    Avg(u32),
}

impl OutputKind {
    /// The output projection of `q`'s aggregate. `COUNT(E)` and `AVG`
    /// scale by how often `E` occurs in the pattern.
    pub fn of(q: &Query) -> Self {
        let occurrences = |t| q.pattern.positions_of(t).len() as u32;
        match &q.agg {
            AggFunc::CountStar => OutputKind::Count,
            AggFunc::Count(t) => OutputKind::CountTimes(occurrences(*t)),
            AggFunc::Sum(..) => OutputKind::Sum,
            AggFunc::Min(..) => OutputKind::Min,
            AggFunc::Max(..) => OutputKind::Max,
            AggFunc::Avg(t, _) => OutputKind::Avg(occurrences(*t)),
        }
    }
}

/// An incrementally maintainable aggregate over a set of event sequences.
///
/// Laws (checked by property tests):
/// * `merge` is commutative and associative with identity [`Aggregate::ZERO`];
/// * `extend` distributes over `merge`;
/// * `cross` is associative, has `ZERO` as annihilator, and distributes
///   over `merge` on both sides.
pub trait Aggregate: Copy + Clone + PartialEq + std::fmt::Debug + Send + 'static {
    /// The aggregate of the empty sequence set.
    const ZERO: Self;

    /// True if `sub_assign` is exact (counts and sums are; min/max are
    /// not). Enables the executor's difference-array fast path for
    /// range updates.
    const SUBTRACTABLE: bool = false;

    /// Remove `other`'s contribution (only meaningful when
    /// [`Aggregate::SUBTRACTABLE`]).
    fn sub_assign(&mut self, _other: &Self) {
        panic!(
            "{} does not support subtraction: the difference-array fast \
             path is gated on Aggregate::SUBTRACTABLE",
            std::any::type_name::<Self>()
        )
    }

    /// The aggregate of the single one-event sequence `[e]`.
    fn unit(c: Contribution) -> Self;

    /// True if the set is empty (no matched sequences).
    fn is_zero(&self) -> bool;

    /// Disjoint union.
    fn merge(&mut self, other: &Self);

    /// Append one event (with contribution `c`) to every sequence.
    fn extend(&self, c: Contribution) -> Self;

    /// Concatenate every sequence of `self` with every sequence of `other`.
    fn cross(&self, other: &Self) -> Self;

    /// Project the final output value.
    fn output(&self, kind: OutputKind) -> AggValue;

    /// Serialize the cell into a checkpoint segment.
    fn save(&self, w: &mut StateWriter);

    /// Decode a cell previously written by [`Aggregate::save`].
    fn load(r: &mut StateReader<'_>) -> Result<Self, StateError>;
}

/// The count-only kernel (A-Seq's counts). Saturating at `u128::MAX`,
/// which is unreachable for any window the benchmarks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountCell(pub u128);

impl Aggregate for CountCell {
    const ZERO: CountCell = CountCell(0);
    const SUBTRACTABLE: bool = true;

    #[inline]
    fn sub_assign(&mut self, other: &Self) {
        self.0 = self.0.saturating_sub(other.0);
    }

    #[inline]
    fn unit(_c: Contribution) -> Self {
        CountCell(1)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn merge(&mut self, other: &Self) {
        self.0 = self.0.saturating_add(other.0);
    }

    #[inline]
    fn extend(&self, _c: Contribution) -> Self {
        *self
    }

    #[inline]
    fn cross(&self, other: &Self) -> Self {
        CountCell(self.0.saturating_mul(other.0))
    }

    fn output(&self, kind: OutputKind) -> AggValue {
        match kind {
            OutputKind::Count => AggValue::Count(self.0),
            OutputKind::CountTimes(k) => AggValue::Count(self.0.saturating_mul(k as u128)),
            _ => panic!("CountCell cannot produce {kind:?}; use StatsCell"),
        }
    }

    fn save(&self, w: &mut StateWriter) {
        w.u128(self.0);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(CountCell(r.u128()?))
    }
}

/// The full kernel: count plus sum/min/max of the target attribute over
/// all sequences in the set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsCell {
    /// Number of sequences in the set.
    pub count: u128,
    /// Sum of target-attribute values over all events in all sequences.
    pub sum: f64,
    /// Minimum target-attribute value (`+∞` when no target event).
    pub min: f64,
    /// Maximum target-attribute value (`-∞` when no target event).
    pub max: f64,
}

impl Aggregate for StatsCell {
    const ZERO: StatsCell = StatsCell {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn unit(c: Contribution) -> Self {
        if c.relevant {
            StatsCell {
                count: 1,
                sum: c.value,
                min: c.value,
                max: c.value,
            }
        } else {
            StatsCell {
                count: 1,
                ..Self::ZERO
            }
        }
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.count == 0
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn extend(&self, c: Contribution) -> Self {
        if self.count == 0 {
            return Self::ZERO;
        }
        if c.relevant {
            StatsCell {
                count: self.count,
                sum: self.sum + c.value * self.count as f64,
                min: self.min.min(c.value),
                max: self.max.max(c.value),
            }
        } else {
            *self
        }
    }

    fn cross(&self, other: &Self) -> Self {
        if self.count == 0 || other.count == 0 {
            return Self::ZERO;
        }
        StatsCell {
            count: self.count.saturating_mul(other.count),
            sum: self.sum * other.count as f64 + other.sum * self.count as f64,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    fn output(&self, kind: OutputKind) -> AggValue {
        match kind {
            OutputKind::Count => AggValue::Count(self.count),
            OutputKind::CountTimes(k) => AggValue::Count(self.count.saturating_mul(k as u128)),
            OutputKind::Sum => AggValue::Number((self.count > 0).then_some(self.sum)),
            OutputKind::Min => {
                AggValue::Number((self.count > 0 && self.min.is_finite()).then_some(self.min))
            }
            OutputKind::Max => {
                AggValue::Number((self.count > 0 && self.max.is_finite()).then_some(self.max))
            }
            OutputKind::Avg(k) => AggValue::Number(if self.count > 0 && k > 0 {
                Some(self.sum / (self.count as f64 * k as f64))
            } else {
                None
            }),
        }
    }

    fn save(&self, w: &mut StateWriter) {
        w.u128(self.count);
        w.f64(self.sum);
        w.f64(self.min);
        w.f64(self.max);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(StatsCell {
            count: r.u128()?,
            sum: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_cell_models_example_1() {
        // Figure 6(a): count(A,B) after a1, b2, a3, b4 is 3
        let mut count_a = CountCell::ZERO; // count(A)
        let mut count_ab = CountCell::ZERO; // count(A,B)
                                            // a1 arrives
        count_a.merge(&CountCell::unit(Contribution::NONE));
        // b2 arrives: count(A,B) += count(A)
        count_ab.merge(&count_a.extend(Contribution::NONE));
        assert_eq!(count_ab.0, 1);
        // a3 arrives
        count_a.merge(&CountCell::unit(Contribution::NONE));
        // b4 arrives
        count_ab.merge(&count_a.extend(Contribution::NONE));
        assert_eq!(count_ab.0, 3, "paper: count(A,B) updated to 3");
    }

    #[test]
    fn count_cross_models_example_3() {
        // count(A,B,c3,D) = count(A,B) * count(c3,D) = 1 * 2 = 2
        assert_eq!(CountCell(1).cross(&CountCell(2)).0, 2);
        // count(A,B,c7,D) = 5 * 1 = 5; summed: 7
        let mut total = CountCell(1).cross(&CountCell(2));
        total.merge(&CountCell(5).cross(&CountCell(1)));
        assert_eq!(total.0, 7, "paper: count(A,B,C,D) = 7");
    }

    #[test]
    fn count_subtraction() {
        let (c_sub, s_sub) = (CountCell::SUBTRACTABLE, StatsCell::SUBTRACTABLE);
        assert!(c_sub && !s_sub);
        let mut c = CountCell(5);
        c.sub_assign(&CountCell(2));
        assert_eq!(c, CountCell(3));
    }

    #[test]
    #[should_panic(expected = "does not support subtraction")]
    fn stats_subtraction_panics() {
        let mut s = StatsCell::ZERO;
        s.sub_assign(&StatsCell::ZERO);
    }

    #[test]
    fn count_saturates() {
        let big = CountCell(u128::MAX);
        let mut x = big;
        x.merge(&CountCell(1));
        assert_eq!(x.0, u128::MAX);
        assert_eq!(big.cross(&CountCell(2)).0, u128::MAX);
        assert_eq!(
            big.output(OutputKind::CountTimes(3)),
            AggValue::Count(u128::MAX)
        );
    }

    #[test]
    fn stats_unit_and_extend() {
        let s = StatsCell::unit(Contribution::of(5.0));
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 5.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);

        // extend by an irrelevant event: values unchanged
        let s2 = s.extend(Contribution::NONE);
        assert_eq!(s2, s);

        // extend by a relevant event
        let s3 = s.extend(Contribution::of(3.0));
        assert_eq!(s3.count, 1);
        assert_eq!(s3.sum, 8.0);
        assert_eq!(s3.min, 3.0);
        assert_eq!(s3.max, 5.0);
    }

    #[test]
    fn extend_of_zero_is_zero() {
        assert!(StatsCell::ZERO.extend(Contribution::of(9.0)).is_zero());
        assert!(CountCell::ZERO.extend(Contribution::NONE).is_zero());
    }

    #[test]
    fn stats_extend_scales_sum_by_count() {
        // two sequences, sums 1 and 2 => set sum 3
        let mut set = StatsCell::unit(Contribution::of(1.0));
        set.merge(&StatsCell::unit(Contribution::of(2.0)));
        // extend both by a relevant event of value 10: sum = 3 + 2*10 = 23
        let e = set.extend(Contribution::of(10.0));
        assert_eq!(e.count, 2);
        assert_eq!(e.sum, 23.0);
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 10.0);
    }

    #[test]
    fn stats_cross() {
        let mut left = StatsCell::unit(Contribution::of(1.0));
        left.merge(&StatsCell::unit(Contribution::of(2.0))); // 2 seqs, sum 3
        let right = StatsCell::unit(Contribution::of(10.0)); // 1 seq, sum 10
        let c = left.cross(&right);
        // 2 combined sequences; each right value appears `left.count` times
        // and vice versa: sum = 3*1 + 10*2 = 23
        assert_eq!(c.count, 2);
        assert_eq!(c.sum, 23.0);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.max, 10.0);

        assert!(left.cross(&StatsCell::ZERO).is_zero());
        assert!(StatsCell::ZERO.cross(&right).is_zero());
    }

    #[test]
    fn outputs() {
        let mut s = StatsCell::unit(Contribution::of(4.0));
        s.merge(&StatsCell::unit(Contribution::of(6.0)));
        assert_eq!(s.output(OutputKind::Count), AggValue::Count(2));
        assert_eq!(s.output(OutputKind::CountTimes(2)), AggValue::Count(4));
        assert_eq!(s.output(OutputKind::Sum), AggValue::Number(Some(10.0)));
        assert_eq!(s.output(OutputKind::Min), AggValue::Number(Some(4.0)));
        assert_eq!(s.output(OutputKind::Max), AggValue::Number(Some(6.0)));
        assert_eq!(s.output(OutputKind::Avg(1)), AggValue::Number(Some(5.0)));
        assert_eq!(
            StatsCell::ZERO.output(OutputKind::Sum),
            AggValue::Number(None)
        );
        assert_eq!(
            StatsCell::ZERO.output(OutputKind::Avg(1)),
            AggValue::Number(None)
        );
        // count>0 but no relevant events: MIN/MAX are null
        let bare = StatsCell::unit(Contribution::NONE);
        assert_eq!(bare.output(OutputKind::Min), AggValue::Number(None));
        assert_eq!(bare.output(OutputKind::Max), AggValue::Number(None));
        assert_eq!(CountCell(5).output(OutputKind::Count), AggValue::Count(5));
    }

    #[test]
    #[should_panic(expected = "CountCell cannot produce")]
    fn count_cell_rejects_numeric_outputs() {
        CountCell(1).output(OutputKind::Sum);
    }

    #[test]
    fn cells_round_trip_through_codec() {
        let stats = StatsCell {
            count: u128::MAX / 7,
            sum: -1.25,
            min: f64::NEG_INFINITY,
            max: f64::INFINITY,
        };
        let mut w = StateWriter::new();
        CountCell(17).save(&mut w);
        stats.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(CountCell::load(&mut r).unwrap(), CountCell(17));
        assert_eq!(StatsCell::load(&mut r).unwrap(), stats);
        assert!(r.is_exhausted());
    }
}
