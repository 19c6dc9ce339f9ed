//! Event sequence patterns.
//!
//! Definition 1: "Given event types `E₁, …, E_l`, an event sequence pattern
//! has the form `P = (E₁ … E_l)` where `l ≥ 1` is the length of `P`." A match
//! is a sequence of events of those types with strictly increasing
//! timestamps.

use sharon_types::{Catalog, EventTypeId};
use std::fmt;
use std::ops::Range;

/// An event sequence pattern `(E₁ … E_l)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    types: Box<[EventTypeId]>,
}

impl Pattern {
    /// Build a pattern from event types. Panics on an empty sequence
    /// (Definition 1 requires `l ≥ 1`).
    pub fn new(types: impl Into<Vec<EventTypeId>>) -> Self {
        let types: Vec<EventTypeId> = types.into();
        assert!(!types.is_empty(), "a pattern must have length >= 1");
        Pattern {
            types: types.into_boxed_slice(),
        }
    }

    /// Build a pattern from type names, registering them in `catalog`.
    pub fn from_names<S: AsRef<str>>(
        catalog: &mut Catalog,
        names: impl IntoIterator<Item = S>,
    ) -> Self {
        let types: Vec<EventTypeId> = names
            .into_iter()
            .map(|n| catalog.register(n.as_ref()))
            .collect();
        Pattern::new(types)
    }

    /// The pattern length `l`.
    #[inline]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Patterns are never empty; kept for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The event types, in sequence order.
    #[inline]
    pub fn types(&self) -> &[EventTypeId] {
        &self.types
    }

    /// The START event type `E₁`.
    #[inline]
    pub fn start_type(&self) -> EventTypeId {
        self.types[0]
    }

    /// The END event type `E_l`.
    #[inline]
    pub fn end_type(&self) -> EventTypeId {
        self.types[self.types.len() - 1]
    }

    /// The type at position `i` (0-based).
    #[inline]
    pub fn type_at(&self, i: usize) -> EventTypeId {
        self.types[i]
    }

    /// All 0-based positions at which `ty` occurs. Under the paper's
    /// assumption (3) this has at most one element; the §7.3 extension
    /// allows several.
    pub fn positions_of(&self, ty: EventTypeId) -> Vec<usize> {
        self.types
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == ty)
            .map(|(i, _)| i)
            .collect()
    }

    /// True if any position has type `ty`.
    pub fn contains_type(&self, ty: EventTypeId) -> bool {
        self.types.contains(&ty)
    }

    /// True if some event type occurs more than once (violating the
    /// simplifying assumption (3) of Section 2.1; still executable via the
    /// §7.3 extension).
    pub fn has_repeated_type(&self) -> bool {
        let mut seen = self.types.to_vec();
        seen.sort();
        seen.windows(2).any(|w| w[0] == w[1])
    }

    /// The contiguous sub-pattern at `range`.
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn subpattern(&self, range: Range<usize>) -> Pattern {
        Pattern::new(self.types[range].to_vec())
    }

    /// All 0-based start positions at which `sub` occurs contiguously in
    /// `self`.
    pub fn occurrences_of(&self, sub: &Pattern) -> Vec<usize> {
        if sub.len() > self.len() {
            return Vec::new();
        }
        (0..=self.len() - sub.len())
            .filter(|&i| self.types[i..i + sub.len()] == *sub.types)
            .collect()
    }

    /// First occurrence of `sub` in `self`, if any.
    pub fn find(&self, sub: &Pattern) -> Option<usize> {
        self.occurrences_of(sub).first().copied()
    }

    /// Iterate over every contiguous sub-pattern with length > 1, as
    /// `(start, sub-pattern)` pairs — the enumeration of the modified CCSpan
    /// algorithm (Appendix A, Algorithm 7).
    pub fn contiguous_subpatterns(&self) -> impl Iterator<Item = (usize, Pattern)> + '_ {
        (0..self.len()).flat_map(move |start| {
            (start + 2..=self.len()).map(move |end| (start, self.subpattern(start..end)))
        })
    }

    /// Render using event type names from `catalog`, e.g.
    /// `(OakSt, MainSt)`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Pattern, &'a Catalog);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "(")?;
                for (i, t) in self.0.types.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.1.name(*t))?;
                }
                write!(f, ")")
            }
        }
        D(self, catalog)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.types.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<EventTypeId>> for Pattern {
    fn from(v: Vec<EventTypeId>) -> Self {
        Pattern::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| EventTypeId(i)).collect::<Vec<_>>())
    }

    #[test]
    fn basic_accessors() {
        let p = pat(&[3, 1, 2]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.start_type(), EventTypeId(3));
        assert_eq!(p.end_type(), EventTypeId(2));
        assert_eq!(p.type_at(1), EventTypeId(1));
        assert!(p.contains_type(EventTypeId(1)));
        assert!(!p.contains_type(EventTypeId(9)));
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "length >= 1")]
    fn empty_pattern_rejected() {
        Pattern::new(Vec::<EventTypeId>::new());
    }

    #[test]
    fn occurrences() {
        // query q4's pattern (ParkAve, OakSt, MainSt, WestSt) as 0,1,2,3
        let q4 = pat(&[0, 1, 2, 3]);
        assert_eq!(q4.occurrences_of(&pat(&[1, 2])), vec![1]); // p1
        assert_eq!(q4.occurrences_of(&pat(&[0, 1])), vec![0]); // p2
        assert_eq!(q4.occurrences_of(&pat(&[2, 3])), vec![2]); // p4
        assert_eq!(q4.occurrences_of(&pat(&[3, 0])), Vec::<usize>::new());
        assert_eq!(q4.find(&pat(&[1, 2])), Some(1));
        assert_eq!(q4.find(&pat(&[9])), None);
        // a pattern longer than the haystack
        assert_eq!(pat(&[1]).occurrences_of(&pat(&[1, 2])), Vec::<usize>::new());
    }

    #[test]
    fn repeated_type_occurrences() {
        let p = pat(&[1, 2, 1, 2]);
        assert_eq!(p.occurrences_of(&pat(&[1, 2])), vec![0, 2]);
        assert_eq!(p.positions_of(EventTypeId(1)), vec![0, 2]);
        assert!(p.has_repeated_type());
        assert!(!pat(&[1, 2, 3]).has_repeated_type());
    }

    #[test]
    fn contiguous_subpatterns_enumeration() {
        let p = pat(&[1, 2, 3]);
        let subs: Vec<(usize, Pattern)> = p.contiguous_subpatterns().collect();
        assert_eq!(
            subs,
            vec![(0, pat(&[1, 2])), (0, pat(&[1, 2, 3])), (1, pat(&[2, 3])),]
        );
        // a length-2 pattern has exactly one sub-pattern of length > 1
        assert_eq!(pat(&[1, 2]).contiguous_subpatterns().count(), 1);
        // length-1 pattern: none
        assert_eq!(pat(&[1]).contiguous_subpatterns().count(), 0);
    }

    #[test]
    fn subpattern_slicing() {
        let p = pat(&[5, 6, 7, 8]);
        assert_eq!(p.subpattern(1..3), pat(&[6, 7]));
    }

    #[test]
    fn display_with_catalog() {
        let mut c = Catalog::new();
        let p = Pattern::from_names(&mut c, ["OakSt", "MainSt"]);
        assert_eq!(p.display(&c).to_string(), "(OakSt, MainSt)");
        assert_eq!(p.to_string(), "(E0, E1)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        // plan-finder sorts candidates by pattern; verify the derived order
        assert!(pat(&[1, 2]) < pat(&[1, 3]));
        assert!(pat(&[1, 2]) < pat(&[1, 2, 0]));
    }
}
