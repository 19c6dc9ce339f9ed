//! The sharing benefit cost model (Section 3, Equations 1–8, plus one
//! executor term).
//!
//! Costs are expressed in expected aggregate-update operations per second,
//! driven by per-event-type arrival rates:
//!
//! * `Rate(P) = Σ_j Rate(E_j)` — rate of events matched by pattern `P`
//!   (Eq. 1);
//! * `NonShared(p, qᵢ) = Rate(E₁ⁱ) × Rate(Pⁱ)` — each matched event updates
//!   one count per live START event (Eq. 2), summed over `Q_p` (Eq. 3);
//! * `Comp(p, qᵢ)` — the Shared method's private prefix/suffix computation
//!   (Eq. 4);
//! * `Comb(p, qᵢ)` — the count-combination overhead (Eq. 5);
//! * `Fold(p, qᵢ)` — the window fold of each chain-stage boundary (below);
//! * `Shared(p, qᵢ) = Comp + Comb + Fold` (Eq. 6 with the fold term);
//! * `Shared(p, Q_p) = Rate(E_m) × Rate(p) + Σᵢ Shared(p, qᵢ)` (Eq. 7);
//! * `BValue(p, Q_p) = NonShared − Shared` (Eq. 8, Definition 5).
//!
//! [`CostModel::benefit`] is the one place Eqs. 6–8 are summed: it keeps
//! each term apart in a [`Benefit`], and [`CostModel::bvalue`] is that
//! split's value.
//!
//! With the §7.3 extension, a type occurring `k` times multiplies the
//! per-event update work by `k`.
//!
//! **Why `Fold` is not in the paper.** The paper's Shared method keeps one
//! count per START event and combines the shared pattern's counts with the
//! private prefix's and suffix's per START; Eq. 5 prices exactly that, as a
//! product of boundary rates. The executor instead keeps one aggregate per
//! open window (panes), so a stage that feeds a later stage adds each of
//! its completions to a chain log across every window still open — up to
//! `W(qᵢ) = ⌈WITHIN / SLIDE⌉` of them. A private prefix completes on its
//! last type `E_{m−1}ⁱ`; the shared pattern feeding a private suffix
//! completes on its end type. So
//! `Fold(p, qᵢ) = W(qᵢ) × ([prefix] · Rate(E_{m−1}ⁱ) + [suffix] · Rate(end of p))`.
//! Sharing a whole query pattern adds no boundary and costs no fold.
//!
//! **`Fold` scales with the rates unlike Eqs. 2–5.** Those are products
//! of two or three per-second rates; `Fold` is a window count times one
//! rate. Multiplying every rate by `k` multiplies the paper's terms by
//! `k²` or more but `Fold` only by `k`, so the same workload may share a
//! candidate at high rates that it drops at low ones, and expressing
//! rates per second (not per minute or per window) fixes where that
//! cross-over lies. The term has no tuning coefficient, but it is not in
//! the paper's unit, and the trade-off was measured only at the
//! benchmark workloads' own rates (ROADMAP item 1(a) is to count the
//! executor's operations and fit the model to them).

use sharon_query::{Pattern, Query, QueryId, Workload};
use sharon_types::EventTypeId;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Per-event-type arrival rates (events per second).
#[derive(Debug, Clone, Default)]
pub struct RateMap {
    rates: HashMap<EventTypeId, f64>,
    default_rate: f64,
}

impl RateMap {
    /// All types default to `default_rate` events/second.
    pub fn uniform(default_rate: f64) -> Self {
        RateMap {
            rates: HashMap::new(),
            default_rate,
        }
    }

    /// Build from explicit per-type rates, with `default_rate` for
    /// unlisted types.
    pub fn from_rates(
        rates: impl IntoIterator<Item = (EventTypeId, f64)>,
        default_rate: f64,
    ) -> Self {
        RateMap {
            rates: rates.into_iter().collect(),
            default_rate,
        }
    }

    /// Estimate rates by counting events of each type over a measured
    /// stream duration (used by the dynamic re-optimizer, §7.4).
    pub fn from_counts(counts: &HashMap<EventTypeId, u64>, duration_secs: f64) -> Self {
        let d = duration_secs.max(f64::MIN_POSITIVE);
        RateMap {
            rates: counts.iter().map(|(t, c)| (*t, *c as f64 / d)).collect(),
            default_rate: 0.0,
        }
    }

    /// Set one type's rate.
    pub fn set(&mut self, ty: EventTypeId, rate: f64) {
        self.rates.insert(ty, rate);
    }

    /// The rate of one type.
    #[inline]
    pub fn rate(&self, ty: EventTypeId) -> f64 {
        self.rates.get(&ty).copied().unwrap_or(self.default_rate)
    }

    /// `Rate(P)`: the rate of events matched by `pattern` (Eq. 1).
    pub fn pattern_rate(&self, pattern: &Pattern) -> f64 {
        pattern.types().iter().map(|t| self.rate(*t)).sum()
    }
}

/// The sharing benefit model over a workload and a rate map.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    workload: &'a Workload,
    rates: &'a RateMap,
}

impl<'a> CostModel<'a> {
    /// Bind the model to a workload and rates.
    pub fn new(workload: &'a Workload, rates: &'a RateMap) -> Self {
        CostModel { workload, rates }
    }

    /// The §7.3 repetition factor: the maximum number of occurrences of
    /// any single type in `pattern` (1 for assumption-(3) patterns).
    fn repetition_factor(pattern: &Pattern) -> f64 {
        let mut counts: HashMap<EventTypeId, u32> = HashMap::new();
        for t in pattern.types() {
            *counts.entry(*t).or_insert(0) += 1;
        }
        counts.values().copied().max().unwrap_or(1) as f64
    }

    /// `NonShared(p, qᵢ) = Rate(E₁ⁱ) × Rate(Pⁱ)` (Eq. 2).
    pub fn non_shared_query(&self, q: &Query) -> f64 {
        let k = Self::repetition_factor(&q.pattern);
        k * self.rates.rate(q.pattern.start_type()) * self.rates.pattern_rate(&q.pattern)
    }

    /// `NonShared(p, Q_p)` (Eq. 3).
    pub fn non_shared(&self, queries: &BTreeSet<QueryId>) -> f64 {
        queries
            .iter()
            .map(|id| self.non_shared_query(self.workload.get(*id)))
            .sum()
    }

    /// `Comp(p, qᵢ)` (Eq. 4): cost of the private prefix and suffix.
    pub fn comp(&self, p: &Pattern, q: &Query) -> f64 {
        let Some(m) = q.pattern.find(p) else {
            return 0.0;
        };
        let mut cost = 0.0;
        if m > 0 {
            let prefix = q.pattern.subpattern(0..m);
            cost += self.rates.rate(prefix.start_type()) * self.rates.pattern_rate(&prefix);
        }
        let suffix_start = m + p.len();
        if suffix_start < q.pattern.len() {
            let suffix = q.pattern.subpattern(suffix_start..q.pattern.len());
            cost += self.rates.rate(suffix.start_type()) * self.rates.pattern_rate(&suffix);
        }
        Self::repetition_factor(&q.pattern) * cost
    }

    /// `Comb(p, qᵢ)` (Eq. 5): the count-combination overhead, the product
    /// of the boundary-event rates involved. With an empty prefix or
    /// suffix the corresponding factor is absent; with both empty (the
    /// whole pattern is shared) no combination happens at all.
    pub fn comb(&self, p: &Pattern, q: &Query) -> f64 {
        let Some(m) = q.pattern.find(p) else {
            return 0.0;
        };
        let suffix_start = m + p.len();
        let has_prefix = m > 0;
        let has_suffix = suffix_start < q.pattern.len();
        if !has_prefix && !has_suffix {
            return 0.0;
        }
        let mut cost = self.rates.rate(p.start_type());
        if has_prefix {
            cost *= self.rates.rate(q.pattern.start_type());
        }
        if has_suffix {
            cost *= self.rates.rate(q.pattern.type_at(suffix_start));
        }
        cost
    }

    /// `Fold(p, qᵢ)`: the per-window fold of the chain-stage boundaries
    /// that sharing `p` adds to `q` (see the module doc). A private prefix
    /// folds each completion of its last type, a private suffix each
    /// completion of `p`'s end type, across `q`'s open windows.
    pub fn fold(&self, p: &Pattern, q: &Query) -> f64 {
        let Some(m) = q.pattern.find(p) else {
            return 0.0;
        };
        let mut rate = 0.0;
        if m > 0 {
            rate += self.rates.rate(q.pattern.type_at(m - 1));
        }
        if m + p.len() < q.pattern.len() {
            rate += self.rates.rate(p.end_type());
        }
        q.window.max_open() as f64 * rate
    }

    /// `BValue(p, Q_p)` (Eq. 8): the benefit of the sharing candidate.
    pub fn bvalue(&self, p: &Pattern, queries: &BTreeSet<QueryId>) -> f64 {
        self.benefit(p, queries).value()
    }

    /// The terms of `BValue(p, Q_p)`: `NonShared` (Eq. 3), the shared
    /// pattern computed once (`Rate(E_m) × Rate(p)`, Eq. 7's first term),
    /// and Eq. 6's `Comp`, `Comb` and `Fold`, each summed over `Q_p`.
    pub fn benefit(&self, p: &Pattern, queries: &BTreeSet<QueryId>) -> Benefit {
        let mut b = Benefit {
            non_shared: self.non_shared(queries),
            once: Self::repetition_factor(p)
                * self.rates.rate(p.start_type())
                * self.rates.pattern_rate(p),
            comp: 0.0,
            comb: 0.0,
            fold: 0.0,
        };
        for id in queries {
            let q = self.workload.get(*id);
            b.comp += self.comp(p, q);
            b.comb += self.comb(p, q);
            b.fold += self.fold(p, q);
        }
        b
    }
}

/// One candidate's benefit split into its terms (see [`CostModel::benefit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Benefit {
    /// `NonShared(p, Q_p)` (Eq. 3).
    pub non_shared: f64,
    /// The shared pattern computed once (Eq. 7's first term).
    pub once: f64,
    /// `Σ Comp(p, qᵢ)` (Eq. 4).
    pub comp: f64,
    /// `Σ Comb(p, qᵢ)` (Eq. 5).
    pub comb: f64,
    /// `Σ Fold(p, qᵢ)`.
    pub fold: f64,
}

impl Benefit {
    /// `Shared(p, Q_p)` (Eq. 7 over Eq. 6 with the fold term).
    pub fn shared(&self) -> f64 {
        self.once + self.comp + self.comb + self.fold
    }

    /// `BValue(p, Q_p) = NonShared − Shared` (Eq. 8).
    pub fn value(&self) -> f64 {
        self.non_shared - self.shared()
    }
}

impl fmt::Display for Benefit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "non-shared {:.1} − (once {:.1} + comp {:.1} + comb {:.1} + fold {:.1})",
            self.non_shared, self.once, self.comp, self.comb, self.fold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::{AggFunc, Query};
    use sharon_types::{Catalog, TimeDelta, WindowSpec};

    fn workload(catalog: &mut Catalog, patterns: &[&[&str]]) -> Workload {
        Workload::from_queries(patterns.iter().map(|names| {
            Query::simple(
                QueryId(0),
                Pattern::from_names(catalog, names.iter().copied()),
                AggFunc::CountStar,
                WindowSpec::paper_traffic(),
            )
        }))
    }

    #[test]
    fn pattern_rate_is_sum_of_type_rates() {
        let mut c = Catalog::new();
        let p = Pattern::from_names(&mut c, ["A", "B", "C"]);
        let rates = RateMap::from_rates(
            [
                (c.lookup("A").unwrap(), 10.0),
                (c.lookup("B").unwrap(), 20.0),
            ],
            5.0,
        );
        assert_eq!(rates.pattern_rate(&p), 35.0, "10 + 20 + default 5");
        assert_eq!(rates.rate(c.lookup("C").unwrap()), 5.0);
    }

    #[test]
    fn non_shared_cost_eq2() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B", "C"]]);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        // Rate(E1) * Rate(P) = 10 * 30
        assert_eq!(model.non_shared_query(w.get(QueryId(0))), 300.0);
    }

    #[test]
    fn sharing_a_long_pattern_among_many_queries_is_beneficial() {
        let mut c = Catalog::new();
        // 4 queries, all containing (A,B,C,D) with distinct 1-type suffixes
        let w = workload(
            &mut c,
            &[
                &["A", "B", "C", "D", "S1"],
                &["A", "B", "C", "D", "S2"],
                &["A", "B", "C", "D", "S3"],
                &["A", "B", "C", "D", "S4"],
            ],
        );
        let p = Pattern::from_names(&mut c, ["A", "B", "C", "D"]);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        let queries: BTreeSet<QueryId> = w.ids().collect();
        // NonShared: 4 * (10 * 50) = 2000
        assert_eq!(model.non_shared(&queries), 2000.0);
        // Shared: pattern once 10*40=400; per query: comp = suffix 10*10=100,
        // comb = Rate(E1)=10 * Rate(Em)=10 ... prefix empty => 10*10=100,
        // fold = W=10 open windows * Rate(D)=10 => 100
        // => 400 + 4*(100+100+100) = 1600
        assert_eq!(model.benefit(&p, &queries).shared(), 1600.0);
        assert_eq!(model.bvalue(&p, &queries), 400.0);
    }

    #[test]
    fn sharing_a_short_pattern_between_two_queries_may_not_pay_off() {
        let mut c = Catalog::new();
        // long private prefixes/suffixes around a short shared core
        let w = workload(
            &mut c,
            &[
                &["P1", "P2", "P3", "P4", "A", "B", "S1", "S2", "S3", "S4"],
                &["R1", "R2", "R3", "R4", "A", "B", "T1", "T2", "T3", "T4"],
            ],
        );
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let rates = RateMap::uniform(100.0);
        let model = CostModel::new(&w, &rates);
        let queries: BTreeSet<QueryId> = w.ids().collect();
        // NonShared: 2 * 100 * 1000 = 200_000
        // Shared: 100*200 + 2*(100*400 + 100*400 + 100*100*100) >> NonShared
        assert!(
            model.bvalue(&p, &queries) < 0.0,
            "combination overhead dominates: candidate is non-beneficial"
        );
    }

    #[test]
    fn whole_pattern_shared_has_zero_combination_cost() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B"], &["A", "B"]]);
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        for id in w.ids() {
            assert_eq!(model.comb(&p, w.get(id)), 0.0);
            assert_eq!(model.comp(&p, w.get(id)), 0.0);
        }
        let queries: BTreeSet<QueryId> = w.ids().collect();
        // NonShared 2*10*20=400; Shared = 10*20 = 200 (pattern once)
        assert_eq!(model.bvalue(&p, &queries), 200.0);
    }

    #[test]
    fn prefix_only_and_suffix_only_combination() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["X", "A", "B"], &["A", "B", "Y"]]);
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        // q1 = (X, A, B): prefix (X), no suffix
        let q1 = w.get(QueryId(0));
        assert_eq!(model.comp(&p, q1), 10.0 * 10.0);
        assert_eq!(model.comb(&p, q1), 10.0 * 10.0, "Rate(E1) * Rate(Em)");
        // q2 = (A, B, Y): suffix (Y), no prefix
        let q2 = w.get(QueryId(1));
        assert_eq!(model.comp(&p, q2), 10.0 * 10.0);
        assert_eq!(model.comb(&p, q2), 10.0 * 10.0, "Rate(Em) * Rate(E_suffix)");
    }

    /// `X, A, B, Y` at rates 2, 3, 5, 7 under `WITHIN 10 s SLIDE 3 s`:
    /// ⌈10 / 3⌉ = 4 open windows.
    fn fold_fixture(patterns: &[&[&str]]) -> (Catalog, Workload, RateMap) {
        let mut c = Catalog::new();
        let window = WindowSpec::new(TimeDelta::from_secs(10), TimeDelta::from_secs(3));
        let w = Workload::from_queries(patterns.iter().map(|names| {
            Query::simple(
                QueryId(0),
                Pattern::from_names(&mut c, names.iter().copied()),
                AggFunc::CountStar,
                window,
            )
        }));
        let rates = RateMap::from_rates(
            [("X", 2.0), ("A", 3.0), ("B", 5.0), ("Y", 7.0)]
                .map(|(name, rate)| (c.register(name), rate)),
            0.0,
        );
        (c, w, rates)
    }

    #[test]
    fn fold_of_a_private_prefix_is_its_last_type_per_open_window() {
        let (mut c, w, rates) = fold_fixture(&[&["X", "A", "B"]]);
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let model = CostModel::new(&w, &rates);
        // 4 windows * Rate(X) = 4 * 2
        assert_eq!(model.fold(&p, w.get(QueryId(0))), 8.0);
    }

    #[test]
    fn fold_of_a_private_suffix_is_the_shared_end_type_per_open_window() {
        let (mut c, w, rates) = fold_fixture(&[&["A", "B", "Y"]]);
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let model = CostModel::new(&w, &rates);
        // 4 windows * Rate(B) = 4 * 5
        assert_eq!(model.fold(&p, w.get(QueryId(0))), 20.0);
    }

    #[test]
    fn fold_of_a_prefix_and_a_suffix_adds_both_boundaries() {
        let (mut c, w, rates) = fold_fixture(&[&["X", "A", "B", "Y"]]);
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let model = CostModel::new(&w, &rates);
        // 4 windows * (Rate(X) + Rate(B)) = 4 * (2 + 5)
        assert_eq!(model.fold(&p, w.get(QueryId(0))), 28.0);
    }

    #[test]
    fn fold_of_a_whole_shared_pattern_is_zero() {
        let (mut c, w, rates) = fold_fixture(&[&["A", "B"], &["A", "B"]]);
        let p = Pattern::from_names(&mut c, ["A", "B"]);
        let model = CostModel::new(&w, &rates);
        for id in w.ids() {
            assert_eq!(model.fold(&p, w.get(id)), 0.0);
        }
        let queries: BTreeSet<QueryId> = w.ids().collect();
        // Eq. 8: 2 * 3 * 8 - 3 * 8
        assert_eq!(model.bvalue(&p, &queries), 24.0);
    }

    #[test]
    fn repetition_factor_extension_7_3() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B", "A"]]);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        // k = 2: 2 * 10 * 30
        assert_eq!(model.non_shared_query(w.get(QueryId(0))), 600.0);
    }

    #[test]
    fn rates_from_counts() {
        let mut c = Catalog::new();
        let a = c.register("A");
        let mut counts = HashMap::new();
        counts.insert(a, 500u64);
        let rates = RateMap::from_counts(&counts, 10.0);
        assert_eq!(rates.rate(a), 50.0);
        assert_eq!(rates.rate(EventTypeId(99)), 0.0);
    }

    #[test]
    fn pattern_not_in_query_costs_nothing_shared() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B"]]);
        let p = Pattern::from_names(&mut c, ["X", "Y"]);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        assert_eq!(model.comp(&p, w.get(QueryId(0))), 0.0);
        assert_eq!(model.comb(&p, w.get(QueryId(0))), 0.0);
    }
}
