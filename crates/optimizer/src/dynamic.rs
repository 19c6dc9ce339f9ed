//! Dynamic workloads (Section 7.4).
//!
//! "Even if the queries remain the same, the workload may still vary due
//! to event rate fluctuations. Thus, a chosen plan may become sub-optimal.
//! In this case, our SHARON approach leverages runtime statistics
//! techniques to detect such fluctuations and to trigger the SHARON
//! optimizer to produce a new optimal plan based on the new workload."
//!
//! [`RateEstimator`] maintains sliding per-type event counts;
//! [`DynamicPlanManager`] periodically re-scores the active plan under the
//! fresh rates and triggers re-optimization when its estimated benefit has
//! drifted beyond a threshold.

use crate::cost::{CostModel, RateMap};
use crate::optimizer::{optimize_sharon, OptimizeOutcome, OptimizerConfig};
use sharon_query::{SharingPlan, Workload};
use sharon_types::{EventTypeId, TimeDelta, Timestamp};
use std::collections::HashMap;

/// Sliding-window per-type rate estimation over the stream's own clock.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    horizon: TimeDelta,
    counts: HashMap<EventTypeId, u64>,
    window_start: Timestamp,
    last_time: Timestamp,
    /// Completed-window rates (events/sec), refreshed each horizon.
    current: RateMap,
    /// True once at least one horizon has completed.
    warmed: bool,
}

impl RateEstimator {
    /// Estimate rates over tumbling horizons of the given length.
    pub fn new(horizon: TimeDelta) -> Self {
        assert!(!horizon.is_zero(), "horizon must be positive");
        RateEstimator {
            horizon,
            counts: HashMap::new(),
            window_start: Timestamp::ZERO,
            last_time: Timestamp::ZERO,
            current: RateMap::uniform(0.0),
            warmed: false,
        }
    }

    /// Record a batch's per-type row counts at once, `max_time` being the
    /// batch's largest event time. Returns `true` when a horizon just
    /// completed and [`RateEstimator::rates`] changed. The whole batch is
    /// attributed to the horizon containing `max_time` — batch-granular
    /// attribution is a deliberate approximation (rate drift detection
    /// does not need row-exact horizon boundaries); one event is the
    /// count `[(ty, 1)]` at its time.
    pub fn observe_counts(
        &mut self,
        counts: impl IntoIterator<Item = (EventTypeId, u64)>,
        max_time: Timestamp,
    ) -> bool {
        let refreshed = self.roll_to(max_time);
        for (ty, n) in counts {
            *self.counts.entry(ty).or_insert(0) += n;
        }
        refreshed
    }

    /// Complete the current horizon if `time` has moved past it; returns
    /// `true` when [`RateEstimator::rates`] was refreshed.
    fn roll_to(&mut self, time: Timestamp) -> bool {
        self.last_time = time;
        if time.millis() < self.window_start.millis() + self.horizon.millis() {
            return false;
        }
        let secs = self.horizon.millis() as f64 / 1000.0;
        self.current = RateMap::from_counts(&self.counts, secs);
        self.counts.clear();
        // jump the window so a long gap does not count as one horizon
        let h = self.horizon.millis();
        self.window_start = Timestamp(time.millis() / h * h);
        self.warmed = true;
        true
    }

    /// The most recent completed-horizon rates.
    pub fn rates(&self) -> &RateMap {
        &self.current
    }

    /// True once at least one horizon has completed, i.e.
    /// [`RateEstimator::rates`] reflects observed data rather than the
    /// zero-rate initial state.
    pub fn warmed(&self) -> bool {
        self.warmed
    }
}

/// A re-optimization decision.
#[derive(Debug)]
pub enum PlanDecision {
    /// The active plan's estimated score is still within the drift
    /// threshold.
    Keep,
    /// Rates drifted: a new plan was produced and should be migrated to.
    Replace(Box<OptimizeOutcome>),
}

/// Watches rate fluctuations and re-runs the Sharon optimizer when the
/// active plan's estimated benefit drifts.
pub struct DynamicPlanManager {
    estimator: RateEstimator,
    config: OptimizerConfig,
    /// Relative score-drift threshold triggering re-optimization.
    drift_threshold: f64,
    active_plan: SharingPlan,
    active_score: f64,
    reoptimizations: u64,
}

impl DynamicPlanManager {
    /// Create a manager around an initial plan (e.g. from
    /// [`optimize_sharon`]).
    pub fn new(
        horizon: TimeDelta,
        drift_threshold: f64,
        config: OptimizerConfig,
        initial: &OptimizeOutcome,
    ) -> Self {
        DynamicPlanManager {
            estimator: RateEstimator::new(horizon),
            config,
            drift_threshold,
            active_plan: initial.plan.clone(),
            active_score: initial.score,
            reoptimizations: 0,
        }
    }

    /// The currently active plan.
    pub fn active_plan(&self) -> &SharingPlan {
        &self.active_plan
    }

    /// How many times the manager replaced the plan.
    pub fn reoptimizations(&self) -> u64 {
        self.reoptimizations
    }

    /// Feed a batch's per-type row counts (with the batch's largest event
    /// time) to the rate estimator; at each completed rate horizon,
    /// re-score the active plan under the fresh rates and re-optimize on
    /// drift.
    pub fn observe_counts(
        &mut self,
        workload: &Workload,
        counts: impl IntoIterator<Item = (EventTypeId, u64)>,
        max_time: Timestamp,
    ) -> PlanDecision {
        if !self.estimator.observe_counts(counts, max_time) {
            return PlanDecision::Keep;
        }
        self.decide(workload)
    }

    /// Re-score the active plan under the freshest rates and re-optimize
    /// on drift (called at each completed rate horizon).
    fn decide(&mut self, workload: &Workload) -> PlanDecision {
        let rates = self.estimator.rates();
        // re-score the active plan under fresh rates
        let model = CostModel::new(workload, rates);
        let rescored: f64 = self
            .active_plan
            .candidates
            .iter()
            .map(|cand| model.bvalue(&cand.pattern, &cand.queries))
            .sum();
        let outcome = optimize_sharon(workload, rates, &self.config);
        let improvement = outcome.score - rescored.max(0.0);
        let scale = outcome.score.abs().max(rescored.abs()).max(1.0);
        if improvement / scale > self.drift_threshold && outcome.plan != self.active_plan {
            self.active_plan = outcome.plan.clone();
            self.active_score = outcome.score;
            self.reoptimizations += 1;
            PlanDecision::Replace(Box::new(outcome))
        } else {
            PlanDecision::Keep
        }
    }

    /// Unconditionally re-run the optimizer for `workload` under `rates`,
    /// adopt the result as the active plan, and return it. Unlike
    /// [`DynamicPlanManager::observe_counts`], this skips the drift check — the
    /// session layer calls it when query churn (not rate drift) has
    /// invalidated the plan, so a fresh plan is required regardless of
    /// score movement.
    pub fn reoptimize(&mut self, workload: &Workload, rates: &RateMap) -> OptimizeOutcome {
        let outcome = optimize_sharon(workload, rates, &self.config);
        self.active_plan = outcome.plan.clone();
        self.active_score = outcome.score;
        self.reoptimizations += 1;
        outcome
    }

    /// The estimator's most recent completed-horizon rates.
    pub fn rates(&self) -> &RateMap {
        self.estimator.rates()
    }

    /// True once the rate estimator has completed at least one horizon.
    pub fn warmed(&self) -> bool {
        self.estimator.warmed()
    }

    /// The score the active plan had when adopted.
    pub fn active_score(&self) -> f64 {
        self.active_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::parse_workload;
    use sharon_types::Catalog;

    #[test]
    fn estimator_counts_per_horizon() {
        let mut c = Catalog::new();
        let a = c.register("A");
        let b = c.register("B");
        let mut est = RateEstimator::new(TimeDelta::from_secs(1));
        // 10 As and 5 Bs in the first second
        for i in 0..10 {
            assert!(!est.observe_counts([(a, 1)], Timestamp(i * 100)));
        }
        for i in 0..5 {
            est.observe_counts([(b, 1)], Timestamp(i * 100 + 50));
        }
        // first event of the next horizon triggers the refresh
        assert!(est.observe_counts([(a, 1)], Timestamp(1000)));
        assert_eq!(est.rates().rate(a), 10.0);
        assert_eq!(est.rates().rate(b), 5.0);
    }

    #[test]
    fn estimator_gap_does_not_inflate_rates() {
        let mut c = Catalog::new();
        let a = c.register("A");
        let mut est = RateEstimator::new(TimeDelta::from_secs(1));
        est.observe_counts([(a, 1)], Timestamp(0));
        // long silence, then one event: the old window (1 event) completes
        assert!(est.observe_counts([(a, 1)], Timestamp(10_000)));
        assert_eq!(est.rates().rate(a), 1.0);
    }

    #[test]
    fn manager_replans_when_rates_shift() {
        let mut c = Catalog::new();
        // two candidate families; which is beneficial depends on rates
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, X) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Y) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(E, F, G, H, X) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(E, F, G, H, Y) WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let initial_rates = RateMap::uniform(100.0);
        let cfg = OptimizerConfig::default();
        let initial = optimize_sharon(&w, &initial_rates, &cfg);
        let mut mgr = DynamicPlanManager::new(TimeDelta::from_secs(1), 0.05, cfg, &initial);

        // phase 1: only A..D types flow (plus X to close) — plan should
        // favour sharing (A,B,C,D)
        let ids: Vec<_> = ["A", "B", "C", "D", "X", "E", "F", "G", "H"]
            .iter()
            .map(|n| c.lookup(n).unwrap())
            .collect();
        let mut t = 0u64;
        let mut replaced = 0;
        for _ in 0..3000 {
            for &ty in &ids[..5] {
                t += 7;
                if let PlanDecision::Replace(_) = mgr.observe_counts(&w, [(ty, 1)], Timestamp(t)) {
                    replaced += 1;
                }
            }
        }
        // phase 2: E..H dominate
        for _ in 0..3000 {
            for &ty in &ids[5..] {
                t += 7;
                if let PlanDecision::Replace(_) = mgr.observe_counts(&w, [(ty, 1)], Timestamp(t)) {
                    replaced += 1;
                }
            }
        }
        assert!(replaced >= 1, "rate shift should trigger re-optimization");
        assert_eq!(mgr.reoptimizations(), replaced);
        assert!(mgr.active_score() >= 0.0);
        mgr.active_plan().validate(&w).unwrap();
    }

    #[test]
    fn bulk_counts_match_per_event_rates() {
        let mut c = Catalog::new();
        let a = c.register("A");
        let b = c.register("B");
        let mut est = RateEstimator::new(TimeDelta::from_secs(1));
        assert!(!est.warmed());
        // a full first-second batch, then the refresh trigger
        assert!(!est.observe_counts([(a, 10), (b, 5)], Timestamp(950)));
        assert!(est.observe_counts([(a, 1)], Timestamp(1000)));
        assert!(est.warmed());
        assert_eq!(est.rates().rate(a), 10.0);
        assert_eq!(est.rates().rate(b), 5.0);
    }

    #[test]
    fn reoptimize_always_adopts_and_counts() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let cfg = OptimizerConfig::default();
        let initial = optimize_sharon(&w, &RateMap::uniform(100.0), &cfg);
        let mut mgr = DynamicPlanManager::new(TimeDelta::from_secs(1), 0.05, cfg, &initial);
        let before = mgr.reoptimizations();
        let outcome = mgr.reoptimize(&w, &RateMap::uniform(50.0));
        assert_eq!(mgr.reoptimizations(), before + 1);
        assert_eq!(&outcome.plan, mgr.active_plan());
        mgr.active_plan().validate(&w).unwrap();
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        RateEstimator::new(TimeDelta::ZERO);
    }
}
