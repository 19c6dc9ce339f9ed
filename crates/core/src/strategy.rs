//! Execution strategies: the five systems compared in Section 8
//! (Figure 3's taxonomy) behind one constructor.
//!
//! Every strategy — online or two-step, and the online ones sequential or
//! sharded — is a [`BatchProcessor`], so [`AnyExecutor`] is nothing but a
//! boxed trait object: one columnar operator pipeline drives the whole
//! taxonomy, with no per-strategy match arms. The two-step baselines run
//! sequentially only. Columnar batches are the only way in;
//! row-form [`Event`](sharon_types::Event)s are adapted with
//! [`EventBatch::from_events`].

use sharon_executor::{
    BatchProcessor, CompileError, Executor, ExecutorResults, RunReport, ShardedExecutor,
    ShardedOptions,
};
use sharon_optimizer::{
    optimize_greedy, optimize_sharon, OptimizeOutcome, OptimizerConfig, RateMap,
};
use sharon_query::{SharingPlan, Workload};
use sharon_types::{Catalog, EventBatch};

/// Which event sequence aggregation approach to run (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Shared + online: the Sharon executor under the Sharon optimizer's
    /// optimal plan.
    Sharon,
    /// Shared + online, but under GWMIN's greedily chosen plan
    /// (Figure 16's comparison).
    Greedy,
    /// Non-shared + online: A-Seq — every query independent.
    ASeq,
    /// Non-shared + two-step: the Flink-like baseline (constructs
    /// sequences).
    FlinkLike,
    /// Shared construction + two-step: the SPASS-like baseline.
    SpassLike,
}

impl Strategy {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Sharon => "SHARON",
            Strategy::Greedy => "Greedy",
            Strategy::ASeq => "A-Seq",
            Strategy::FlinkLike => "Flink",
            Strategy::SpassLike => "SPASS",
        }
    }
}

/// A uniformly driven executor of any strategy: pure trait dispatch over
/// the one [`BatchProcessor`] pipeline every strategy implements.
pub struct AnyExecutor {
    inner: Box<dyn BatchProcessor>,
}

impl AnyExecutor {
    /// Process a time-ordered columnar batch — every strategy's native
    /// compiled-scan → stateful-dispatch pipeline (the online engines'
    /// columnar path, the sharded runtime's route-once fan-out, the
    /// baselines' per-scope scans).
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        self.inner.process_columnar(batch);
    }

    /// Move out the results closed so far (see
    /// [`BatchProcessor::drain_results`]).
    pub fn drain_results(&mut self) -> ExecutorResults {
        self.inner.drain_results()
    }

    /// Flush and return results.
    pub fn finish(self) -> ExecutorResults {
        self.inner.finish().results
    }

    /// Flush and report the run (see [`RunReport`]), the late-drop count
    /// included. Unlike [`AnyExecutor::events_matched`] and
    /// [`AnyExecutor::scan_stats`], the counts and the per-scope tallies
    /// here are exact for the sharded runtime too — they are read after
    /// its router and workers drain.
    pub fn finish_with_stats(self) -> RunReport {
        self.inner.finish()
    }

    /// Events that passed routing/predicates/grouping (the sharded
    /// runtime reports the workers' last published counts, which trail
    /// ingestion by at most the in-flight batches).
    pub fn events_matched(&self) -> u64 {
        self.inner.events_matched()
    }

    /// State-size proxy: live aggregate cells / buffered events /
    /// materialized matches (zero for the sharded runtime, whose state
    /// lives on its worker threads).
    pub fn state_size(&self) -> usize {
        self.inner.state_size()
    }

    /// Per-scope `(rows_scanned, rows_selected)` of the stateless scan —
    /// one entry per routing scope (partition, query, or baseline
    /// partition); empty when untracked.
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        self.inner.scan_stats()
    }
}

impl<P: BatchProcessor + 'static> From<P> for AnyExecutor {
    fn from(ex: P) -> Self {
        AnyExecutor {
            inner: Box::new(ex),
        }
    }
}

/// The sharing plan a strategy executes under (and the optimizer outcome
/// that produced it, when an optimizer runs): the single source of truth
/// shared by the build and resume paths, so a resumed run always compiles
/// the same partitions the checkpointing run did.
pub(crate) fn strategy_plan(
    workload: &Workload,
    rates: &RateMap,
    strategy: Strategy,
    config: &OptimizerConfig,
) -> (SharingPlan, Option<OptimizeOutcome>) {
    match strategy {
        Strategy::Sharon | Strategy::SpassLike => {
            let outcome = optimize_sharon(workload, rates, config);
            (outcome.plan.clone(), Some(outcome))
        }
        Strategy::Greedy => {
            let outcome = optimize_greedy(workload, rates);
            (outcome.plan.clone(), Some(outcome))
        }
        Strategy::ASeq | Strategy::FlinkLike => (SharingPlan::non_shared(), None),
    }
}

/// Build an online strategy's executor over `plan`: the one build path
/// behind [`crate::SharonBuilder`] and the session's shared plan.
/// `shards == 0` is the sequential [`Executor`] with `options.lateness`
/// fixed on its gate (every other option needs the sharded runtime, which
/// the caller checks); `shards ≥ 1` is the sharded runtime with the whole
/// option set ([`ShardedExecutor::with_options`]).
pub(crate) fn build_online(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    shards: usize,
    options: ShardedOptions,
) -> Result<AnyExecutor, CompileError> {
    if shards > 0 {
        return Ok(ShardedExecutor::with_options(catalog, workload, plan, shards, options)?.into());
    }
    let mut ex = Executor::new(catalog, workload, plan)?;
    if let Some(ms) = options.lateness {
        ex.set_lateness(ms);
    }
    Ok(ex.into())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sharon_streams::ecommerce::{generate, EcommerceConfig};
    use sharon_streams::workload::{figure_2_workload, measured_rates};

    /// Assert that `got` is `semantically_eq` to `reference` within `tol`,
    /// after asserting that the reference holds a row of each of its first
    /// `n_queries` queries: an equivalence over an empty reference checks
    /// nothing. `what` names the comparison in a failure.
    #[track_caller]
    pub(crate) fn assert_equivalent(
        got: &sharon_executor::ExecutorResults,
        reference: &sharon_executor::ExecutorResults,
        n_queries: u32,
        tol: f64,
        what: impl std::fmt::Display,
    ) {
        for q in (0..n_queries).map(sharon_query::QueryId) {
            assert!(
                reference.of_query(q).next().is_some(),
                "{what}: the reference has no row of {q:?}"
            );
        }
        assert!(
            got.semantically_eq(reference, tol),
            "{what}: diverges from the reference ({} vs {} results)",
            got.len(),
            reference.len()
        );
    }

    /// Run `batch` sequentially under `strategy` and return the results.
    fn run(
        catalog: &Catalog,
        workload: &Workload,
        rates: &RateMap,
        strategy: Strategy,
        batch: &EventBatch,
    ) -> ExecutorResults {
        let (mut ex, _) = crate::SharonBuilder::new(catalog, workload, rates)
            .strategy(strategy)
            .build_executor()
            .unwrap();
        ex.process_columnar(batch);
        ex.finish()
    }

    #[test]
    fn all_strategies_agree_on_results() {
        let mut catalog = Catalog::new();
        let events = generate(
            &mut catalog,
            &EcommerceConfig {
                n_events: 1500,
                n_items: 8,
                events_per_sec: 500,
                ..Default::default()
            },
        );
        let workload = figure_2_workload(&mut catalog);
        let (counts, span) = measured_rates(&events);
        let rates = RateMap::from_counts(&counts, span);
        let batch = EventBatch::from_events(&events);

        let reference = run(&catalog, &workload, &rates, Strategy::ASeq, &batch);
        assert!(!reference.is_empty(), "EC stream must produce matches");
        for strategy in [
            Strategy::Sharon,
            Strategy::Greedy,
            Strategy::FlinkLike,
            Strategy::SpassLike,
        ] {
            let got = run(&catalog, &workload, &rates, strategy, &batch);
            let n = workload.len() as u32;
            assert_equivalent(&got, &reference, n, 1e-9, strategy.name());
        }
    }

    #[test]
    fn all_strategies_shard_via_columnar_trait_dispatch() {
        // the trait-dispatch acceptance check: every strategy driven
        // purely through AnyExecutor::process_columnar, the online ones
        // sequential and sharded; asking a baseline for shards is refused
        // before any thread starts
        let mut catalog = Catalog::new();
        let events = generate(
            &mut catalog,
            &EcommerceConfig {
                n_events: 1200,
                n_items: 8,
                events_per_sec: 500,
                ..Default::default()
            },
        );
        let workload = figure_2_workload(&mut catalog);
        let (counts, span) = measured_rates(&events);
        let rates = RateMap::from_counts(&counts, span);
        let batch = EventBatch::from_events(&events);
        let cfg = OptimizerConfig::default();

        let reference = run(&catalog, &workload, &rates, Strategy::ASeq, &batch);
        for strategy in [
            Strategy::Sharon,
            Strategy::Greedy,
            Strategy::ASeq,
            Strategy::FlinkLike,
            Strategy::SpassLike,
        ] {
            let got = run(&catalog, &workload, &rates, strategy, &batch);
            let n = workload.len() as u32;
            let what = format!("{} columnar", strategy.name());
            assert_equivalent(&got, &reference, n, 1e-9, what);

            let online = !matches!(strategy, Strategy::FlinkLike | Strategy::SpassLike);
            for shards in [1usize, 3] {
                let built = crate::SharonBuilder::new(&catalog, &workload, &rates)
                    .strategy(strategy)
                    .optimizer_config(cfg.clone())
                    .shards(shards)
                    .build_executor();
                if !online {
                    let err = built.err().expect("a baseline does not shard");
                    let (option, strategy) = ("shards", strategy.name());
                    assert_eq!(err, CompileError::UnsupportedOption { option, strategy });
                    continue;
                }
                let (mut sharded, outcome) = built.unwrap();
                assert_eq!(
                    outcome.is_some(),
                    strategy != Strategy::ASeq,
                    "{} sharded/{shards}: the build reports its optimizer outcome",
                    strategy.name()
                );
                sharded.process_columnar(&batch);
                let got = sharded.finish();
                let what = format!("{} sharded/{shards}", strategy.name());
                assert_equivalent(&got, &reference, n, 1e-9, what);
            }
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Sharon.name(), "SHARON");
        assert_eq!(Strategy::FlinkLike.name(), "Flink");
    }
}
