//! The Sharon framework (Section 2.2, Figure 5): static optimizer +
//! runtime executor behind one facade.
//!
//! "Given a workload Q, our Static Optimizer finds an optimal sharing plan
//! at compile time. [...] Based on this plan, our Runtime Executor computes
//! the aggregation results for each shared pattern and then combines these
//! shared aggregations to obtain the final results for each query."

use crate::strategy::AnyExecutor;
use sharon_executor::{Executor, ExecutorResults};
use sharon_optimizer::OptimizeOutcome;
use sharon_query::SharingPlan;
use sharon_types::{EventBatch, EventStream};

/// The end-to-end Sharon system: optimize once, then execute the stream.
///
/// Construct through [`crate::SharonBuilder`].
pub struct SharonFramework {
    executor: AnyExecutor,
    outcome: Option<OptimizeOutcome>,
}

impl SharonFramework {
    /// Assemble from a built executor and its optimizer outcome (the
    /// terminal step of [`crate::SharonBuilder::build`]).
    pub(crate) fn from_parts(executor: AnyExecutor, outcome: Option<OptimizeOutcome>) -> Self {
        SharonFramework { executor, outcome }
    }

    /// The sharing plan in force (empty for non-shared strategies).
    pub fn plan(&self) -> SharingPlan {
        self.outcome
            .as_ref()
            .map(|o| o.plan.clone())
            .unwrap_or_else(SharingPlan::non_shared)
    }

    /// The optimizer outcome (phase timings, statistics), if an optimizer
    /// ran.
    pub fn optimizer_outcome(&self) -> Option<&OptimizeOutcome> {
        self.outcome.as_ref()
    }

    /// Process a time-ordered columnar batch — the one way rows enter the
    /// executor (see [`Executor::process_columnar`]; row-form events go
    /// through [`EventBatch::from_events`]).
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        self.executor.process_columnar(batch);
    }

    /// Drain a stream through the executor in columnar batches.
    pub fn run(&mut self, mut stream: impl EventStream) -> &mut Self {
        let mut buf = EventBatch::with_capacity(Executor::RUN_BATCH, 2);
        while stream.next_batch_columnar(Executor::RUN_BATCH, &mut buf) > 0 {
            self.process_columnar(&buf);
            buf.clear();
        }
        self
    }

    /// Flush remaining windows and return all results.
    pub fn finish(self) -> ExecutorResults {
        self.executor.finish()
    }

    /// Events that matched routing/predicates/grouping so far.
    pub fn events_matched(&self) -> u64 {
        self.executor.events_matched()
    }
}

#[cfg(test)]
mod tests {
    use crate::{SharonBuilder, Strategy};
    use sharon_optimizer::RateMap;
    use sharon_query::QueryId;
    use sharon_streams::taxi::{generate, TaxiConfig};
    use sharon_streams::workload::{figure_1_workload, measured_rates};
    use sharon_types::Catalog;
    use sharon_types::SortedVecStream;

    #[test]
    fn end_to_end_traffic_use_case() {
        let mut catalog = Catalog::new();
        let events = generate(
            &mut catalog,
            &TaxiConfig {
                n_events: 5000,
                n_streets: 7,
                ..Default::default()
            },
        );
        let workload = figure_1_workload(&mut catalog);
        let (counts, span) = measured_rates(&events);
        let rates = RateMap::from_counts(&counts, span);

        let mut fw = SharonBuilder::new(&catalog, &workload, &rates)
            .build()
            .unwrap();
        assert!(fw.optimizer_outcome().is_some());
        fw.run(SortedVecStream::presorted(events.clone()));
        let shared_results = fw.finish();

        // A-Seq produces identical results
        let mut aseq = SharonBuilder::new(&catalog, &workload, &rates)
            .strategy(Strategy::ASeq)
            .build()
            .unwrap();
        assert!(aseq.plan().is_non_shared());
        aseq.run(SortedVecStream::presorted(events));
        let aseq_results = aseq.finish();

        assert!(
            shared_results.semantically_eq(&aseq_results, 1e-9),
            "Sharon and A-Seq must agree"
        );
        assert!(
            !shared_results.is_empty(),
            "traffic stream produces matches"
        );
        // q7 = (ElmSt, ParkAve) is the shortest pattern: it must match
        assert!(shared_results.total_count(QueryId(6)) > 0);
    }

    #[test]
    fn sharded_framework_matches_sequential() {
        let mut catalog = Catalog::new();
        let events = generate(
            &mut catalog,
            &TaxiConfig {
                n_events: 4000,
                n_streets: 7,
                ..Default::default()
            },
        );
        let workload = figure_1_workload(&mut catalog);
        let (counts, span) = measured_rates(&events);
        let rates = RateMap::from_counts(&counts, span);

        let mut sequential = SharonBuilder::new(&catalog, &workload, &rates)
            .build()
            .unwrap();
        sequential.run(SortedVecStream::presorted(events.clone()));
        let want = sequential.finish();

        let mut sharded = SharonBuilder::new(&catalog, &workload, &rates)
            .shards(3)
            .build()
            .unwrap();
        assert!(
            sharded.optimizer_outcome().is_some(),
            "sharded still optimizes"
        );
        sharded.run(SortedVecStream::presorted(events));
        let got = sharded.finish();

        assert!(
            got.semantically_eq(&want, 1e-9),
            "sharding must not change results"
        );
        assert!(!got.is_empty());
    }
}
