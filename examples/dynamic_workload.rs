//! Dynamic workloads (§7.4): event rates drift mid-stream, the
//! DynamicPlanManager detects it and re-optimizes, and the executor
//! migrates to the new plan at a batch boundary without losing results.
//!
//! ```sh
//! cargo run --release --example dynamic_workload
//! ```

use sharon::executor_for_plan;
use sharon::optimizer::{DynamicPlanManager, PlanDecision};
use sharon::prelude::*;

fn main() {
    let mut catalog = Catalog::new();
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, X) WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Y) WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(E, F, G, H, X) WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(E, F, G, H, Y) WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("parses");

    // phase 1 rates favour sharing (A,B,C,D); phase 2 favours (E,F,G,H)
    let initial_rates = RateMap::uniform(100.0);
    let cfg = OptimizerConfig::default();
    let initial = optimize_sharon(&workload, &initial_rates, &cfg);
    println!(
        "initial plan ({} candidates, score {:.0}):",
        initial.plan.len(),
        initial.score
    );
    for cand in &initial.plan.candidates {
        println!("  share {}", cand.pattern.display(&catalog));
    }

    let mut manager = DynamicPlanManager::new(TimeDelta::from_secs(2), 0.05, cfg, &initial);
    let mut executor = executor_for_plan(&catalog, &workload, &initial.plan).expect("compiles");
    let mut results = ExecutorResultsAccumulator::new();

    let names_phase1 = ["A", "B", "C", "D", "X"];
    let names_phase2 = ["E", "F", "G", "H", "Y"];
    let ids = |names: &[&str], c: &Catalog| -> Vec<EventTypeId> {
        names.iter().map(|n| c.lookup(n).unwrap()).collect()
    };
    let phase1 = ids(&names_phase1, &catalog);
    let phase2 = ids(&names_phase2, &catalog);

    let mut t = 0u64;
    let mut migrations = 0;
    let mut batch = EventBatch::new();
    for phase in 0..2 {
        let types = if phase == 0 { &phase1 } else { &phase2 };
        for _ in 0..4000 {
            // one batch per round: each type once, 5 ms apart
            batch.clear();
            for &ty in types.iter() {
                t += 5;
                batch.push_from(ty, Timestamp(t), []);
            }
            executor.process_columnar(&batch);
            let counts = types.iter().map(|&ty| (ty, 1));
            if let PlanDecision::Replace(outcome) =
                manager.observe_counts(&workload, counts, Timestamp(t))
            {
                migrations += 1;
                println!(
                    "\nrate drift detected at t={t}ms: new plan ({} candidates, score {:.0})",
                    outcome.plan.len(),
                    outcome.score
                );
                for cand in &outcome.plan.candidates {
                    println!("  share {}", cand.pattern.display(&catalog));
                }
                // plan migration: drain the old executor (flushing its
                // windows), then continue under the new plan — "no
                // results are lost or corrupted" (§7.4)
                let old = std::mem::replace(
                    &mut executor,
                    executor_for_plan(&catalog, &workload, &outcome.plan).expect("compiles"),
                );
                results.merge(old.finish());
            }
        }
    }
    results.merge(executor.finish());
    println!("\nmigrations: {migrations}");
    println!("total results across migrations: {}", results.len());
    assert!(
        migrations >= 1,
        "the rate shift must trigger a re-optimization"
    );
}

/// Tiny helper collecting results across plan migrations.
struct ExecutorResultsAccumulator {
    inner: ExecutorResults,
}

impl ExecutorResultsAccumulator {
    fn new() -> Self {
        ExecutorResultsAccumulator {
            inner: ExecutorResults::new(),
        }
    }
    fn merge(&mut self, other: ExecutorResults) {
        self.inner.merge(other);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}
