//! Fluent construction of every Sharon runtime shape.
//!
//! [`SharonBuilder`] is the one way to build: a single chain that scales
//! from "defaults, sequential" to "sharded, checkpointed, event-time":
//!
//! ```
//! use sharon::prelude::*;
//!
//! let mut catalog = Catalog::new();
//! let workload = parse_workload(&mut catalog, [
//!     "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s",
//! ]).unwrap();
//! let rates = RateMap::uniform(100.0);
//!
//! let (ex, outcome) = SharonBuilder::new(&catalog, &workload, &rates)
//!     .shards(2)
//!     .build_executor()
//!     .unwrap();
//! assert!(outcome.is_some(), "the Sharon optimizer ran");
//! # let _ = ex.finish();
//! ```
//!
//! The terminal calls are [`SharonBuilder::build_executor`] (an
//! [`AnyExecutor`] plus the optimizer outcome), [`SharonBuilder::resume`]
//! (the same, restarted from the latest checkpoint), and
//! [`SharonBuilder::session`] (a live [`SharonSession`] supporting
//! runtime query churn).

use crate::session::{SessionConfig, SharonSession};
use crate::strategy::{build_online, strategy_plan, AnyExecutor, Strategy};
use sharon_executor::{
    CheckpointConfig, CheckpointError, CompileError, ShardedExecutor, ShardedOptions,
};
use sharon_optimizer::{OptimizeOutcome, OptimizerConfig, RateMap};
use sharon_query::Workload;
use sharon_twostep::{FlinkLike, SpassLike};
use sharon_types::Catalog;

/// Fluent builder for every executor shape: strategy × sharding ×
/// durability × event-time, one setter each.
///
/// Unset knobs keep the engine defaults ([`ShardedOptions::default`],
/// [`Strategy::Sharon`], [`OptimizerConfig::default`]). `shards(0)` (the
/// default) builds the sequential engine; `shards(n ≥ 1)` the sharded
/// runtime, which hosts the online strategies only.
#[derive(Clone)]
pub struct SharonBuilder<'a> {
    catalog: &'a Catalog,
    workload: &'a Workload,
    rates: &'a RateMap,
    strategy: Strategy,
    config: OptimizerConfig,
    shards: usize,
    options: ShardedOptions,
}

impl<'a> SharonBuilder<'a> {
    /// Start a build for `workload` over `catalog`, with `rates` as the
    /// optimizer's event-rate estimates.
    pub fn new(catalog: &'a Catalog, workload: &'a Workload, rates: &'a RateMap) -> Self {
        SharonBuilder {
            catalog,
            workload,
            rates,
            strategy: Strategy::Sharon,
            config: OptimizerConfig::default(),
            shards: 0,
            options: ShardedOptions::default(),
        }
    }

    /// Select the execution [`Strategy`] (default [`Strategy::Sharon`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Use an explicit optimizer configuration (default
    /// [`OptimizerConfig::default`]).
    pub fn optimizer_config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Run on the sharded parallel runtime with `n` worker shards
    /// (`0` = the sequential engine; the default). Online strategies only:
    /// a two-step baseline runs sequentially.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Columnar batch size for the sharded runtime's internal rings
    /// (default [`sharon_executor::DEFAULT_BATCH_SIZE`]).
    pub fn batch_size(mut self, rows: usize) -> Self {
        self.options.batch_size = rows;
        self
    }

    /// Enable event-time processing with `lateness_ms` milliseconds of
    /// allowed out-of-orderness (drop-and-count beyond). Fixed for the
    /// life of the built executor. Online strategies only: a two-step
    /// baseline runs in arrival order.
    pub fn lateness(mut self, lateness_ms: u64) -> Self {
        self.options.lateness = Some(lateness_ms);
        self
    }

    /// Enable periodic consistent checkpoints (sharded online strategies
    /// only; see [`CheckpointConfig`]).
    pub fn checkpoint(mut self, config: CheckpointConfig) -> Self {
        self.options.checkpoint = Some(config);
        self
    }

    /// Build the executor and the optimizer outcome (when an optimizer
    /// runs for the chosen strategy).
    ///
    /// A durability option (a checkpoint) with `shards(0)`
    /// is [`CompileError::ShardsRequired`] — the durability tier lives in
    /// the sharded runtime only. A two-step baseline with `shards(n ≥ 1)`
    /// is [`CompileError::UnsupportedOption`], naming the durability
    /// option if one is set and `shards` otherwise; sequentially, one
    /// with a lateness is the same error naming `lateness`.
    pub fn build_executor(self) -> Result<(AnyExecutor, Option<OptimizeOutcome>), CompileError> {
        let strategy = self.strategy.name();
        let baseline = matches!(self.strategy, Strategy::FlinkLike | Strategy::SpassLike);
        if baseline && self.shards > 0 {
            let option = self.options.durability_option().unwrap_or("shards");
            return Err(CompileError::UnsupportedOption { option, strategy });
        }
        if let (0, Some(option)) = (self.shards, self.options.durability_option()) {
            return Err(CompileError::ShardsRequired { option, strategy });
        }
        if baseline && self.options.lateness.is_some() {
            let option = "lateness";
            return Err(CompileError::UnsupportedOption { option, strategy });
        }
        let (plan, outcome) = strategy_plan(self.workload, self.rates, self.strategy, &self.config);
        let ex: AnyExecutor = match self.strategy {
            Strategy::FlinkLike => FlinkLike::new(self.catalog, self.workload)?.into(),
            Strategy::SpassLike => SpassLike::new(self.catalog, self.workload, &plan)?.into(),
            Strategy::Sharon | Strategy::Greedy | Strategy::ASeq => build_online(
                self.catalog,
                self.workload,
                &plan,
                self.shards,
                self.options,
            )?,
        };
        Ok((ex, outcome))
    }

    /// Rebuild a sharded run of an **online** strategy (Sharon / Greedy /
    /// A-Seq) from the latest complete checkpoint in the configured
    /// [`checkpoint`](SharonBuilder::checkpoint) store.
    ///
    /// Returns the executor, the optimizer outcome (re-derived — the
    /// optimizer is deterministic for a given workload and rate map, so
    /// the plan matches the checkpointing run), and the stream offset to
    /// replay from: re-ingest every event from that offset on and the
    /// results are identical to an uninterrupted run. The two-step
    /// baselines and `shards(0)` have no checkpoints to resume
    /// ([`CheckpointError::Mismatch`]).
    pub fn resume(self) -> Result<(AnyExecutor, Option<OptimizeOutcome>, u64), CheckpointError> {
        if matches!(self.strategy, Strategy::FlinkLike | Strategy::SpassLike) {
            return Err(CheckpointError::Mismatch(format!(
                "the {} two-step baseline does not support checkpoint/resume",
                self.strategy.name()
            )));
        }
        if self.shards == 0 {
            return Err(CheckpointError::Mismatch(
                "resume requires the sharded runtime (shards >= 1)".into(),
            ));
        }
        let (plan, outcome) = strategy_plan(self.workload, self.rates, self.strategy, &self.config);
        let (ex, offset) = ShardedExecutor::resume(
            self.catalog,
            self.workload,
            &plan,
            self.shards,
            self.options,
        )?;
        Ok((ex.into(), outcome, offset))
    }

    /// Start a live [`SharonSession`] hosting this workload as the
    /// initial set of attached queries, supporting runtime
    /// [`attach`](SharonSession::attach) / [`detach`](SharonSession::detach)
    /// churn with background plan re-optimization.
    ///
    /// The shared plan runs where [`SharonBuilder::build_executor`] would
    /// run it: in-process at `shards(0)`, on the sharded runtime
    /// otherwise. Sessions require an online strategy; see
    /// [`SharonSession`] for the option surface it supports.
    pub fn session(self, session_config: SessionConfig) -> Result<SharonSession, CompileError> {
        SharonSession::start(
            self.catalog.clone(),
            self.workload,
            self.rates.clone(),
            self.strategy,
            self.config,
            self.shards,
            self.options,
            session_config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::tests::assert_equivalent;
    use sharon_query::parse_workload;

    fn workload() -> (Catalog, Workload) {
        let mut catalog = Catalog::new();
        let workload = parse_workload(
            &mut catalog,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 2 ms"],
        )
        .unwrap();
        (catalog, workload)
    }

    #[test]
    fn durability_without_shards_is_a_typed_error() {
        let (catalog, workload) = workload();
        let rates = RateMap::uniform(100.0);
        let dir = std::env::temp_dir().join("sharon-builder-no-shards");
        let err = SharonBuilder::new(&catalog, &workload, &rates)
            .checkpoint(CheckpointConfig::every(&dir, 4))
            .build_executor()
            .err()
            .expect("a checkpoint needs the sharded runtime");
        assert_eq!(
            err,
            CompileError::ShardsRequired {
                option: "checkpoint",
                strategy: "SHARON"
            }
        );
    }

    #[test]
    fn lateness_is_fixed_at_build_for_every_strategy() {
        // every online strategy: a baseline takes no lateness
        // (`lateness_on_a_baseline_is_a_typed_error`)
        use sharon_streams::ecommerce::{generate, EcommerceConfig};
        use sharon_types::EventBatch;
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
        let workload = sharon_streams::workload::figure_2_workload(&mut catalog);
        let rates = RateMap::uniform(100.0);
        let mut scrambled = events.clone();
        sharon_streams::scramble_events(&mut scrambled, 32, 0x1A7E);
        let lateness = sharon_streams::required_lateness(&EventBatch::from_events(&scrambled));
        assert!(lateness > 0, "the shuffle must disorder the stream");

        for strategy in [Strategy::Sharon, Strategy::Greedy, Strategy::ASeq] {
            let builder = SharonBuilder::new(&catalog, &workload, &rates).strategy(strategy);
            let (mut ungated, _) = builder.clone().build_executor().unwrap();
            ungated.process_columnar(&EventBatch::from_events(&events));
            let want = ungated.finish();
            assert!(!want.is_empty(), "{}: the stream matches", strategy.name());
            for shards in [0, 2] {
                let (mut gated, _) = builder
                    .clone()
                    .shards(shards)
                    .lateness(lateness)
                    .build_executor()
                    .unwrap();
                for chunk in scrambled.chunks(100) {
                    gated.process_columnar(&EventBatch::from_events(chunk));
                }
                let what = format!("{} at shards({shards}), gated", strategy.name());
                let n = workload.len() as u32;
                assert_equivalent(&gated.finish(), &want, n, 1e-9, what);
            }
        }
    }

    #[test]
    fn shards_or_durability_on_a_baseline_is_a_typed_error() {
        let (catalog, workload) = workload();
        let rates = RateMap::uniform(100.0);
        for (strategy, name) in [
            (Strategy::FlinkLike, "Flink"),
            (Strategy::SpassLike, "SPASS"),
        ] {
            let sharded = SharonBuilder::new(&catalog, &workload, &rates)
                .strategy(strategy)
                .shards(2);
            let dir = std::env::temp_dir().join("sharon-builder-baseline");
            for (builder, option) in [
                (
                    sharded.clone().checkpoint(CheckpointConfig::every(&dir, 4)),
                    "checkpoint",
                ),
                (sharded, "shards"),
            ] {
                let err = builder
                    .build_executor()
                    .err()
                    .expect("a baseline runs sequentially only");
                let want = CompileError::UnsupportedOption {
                    option,
                    strategy: name,
                };
                assert_eq!(err, want);
            }
        }
    }

    #[test]
    fn lateness_on_a_baseline_is_a_typed_error() {
        let (catalog, workload) = workload();
        let rates = RateMap::uniform(100.0);
        for (strategy, name) in [
            (Strategy::FlinkLike, "Flink"),
            (Strategy::SpassLike, "SPASS"),
        ] {
            let err = SharonBuilder::new(&catalog, &workload, &rates)
                .strategy(strategy)
                .lateness(1_000)
                .build_executor()
                .err()
                .expect("a baseline runs in arrival order only");
            let want = CompileError::UnsupportedOption {
                option: "lateness",
                strategy: name,
            };
            assert_eq!(err, want);
            assert!(err.to_string().contains("lateness"), "{err}");
        }
    }

    /// The error `session` refuses `builder` with.
    fn session_refusal(builder: SharonBuilder<'_>) -> CompileError {
        let session = builder.session(SessionConfig::default());
        session.err().expect("the session must be refused")
    }

    #[test]
    fn a_session_on_a_baseline_is_a_typed_error() {
        let (catalog, workload) = workload();
        let rates = RateMap::uniform(100.0);
        let builder = SharonBuilder::new(&catalog, &workload, &rates).strategy(Strategy::SpassLike);
        let (option, strategy) = ("session", "SPASS");
        let want = CompileError::UnsupportedOption { option, strategy };
        assert_eq!(session_refusal(builder), want);
    }

    #[test]
    fn a_session_with_lateness_is_a_typed_error() {
        let (catalog, workload) = workload();
        let rates = RateMap::uniform(100.0);
        let builder = SharonBuilder::new(&catalog, &workload, &rates).lateness(1_000);
        let (option, strategy) = ("lateness", "SHARON");
        let want = CompileError::UnsupportedOption { option, strategy };
        assert_eq!(session_refusal(builder), want);
    }
}
