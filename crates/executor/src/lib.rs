//! # sharon-executor
//!
//! The online event sequence aggregation executors of the Sharon system
//! (Sections 3.2–3.3 of the paper):
//!
//! * the **Non-Shared method** — each query aggregated independently by the
//!   A-Seq kernel: one aggregate per pattern prefix per live record (the
//!   STARTs of one slide), with sliding-window expiration (construct
//!   [`Executor::non_shared`]);
//! * the **Shared method** — shared patterns aggregated once, with each
//!   query combining the shared aggregates with its private prefix/suffix
//!   aggregates via snapshot-at-START × completions, one snapshot per
//!   record of STARTs under equal chain offsets (construct
//!   [`Executor::new`] with an optimizer-produced
//!   [`sharon_query::SharingPlan`]).
//!
//! Neither method ever constructs an event sequence — this is the "online"
//! property that separates Sharon and A-Seq from the two-step approaches
//! (Flink, SPASS; see the `sharon-twostep` crate for those baselines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod chainlog;
mod checkpoint;
mod compile;
mod engine;
mod event_time;
mod executor;
mod front;
mod group_table;
mod processor;
mod proptests;
mod results;
mod router;
mod runner;
mod scan;
mod sharded;
mod winvec;

pub use agg::{Aggregate, Contribution, CountCell, OutputKind, StatsCell};
pub use checkpoint::{CheckpointConfig, CheckpointError, CheckpointStore, FaultPlan};
pub use compile::{compile, CompileError, CompiledPartition};
pub use event_time::Reorder;
pub use executor::{EngineKind, Executor};
pub use front::ScanFront;
pub use processor::{BatchProcessor, RunReport};
pub use results::ExecutorResults;
pub use router::{BatchRouter, RouteBatch, RoutedRows, RowFilter};
pub use runner::SegmentRunner;
pub use scan::{ScanKernel, TypePass};
pub use sharded::{ShardedExecutor, ShardedOptions, DEFAULT_BATCH_SIZE};
pub use winvec::WinVec;
