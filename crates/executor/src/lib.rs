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

pub mod agg;
pub mod chainlog;
pub mod checkpoint;
pub mod compile;
pub mod engine;
pub mod event_time;
pub mod front;
pub mod processor;
mod proptests;
pub mod results;
pub mod router;
pub mod runner;
pub mod scan;
pub mod sharded;
pub mod winvec;

pub use agg::{Aggregate, Contribution, CountCell, OutputKind, StatsCell};
pub use chainlog::ChainLog;
pub use checkpoint::{
    CheckpointConfig, CheckpointData, CheckpointError, CheckpointStore, FaultPlan, StateError,
    StateReader, StateWriter,
};
pub use compile::{compile, CompileError, CompiledPartition};
pub use engine::{Engine, EngineKind, Executor, ShardSlice};
pub use event_time::{PendingRow, Reorder};
pub use front::ScanFront;
pub use processor::{BatchProcessor, RunReport};
pub use results::ExecutorResults;
pub use router::{BatchRouter, RouteBatch, RoutedRows, RowFilter};
pub use runner::SegmentRunner;
pub use scan::{ScanCounters, ScanKernel, TypePass};
pub use sharded::{ShardedExecutor, ShardedOptions, DEFAULT_BATCH_SIZE};
pub use winvec::{WinVec, WindowPlane};
