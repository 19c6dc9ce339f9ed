//! # sharon
//!
//! A from-scratch Rust implementation of **Sharon: Shared Online Event
//! Sequence Aggregation** (Poppe, Rozet, Lei, Rundensteiner, Maier —
//! ICDE 2018).
//!
//! Sharon evaluates workloads of event sequence aggregation queries over
//! high-rate streams *online* (without constructing event sequences) and
//! *shared* (aggregating common sub-patterns once for many queries). Its
//! optimizer encodes sharing candidates, benefits, and conflicts into the
//! SHARON graph, maps plan selection to Maximum Weight Independent Set,
//! prunes the search with GWMIN's guaranteed weight, and returns the
//! optimal sharing plan for the runtime executor.
//!
//! ## Quickstart
//!
//! ```
//! use sharon::prelude::*;
//!
//! // 1. declare the workload in the SASE-style surface syntax
//! let mut catalog = Catalog::new();
//! let workload = parse_workload(&mut catalog, [
//!     "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 s SLIDE 1 s",
//!     "RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 10 s SLIDE 1 s",
//! ]).unwrap();
//!
//! // 2. optimize + execute
//! let rates = RateMap::uniform(100.0);
//! let (mut ex, _outcome) = SharonBuilder::new(&catalog, &workload, &rates)
//!     .build_executor()
//!     .unwrap();
//! let (a, b, c) = (catalog.lookup("A").unwrap(), catalog.lookup("B").unwrap(),
//!                  catalog.lookup("C").unwrap());
//! let events: Vec<Event> = [(a, 10), (b, 20), (c, 30)]
//!     .into_iter()
//!     .map(|(ty, t)| Event::new(ty, Timestamp::from_millis(t)))
//!     .collect();
//! ex.process_columnar(&EventBatch::from_events(&events));
//! let results = ex.finish();
//! assert_eq!(results.total_count(QueryId(0)), 1);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`sharon_types`] | events, columnar event batches, values, catalogs, windows |
//! | [`sharon_query`] | patterns, queries, parser, sharing plans |
//! | [`sharon_executor`] | the online Non-Shared (A-Seq) and Shared executors |
//! | [`sharon_twostep`] | the Flink-like and SPASS-like two-step baselines |
//! | [`sharon_optimizer`] | benefit model, SHARON graph, GWMIN, plan finder |
//! | [`sharon_streams`] | TX / LR / EC stream + workload generators |
//! | [`sharon_metrics`] | peak-memory allocator, latency/throughput tables |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod session;
pub mod strategy;

pub use builder::SharonBuilder;
pub use session::{QueryHandle, SessionConfig, SharonSession};
pub use strategy::{AnyExecutor, Strategy};

// Re-export the component crates under stable names.
pub use sharon_executor as executor;
pub use sharon_metrics as metrics;
pub use sharon_optimizer as optimizer;
pub use sharon_query as query;
pub use sharon_streams as streams;
pub use sharon_twostep as twostep;
pub use sharon_types as types;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::builder::SharonBuilder;
    pub use crate::session::{QueryHandle, SessionConfig, SharonSession};
    pub use crate::strategy::Strategy;
    pub use sharon_executor::{Executor, ExecutorResults, ShardedExecutor};
    pub use sharon_optimizer::{
        optimize_exhaustive, optimize_greedy, optimize_sharon, OptimizerConfig, RateMap,
    };
    pub use sharon_query::{
        parse_query, parse_workload, AggFunc, Pattern, PlanCandidate, Query, QueryId, SharingPlan,
        Workload,
    };
    pub use sharon_types::{
        Catalog, Event, EventBatch, EventTypeId, GroupKey, Schema, TimeDelta, Timestamp, Value,
        WindowSpec,
    };
}
