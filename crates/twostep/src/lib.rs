//! # sharon-twostep
//!
//! The two-step baselines the Sharon paper evaluates against (Figure 3,
//! Section 8.2). Both *construct event sequences before aggregating them*,
//! which is the step the online approaches (A-Seq, Sharon) eliminate:
//!
//! * [`FlinkLike`] — the **non-shared two-step** representative
//!   ("Flink" in the paper): per-query buffers, per-query sequence
//!   enumeration, per-query aggregation.
//! * [`SpassLike`] — the **shared two-step** representative ("SPASS"):
//!   sequence construction for shared sub-patterns is materialized once and
//!   reused across queries, but full sequences are still enumerated per
//!   query and aggregation is unshared.
//!
//! Both produce exactly the same results as the online
//! [`sharon_executor::Executor`] (verified by tests), just with the cost
//! profile the paper reports: latency polynomial in events/window and
//! memory proportional to the materialized sequences.
//!
//! Both baselines are one driver, [`TwoStep`], over different
//! subscribers (per-query state for Flink-like, per-signature partitions
//! for SPASS-like): it consumes columnar [`sharon_types::EventBatch`]es
//! natively (one stateless scan per distinct routing scope → stateful
//! dispatch over row indices, no per-row `Event` materialization) and is
//! a [`sharon_executor::BatchProcessor`]. The baselines run sequentially
//! and in arrival order only: the sharded runtime hosts the online
//! engines, and the online executor owns event time (lateness and its
//! reorder gate). Sequence construction stays per baseline, so the
//! baselines share no stateful code with the online runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod construct;
pub mod flink_like;
pub mod spass_like;

pub use common::{Family, TwoStep};
pub use construct::SeqBuffers;
pub use flink_like::{Flink, FlinkLike};
pub use spass_like::{Spass, SpassLike};
