//! # sharon-types
//!
//! Foundational data model for the Sharon shared online event sequence
//! aggregation system (Poppe et al., *Sharon: Shared Online Event Sequence
//! Aggregation*, ICDE 2018).
//!
//! This crate defines the pieces of Section 2.1 of the paper:
//!
//! * [`Timestamp`] / [`TimeDelta`] — time is a linearly ordered set of
//!   non-negative ticks (we use milliseconds, so second-resolution sources
//!   simply multiply by 1000).
//! * [`Value`] — typed attribute values carried by events.
//! * [`EventTypeId`] and the [`Catalog`] — interned event types and their
//!   attribute [`Schema`]s.
//! * [`Event`] — a timestamped message of a particular event type (row
//!   form, the adapter tests and examples build batches from).
//! * [`EventBatch`] — a columnar (struct-of-arrays) slice of the stream,
//!   the unit of work of every hot execution path.
//! * [`WindowSpec`] — the `WITHIN`/`SLIDE` sliding-window clause together
//!   with the window instance arithmetic used by the executor.
//! * [`GroupKey`] — values of the `GROUP BY` attributes.
//!
//! Everything downstream (queries, executors, optimizers, generators) builds
//! on these types; none of them depends on any external CEP system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod catalog;
mod event;
mod group;
mod hash;
mod time;
mod value;
mod window;

pub use batch::EventBatch;
pub use catalog::{AttrId, Catalog, EventTypeId, Schema};
pub use event::Event;
pub use group::GroupKey;
pub use hash::{fx_hash_one, FxHashMap};
pub use time::{TimeDelta, Timestamp};
pub use value::Value;
pub use window::{WindowInstance, WindowSpec};
