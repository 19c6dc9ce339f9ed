//! # sharon-query
//!
//! The query model of the Sharon system (Definitions 1–2 of the paper) plus
//! the *sharing plan* artifact exchanged between the Sharon optimizer and
//! the runtime executor.
//!
//! * [`Pattern`] — an event sequence pattern `(E₁ … E_l)` (Definition 1).
//! * [`AggFunc`] — the `RETURN` clause: `COUNT(*)`, `COUNT(E)`,
//!   `SUM/MIN/MAX/AVG(E.attr)` (Definition 2).
//! * [`Predicate`] — per-event `WHERE` predicates; cross-event equivalence
//!   predicates such as the paper's `[vehicle]` are expressed via `GROUP BY`.
//! * [`Query`] / [`Workload`] — a full event sequence aggregation query and
//!   a multi-query workload.
//! * [`SharingPlan`] — which queries share the aggregation of which patterns
//!   (Definition 7), with the prefix/shared/suffix decomposition used by the
//!   shared executor (Definition 4, generalized to several shared segments
//!   per query).
//! * [`parse_query`] / [`parse_workload`] — a text parser for the SASE-style surface syntax:
//!   `RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) GROUP BY vehicle WITHIN 10
//!   min SLIDE 1 min`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod parser;
mod pattern;
mod plan;
mod predicate;
mod query;
mod workload;

pub use aggregate::AggFunc;
pub use parser::{parse_query, parse_workload, ParseError};
pub use pattern::Pattern;
pub use plan::{PlanCandidate, Segment, SegmentKind, SharingPlan};
pub use predicate::{clause_passes, CmpOp, Predicate};
pub use query::{Query, QueryId, QuerySig, SharingSignature};
pub use workload::Workload;
