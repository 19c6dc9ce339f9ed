//! # sharon-optimizer
//!
//! The Sharon static optimizer (Sections 3–7 of the paper): given a
//! workload of event sequence aggregation queries and per-type stream
//! rates, decide **which queries share the aggregation of which patterns**
//! so that workload latency is minimized — the Multi-query Event Sequence
//! Aggregation (MESA) problem.
//!
//! Pipeline (Figure 5):
//!
//! 1. [`mining`] — detect sharable patterns with the modified CCSpan
//!    algorithm (Appendix A);
//! 2. [`cost`] — the sharing benefit model, Equations 1–8;
//! 3. [`graph`] — the SHARON graph of candidates, benefits, and conflicts
//!    (Section 4);
//! 4. [`expansion`] — conflict resolution by candidate options (§7.1);
//! 5. [`gwmin`] + [`reduction`] — GWMIN's guaranteed weight prunes
//!    conflict-ridden candidates; conflict-free ones are extracted
//!    (Section 5, Appendix B);
//! 6. [`plan_finder`] — the optimal sharing plan finder (Section 6): a
//!    branch-and-bound maximum-weight independent set search per conflict
//!    component, started from GWMIN's plan;
//! 7. [`dynamic`] — rate monitoring and re-optimization (§7.4).
//!
//! The top-level entry points are [`optimize_sharon`],
//! [`optimize_greedy`], and [`optimize_exhaustive`] — the three optimizers
//! compared in Section 8.3 (Figure 15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dynamic;
pub mod expansion;
pub mod graph;
pub mod gwmin;
pub mod mining;
pub mod optimizer;
pub mod plan_finder;
mod proptests;
pub mod reduction;

pub use cost::{Benefit, CostModel, RateMap};
pub use dynamic::{DynamicPlanManager, PlanDecision, RateEstimator};
pub use expansion::ExpansionConfig;
pub use graph::{figure_4_graph, SharonGraph};
pub use optimizer::{
    optimize_exhaustive, optimize_greedy, optimize_sharon, OptimizeOutcome, OptimizerConfig,
};
