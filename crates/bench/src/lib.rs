//! # sharon-bench
//!
//! Shared helpers for the figure-reproducing benchmark binaries (see the
//! `benches/` directory: one target per paper figure).

mod harness;

pub use harness::*;
