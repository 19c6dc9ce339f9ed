//! One surface for every `SHARON_*` runtime environment knob.
//!
//! [`RuntimeOptions::from_env`] is the only place the environment is
//! read: one call, one error type ([`EnvError`]) naming the offending
//! variable, one table documenting the whole surface. The CLI and the
//! test harness both go through it; library defaults
//! ([`ShardedOptions::default`]) read no environment variable.
//!
//! | Variable            | Value                          | Effect |
//! |---------------------|--------------------------------|--------|
//! | `SHARON_SHARDS`     | shard count (≥ 1)              | run the sharded runtime with this many worker shards |
//! | `SHARON_LATENESS`   | milliseconds                   | event-time mode with this allowed lateness |
//! | `SHARON_DISORDER`   | max displacement `K`           | test harness: scramble streams within `K` positions |
//! | `SHARON_CHECKPOINT` | `<dir>[:<interval-batches>]`   | periodic consistent checkpoints ([`CheckpointConfig`]) |
//! | `SHARON_FAULT`      | `drop@N` \| `panic@N:S` \| `abort@N` \| `reorder@N:K` | inject the given fault ([`FaultPlan`]) |
//!
//! Every knob is **fail-loud**: an unparsable value is an [`EnvError`],
//! never a silent fallback — a bench matrix typo must not record numbers
//! attributed to a configuration that never ran.

use crate::checkpoint::{parse_checkpoint_spec, CheckpointConfig, FaultPlan};
use crate::sharded::ShardedOptions;
use std::fmt;

/// A `SHARON_*` environment variable held an unparsable value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The offending variable's name (e.g. `SHARON_SHARDS`).
    pub var: &'static str,
    /// What was wrong with its value.
    pub problem: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.var, self.problem)
    }
}

impl std::error::Error for EnvError {}

/// Every `SHARON_*` runtime knob, parsed in one place (see the
/// [module docs](self) for the full table).
///
/// `None` fields mean "knob unset — use the compiled-in default";
/// [`RuntimeOptions::default`] is the all-unset configuration.
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// `SHARON_SHARDS`: worker shard count for the sharded runtime.
    pub shards: Option<usize>,
    /// `SHARON_LATENESS`: event-time allowed lateness in milliseconds.
    pub lateness: Option<u64>,
    /// `SHARON_DISORDER`: maximum event displacement for the test
    /// harness's bounded-disorder scramble (`0` = in-order streams).
    pub disorder: u32,
    /// `SHARON_CHECKPOINT`: periodic-checkpoint store and interval.
    pub checkpoint: Option<CheckpointConfig>,
    /// `SHARON_FAULT`: fault to inject mid-stream.
    pub fault: Option<FaultPlan>,
}

/// Read one optional env var through `parse`, wrapping failures in an
/// [`EnvError`] naming the variable.
fn knob<T>(
    var: &'static str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, EnvError> {
    match std::env::var(var) {
        Ok(raw) => parse(&raw)
            .map(Some)
            .map_err(|problem| EnvError { var, problem }),
        Err(_) => Ok(None),
    }
}

impl RuntimeOptions {
    /// Parse the complete `SHARON_*` knob surface from the environment.
    ///
    /// Unset variables leave their field at the default; a set-but-
    /// unparsable variable is an [`EnvError`] naming it — a bad matrix
    /// entry must fail the run, not silently run a clamped
    /// configuration.
    pub fn from_env() -> Result<Self, EnvError> {
        Ok(RuntimeOptions {
            shards: knob("SHARON_SHARDS", |s| {
                s.parse()
                    .map_err(|e| format!("{s:?} is not a shard count: {e}"))
            })?,
            lateness: knob("SHARON_LATENESS", |s| {
                s.parse()
                    .map_err(|e| format!("{s:?} is not a lateness in milliseconds: {e}"))
            })?,
            disorder: knob("SHARON_DISORDER", |s| {
                s.parse()
                    .map_err(|e| format!("{s:?} is not a displacement bound: {e}"))
            })?
            .unwrap_or(0),
            checkpoint: knob("SHARON_CHECKPOINT", parse_checkpoint_spec)?,
            fault: knob("SHARON_FAULT", |s| s.parse())?,
        })
    }

    /// Lower these options onto a [`ShardedOptions`] for the sharded
    /// runtime (batch size and spill stay at their defaults — they have
    /// no env knobs).
    pub fn sharded_options(&self) -> ShardedOptions {
        ShardedOptions {
            checkpoint: self.checkpoint.clone(),
            fault: self.fault,
            lateness: self.lateness,
            ..ShardedOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // No env mutation here — tests run multi-threaded in one process, so
    // these exercise the parsers through the same closures `from_env`
    // uses, via the `knob` helper with a forced value.
    fn parse<T>(
        var: &'static str,
        raw: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, EnvError> {
        parse(raw).map_err(|problem| EnvError { var, problem })
    }

    #[test]
    fn checkpoint_and_fault_specs_parse() {
        let ck = parse("SHARON_CHECKPOINT", "/tmp/ck:8", parse_checkpoint_spec).unwrap();
        assert_eq!(ck.interval_batches, 8);
        let fault = parse::<FaultPlan>("SHARON_FAULT", "drop@3", |s| s.parse()).unwrap();
        assert_eq!(fault, FaultPlan::Drop { batch: 3 });
        assert!(parse::<FaultPlan>("SHARON_FAULT", "sigsegv", |s| s.parse()).is_err());
    }

    #[test]
    fn defaults_are_all_unset() {
        let opts = RuntimeOptions::default();
        assert!(opts.shards.is_none());
        assert_eq!(opts.disorder, 0);
        let sharded = opts.sharded_options();
        assert!(sharded.checkpoint.is_none());
        assert!(sharded.fault.is_none());
        assert!(sharded.lateness.is_none());
    }
}
