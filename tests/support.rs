//! Helpers shared by the workspace integration-test suites (included via
//! `#[path]` from each test binary).

use sharon::executor::RuntimeOptions;

/// The `SHARON_*` environment surface, parsed once through the canonical
/// [`RuntimeOptions::from_env`] (an unparsable knob is a panic here — a
/// typo'd CI matrix cell must fail loudly, not silently run defaults).
pub fn runtime_options() -> RuntimeOptions {
    RuntimeOptions::from_env().expect("SHARON_* environment knob")
}

/// Shard counts under test: `SHARON_SHARDS` pins one (the CI matrix runs
/// 2 and 4 on a multi-core runner), otherwise the suite's default spread.
#[allow(dead_code)]
pub fn shard_counts(default: &[usize]) -> Vec<usize> {
    match runtime_options().shards {
        Some(n) => vec![n],
        None => default.to_vec(),
    }
}

/// Routing-plane sizes under test: `SHARON_ROUTERS` pins one (the CI
/// matrix crosses it with the shard counts), otherwise the single router
/// and a 2-router plane.
#[allow(dead_code)]
pub fn router_counts() -> Vec<usize> {
    match runtime_options().routers {
        Some(r) => vec![r],
        None => vec![1, 2],
    }
}

/// The `SHARON_DISORDER` knob applied to a suite's event stream: returns
/// the bounded-disorder shuffle of `events` plus the smallest lateness
/// (ms) that absorbs it exactly, or `None` when the knob is unset/zero
/// (in-order input, the historical behaviour). Seeded — the CI matrix
/// replays the identical shuffle.
#[allow(dead_code)]
pub fn disordered(events: &[sharon::types::Event]) -> Option<(Vec<sharon::types::Event>, u64)> {
    let disorder = runtime_options().disorder;
    if disorder == 0 {
        return None;
    }
    let mut shuffled = events.to_vec();
    sharon::streams::scramble_events(&mut shuffled, disorder, 0xD15C_0BA1);
    let lateness =
        sharon::streams::required_lateness(&sharon::types::EventBatch::from_events(&shuffled));
    Some((shuffled, lateness))
}
