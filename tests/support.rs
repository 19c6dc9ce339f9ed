//! Helpers shared by the workspace integration-test suites (included via
//! `#[path]` from each test binary).

/// Read the test-matrix knob `var`: `None` when unset, and an
/// unparsable value is a panic naming the variable — a typo'd CI matrix
/// cell must fail loudly, not silently run defaults.
pub fn knob<T: std::str::FromStr>(var: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let raw = std::env::var(var).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(e) => panic!("{var}={raw:?} is not valid: {e}"),
    }
}

/// Shard counts under test: `SHARON_SHARDS` pins one (the CI matrix runs
/// 2 and 4 on a multi-core runner), otherwise the suite's default spread.
#[allow(dead_code)]
pub fn shard_counts(default: &[usize]) -> Vec<usize> {
    match knob("SHARON_SHARDS") {
        Some(n) => vec![n],
        None => default.to_vec(),
    }
}

/// The `SHARON_DISORDER` knob applied to a suite's event stream: returns
/// the bounded-disorder shuffle of `events` plus the smallest lateness
/// (ms) that absorbs it exactly, or `None` when the knob is unset/zero
/// (in-order input, the historical behaviour). Seeded — the CI matrix
/// replays the identical shuffle.
#[allow(dead_code)]
pub fn disordered(events: &[sharon::types::Event]) -> Option<(Vec<sharon::types::Event>, u64)> {
    let disorder: u32 = knob("SHARON_DISORDER").unwrap_or(0);
    if disorder == 0 {
        return None;
    }
    let mut shuffled = events.to_vec();
    sharon::streams::scramble_events(&mut shuffled, disorder, 0xD15C_0BA1);
    let lateness =
        sharon::streams::required_lateness(&sharon::types::EventBatch::from_events(&shuffled));
    Some((shuffled, lateness))
}

/// A short-window traffic workload over the taxi street types: the pattern
/// shapes of Figure 1 with windows short against the synthetic stream
/// span, and mixed aggregate kinds (the COUNT kernel and the stats
/// kernel's AVG and MAX).
#[allow(dead_code)]
pub fn short_window_taxi_workload(catalog: &mut sharon::types::Catalog) -> sharon::query::Workload {
    sharon::query::parse_workload(
        catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
            "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
            "RETURN AVG(MainSt.speed) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
            "RETURN MAX(ParkAve.speed) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
        ],
    )
    .expect("short-window taxi workload parses")
}

/// Whether `reference` holds at least one row of each of `queries`.
#[allow(dead_code)]
pub fn has_rows_of_each(
    reference: &sharon::executor::ExecutorResults,
    queries: impl IntoIterator<Item = sharon::query::QueryId>,
) -> bool {
    queries
        .into_iter()
        .all(|q| reference.of_query(q).next().is_some())
}

/// Assert that `got` equals `reference` exactly — equal keys, equal
/// counts and equal `f64` bits (`semantically_eq` at `eps = 0`) — after
/// asserting that the reference holds a row of each of `queries`: an
/// equivalence over an empty reference checks nothing. `what` names the
/// comparison in a failure.
#[allow(dead_code)]
#[track_caller]
pub fn assert_equivalent(
    got: &sharon::executor::ExecutorResults,
    reference: &sharon::executor::ExecutorResults,
    queries: impl IntoIterator<Item = sharon::query::QueryId>,
    what: impl std::fmt::Display,
) {
    assert_within(got, reference, queries, 0.0, what);
}

/// [`assert_equivalent`] within a relative `1e-9`, for a two-step
/// baseline against an online engine only: a baseline sums a sequence's
/// values in construction order, while the online engines fold each cell
/// in row order, so a `SUM` or `AVG` may differ in its last bits. Keys,
/// counts and the rest compare exactly.
#[allow(dead_code)]
#[track_caller]
pub fn assert_equal_up_to_summation_order(
    got: &sharon::executor::ExecutorResults,
    reference: &sharon::executor::ExecutorResults,
    queries: impl IntoIterator<Item = sharon::query::QueryId>,
    what: impl std::fmt::Display,
) {
    assert_within(got, reference, queries, 1e-9, what);
}

#[track_caller]
fn assert_within(
    got: &sharon::executor::ExecutorResults,
    reference: &sharon::executor::ExecutorResults,
    queries: impl IntoIterator<Item = sharon::query::QueryId>,
    eps: f64,
    what: impl std::fmt::Display,
) {
    for q in queries {
        assert!(
            reference.of_query(q).next().is_some(),
            "{what}: the reference has no row of {q:?}"
        );
    }
    assert!(
        got.semantically_eq(reference, eps),
        "{what}: diverges from the reference ({} vs {} results)",
        got.len(),
        reference.len(),
    );
}
