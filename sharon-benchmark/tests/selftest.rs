//! The rig checks itself: the committed `BENCHMARK.json` is the rendering
//! of the rig's own tables, every declared metric is printed exactly once
//! with its declared unit on every workload, spans nest, and the exact
//! counts repeat. Runs the real engine at about 1/20 of the pinned scale.

use sharon_benchmark::workloads::Kind;
use sharon_benchmark::{run, spec, Options, Report};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Mutex;

/// The rig reads process-wide counters, so its runs never overlap.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

const SCALE: f64 = 0.05;

fn small_run(kind: Kind, trace: bool) -> Report {
    let _guard = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut opts = Options::new(7, 0.0, trace);
    opts.scale = SCALE;
    opts.out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-out");
    run(kind, &opts)
}

fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[test]
fn benchmark_json_is_the_rendering_of_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "BENCHMARK.json differs from `sharon-benchmark --print-benchmark-json`"
    );
    assert!(committed.len() <= 64 * 1024);

    let mut names = HashSet::new();
    for k in Kind::ALL {
        assert!(valid_name(k.name()), "workload name {:?}", k.name());
        assert!(names.insert(k.name()), "name {:?} used twice", k.name());
        assert!(k.why().len() <= 200 && !k.why().contains('\n'));
        assert!(!k.why().contains('"') && !k.why().contains('\\'));
    }
    assert!((2..=8).contains(&Kind::ALL.len()));
    for e in &spec::END_TO_END {
        assert!(valid_name(e.name) && valid_unit(e.unit), "{}", e.name);
        assert!(names.insert(e.name), "name {:?} used twice", e.name);
        assert!(e.bound > 0.0 && e.bound <= 0.25, "{} bound", e.name);
        assert!(matches!(e.better, "higher" | "lower"));
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(spec::END_TO_END.iter().all(|e| e.bound <= setup.bound));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    for (name, unit, better) in &spec::PER_LAYER {
        assert!(valid_name(name) && valid_unit(unit), "{name}");
        assert!(names.insert(name), "name {name:?} used twice");
        assert!(matches!(*better, "higher" | "lower"));
    }
    assert!((1..=60).contains(&spec::RUN_SECONDS));
}

fn assert_declared_metrics(report: &Report, declared: &[(&str, &str)]) {
    let printed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        printed, declared,
        "{}: every declared metric exactly once, with its unit",
        report.workload
    );
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    // the table a person reads has one line per metric
    let table = report.table();
    for (name, unit) in declared {
        let lines = table
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name))
            .count();
        assert_eq!(lines, 1, "{name} printed {lines} times");
        assert!(table
            .lines()
            .any(|l| l.starts_with(name) && l.ends_with(unit)));
    }
    let line = report.json_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));
}

fn assert_spans_nest(report: &Report) {
    let spans = &report.spans;
    assert!(
        !spans.is_empty(),
        "{}: a traced run records spans",
        report.workload
    );
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        assert!(s.start_ns <= s.end_ns, "span {i} ends before it starts");
        if let Some(p) = s.parent {
            assert!(p < i, "span {i} precedes its parent");
            let parent = &spans[p];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "span {i} ({}) leaves its parent ({})",
                s.name,
                parent.name
            );
            child_ns[p] += s.dur_ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        assert!(
            child_ns[i] <= s.dur_ns(),
            "children of span {i} ({}) take longer than it does",
            s.name
        );
    }
}

/// Counts that depend only on the inputs and the code, never on timing.
const EXACT_COUNTS: [&str; 12] = [
    "streams.events",
    "optimizer.candidates_mined",
    "optimizer.graph_vertices",
    "optimizer.graph_edges",
    "optimizer.plans_considered",
    "optimizer.plan_score",
    "executor.scan.rows_scanned",
    "executor.scan.rows_selected",
    "executor.engine.state_size",
    "executor.engine.results",
    "executor.engine.events_matched",
    "bench.oracle_rows",
];

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is printed"))
        .value
}

#[test]
fn every_workload_prints_its_contract_and_repeats_its_counts() {
    let end_to_end: Vec<(&str, &str)> = spec::END_TO_END.iter().map(|e| (e.name, e.unit)).collect();
    let per_layer: Vec<(&str, &str)> = spec::PER_LAYER.iter().map(|p| (p.0, p.1)).collect();
    for kind in Kind::ALL {
        let plain = small_run(kind, false);
        assert!(plain.correct && plain.failed == 0 && plain.attempted >= 1);
        assert_declared_metrics(&plain, &end_to_end);
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric is never 0",
            plain.workload
        );

        let traced = small_run(kind, true);
        assert!(traced.correct && traced.failed == 0 && traced.attempted >= 1);
        assert_declared_metrics(&traced, &per_layer);
        assert_spans_nest(&traced);

        let sequential = matches!(kind, Kind::TxSharedSeq | Kind::EcFilterSeq);
        if sequential {
            let again = small_run(kind, true);
            for name in EXACT_COUNTS {
                assert_eq!(
                    value(&traced, name).to_bits(),
                    value(&again, name).to_bits(),
                    "{}: {name} differs between two runs of one seed",
                    traced.workload
                );
            }
        }
    }
}
