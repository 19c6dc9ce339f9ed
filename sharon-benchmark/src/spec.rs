//! The metric tables: every name, unit, direction and bound the rig
//! prints. `BENCHMARK.json` is rendered from these tables and the
//! self-test checks the committed file against the rendering, so the
//! file, the rig and the README's numbers cannot drift apart.

use crate::workloads::Kind;

/// `run_seconds` in `BENCHMARK.json`: what the pinned number of passes
/// ([`crate::PASSES`]) over the pinned streams takes, warm-up and set-up
/// samples included, on the host the sizes were pinned on.
pub const RUN_SECONDS: u32 = 20;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The four end-to-end metrics, the same on every workload.
///
/// The timing bounds are the contract's widest. A driver refuses a
/// benchmark whose ten-seed spread (IQR ÷ median) exceeds the bound and
/// asks for a third of it; the fastest of 15 passes spreads 4-8 % here in
/// a quiet hour and 8-21 % in a busy one (README, "Noise"), which rules
/// out the issue's 0.10.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_eps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "slide_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_mem_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.03,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Every per-layer metric of the traced run, in print order.
pub const PER_LAYER: [PerLayer; 60] = [
    ("streams.generate_ms", "ms", "lower"),
    ("streams.events", "count", "higher"),
    ("query.parse_us", "us", "lower"),
    ("optimizer.total_ms", "ms", "lower"),
    ("optimizer.mining_ms", "ms", "lower"),
    ("optimizer.graph_ms", "ms", "lower"),
    ("optimizer.expansion_ms", "ms", "lower"),
    ("optimizer.search_ms", "ms", "lower"),
    ("optimizer.candidates_mined", "count", "lower"),
    ("optimizer.graph_vertices", "count", "lower"),
    ("optimizer.graph_edges", "count", "lower"),
    ("optimizer.plans_considered", "count", "lower"),
    ("optimizer.plan_score", "count", "higher"),
    ("core.build_ms", "ms", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("core.share_speedup", "ratio", "higher"),
    ("core.session.attach_us_p50", "us", "lower"),
    ("core.session.detach_us_p50", "us", "lower"),
    ("core.session.drain_us_p50", "us", "lower"),
    ("core.session.reoptimizations", "count", "lower"),
    ("core.session.plan_swaps", "count", "lower"),
    ("core.session.sidecars_max", "count", "lower"),
    ("executor.scan.rows_scanned", "count", "lower"),
    ("executor.scan.rows_selected", "count", "lower"),
    ("executor.scan.ns_per_row", "ns", "lower"),
    ("executor.scan.share", "ratio", "lower"),
    (
        "executor.engine.stateful_ns_per_selected_row",
        "ns",
        "lower",
    ),
    ("executor.engine.finish_ms", "ms", "lower"),
    ("executor.engine.slide_p99_ms", "ms", "lower"),
    ("executor.engine.state_size", "count", "lower"),
    ("executor.engine.results", "count", "higher"),
    ("executor.engine.events_matched", "count", "higher"),
    ("executor.engine.allocs_per_kev", "count", "lower"),
    ("executor.router.ns_per_row", "ns", "lower"),
    ("executor.router.ns_per_row_4shards", "ns", "lower"),
    ("executor.router.scope_scans", "count", "lower"),
    ("executor.router.batches_routed", "count", "lower"),
    ("executor.router.stall_waits", "count", "lower"),
    ("executor.router.split_groups", "count", "lower"),
    ("executor.router.shard_row_imbalance", "ratio", "lower"),
    ("executor.sharded.cpu_us_per_event", "us", "lower"),
    ("executor.sharded.handoff_cpu_ns_per_event", "ns", "lower"),
    ("executor.sharded.finish_ms", "ms", "lower"),
    ("executor.sharded.runqueue_wait_share", "ratio", "lower"),
    ("executor.event_time.overhead_pct", "%", "lower"),
    ("executor.event_time.gate_ns_per_row", "ns", "lower"),
    ("executor.event_time.late_rows_dropped", "count", "lower"),
    ("executor.checkpoint.snapshot_ms_p50", "ms", "lower"),
    ("executor.checkpoint.bytes", "count", "lower"),
    ("executor.checkpoint.overhead_pct", "%", "lower"),
    ("twostep.flink_eps", "1/s", "higher"),
    ("twostep.spass_eps", "1/s", "higher"),
    ("twostep.online_speedup", "ratio", "higher"),
    ("bench.pass_fastest_eps", "1/s", "higher"),
    ("bench.pass_median_eps", "1/s", "higher"),
    ("bench.pass_iqr_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.calib_ns", "ns", "lower"),
    ("bench.cpu_wall_ratio", "ratio", "lower"),
    ("bench.oracle_rows", "count", "higher"),
];

/// The unit declared for `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.unit)
        .or_else(|| PER_LAYER.iter().find(|p| p.0 == name).map(|p| p.1))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"sharon-benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"sharon-benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, k) in Kind::ALL.iter().enumerate() {
        let sep = if i + 1 < Kind::ALL.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            k.name(),
            k.why()
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            e.name, e.unit, e.better, e.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
