//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` mirrors them (a test keeps the two in step).

use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// What a user of the server sees; the same definition on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Metrics of single layers, from the traced run. `sim_ms` columns hold the
/// platforms' simulated milliseconds and are never added to wall time.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    layer("protocol.frame_rtt_us", "us", Lower, "query_p50_ms on point-1k"),
    layer("protocol.transport_ms", "ms", Lower, "query_p50_ms on point-1k"),
    layer("protocol.transport_share", "ratio", Lower, "query_p50_ms on point-1k"),
    layer("protocol.result_codec_ms", "ms", Lower, "query_p50_ms on wide-100k"),
    layer("protocol.result_bytes", "B", Lower, "query_p50_ms on wide-100k"),
    layer("protocol.register_codec_ms", "ms", Lower, "setup_s on scan-200k"),
    layer("protocol.register_bytes", "B", Lower, "setup_s on scan-200k"),
    layer("service.submit_noop_us", "us", Lower, "query_p50_ms on point-1k"),
    layer("service.rejected", "count", Lower, "throughput_qps on tenants-2x100k"),
    layer("scheduler.gate_uncontended_us", "us", Lower, "query_p50_ms on point-1k"),
    layer("scheduler.grant_share_min", "ratio", Higher, "query_p95_ms on tenants-2x100k"),
    layer("scheduler.grant_switches", "count", Higher, "query_p95_ms on tenants-2x100k"),
    layer("query.parse_us", "us", Lower, "setup_s on all"),
    layer("query.plan_us", "us", Lower, "setup_s on all"),
    layer("optimizer.cold_us", "us", Lower, "setup_s on all"),
    layer("optimizer.cached_us", "us", Lower, "query_p50_ms on point-1k"),
    layer("plan_cache.hit_rate", "ratio", Higher, "query_p50_ms on point-1k"),
    layer("executor.execute_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("executor.waves", "count", Lower, "query_p50_ms on scan-200k"),
    layer("executor.atoms", "count", Lower, "query_p50_ms on scan-200k"),
    layer("executor.platforms", "count", Lower, "query_p50_ms on scan-200k"),
    layer("executor.simulated_ms", "sim_ms", Lower, "none (simulated)"),
    layer("platforms.slept_overhead_ms", "sim_ms", Lower, "query_p50_ms on scan-200k"),
    layer("kernels.filter.row_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("kernels.filter.chunked_ms", "ms", Lower, "none (unreached)"),
    layer("kernels.filter.rows_in", "rows", Lower, "none (input size)"),
    layer("kernels.filter.rows_per_s", "rows/s", Higher, "query_p50_ms on scan-200k"),
    layer("kernels.hash_group.row_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("kernels.hash_group.chunked_ms", "ms", Lower, "none (unreached)"),
    layer("kernels.hash_group.rows_in", "rows", Lower, "none (input size)"),
    layer("kernels.hash_group.rows_per_s", "rows/s", Higher, "query_p50_ms on scan-200k"),
    layer("kernels.hash_join.row_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("kernels.hash_join.chunked_ms", "ms", Lower, "none (unreached)"),
    layer("kernels.hash_join.rows_in", "rows", Lower, "none (input size)"),
    layer("kernels.hash_join.rows_per_s", "rows/s", Higher, "query_p50_ms on scan-200k"),
    layer("kernels.sort.row_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("kernels.sort.chunked_ms", "ms", Lower, "none (unreached)"),
    layer("kernels.sort.rows_in", "rows", Lower, "none (input size)"),
    layer("kernels.sort.rows_per_s", "rows/s", Higher, "query_p50_ms on scan-200k"),
    layer("chunk.from_records_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("chunk.to_records_ms", "ms", Lower, "query_p50_ms on scan-200k"),
    layer("server.result_copy_ms", "ms", Lower, "query_p50_ms on wide-100k"),
    layer("server.session_self_ms", "ms", Lower, "query_p50_ms on point-1k"),
    layer("server.session_self_share", "ratio", Lower, "query_p50_ms on point-1k"),
    layer("trace.wire_p50_ms", "ms", Lower, "is query_p50_ms per statement"),
    layer("trace.layer_sum_ms", "ms", Lower, "query_p50_ms on all"),
    layer("trace_overhead_pct", "%", Lower, "none (cost of tracing)"),
];
