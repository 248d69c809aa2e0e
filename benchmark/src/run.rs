//! One run of one workload, in this process: the untraced run that yields
//! the end-to-end metrics, and the traced run that yields the per-layer ones.

use std::path::Path;
use std::time::Duration;

use crate::json::{obj, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay;
use crate::stats::{mean, median, min_samples, percentile, sorted};
use crate::trace::{self_time_us, Tracer};
use crate::wire::{self, Inputs, LoopOutcome, Sample};
use crate::workload::{Kernel, Workload};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct RunOptions {
    pub seed: u64,
    pub window: Duration,
    /// 10 k-row tables and no minimum sample: a smoke run, not a measurement.
    pub quick: bool,
}

/// What a run reports: the driver's result line plus a readable account.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `None` where the metric could not be taken (p95 under 200 samples).
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    pub report: String,
}

impl RunResult {
    /// The one JSON object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = value.map_or(Json::Null, Json::Num);
                let entry = obj([("value", value), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn header(workload: &Workload, options: &RunOptions, traced: bool) -> String {
    format!(
        "workload {}  seed {}  window {:.1} s  clients {}  rows {}  {}{}\n",
        workload.name,
        options.seed,
        options.window.as_secs_f64(),
        workload.clients,
        workload.rows(options.quick),
        if traced { "traced" } else { "untraced" },
        if options.quick { "  QUICK" } else { "" },
    )
}

fn failure_note(outcome: &LoopOutcome) -> String {
    outcome
        .first_error
        .as_ref()
        .map_or(String::new(), |e| format!("  first failure: {e}\n"))
}

/// The end-to-end metrics: closed loop with tracing off.
pub fn untraced(workload: &'static Workload, options: &RunOptions) -> Result<RunResult, String> {
    let inputs = Inputs::generate(workload, options.seed, options.quick)?;
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(previous) = session.take() {
            wire::Session::close(previous);
        }
        let (fresh, seconds) = wire::set_up(&inputs)?;
        setups.push(seconds);
        session = Some(fresh);
    }
    let mut session = session.expect("SETUPS is at least one");

    let floor = if options.quick { 0 } else { min_samples(0.95) };
    let outcome = wire::closed_loop(&mut session, &inputs, options.window, floor, None);
    session.close();

    let latencies = sorted(outcome.latencies_ms());
    let n = latencies.len();
    let per_statement = statement_medians(&outcome.samples, workload.statements.len());
    let p50 = mean_of_all(&per_statement);
    let p95 = percentile(&latencies, 0.95);
    if !options.quick && p95.is_none() {
        return Err(format!(
            "{}: only {n} successful queries in {:.1} s ({} failed); p95 needs {}\n{}",
            workload.name,
            outcome.seconds,
            outcome.failed,
            min_samples(0.95),
            failure_note(&outcome)
        ));
    }
    let qps = n as f64 / outcome.seconds;
    let setup_s = median(&setups);
    let rss = wire::peak_rss_mb();
    // In the order of `END_TO_END`, as are the notes below.
    let values = [p50, p95, Some(qps), Some(setup_s), rss];

    let mut report = header(workload, options, false);
    let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.3}"));
    let notes = [
        format!(
            "(n = {n}; mean of the statements' medians: {})",
            per_statement
                .iter()
                .map(|m| show(*m))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        match p95 {
            Some(_) => format!(
                "(n = {n}, {} beyond)",
                n - (0.95 * n as f64).ceil() as usize
            ),
            None => format!("(refused: n = {n} < {})", min_samples(0.95)),
        },
        format!("({n} queries in {:.3} s)", outcome.seconds),
        format!(
            "(median of {SETUPS}: {})",
            setups
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        "(VmHWM at exit)".to_string(),
    ];
    for ((metric, value), note) in END_TO_END.iter().zip(values).zip(notes) {
        report += &format!(
            "  {:<16}{:>12} {:<10}{note}\n",
            metric.name,
            show(value),
            metric.unit
        );
    }
    report += &format!(
        "  attempted {}  failed {}  client verification {:.1} % of the window\n{}",
        outcome.attempted,
        outcome.failed,
        100.0 * outcome.verify_seconds / (outcome.seconds * workload.clients as f64),
        failure_note(&outcome)
    );
    Ok(RunResult {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect(),
        report,
    })
}

/// Median latency of each statement of the list, `None` where it never
/// succeeded.
fn statement_medians(samples: &[Sample], statements: usize) -> Vec<Option<f64>> {
    (0..statements)
        .map(|i| {
            let of: Vec<f64> = samples
                .iter()
                .filter(|s| s.statement == i)
                .map(|s| s.ms)
                .collect();
            (!of.is_empty()).then(|| median(&of))
        })
        .collect()
}

/// `query_p50_ms`: the mean of the statements' medians, once each has one.
fn mean_of_all(medians: &[Option<f64>]) -> Option<f64> {
    let all: Option<Vec<f64>> = medians.iter().copied().collect();
    all.filter(|m| !m.is_empty()).map(|m| mean(&m))
}

/// Lower-median sample of a statement: a request that really happened.
fn median_sample(samples: &[Sample], statement: usize) -> Option<Sample> {
    let mut of: Vec<Sample> = samples
        .iter()
        .filter(|s| s.statement == statement)
        .copied()
        .collect();
    of.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    of.get(of.len().checked_sub(1)? / 2).copied()
}

/// What only the real run can tell: read off the server before it goes away.
struct Gauges {
    /// Smallest tenant share of the granted waves (0.5 is ideal for two).
    grant_share_min: f64,
    /// Adjacent grants in the scheduler's log that went to different tenants.
    grant_switches: usize,
    cache: rheem_core::PlanCacheStats,
    hit_rate: f64,
    /// Admission rejections: the server's counters or the clients' errors,
    /// whichever saw more.
    rejected: u64,
}

impl Gauges {
    fn read(session: &wire::Session, workload: &Workload, client_rejected: u64) -> Gauges {
        let scheduler = session.server.scheduler();
        let granted = scheduler.granted_waves();
        let total_grants: u64 = granted.values().sum();
        let grant_share_min = (0..workload.clients)
            .map(|c| granted.get(&workload.tenant(c)).copied().unwrap_or(0) as f64)
            .fold(f64::INFINITY, f64::min)
            / total_grants.max(1) as f64;
        let grant_switches = scheduler
            .grant_log()
            .windows(2)
            .filter(|w| w[0].tenant != w[1].tenant)
            .count();
        let cache = session.server.plan_cache().stats();
        let metrics = session.server.observability().metrics();
        let server_rejected: u64 = (0..workload.clients)
            .map(|c| {
                metrics.counter_value(&format!("server.tenant.{}.rejected", workload.tenant(c)))
            })
            .sum();
        Gauges {
            grant_share_min,
            grant_switches,
            hit_rate: cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            cache,
            rejected: server_rejected.max(client_rejected),
        }
    }
}

/// The per-layer metrics. The window is split in three: an untraced loop, a
/// traced loop (their p50s give `trace_overhead_pct`), and the twin replay.
pub fn traced(
    workload: &'static Workload,
    options: &RunOptions,
    trace_file: &Path,
) -> Result<RunResult, String> {
    let inputs = Inputs::generate(workload, options.seed, options.quick)?;
    let tracer = Tracer::new();
    let third = options.window / 3;

    let setup_started = std::time::Instant::now();
    let (mut session, _) = wire::set_up(&inputs)?;
    let setup_span = tracer.record(
        None,
        0,
        "wire.setup",
        setup_started,
        std::time::Instant::now(),
    );
    let plain = wire::closed_loop(&mut session, &inputs, third, 0, None);
    let spanned = wire::closed_loop(&mut session, &inputs, third, 0, Some(&tracer));

    let gauges = Gauges::read(&session, workload, plain.rejected + spanned.rejected);
    session.close();

    // The twin is single-tenant: contention on `tenants-2x100k` is not
    // replayed and therefore stays in the session's self time.
    let layers = replay::replay(
        &inputs.tables[0],
        workload.statements,
        &inputs.expected[0],
        third,
    )?;

    // Hang the replayed layers under each statement's median wire request.
    let mut rows = Vec::new();
    for (i, (st, l)) in workload
        .statements
        .iter()
        .zip(&layers.statements)
        .enumerate()
    {
        let sample = median_sample(&spanned.samples, i)
            .ok_or_else(|| format!("no traced sample of statement {i}"))?;
        let root = sample
            .span
            .expect("the traced loop records a span per sample");
        tracer.record_child(root, "protocol.transport", l.transport_ms * 1e3);
        tracer.record_child(root, "service.submit_noop", layers.submit_noop_us);
        for _ in 0..l.waves {
            tracer.record_child(root, "scheduler.gate", layers.gate_uncontended_us);
        }
        // What `optimize_logical` costs a request at the hit rate the real
        // run saw: mostly the cold path while calibration drift keeps
        // invalidating entries.
        let optimize_us =
            gauges.hit_rate * l.optimizer_cached_us + (1.0 - gauges.hit_rate) * l.optimizer_cold_us;
        tracer.record_child(root, "optimizer.optimize", optimize_us);
        let execute = tracer.record_child(root, "executor.execute", l.execute_ms * 1e3);
        for kernel in st.kernels {
            let times = layers.kernels[*kernel as usize];
            let name = format!("kernels.{}.row", kernel.name());
            tracer.record_child(execute, &name, times.row_ms * 1e3);
        }
        tracer.record_child(root, "server.result_copy", l.result_copy_ms * 1e3);
        tracer.record_child(root, "protocol.result_codec", l.result_codec_ms * 1e3);

        // What a statement costs once per session, under the set-up span.
        let plan = tracer.record_child(setup_span, "query.plan", l.plan_us);
        tracer.record_child(plan, "query.parse", l.parse_us);
        tracer.record_child(setup_span, "optimizer.cold", l.optimizer_cold_us);
        rows.push((sample, root, optimize_us));
    }
    tracer.record_child(
        setup_span,
        "protocol.register_codec",
        layers.register_codec_ms * 1e3,
    );
    // Calls no plan makes today: kernels this workload's statements do not
    // use, every chunked twin, and the chunk conversions.
    let mut offpath: Vec<(String, f64)> = Vec::new();
    for kernel in Kernel::ALL {
        let (times, name) = (layers.kernels[kernel as usize], kernel.name());
        if !workload
            .statements
            .iter()
            .any(|st| st.kernels.contains(&kernel))
        {
            offpath.push((format!("kernels.{name}.row"), times.row_ms));
        }
        offpath.push((format!("kernels.{name}.chunked"), times.chunked_ms));
    }
    offpath.push((
        "chunk.from_records".to_string(),
        layers.chunk_from_records_ms,
    ));
    offpath.push(("chunk.to_records".to_string(), layers.chunk_to_records_ms));
    let now = std::time::Instant::now();
    let total_ms: f64 = offpath.iter().map(|(_, ms)| ms).sum();
    let end = now + Duration::from_secs_f64(total_ms / 1e3);
    let offpath_span = tracer.record(None, 0, "replay.offpath", now, end);
    for (name, ms) in &offpath {
        tracer.record_child(offpath_span, name, ms * 1e3);
    }

    let spans = tracer.spans();
    tracer
        .write_jsonl(trace_file)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    // Per statement: wire p50 = layer sum + session self time, by construction.
    let mut report = header(workload, options, true);
    report += "  per statement, ms (layer sum + session_self = wire p50):\n";
    report += "  stmt   wire_p50  transport    submit      gate    optimize   execute      copy     codec | layer_sum  session_self\n";
    let mut wire_p50 = Vec::new();
    let mut layer_sum = Vec::new();
    let mut session_self = Vec::new();
    for (i, ((sample, root, optimize_us), l)) in rows.iter().zip(&layers.statements).enumerate() {
        let own = self_time_us(&spans, *root) / 1e3;
        let sum = sample.ms - own;
        report += &format!(
            "  {i:>4} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>11.3} {:>9.3} {:>9.3} {:>9.3} | {sum:>9.3} {own:>13.3}\n",
            sample.ms,
            l.transport_ms,
            layers.submit_noop_us / 1e3,
            layers.gate_uncontended_us * l.waves as f64 / 1e3,
            optimize_us / 1e3,
            l.execute_ms,
            l.result_copy_ms,
            l.result_codec_ms,
        );
        wire_p50.push(sample.ms);
        layer_sum.push(sum);
        session_self.push(own);
    }
    let total_wire: f64 = wire_p50.iter().sum();
    let self_share = session_self.iter().sum::<f64>() / total_wire;
    let rtt_share = layers
        .statements
        .iter()
        .map(|l| l.transport_ms)
        .sum::<f64>()
        / total_wire;
    report += &format!(
        "  shares of wire p50: protocol.transport {:.1} %, server.session_self {:.1} %, together {:.1} %\n",
        100.0 * rtt_share,
        100.0 * self_share,
        100.0 * (rtt_share + self_share)
    );
    let mut platforms: Vec<&str> = layers
        .statements
        .iter()
        .flat_map(|l| l.platforms.iter().map(String::as_str))
        .collect();
    platforms.sort_unstable();
    platforms.dedup();
    report += &format!("  executor.platforms: {}\n", platforms.join(", "));
    report += &format!(
        "  plan cache in the real run: {} hits, {} misses, {} invalidations\n",
        gauges.cache.hits, gauges.cache.misses, gauges.cache.invalidations
    );

    let p50_of =
        |o: &LoopOutcome| mean_of_all(&statement_medians(&o.samples, workload.statements.len()));
    let overhead_pct = match (p50_of(&plain), p50_of(&spanned)) {
        (Some(off), Some(on)) => Some(100.0 * (on - off) / off),
        _ => None,
    };
    let per_statement = |f: fn(&replay::StatementLayers) -> f64| {
        mean(&layers.statements.iter().map(f).collect::<Vec<_>>())
    };
    let mut values: Vec<(String, Option<f64>)> = [
        ("protocol.frame_rtt_us", Some(layers.frame_rtt_us)),
        (
            "protocol.transport_ms",
            Some(per_statement(|l| l.transport_ms)),
        ),
        ("protocol.transport_share", Some(rtt_share)),
        (
            "protocol.result_codec_ms",
            Some(per_statement(|l| l.result_codec_ms)),
        ),
        (
            "protocol.result_bytes",
            Some(per_statement(|l| l.result_bytes as f64)),
        ),
        ("protocol.register_codec_ms", Some(layers.register_codec_ms)),
        (
            "protocol.register_bytes",
            Some(layers.register_bytes as f64),
        ),
        ("service.submit_noop_us", Some(layers.submit_noop_us)),
        ("service.rejected", Some(gauges.rejected as f64)),
        (
            "scheduler.gate_uncontended_us",
            Some(layers.gate_uncontended_us),
        ),
        ("scheduler.grant_share_min", Some(gauges.grant_share_min)),
        (
            "scheduler.grant_switches",
            Some(gauges.grant_switches as f64),
        ),
        ("query.parse_us", Some(per_statement(|l| l.parse_us))),
        ("query.plan_us", Some(per_statement(|l| l.plan_us))),
        (
            "optimizer.cold_us",
            Some(per_statement(|l| l.optimizer_cold_us)),
        ),
        (
            "optimizer.cached_us",
            Some(per_statement(|l| l.optimizer_cached_us)),
        ),
        ("plan_cache.hit_rate", Some(gauges.hit_rate)),
        ("executor.execute_ms", Some(per_statement(|l| l.execute_ms))),
        ("executor.waves", Some(per_statement(|l| l.waves as f64))),
        ("executor.atoms", Some(per_statement(|l| l.atoms as f64))),
        ("executor.platforms", Some(platforms.len() as f64)),
        (
            "executor.simulated_ms",
            Some(per_statement(|l| l.simulated_ms)),
        ),
        (
            "platforms.slept_overhead_ms",
            Some(per_statement(|l| l.slept_overhead_ms)),
        ),
        ("chunk.from_records_ms", Some(layers.chunk_from_records_ms)),
        ("chunk.to_records_ms", Some(layers.chunk_to_records_ms)),
        (
            "server.result_copy_ms",
            Some(per_statement(|l| l.result_copy_ms)),
        ),
        ("server.session_self_ms", Some(mean(&session_self))),
        ("server.session_self_share", Some(self_share)),
        ("trace.wire_p50_ms", Some(mean(&wire_p50))),
        ("trace.layer_sum_ms", Some(mean(&layer_sum))),
        ("trace_overhead_pct", overhead_pct),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .to_vec();
    for kernel in Kernel::ALL {
        let (times, kernel) = (layers.kernels[kernel as usize], kernel.name());
        values.push((format!("kernels.{kernel}.row_ms"), Some(times.row_ms)));
        values.push((
            format!("kernels.{kernel}.chunked_ms"),
            Some(times.chunked_ms),
        ));
        values.push((
            format!("kernels.{kernel}.rows_in"),
            Some(times.rows_in as f64),
        ));
        values.push((
            format!("kernels.{kernel}.rows_per_s"),
            Some(times.rows_per_s()),
        ));
    }

    report += "  per layer (statement metrics are means over the statement list):\n";
    let mut metrics = Vec::new();
    for m in PER_LAYER {
        let (_, value) = values
            .iter()
            .find(|(name, _)| name == m.name)
            .unwrap_or_else(|| panic!("per-layer metric {} is not computed", m.name));
        let shown = value.map_or("n/a".to_string(), |v| format!("{v:.3}"));
        report += &format!("  {:<34}{shown:>16} {:<8} -> {}\n", m.name, m.unit, m.moves);
        metrics.push((m.name, m.unit, *value));
    }
    report += &format!(
        "  spans written to {}  ({} spans)\n  attempted {}  failed {}\n{}{}",
        trace_file.display(),
        spans.len(),
        plain.attempted + spanned.attempted,
        plain.failed + spanned.failed,
        failure_note(&plain),
        failure_note(&spanned)
    );
    Ok(RunResult {
        correct: plain.failed + spanned.failed == 0,
        attempted: plain.attempted + spanned.attempted,
        failed: plain.failed + spanned.failed,
        metrics,
        report,
    })
}
