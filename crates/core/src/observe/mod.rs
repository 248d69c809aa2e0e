//! Observability: metrics and cost-model calibration.
//!
//! A job's own record is the [`ExecutionStats`] returned with its
//! `JobResult` — per atom, per operator kernel — which
//! `ExecutionPlan::explain_observed` renders. Around it (see `DESIGN.md` §8):
//!
//! - [`metrics`] — a lock-cheap [`MetricsRegistry`] of counters, gauges,
//!   and fixed-bound histograms. The executor, optimizer, and the storage
//!   hot buffer all report into one registry; hot paths only touch atomics.
//! - [`calibrate`] — the [`CostCalibration`] kernel-rate table, fitted to
//!   every job's observed kernel work, which the optimizer prices through
//!   each platform's clock.
//! - [`clock`] — the [`WorkClock`] every kernel's work is measured with:
//!   wall time less the thread's run-queue wait.
//!
//! [`Observability`] ties them together: attached to a
//! [`crate::RheemContext`] (via `with_observability`), it is handed each
//! job's record once, when the job ends, derives every executor counter
//! from it, and feeds the calibration table from successful jobs.

mod calibrate;
mod clock;
mod metrics;

pub(crate) use calibrate::seed as seed_rate;
pub use calibrate::{CostCalibration, KernelKey, Rate};
pub use clock::{Timing, WorkClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};

use std::sync::Arc;

use crate::error::RheemError;
use crate::executor::{AtomStats, ExecutionStats};
use crate::plan::{ExecutionPlan, NodeId};

/// What one operator kernel actually did inside a committed atom.
///
/// Platforms attach these to their `AtomResult`; the executor copies them
/// onto the committed `AtomStats`, from where they feed the kernel counters
/// and the calibration table. Failed attempts are discarded wholesale by
/// the retry loop, so their observations never escape.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeObservation {
    /// The physical plan node the kernel executed.
    pub node: NodeId,
    /// Display name of the operator (e.g. `Map(tokenize)`).
    pub op: String,
    /// Records the kernel actually produced.
    pub records_out: u64,
    /// Simulated milliseconds the engine charged for the node: its kernel
    /// work through the platform's clock (critical path, stage and
    /// boundary charges, efficiency).
    pub elapsed_ms: f64,
    /// The kernel's sequential work, before the clock, read on the
    /// [`WorkClock`] (wall time less run-queue wait): partitioned, the sum
    /// of the node's task times; in process, the one thread's. What the
    /// kernel-rate table is fitted to.
    pub work_ms: f64,
    /// The kernel never touched rows: it ran on the columnar view (or only
    /// passed its dataset along, as sources and sinks do). `false` means a
    /// row-at-a-time kernel ran — an opaque UDF, an operator without a
    /// chunk kernel, or a ragged input.
    pub columnar: bool,
    /// Rows the node's stage boundaries spilled to disk and read back.
    pub spilled_rows: u64,
    /// Milliseconds those spills took (in `elapsed_ms`, not `work_ms`).
    pub spill_ms: f64,
}

/// Upper bounds (microseconds) for the per-atom runtime histogram.
const ATOM_US_BOUNDS: [u64; 7] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// The observability hub: one metrics registry and a calibration table,
/// fed one job record at a time.
///
/// Thread-safety: every counter update is a single atomic operation and
/// the calibration table folds a job under one lock — the hub holds no
/// per-job state, so concurrent jobs may share one.
pub struct Observability {
    registry: Arc<MetricsRegistry>,
    calibration: Arc<CostCalibration>,
    /// Handles of [`job_counts`]' counters, in its order, resolved once so
    /// a job's report touches only atomics.
    job_counters: [Arc<Counter>; JOB_COUNTERS],
    atom_us: Arc<Histogram>,
}

impl Default for Observability {
    fn default() -> Self {
        Self::new()
    }
}

impl Observability {
    /// Create a hub with a fresh registry and calibration table.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let job_counters =
            job_counts(&ExecutionStats::default(), None).map(|(name, _)| registry.counter(name));
        let atom_us = registry.histogram("executor.atom_simulated_us", &ATOM_US_BOUNDS);
        Self {
            registry,
            calibration: Arc::new(CostCalibration::new()),
            job_counters,
            atom_us,
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The calibration table fed by this hub's jobs.
    pub fn calibration(&self) -> &Arc<CostCalibration> {
        &self.calibration
    }

    /// Report one finished job: its record (partial when it failed) and
    /// its outcome — `Ok` with the plan its atoms ran under, or the error
    /// it ended with. The only writer of every `executor.*`, `kernel.*` and
    /// `optimizer.replans` counter and of the atom histogram; a successful
    /// job's kernel observations are also absorbed into calibration
    /// against `plan` (failed attempts carry none, so they cannot pollute
    /// the table).
    pub(crate) fn record_job(
        &self,
        stats: &ExecutionStats,
        outcome: std::result::Result<&ExecutionPlan, &RheemError>,
    ) {
        let counts = job_counts(stats, outcome.err());
        for ((_, n), counter) in counts.iter().zip(&self.job_counters) {
            counter.add(*n);
        }
        for atom in &stats.atoms {
            self.atom_us
                .record((atom.simulated_elapsed_ms * 1_000.0).max(0.0) as u64);
        }
        if let Ok(plan) = outcome {
            self.calibration.absorb(plan, stats);
        }
    }
}

/// Counters a job's report moves; the length of [`job_counts`].
const JOB_COUNTERS: usize = 16;

/// Every executor, kernel and re-plan counter, and what one job adds to
/// it: the fold of its record and of the error it ended with, if any.
fn job_counts(
    stats: &ExecutionStats,
    error: Option<&RheemError>,
) -> [(&'static str, u64); JOB_COUNTERS] {
    let kernels = || stats.atoms.iter().flat_map(|a| &a.node_observations);
    let sum = |f: fn(&AtomStats) -> u64| stats.atoms.iter().map(f).sum::<u64>();
    let failed = || stats.failed_atoms();
    let retries = stats.retries as u64;
    let cancelled = matches!(error, Some(RheemError::Cancelled { .. }));
    [
        ("executor.atoms_completed", stats.atoms.len() as u64),
        // Only transient failures are retried, and every retry follows
        // one failed attempt; every atom that gave up failed once more
        // (an open breaker's rejection is that failure).
        ("executor.atom_retries", retries),
        ("executor.retries_transient", retries),
        ("executor.atom_failures", retries + failed().count() as u64),
        // Retry budget the classifier declined to spend.
        (
            "executor.retries_suppressed",
            failed().map(|f| f.suppressed_retries as u64).sum(),
        ),
        // A caught panic has its own budget line: the worker thread
        // survived, the job got a clean error.
        (
            "executor.panics_caught",
            failed().filter(|f| f.panicked).count() as u64,
        ),
        ("executor.failovers", stats.failovers.len() as u64),
        ("optimizer.replans", stats.replans.len() as u64),
        ("executor.records_in", sum(|a| a.records_in)),
        ("executor.records_out", sum(|a| a.records_out)),
        // Movement cost is simulated (deterministic), so it is safe to
        // keep as a counter compared across thread budgets.
        (
            "executor.movement_us",
            sum(|a| (a.movement_cost_ms * 1_000.0).max(0.0) as u64),
        ),
        (
            "kernel.path.columnar",
            kernels().filter(|k| k.columnar).count() as u64,
        ),
        (
            "kernel.path.row",
            kernels().filter(|k| !k.columnar).count() as u64,
        ),
        ("executor.jobs_completed", error.is_none() as u64),
        (
            "executor.jobs_failed",
            (error.is_some() && !cancelled) as u64,
        ),
        ("executor.cancelled", cancelled as u64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AtomFailure;
    use std::time::Duration;

    fn atom_stats(atom_id: usize, wave: usize) -> AtomStats {
        AtomStats {
            atom_id,
            platform: "java".into(),
            wave,
            attempts: 1,
            wall: Duration::from_millis(1),
            records_in: 10,
            records_out: 20,
            simulated_overhead_ms: 0.0,
            simulated_elapsed_ms: 2.5,
            movement_cost_ms: 1.5,
            node_observations: vec![NodeObservation {
                node: NodeId(atom_id),
                op: "Map(f)".into(),
                records_out: 20,
                elapsed_ms: 2.0,
                work_ms: 2.0,
                columnar: false,
                spilled_rows: 0,
                spill_ms: 0.0,
            }],
        }
    }

    #[test]
    fn one_report_moves_every_counter() {
        let obs = Observability::new();
        let mut stats = ExecutionStats {
            atoms: vec![atom_stats(0, 0), atom_stats(1, 1)],
            retries: 1,
            ..ExecutionStats::default()
        };
        let mut b = crate::plan::PlanBuilder::new();
        let src = b.collection("s", vec![]);
        b.collect(src);
        // No estimates: calibration skips the plan, the counters do not.
        let plan = ExecutionPlan {
            physical: Arc::new(b.build().unwrap()),
            assignments: vec![],
            atoms: vec![],
            estimated_cost: 0.0,
            estimates: vec![],
            enumeration: Default::default(),
        };
        obs.record_job(&stats, Ok(&plan));

        let m = obs.metrics();
        assert_eq!(m.counter_value("executor.atoms_completed"), 2);
        assert_eq!(m.counter_value("executor.atom_retries"), 1);
        assert_eq!(m.counter_value("executor.atom_failures"), 1);
        assert_eq!(m.counter_value("executor.records_in"), 20);
        assert_eq!(m.counter_value("executor.records_out"), 40);
        assert_eq!(m.counter_value("executor.movement_us"), 3000);
        assert_eq!(m.counter_value("executor.jobs_completed"), 1);
        assert_eq!(m.counter_value("kernel.path.row"), 2);

        // A failed job: its partial record counts, the job lands in
        // `jobs_failed`, and the atom that gave up is one more failure.
        stats.failed_atom = Some(AtomFailure {
            atom_id: 1,
            platform: "java".into(),
            attempts: 1,
            suppressed_retries: 3,
            panicked: true,
            error: "boom".into(),
        });
        let boom = RheemError::Panic {
            platform: "java".into(),
            message: "boom".into(),
        };
        obs.record_job(&stats, Err(&boom));
        assert_eq!(m.counter_value("executor.atoms_completed"), 4);
        assert_eq!(m.counter_value("executor.atom_failures"), 3);
        assert_eq!(m.counter_value("executor.retries_suppressed"), 3);
        assert_eq!(m.counter_value("executor.panics_caught"), 1);
        assert_eq!(m.counter_value("executor.jobs_completed"), 1);
        assert_eq!(m.counter_value("executor.jobs_failed"), 1);
        assert_eq!(m.counter_value("executor.cancelled"), 0);
    }
}
