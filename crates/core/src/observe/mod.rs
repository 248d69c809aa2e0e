//! Observability: metrics and cost-model calibration.
//!
//! A job's own record is the [`ExecutionStats`] returned with its
//! `JobResult` — per atom, per operator kernel — which
//! `ExecutionPlan::explain_observed` renders. Around it (see `DESIGN.md` §7):
//!
//! - [`metrics`] — a lock-cheap [`MetricsRegistry`] of counters, gauges,
//!   and fixed-bound histograms. The executor, optimizer, and the storage
//!   hot buffer all report into one registry; hot paths only touch atomics.
//! - [`calibrate`] — a [`CostCalibration`] table folding observed kernel
//!   runtimes and true cardinalities back into the optimizer's estimates
//!   as an EMA per `(operator, platform)` pair.
//!
//! [`Observability`] ties them together: it implements the executor's
//! [`ProgressListener`], so attaching one to a [`crate::RheemContext`]
//! (via `with_observability`) counts every job the context runs and
//! enables the calibration feedback loop.

pub mod calibrate;
pub mod metrics;

pub use calibrate::{CalibrationEntry, CostCalibration, DEFAULT_ALPHA};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};

use std::sync::Arc;

use crate::error::{CancelReason, ErrorKind, RheemError};
use crate::executor::{AtomStats, ExecutionStats, FailoverEvent, ProgressListener, ReplanEvent};
use crate::plan::NodeId;

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
    /// Observed kernel runtime in (possibly simulated) milliseconds.
    pub elapsed_ms: f64,
    /// Parallel work units (morsels or chunks) the kernel ran on; 1 for
    /// a sequential kernel. Deterministic for a fixed
    /// [`crate::KernelParallelism`] setting but not across settings, so a
    /// comparison of the work two runs did leaves it out, like timing.
    pub morsels: u64,
    /// The kernel never touched rows: it ran on the columnar view (or only
    /// passed its dataset along, as sources and sinks do). `false` means a
    /// row-at-a-time kernel ran — an opaque UDF, an operator without a
    /// chunk kernel, or a ragged input.
    pub columnar: bool,
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

/// Pre-resolved metric handles so listener callbacks never touch the
/// registry's name table.
struct ExecutorMetrics {
    atoms_completed: Arc<Counter>,
    atom_retries: Arc<Counter>,
    atom_failures: Arc<Counter>,
    retries_transient: Arc<Counter>,
    retries_suppressed: Arc<Counter>,
    failovers: Arc<Counter>,
    records_in: Arc<Counter>,
    records_out: Arc<Counter>,
    movement_us: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    replans: Arc<Counter>,
    atom_simulated_us: Arc<Histogram>,
    kernel_parallel_invocations: Arc<Counter>,
    kernel_parallel_morsels: Arc<Counter>,
    kernel_sequential: Arc<Counter>,
    kernel_path_columnar: Arc<Counter>,
    kernel_path_row: Arc<Counter>,
    cancelled: Arc<Counter>,
    panics_caught: Arc<Counter>,
}

impl ExecutorMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            atoms_completed: registry.counter("executor.atoms_completed"),
            atom_retries: registry.counter("executor.atom_retries"),
            atom_failures: registry.counter("executor.atom_failures"),
            retries_transient: registry.counter("executor.retries_transient"),
            retries_suppressed: registry.counter("executor.retries_suppressed"),
            failovers: registry.counter("executor.failovers"),
            records_in: registry.counter("executor.records_in"),
            records_out: registry.counter("executor.records_out"),
            movement_us: registry.counter("executor.movement_us"),
            jobs_completed: registry.counter("executor.jobs_completed"),
            replans: registry.counter("optimizer.replans"),
            atom_simulated_us: registry.histogram("executor.atom_simulated_us", &ATOM_US_BOUNDS),
            kernel_parallel_invocations: registry.counter("kernel.parallel.invocations"),
            kernel_parallel_morsels: registry.counter("kernel.parallel.morsels"),
            kernel_sequential: registry.counter("kernel.parallel.sequential"),
            kernel_path_columnar: registry.counter("kernel.path.columnar"),
            kernel_path_row: registry.counter("kernel.path.row"),
            cancelled: registry.counter("executor.cancelled"),
            panics_caught: registry.counter("executor.panics_caught"),
        }
    }
}

/// The observability hub: one metrics registry and a calibration table,
/// driven by executor listener callbacks.
///
/// Thread-safety: parallel atoms complete on worker threads, and every
/// update is a single atomic operation on a pre-resolved handle — the hub
/// holds no per-job state, so concurrent jobs may share one.
pub struct Observability {
    registry: Arc<MetricsRegistry>,
    calibration: Arc<CostCalibration>,
    exec: ExecutorMetrics,
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
        let exec = ExecutorMetrics::new(&registry);
        Self {
            registry,
            calibration: Arc::new(CostCalibration::new()),
            exec,
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
}

impl ProgressListener for Observability {
    fn on_atom_retry(&self, _atom_id: usize, _attempt: usize, _error: &RheemError) {
        // Each retry callback corresponds to exactly one failed attempt,
        // so both metrics advance by `attempts - 1` per atom. The
        // executor only retries transient errors, so every retry also
        // counts toward the transient split.
        self.exec.atom_retries.inc();
        self.exec.atom_failures.inc();
        self.exec.retries_transient.inc();
    }

    fn on_atom_failed(&self, _atom_id: usize, error: &RheemError, suppressed_retries: usize) {
        // The final, un-retried failed attempt (0 attempts happened when
        // an open breaker rejected the atom up front, but the rejection
        // itself is the failure).
        self.exec.atom_failures.inc();
        // Retry budget the classifier declined to spend: the pre-taxonomy
        // executor would have burned these on errors that could not
        // succeed.
        self.exec.retries_suppressed.add(suppressed_retries as u64);
        // A caught panic is a permanent failure with its own budget line:
        // the worker thread survived, the job gets a clean error.
        if error.classify() == (ErrorKind::Permanent { panic: true }) {
            self.exec.panics_caught.inc();
        }
    }

    fn on_atom_complete(&self, stats: &AtomStats) {
        self.exec.atoms_completed.inc();
        self.exec.records_in.add(stats.records_in);
        self.exec.records_out.add(stats.records_out);
        // Movement cost is simulated (deterministic), so it is safe to
        // keep as a counter compared across thread budgets.
        self.exec
            .movement_us
            .add((stats.movement_cost_ms * 1_000.0).max(0.0) as u64);
        self.exec
            .atom_simulated_us
            .record((stats.simulated_elapsed_ms * 1_000.0).max(0.0) as u64);
        // Morsel counts are pure functions of input sizes and the
        // KernelParallelism setting, so these counters replay identically
        // across thread budgets (like the movement counter above).
        for obs in &stats.node_observations {
            if obs.morsels > 1 {
                self.exec.kernel_parallel_invocations.inc();
                self.exec.kernel_parallel_morsels.add(obs.morsels);
            } else {
                self.exec.kernel_sequential.inc();
            }
            if obs.columnar {
                self.exec.kernel_path_columnar.inc();
            } else {
                self.exec.kernel_path_row.inc();
            }
        }
    }

    fn on_replan(&self, _event: &ReplanEvent) {
        self.exec.replans.inc();
    }

    fn on_failover(&self, _event: &FailoverEvent) {
        self.exec.failovers.inc();
    }

    fn on_job_cancelled(&self, _reason: CancelReason) {
        self.exec.cancelled.inc();
    }

    fn on_job_complete(&self, _stats: &ExecutionStats) {
        self.exec.jobs_completed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                morsels: 4,
                columnar: false,
            }],
        }
    }

    #[test]
    fn listener_updates_metrics() {
        let obs = Observability::new();
        obs.on_atom_start(0, "java");
        let boom = RheemError::Execution {
            platform: "java".into(),
            message: "boom".into(),
        };
        obs.on_atom_retry(0, 1, &boom);
        obs.on_atom_complete(&atom_stats(0, 0));
        obs.on_atom_complete(&atom_stats(1, 1));
        let mut stats = ExecutionStats::default();
        stats.atoms.push(atom_stats(0, 0));
        stats.atoms.push(atom_stats(1, 1));
        obs.on_job_complete(&stats);

        let m = obs.metrics();
        assert_eq!(m.counter_value("executor.atoms_completed"), 2);
        assert_eq!(m.counter_value("executor.atom_retries"), 1);
        assert_eq!(m.counter_value("executor.atom_failures"), 1);
        assert_eq!(m.counter_value("executor.records_in"), 20);
        assert_eq!(m.counter_value("executor.records_out"), 40);
        assert_eq!(m.counter_value("executor.movement_us"), 3000);
        assert_eq!(m.counter_value("executor.jobs_completed"), 1);
        assert_eq!(m.counter_value("kernel.parallel.invocations"), 2);
        assert_eq!(m.counter_value("kernel.parallel.morsels"), 8);
        assert_eq!(m.counter_value("kernel.path.row"), 2);
    }

    #[test]
    fn every_job_is_counted() {
        let obs = Observability::new();
        for _ in 0..2 {
            obs.on_atom_complete(&atom_stats(0, 0));
            let mut stats = ExecutionStats::default();
            stats.atoms.push(atom_stats(0, 0));
            obs.on_job_complete(&stats);
        }
        assert_eq!(obs.metrics().counter_value("executor.jobs_completed"), 2);
        assert_eq!(obs.metrics().counter_value("executor.atoms_completed"), 2);
    }
}
