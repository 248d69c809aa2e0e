//! The executor (§4.2): schedules task atoms on their platforms, monitors
//! progress, copes with failures, and aggregates results.
//!
//! Duties, verbatim from the paper: "(i) scheduling the resulting execution
//! plan on the selected data processing frameworks, (ii) monitoring the
//! progress of plan execution, (iii) coping with failures, and
//! (iv) aggregating and returning results to users."
//!
//! # Wave scheduling
//!
//! Atoms whose inputs are all available are independent and can run
//! concurrently — the paper's motivation for splitting a plan into task
//! atoms in the first place. The executor derives the atom dependency DAG
//! from the plan's boundary edges ([`ExecutionPlan::pending_dependencies`])
//! and partitions it into *waves*: wave 0 holds every atom with no
//! cross-atom inputs, wave *k+1* every atom whose last dependency sits in
//! wave *k*. A job has one thread budget
//! ([`KernelParallelism::threads`](crate::KernelParallelism), set with
//! [`RheemContext::with_kernel_parallelism`]): a wave runs
//! `min(threads, atoms in the wave)` atoms at once on scoped worker
//! threads, each atom's kernels get `threads / width` of the budget, and
//! the next wave starts once the whole wave finished.
//!
//! A budget of 1 runs exactly the same waves one atom at a time on the
//! caller's thread, so wave numbering, per-atom wave attribution, and the
//! `waves` stat are identical at every budget — budgets differ only in
//! intra-wave concurrency.
//!
//! Intermediate datasets are reference counted: once every boundary
//! consumer of a node's output has run, the dataset is dropped (sink
//! outputs are kept — they are the job's results).
//!
//! Scheduling is deterministic where it can be: per-atom monitoring
//! records are appended in ascending atom id within each wave regardless
//! of completion order, and when several atoms of a wave fail, the error
//! of the lowest-id atom that failed is reported.
//!
//! # Monitoring
//!
//! The [`ExecutionStats`] a job returns is its one record (§4.2 duty ii):
//! atoms, waves, retries, re-plans, failovers and the atom that failed
//! the job. A job is reported once, when it ends: the record (partial on
//! failure) goes to the context's
//! [`Observability`](crate::observe::Observability) hub, which derives
//! every executor counter from it.
//!
//! # Fault tolerance
//!
//! Failures are classified ([`RheemError::classify`]) before any retry
//! budget is spent: only [`ErrorKind::Transient`](crate::ErrorKind)
//! errors are retried (up to [`RheemContext::with_max_retries`] times,
//! with [`BackoffPolicy`] delays between attempts); permanent errors fail
//! fast after exactly one attempt. Under a
//! [fault policy](RheemContext::with_fault_policy), every transient
//! failure also feeds the platform's circuit breaker — an open
//! breaker rejects atoms up front with
//! [`RheemError::PlatformUnavailable`], skipping their retry budget.
//!
//! When an atom gives up (retries exhausted, breaker opened, or breaker
//! already open) and the fault policy enables failover, the executor
//! does not fail the job immediately: it commits the atoms of the wave
//! that precede the failure in id order, marks the failed platform down, and
//! re-enumerates the unexecuted suffix with all failed platforms excluded
//! — the same suffix-splicing machinery as adaptive re-planning, pointed
//! at outages instead of drift. Committed atoms are never re-run; the job
//! fails only when the re-enumeration finds no alternative mapping (or
//! the failover budget / job deadline is spent).
//!
//! # Adaptive re-optimization
//!
//! Under a [`ReplanPolicy`](crate::ReplanPolicy)
//! ([`RheemContext::with_replan_policy`]), the
//! executor revisits the optimizer's decisions *mid-job*: after each
//! committed wave it compares the observed cardinality of every live
//! boundary dataset against the plan's estimates and, past the policy
//! threshold, re-enumerates the unexecuted suffix with the true
//! cardinalities (completed outputs become fixed-size pseudo-sources)
//! and splices the new atoms in. Committed atoms are never re-run and
//! re-planning only ever happens between waves, so a partially executed
//! atom is never re-planned; each re-plan also counts against the job
//! deadline.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::context::RheemContext;
use crate::data::Dataset;
use crate::error::{CancelReason, Result, RheemError};
use crate::fault::{BackoffPolicy, ThreadSleeper};
use crate::optimizer::replan::worst_drift;
use crate::plan::{ExecutionPlan, NodeId, TaskAtom};
use crate::platform::{AtomInputs, ExecutionContext, FailureInjector};

/// Per-atom monitoring record.
#[derive(Clone, Debug)]
pub struct AtomStats {
    /// Atom id within the execution plan.
    pub atom_id: usize,
    /// Platform that executed it.
    pub platform: String,
    /// Scheduling wave the atom ran in. Wave numbering is identical at
    /// every thread budget and global across re-planning phases (a
    /// re-plan continues the numbering, it never restarts it).
    pub wave: usize,
    /// Attempts used (1 = no retry).
    pub attempts: usize,
    /// Wall-clock execution time of the successful attempt.
    pub wall: Duration,
    /// Records entering the atom across its boundary.
    pub records_in: u64,
    /// Records produced by operators inside the atom.
    pub records_out: u64,
    /// Deterministic simulated overhead reported by the platform.
    pub simulated_overhead_ms: f64,
    /// Simulated elapsed time reported by the platform (critical path).
    pub simulated_elapsed_ms: f64,
    /// Simulated cost of moving the atom's inputs across platforms.
    pub movement_cost_ms: f64,
    /// Per-operator-kernel observations reported by the platform for the
    /// successful attempt (empty when the platform does not report them).
    pub node_observations: Vec<crate::observe::NodeObservation>,
}

/// Job-level monitoring summary.
#[derive(Clone, Debug, Default)]
pub struct ExecutionStats {
    /// One record per executed atom: ascending atom id within each wave,
    /// waves in execution order — the same order at every thread budget.
    pub atoms: Vec<AtomStats>,
    /// Number of scheduling waves the job ran in. Identical at every
    /// thread budget, and strictly less than the atom count whenever the
    /// plan had independent atoms to overlap.
    pub waves: usize,
    /// Total wall-clock time of the job.
    pub total_wall: Duration,
    /// Total simulated movement cost.
    pub total_movement_ms: f64,
    /// Every retry the job spent, including those of an atom that later
    /// gave up. Only transient failures consume retries; permanent errors
    /// fail fast after one attempt. Wave siblings above a failed atom run
    /// only when the wave runs threaded; their work, retries included, is
    /// discarded, so the record is the same at every thread budget.
    pub retries: usize,
    /// Mid-job re-optimizations performed, in order (see
    /// [`RheemContext::with_replan_policy`]); empty unless drift triggered.
    pub replans: Vec<ReplanEvent>,
    /// Failover re-plans performed, in order (see
    /// [`RheemContext::with_fault_policy`]): each re-routed the
    /// unexecuted suffix around a failed platform.
    pub failovers: Vec<FailoverEvent>,
    /// The atom whose failure ended the job. `None` on success, and when
    /// the job stopped on a cancel, a deadline or a malformed plan rather
    /// than on an atom's own error.
    pub failed_atom: Option<AtomFailure>,
    /// How the executed plan was enumerated (copied from
    /// [`crate::plan::ExecutionPlan::enumeration`]); rendered only when
    /// the budget fallback ran.
    pub enumeration_path: crate::plan::EnumerationPath,
}

impl ExecutionStats {
    /// Distinct platforms that participated in the job.
    pub fn platforms_used(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.atoms.iter().map(|a| a.platform.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Every atom that gave up: each failover's trigger in order, then the
    /// atom that failed the job.
    pub fn failed_atoms(&self) -> impl Iterator<Item = &AtomFailure> {
        self.failovers
            .iter()
            .map(|f| &f.failed_atom)
            .chain(self.failed_atom.as_ref())
    }

    /// Total simulated overhead charged by platforms.
    pub fn total_simulated_overhead_ms(&self) -> f64 {
        self.atoms.iter().map(|a| a.simulated_overhead_ms).sum()
    }

    /// Total simulated elapsed time of the job: the platforms' critical
    /// paths plus inter-platform movement. This is the figure-of-merit the
    /// benchmark harness reports (deterministic and host-independent).
    pub fn total_simulated_ms(&self) -> f64 {
        self.atoms
            .iter()
            .map(|a| a.simulated_elapsed_ms)
            .sum::<f64>()
            + self.total_movement_ms
    }

    /// A human-readable monitoring report (one line per atom).
    pub fn explain(&self) -> String {
        let mut s = String::from(
            "atom  wave  platform     attempts  in→out records     simulated_ms  movement_ms\n",
        );
        for a in &self.atoms {
            s.push_str(&format!(
                "{:<4}  {:<4}  {:<11}  {:<8}  {:>7} → {:<7}  {:>12.2}  {:>11.2}\n",
                a.atom_id,
                a.wave,
                a.platform,
                a.attempts,
                a.records_in,
                a.records_out,
                a.simulated_elapsed_ms,
                a.movement_cost_ms,
            ));
        }
        s.push_str(&format!(
            "total: {:.2} simulated ms ({:.2} movement), {:.2} ms wall, {} retries, {} waves, {} replans, {} failovers\n",
            self.total_simulated_ms(),
            self.total_movement_ms,
            self.total_wall.as_secs_f64() * 1e3,
            self.retries,
            self.waves,
            self.replans.len(),
            self.failovers.len(),
        ));
        if self.enumeration_path == crate::plan::EnumerationPath::GreedyFallback {
            s.push_str(&format!("enumeration: {}\n", self.enumeration_path));
        }
        s
    }
}

/// A hook bracketing every scheduling wave of a job.
///
/// The wave boundary is the executor's natural preemption point: no atom
/// runs while the job is between waves, so an external scheduler can pause
/// a job there simply by blocking in
/// [`before_wave`](WaveGate::before_wave). The server's fair-share
/// scheduler does exactly that — each job's gate acquires a wave slot
/// before the wave runs and releases it right after, interleaving waves of
/// concurrent jobs across tenants.
///
/// Calls come on the thread driving the job, strictly ordered per job:
/// `before_wave(i)` → the wave's atoms run → `after_wave(i)` →
/// `before_wave(i+1)` … An `after_wave` call is guaranteed for every
/// `before_wave` that returned, even when the wave fails (gate releases
/// must not leak on error paths). Implementations must be `Send + Sync`;
/// blocking in `before_wave` blocks the job, nothing else.
pub trait WaveGate: Send + Sync {
    /// Called before the wave `wave_index` starts; may block to delay it.
    /// `atoms` is the number of atoms scheduled in the wave.
    fn before_wave(&self, wave_index: usize, atoms: usize);
    /// Called after the wave's atoms finished (committed or failed).
    fn after_wave(&self, wave_index: usize);
}

/// An atom that gave up: its error was not retryable, its platform's
/// breaker opened or was already open, or its retry budget ran out.
#[derive(Clone, Debug)]
pub struct AtomFailure {
    /// Atom id within the plan it ran under.
    pub atom_id: usize,
    /// The platform it failed on.
    pub platform: String,
    /// Attempts made; 0 when an open breaker rejected the atom up front.
    pub attempts: usize,
    /// Retry budget left unspent because the final error was not worth
    /// retrying (a permanent error, or a breaker that opened or was open);
    /// 0 when the budget ran out on transient failures.
    pub suppressed_retries: usize,
    /// The final error was a caught panic.
    pub panicked: bool,
    /// Rendering of the final error.
    pub error: String,
}

/// What one mid-job re-optimization did (see
/// [`RheemContext::with_replan_policy`]).
#[derive(Clone, Debug)]
pub struct ReplanEvent {
    /// The live boundary dataset whose cardinality drifted the furthest
    /// from its estimate.
    pub trigger_node: NodeId,
    /// The optimizer's cardinality estimate for that node.
    pub estimated_card: f64,
    /// The cardinality that actually materialized.
    pub observed_card: u64,
    /// Symmetric error ratio between the two ([`crate::cost::drift_ratio`]).
    pub drift: f64,
    /// Pending atoms discarded by the re-plan.
    pub replaced_atoms: usize,
    /// Atoms spliced in to replace them.
    pub new_atoms: usize,
    /// Estimated cost of the remaining work under the new plan.
    pub estimated_cost: f64,
}

/// What one failover re-plan did (see
/// [`RheemContext::with_fault_policy`]).
#[derive(Clone, Debug)]
pub struct FailoverEvent {
    /// The atom whose failure triggered the failover.
    pub failed_atom: AtomFailure,
    /// Every platform excluded from the re-enumeration (the failed
    /// platform plus any other platform with an open breaker, and any
    /// platform excluded by an earlier failover of this job).
    pub excluded: Vec<String>,
    /// Pending atoms discarded by the failover re-plan.
    pub replaced_atoms: usize,
    /// Atoms spliced in to replace them.
    pub new_atoms: usize,
    /// Estimated cost of the remaining work under the new plan.
    pub estimated_cost: f64,
}

/// The result the executor aggregates for the user (§4.2 duty iv).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Output dataset per sink node.
    pub outputs: HashMap<NodeId, Dataset>,
    /// Monitoring data (§4.2 duty ii).
    pub stats: ExecutionStats,
    /// When the job re-planned mid-flight, the plan that was *actually*
    /// executed: the committed atoms in commit order over the original
    /// physical plan, with the final merged platform assignments and
    /// estimates. Reporting-only (its atom ids match `stats.atoms` but
    /// are not dense, so it cannot be fed back into
    /// [`RheemContext::execute_plan`]); use it with
    /// [`ExecutionPlan::explain_observed`] and for calibration. `None`
    /// when the job ran the input plan unchanged.
    pub effective_plan: Option<ExecutionPlan>,
}

impl JobResult {
    /// The single output of a single-sink job.
    pub fn single(&self) -> Result<&Dataset> {
        if self.outputs.len() == 1 {
            Ok(self.outputs.values().next().expect("len checked"))
        } else {
            Err(RheemError::Execution {
                platform: "executor".into(),
                message: format!("expected exactly one sink, found {}", self.outputs.len()),
            })
        }
    }
}

/// One atom's completed run, before it is committed to the job state.
struct AtomRun {
    stats: AtomStats,
    outputs: HashMap<NodeId, Dataset>,
}

/// Why an atom did not commit: its final error, the retries it spent
/// first, and — when it gave up on its own errors rather than stopping at
/// a cancel, a deadline or a wiring error — what the record says about it.
struct AtomError {
    error: RheemError,
    retries: usize,
    gave_up: Option<Box<AtomFailure>>,
}

/// An error met before the first attempt: nothing spent, nothing given up.
impl From<RheemError> for AtomError {
    fn from(error: RheemError) -> Self {
        AtomError {
            error,
            retries: 0,
            gave_up: None,
        }
    }
}

impl AtomError {
    /// `atom` gave up with `error` after `attempts` attempts, leaving
    /// `suppressed` retries unspent.
    fn gave_up(atom: &TaskAtom, error: RheemError, attempts: usize, suppressed: usize) -> Self {
        let gave_up = AtomFailure {
            atom_id: atom.id,
            platform: atom.platform.clone(),
            attempts,
            suppressed_retries: suppressed,
            panicked: matches!(error, RheemError::Panic { .. }),
            error: error.to_string(),
        };
        AtomError {
            error,
            retries: attempts.saturating_sub(1),
            gave_up: Some(Box::new(gave_up)),
        }
    }
}

/// What one wave produced: the runs of the atoms that precede its first
/// failure in id order, and that failure, if any.
struct WaveOutcome {
    runs: Vec<(usize, AtomRun)>,
    failure: Option<AtomError>,
}

/// What a successful job hands back besides its record: the sink outputs
/// and, when it re-planned, the effective plan.
type JobOutputs = (HashMap<NodeId, Dataset>, Option<ExecutionPlan>);

/// One job in flight: the context whose settings it runs under and the
/// deadline its timeout implies.
struct Job<'a> {
    ctx: &'a RheemContext,
    deadline: Option<Instant>,
}

/// Run an execution plan to completion under `ctx`'s settings.
///
/// Every thread budget drives the same wave loop (a budget of 1 merely
/// caps intra-wave concurrency at one), so wave numbering and stats are
/// budget-consistent. Under a re-plan policy, execution proceeds in
/// *phases*: after each committed wave the observed cardinalities of live
/// boundary datasets are checked against the estimates, and on sufficient
/// drift the unexecuted suffix is re-enumerated and spliced in (committed
/// atoms are never re-run; wave numbering continues across the splice).
///
/// A job is reported once, when it ends: its record — partial when it
/// failed or was cancelled — and its outcome go to the context's
/// [`Observability`](crate::observe::Observability) hub in one call.
pub(crate) fn execute(ctx: &RheemContext, plan: &ExecutionPlan) -> Result<JobResult> {
    let started = Instant::now();
    let job = Job {
        ctx,
        deadline: ctx.timeout.and_then(|t| started.checked_add(t)),
    };
    let mut stats = ExecutionStats {
        enumeration_path: plan.enumeration.path,
        ..ExecutionStats::default()
    };
    let run = job.run(plan, &mut stats);
    stats.total_wall = started.elapsed();
    if let Some(observe) = &ctx.observability {
        // Calibration learns against the assignments the atoms actually
        // ran under: the effective plan when the job re-planned.
        let outcome = run
            .as_ref()
            .map(|(_, effective)| effective.as_ref().unwrap_or(plan));
        observe.record_job(&stats, outcome);
    }
    let (outputs, effective_plan) = run?;
    Ok(JobResult {
        outputs,
        stats,
        effective_plan,
    })
}

/// Atoms of an `atoms`-wide wave that run at once under a budget of
/// `threads`; each then gets `threads / width` kernel threads
/// ([`crate::KernelParallelism::share`]).
fn wave_width(threads: usize, atoms: usize) -> usize {
    threads.min(atoms).max(1)
}

impl Job<'_> {
    /// Run `plan`, writing the job's record into `stats` as it goes — so a
    /// failed job leaves the record of what it did before failing.
    fn run(&self, plan: &ExecutionPlan, stats: &mut ExecutionStats) -> Result<JobOutputs> {
        // A submitted plan has dense atom ids; a re-planned job's
        // `effective_plan` does not, and is refused here. The first
        // `pending_dependencies` walk below validates the wiring.
        if let Some((i, atom)) = plan.atoms.iter().enumerate().find(|(i, a)| a.id != *i) {
            return Err(RheemError::InvalidPlan(format!(
                "atom at position {i} has id {}; atom ids must be dense",
                atom.id
            )));
        }
        let sinks: HashSet<NodeId> = plan.physical.sinks().into_iter().collect();
        let node_outputs: Mutex<HashMap<NodeId, Dataset>> = Mutex::new(HashMap::new());

        // The plan currently being executed; a re-plan replaces it with
        // one carrying only the (re-partitioned) pending atoms.
        let mut current: Cow<'_, ExecutionPlan> = Cow::Borrowed(plan);
        let mut remaining = plan.boundary_consumer_counts();
        // Nodes of committed atoms (their boundary outputs are or were
        // materialized), and the committed atoms themselves in commit
        // order — the effective plan if a re-plan happens.
        let mut materialized: HashSet<NodeId> = HashSet::new();
        let mut committed: Vec<TaskAtom> = Vec::new();
        // Fresh-id fountain for re-planned atoms whose node set changed:
        // ids stay globally unique across splices, but not dense.
        let mut next_atom_id = plan.atoms.iter().map(|a| a.id + 1).max().unwrap_or(0);
        // Platforms excluded from failover re-enumerations, accumulated
        // across failovers of this job (a platform that failed once must
        // not re-enter through a later failover's enumeration).
        let mut excluded: Vec<String> = Vec::new();

        'phases: loop {
            let deps = current.pending_dependencies(&materialized)?;
            let mut waves = compute_waves(&deps)?;
            for wave in &mut waves {
                // Waves carry atom *positions*; order each by atom id so
                // commit order and failure reporting stay id-based even
                // on re-planned suffixes with non-monotone ids.
                wave.sort_by_key(|&pos| current.atoms[pos].id);
            }
            let mut executed: HashSet<usize> = HashSet::new();
            for wave in &waves {
                // Wave-boundary cancellation checkpoint: a cancelled job
                // stops before acquiring a fair-share slot for the wave.
                self.check_gates()?;
                let wave_idx = stats.waves;
                if let Some(gate) = &self.ctx.wave_gate {
                    gate.before_wave(wave_idx, wave.len());
                }
                let outcome = self.run_wave(current.as_ref(), wave, wave_idx, &node_outputs);
                if let Some(gate) = &self.ctx.wave_gate {
                    gate.after_wave(wave_idx);
                }
                stats.waves += 1;
                for (pos, run) in outcome.runs {
                    let atom = &current.atoms[pos];
                    commit_atom(atom, run, stats, &node_outputs, &mut remaining, &sinks);
                    committed.push(atom.clone());
                    materialized.extend(atom.nodes.iter().copied());
                    executed.insert(pos);
                }
                if let Some(failure) = outcome.failure {
                    stats.retries += failure.retries;
                    stats.failed_atom = failure.gave_up.map(|f| *f);
                    // §4.2 duty iii: before giving up on the job, try to
                    // re-route the unexecuted suffix around the failure.
                    match self.try_failover(
                        current.as_ref(),
                        &executed,
                        &failure.error,
                        &node_outputs,
                        &mut next_atom_id,
                        stats,
                        &mut excluded,
                    )? {
                        Some(new_plan) => {
                            remaining = new_plan.boundary_consumer_counts();
                            current = Cow::Owned(new_plan);
                            continue 'phases;
                        }
                        None => return Err(failure.error),
                    }
                }
                if executed.len() < current.atoms.len() {
                    if let Some(new_plan) = self.maybe_replan(
                        current.as_ref(),
                        &executed,
                        &node_outputs,
                        &remaining,
                        &mut next_atom_id,
                        stats,
                    )? {
                        remaining = new_plan.boundary_consumer_counts();
                        current = Cow::Owned(new_plan);
                        continue 'phases;
                    }
                }
            }
            break; // the whole phase ran without re-planning: done
        }

        // Final cancellation gate: a cancel that fires during the last
        // kernel of the final wave may have truncated that kernel's output
        // (morsel loops collapse remaining morsels once the token fires)
        // after every earlier checkpoint already passed. Never commit a
        // cancelled job's sink datasets as a successful result.
        self.ctx.execution.check_cancelled()?;

        let replanned = !stats.replans.is_empty() || !stats.failovers.is_empty();
        let effective_plan = replanned.then(|| ExecutionPlan {
            physical: plan.physical.clone(),
            assignments: current.assignments.clone(),
            atoms: committed,
            estimated_cost: plan.estimated_cost,
            estimates: current.estimates.clone(),
            enumeration: plan.enumeration.clone(),
        });
        let store = node_outputs.lock();
        let outputs = plan
            .physical
            .output_ids()
            .into_iter()
            .filter_map(|(sink, reported)| store.get(&sink).map(|d| (reported, d.clone())))
            .collect();
        Ok((outputs, effective_plan))
    }

    /// Between waves: check drift on live boundary datasets and, when the
    /// context's re-plan policy triggers, return the re-enumerated suffix
    /// plan. Without estimates on the plan (hand-built plans) it never
    /// fires.
    fn maybe_replan(
        &self,
        current: &ExecutionPlan,
        executed: &HashSet<usize>,
        node_outputs: &Mutex<HashMap<NodeId, Dataset>>,
        remaining: &HashMap<NodeId, usize>,
        next_atom_id: &mut usize,
        stats: &mut ExecutionStats,
    ) -> Result<Option<ExecutionPlan>> {
        let Some(policy) = self.ctx.replan_policy else {
            return Ok(None);
        };
        if stats.replans.len() >= policy.max_replans {
            return Ok(None);
        }
        let live = node_outputs.lock().clone();
        let Some((node, drift)) = worst_drift(current, &live, remaining, policy.threshold) else {
            return Ok(None);
        };
        // A re-plan is part of the job: it must respect the deadline.
        check_deadline(self.deadline)?;
        let new_plan = self.ctx.optimizer.replanner(policy).replan(
            current,
            executed,
            &live,
            &self.ctx.platforms,
            next_atom_id,
        )?;
        stats.replans.push(ReplanEvent {
            trigger_node: node,
            estimated_card: current.estimates[node.0].card,
            observed_card: live[&node].len() as u64,
            drift,
            replaced_atoms: current.atoms.len() - executed.len(),
            new_atoms: new_plan.atoms.len(),
            estimated_cost: new_plan.estimated_cost,
        });
        Ok(Some(new_plan))
    }

    /// After a wave failure, recorded in `stats.failed_atom`: re-enumerate
    /// the unexecuted suffix with the failed platform(s) excluded and
    /// return the spliced plan, moving the failed atom into a
    /// [`FailoverEvent`]. `None` when the job must fail with the original
    /// error (failover disabled or budget spent, error not
    /// failover-eligible, or no alternative mapping exists). A
    /// `BudgetExceeded` deadline error propagates.
    #[allow(clippy::too_many_arguments)]
    fn try_failover(
        &self,
        current: &ExecutionPlan,
        executed: &HashSet<usize>,
        error: &RheemError,
        node_outputs: &Mutex<HashMap<NodeId, Dataset>>,
        next_atom_id: &mut usize,
        stats: &mut ExecutionStats,
        excluded: &mut Vec<String>,
    ) -> Result<Option<ExecutionPlan>> {
        let Some(fp) = self.ctx.fault_policy.filter(|fp| fp.failover) else {
            return Ok(None);
        };
        if stats.failovers.len() >= fp.max_failovers {
            return Ok(None);
        }
        // Only errors that implicate the platform are worth failing over:
        // transient execution trouble and open breakers. Permanent errors
        // (a broken plan fails everywhere) and expired budgets abort.
        let eligible = matches!(
            error,
            RheemError::Execution { .. }
                | RheemError::Storage(_)
                | RheemError::Io(_)
                | RheemError::PlatformUnavailable { .. }
        );
        if !eligible {
            return Ok(None);
        }
        let Some(failed_platform) = stats.failed_atom.as_ref().map(|f| f.platform.clone()) else {
            return Ok(None);
        };
        // A failover re-plan is part of the job: it must respect the
        // deadline.
        check_deadline(self.deadline)?;

        if let Some(h) = &self.ctx.platform_health {
            // The abandoned platform is marked down so concurrent and
            // subsequent jobs sharing the breakers avoid it too, and any
            // *other* open breaker joins the exclusion set.
            h.force_open(&failed_platform);
            for p in h.unavailable() {
                if !excluded.contains(&p) {
                    excluded.push(p);
                }
            }
        }
        if !excluded.contains(&failed_platform) {
            excluded.push(failed_platform);
        }

        let live = node_outputs.lock().clone();
        // Failover shares the drift re-planner's machinery but not its
        // budget: `max_failovers` is counted separately.
        let rp = self
            .ctx
            .optimizer
            .replanner(self.ctx.replan_policy.unwrap_or_default())
            .excluding(excluded);
        let new_plan = match rp.replan(current, executed, &live, &self.ctx.platforms, next_atom_id)
        {
            Ok(p) => p,
            // No alternative mapping for some pending operator: the job
            // fails with the original error.
            Err(_) => return Ok(None),
        };
        stats.failovers.push(FailoverEvent {
            failed_atom: stats.failed_atom.take().expect("checked above"),
            excluded: excluded.clone(),
            replaced_atoms: current.atoms.len() - executed.len(),
            new_atoms: new_plan.atoms.len(),
            estimated_cost: new_plan.estimated_cost,
        });
        Ok(Some(new_plan))
    }

    /// Run one wave of independent atoms, [`wave_width`] of them at once.
    ///
    /// `wave` holds positions into `plan.atoms`, pre-sorted by atom id.
    /// The outcome's runs are `(atom position, run)` pairs in that same
    /// id order: every atom up to the wave's lowest-id failure, or the
    /// whole wave.
    ///
    /// Which atoms of the wave were attempted at all can differ with the
    /// width: the inline path (width 1) stops scheduling at the first
    /// failure, while the threaded path stops handing out new atoms but
    /// lets atoms already in flight run to completion. Runs past the
    /// lowest-id failure are dropped, so both paths commit and report the
    /// same atoms — injected failures are pure functions of
    /// `(atom id, attempt)` — and the job's record is the same at every
    /// budget. The price is that a failover re-runs, in its re-planned
    /// suffix, siblings the threaded path had already finished.
    fn run_wave(
        &self,
        plan: &ExecutionPlan,
        wave: &[usize],
        wave_idx: usize,
        node_outputs: &Mutex<HashMap<NodeId, Dataset>>,
    ) -> WaveOutcome {
        let n = wave.len();
        // One budget: `width` atoms at once, `threads / width` kernel
        // threads each, so atoms × kernel-threads never oversubscribes it.
        let width = wave_width(self.ctx.execution.kernel_parallelism.threads, n);
        let exec = &self.ctx.execution.share_kernel_threads(width);
        let run =
            |i: usize| self.run_atom(plan, &plan.atoms[wave[i]], wave_idx, node_outputs, exec);
        type Slot = Option<std::result::Result<AtomRun, AtomError>>;
        let mut slots: Vec<Slot> = (0..n).map(|_| None).collect();

        if width <= 1 {
            // Inline: no threads, one atom after the other.
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.insert(run(i)).is_err() {
                    break;
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let cells: Vec<Mutex<Slot>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..width {
                    scope.spawn(|| loop {
                        if abort.load(Ordering::Relaxed) {
                            return;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return;
                        }
                        let outcome = run(i);
                        if outcome.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        *cells[i].lock() = Some(outcome);
                    });
                }
            });
            slots = cells.into_iter().map(|c| c.into_inner()).collect();
        }

        let mut runs = Vec::with_capacity(n);
        let mut failure = None;
        // Slots are in ascending atom id, and every atom below a started
        // one was started: the first error is the lowest-id failure.
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok(run)) => runs.push((wave[i], run)),
                Some(Err(e)) => {
                    failure = Some(e);
                    break;
                }
                None => break,
            }
        }
        WaveOutcome { runs, failure }
    }

    /// Gather one atom's inputs and run it with classified, bounded
    /// retries under the job deadline. `exec` is the job's execution
    /// context with this wave's share of the thread budget.
    fn run_atom(
        &self,
        plan: &ExecutionPlan,
        atom: &TaskAtom,
        wave: usize,
        node_outputs: &Mutex<HashMap<NodeId, Dataset>>,
        exec: &ExecutionContext,
    ) -> std::result::Result<AtomRun, AtomError> {
        let ctx = self.ctx;
        self.check_gates()?;
        // An open circuit breaker rejects the atom before any work: no
        // inputs gathered, no retry budget burned — straight to the
        // failover decision.
        if let Some(h) = &ctx.platform_health {
            if let Err(e) = h.admit(&atom.platform) {
                return Err(AtomError::gave_up(atom, e, 0, ctx.max_retries));
            }
        }

        // Gather boundary inputs and account for data movement.
        let platform = ctx.platforms.get(&atom.platform)?;
        let mut inputs: AtomInputs = HashMap::new();
        let mut records_in = 0u64;
        let mut movement_cost_ms = 0.0;
        {
            let store = node_outputs.lock();
            for edge in &atom.inputs {
                let data = store.get(&edge.producer).ok_or_else(|| {
                    RheemError::InvalidPlan(format!(
                        "atom {} needs output of node {} before it was produced",
                        atom.id, edge.producer
                    ))
                })?;
                records_in += data.len() as u64;
                let from = plan.assignments.get(edge.producer.0).ok_or_else(|| {
                    RheemError::InvalidPlan(format!(
                        "node {} has no platform assignment",
                        edge.producer
                    ))
                })?;
                if *from != atom.platform {
                    movement_cost_ms += ctx
                        .optimizer
                        .movement
                        .route(
                            &ctx.platforms.get(from)?.channels(),
                            &platform.channels(),
                            data.len() as f64,
                        )
                        .total_ms();
                }
                inputs.insert((edge.consumer, edge.slot), data.clone());
            }
        }

        // Execute with classified, bounded retries (§4.2 duty iii). The
        // job deadline is re-checked before every attempt so exhausting
        // retries cannot blow through the timeout budget. Only transient
        // errors consume retry budget: permanent errors would
        // deterministically fail again, so they abort after one attempt
        // with the unspent budget reported as suppressed retries.
        let backoff = ctx
            .fault_policy
            .map_or(BackoffPolicy::none(), |fp| fp.backoff);
        let atom_started = Instant::now();
        let mut attempts = 0usize;
        let result = loop {
            // Every failed attempt so far was followed by a retry.
            self.check_gates().map_err(|e| AtomError {
                retries: attempts,
                ..e.into()
            })?;
            attempts += 1;
            let injected = exec
                .failure_injector
                .as_ref()
                .and_then(|inj| inj.inject(&atom.platform, atom.id, attempts));
            let outcome = match injected {
                Some(kind) => Err(FailureInjector::error_for(kind, &atom.platform, atom.id)),
                None => run_guarded(platform.as_ref(), &plan.physical, atom, &inputs, exec),
            };
            match outcome {
                Ok(r) => {
                    if let Some(h) = &ctx.platform_health {
                        h.record_success(&atom.platform);
                    }
                    break r;
                }
                Err(e) => {
                    // Only errors that implicate the platform feed its
                    // breaker; a permanent error is the plan's fault.
                    let opened = e.is_retryable()
                        && ctx
                            .platform_health
                            .as_ref()
                            .is_some_and(|h| h.record_failure(&atom.platform));
                    let budget_left = ctx.max_retries.saturating_sub(attempts.saturating_sub(1));
                    if !e.is_retryable() || opened || budget_left == 0 {
                        // Budget actually spent on transient retries
                        // counts as used; anything left when a
                        // non-retryable error (or an opening breaker)
                        // ends the loop early was suppressed.
                        let suppressed = if e.is_retryable() && !opened {
                            0
                        } else {
                            budget_left
                        };
                        return Err(AtomError::gave_up(atom, e, attempts, suppressed));
                    }
                    // Clamp each nap to the remaining deadline budget so
                    // backoff can never sleep past the job deadline, and
                    // nap interruptibly when a cancel token is installed
                    // so cancellation cuts the backoff short.
                    let delay = backoff.delay(atom.id, attempts);
                    let nap = match self.deadline {
                        Some(d) => delay.min(d.saturating_duration_since(Instant::now())),
                        None => delay,
                    };
                    let sleeper = ctx.sleeper.as_deref().unwrap_or(&ThreadSleeper);
                    match &exec.cancel {
                        Some(token) => sleeper.sleep_cancellable(nap, token),
                        None => sleeper.sleep(nap),
                    }
                }
            }
        };

        Ok(AtomRun {
            stats: AtomStats {
                atom_id: atom.id,
                platform: atom.platform.clone(),
                wave,
                attempts,
                wall: atom_started.elapsed(),
                records_in,
                records_out: result.records_processed,
                simulated_overhead_ms: result.simulated_overhead_ms,
                simulated_elapsed_ms: result.simulated_elapsed_ms,
                movement_cost_ms,
                node_observations: result.node_observations,
            },
            outputs: result.outputs,
        })
    }

    /// The cancellation + deadline gate shared by wave boundaries and
    /// retry attempts. An expired deadline also trips the job's cancel
    /// token (reason [`CancelReason::DeadlineExceeded`]) so morsel loops
    /// inside in-flight sibling atoms stop promptly instead of running
    /// their fragments to completion.
    fn check_gates(&self) -> Result<()> {
        let exec = &self.ctx.execution;
        exec.check_cancelled()?;
        check_deadline(self.deadline).inspect_err(|_| {
            if let Some(token) = &exec.cancel {
                token.cancel(CancelReason::DeadlineExceeded);
            }
        })
    }
}

/// Fold one finished atom into the job state: record its stats, publish
/// its outputs, and release inputs it was the last consumer of.
fn commit_atom(
    atom: &TaskAtom,
    run: AtomRun,
    stats: &mut ExecutionStats,
    node_outputs: &Mutex<HashMap<NodeId, Dataset>>,
    remaining: &mut HashMap<NodeId, usize>,
    sinks: &HashSet<NodeId>,
) {
    stats.retries += run.stats.attempts.saturating_sub(1);
    stats.total_movement_ms += run.stats.movement_cost_ms;
    stats.atoms.push(run.stats);

    let mut store = node_outputs.lock();
    for (node, data) in run.outputs {
        store.insert(node, data);
    }
    // Reference-counted intermediate lifetime: a dataset dies with its
    // last boundary consumer unless it is a sink output.
    for edge in &atom.inputs {
        if let Some(n) = remaining.get_mut(&edge.producer) {
            *n = n.saturating_sub(1);
            if *n == 0 && !sinks.contains(&edge.producer) {
                store.remove(&edge.producer);
            }
        }
    }
}

/// Partition the atom DAG into scheduling waves (Kahn's algorithm), each
/// wave sorted by ascending atom id. Fails on a dependency cycle.
fn compute_waves(deps: &[Vec<usize>]) -> Result<Vec<Vec<usize>>> {
    let n = deps.len();
    let mut indegree: Vec<usize> = deps.iter().map(|d| d.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let mut current: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut waves = Vec::new();
    let mut scheduled = 0usize;
    while !current.is_empty() {
        current.sort_unstable();
        scheduled += current.len();
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dependents[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    next.push(j);
                }
            }
        }
        waves.push(std::mem::take(&mut current));
        current = next;
    }
    if scheduled != n {
        return Err(RheemError::InvalidPlan(format!(
            "atom dependency cycle: only {scheduled} of {n} atoms schedulable"
        )));
    }
    Ok(waves)
}

/// Run one atom invocation with panic isolation and the ambient cancel
/// scope installed for morsel-level checkpoints.
///
/// A panic anywhere below the platform boundary (typically a user UDF)
/// is caught and converted into [`RheemError::Panic`] — classified
/// [`ErrorKind::Permanent { panic: true }`](crate::ErrorKind) — so one
/// poisoned closure fails its job with a clean error instead of
/// unwinding through the wave scheduler and taking the worker thread
/// down. Platforms and UDFs are wrapped in `AssertUnwindSafe` under the
/// unwind-safety contract of `DESIGN.md` §14: a failed atom's inputs
/// and outputs are discarded wholesale and never re-observed, so
/// partially mutated state cannot leak.
fn run_guarded(
    platform: &dyn crate::platform::Platform,
    physical: &crate::plan::PhysicalPlan,
    atom: &TaskAtom,
    inputs: &AtomInputs,
    ctx: &ExecutionContext,
) -> Result<crate::platform::AtomResult> {
    let guarded = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            platform.execute_atom(physical, atom, inputs, ctx)
        }))
        .unwrap_or_else(|payload| {
            Err(RheemError::Panic {
                platform: atom.platform.clone(),
                message: panic_message(payload.as_ref()),
            })
        })
    };
    match &ctx.cancel {
        Some(token) => crate::kernels::parallel::with_cancel_scope(token, guarded),
        None => guarded(),
    }
}

/// Best-effort rendering of a caught panic payload (`&str` and `String`
/// payloads cover `panic!` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    if let Some(d) = deadline {
        if Instant::now() >= d {
            return Err(RheemError::BudgetExceeded(
                "job exceeded its wall-clock budget".into(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_linearize_chains_and_overlap_fanouts() {
        // 0 -> 1 -> 2 chain: three waves.
        let deps = vec![vec![], vec![0], vec![1]];
        assert_eq!(
            compute_waves(&deps).unwrap(),
            vec![vec![0], vec![1], vec![2]]
        );
        // Diamond: 0; {1, 2}; 3.
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        assert_eq!(
            compute_waves(&deps).unwrap(),
            vec![vec![0], vec![1, 2], vec![3]]
        );
        // Fully independent: one wave.
        let deps = vec![vec![], vec![], vec![]];
        assert_eq!(compute_waves(&deps).unwrap(), vec![vec![0, 1, 2]]);
        // Empty plan: no waves.
        assert!(compute_waves(&[]).unwrap().is_empty());
    }

    #[test]
    fn waves_reject_cycles() {
        let deps = vec![vec![1], vec![0]];
        assert!(matches!(
            compute_waves(&deps),
            Err(RheemError::InvalidPlan(_))
        ));
        // Partial cycle behind a valid prefix.
        let deps = vec![vec![], vec![0, 2], vec![1]];
        assert!(compute_waves(&deps).is_err());
    }

    #[test]
    fn deadline_is_a_hard_gate() {
        assert!(check_deadline(None).is_ok());
        let past = Instant::now();
        assert!(matches!(
            check_deadline(Some(past)),
            Err(RheemError::BudgetExceeded(_))
        ));
        let far = Instant::now().checked_add(Duration::from_secs(3600));
        assert!(check_deadline(far).is_ok());
    }

    #[test]
    fn wave_width_and_kernel_threads_split_one_budget() {
        use crate::KernelParallelism;
        // A 3-atom wave at budgets 1 / 2 / 8: width, then threads per atom.
        for (budget, width, per_atom) in [(1, 1, 1), (2, 2, 1), (8, 3, 2)] {
            assert_eq!(wave_width(budget, 3), width, "budget {budget}");
            let p = KernelParallelism::sequential().with_threads(budget);
            assert_eq!(p.share(width).threads, per_atom, "budget {budget}");
        }
    }
}
