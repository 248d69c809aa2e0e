//! Ablation H — failover re-planning around a platform outage.
//!
//! The robustness counterpart of the [`crate::replanning`] experiment: the
//! optimizer legitimately routes the expensive suffix of a job to the
//! cluster engine, but the cluster is down — every atom targeting it fails
//! on every attempt. A rigid configuration (failover disabled) dies with
//! the execution error once the retry budget is spent. With failover
//! enabled, the executor commits the java prefix as usual, observes the
//! outage mid-job when the cluster atom's wave runs, re-enumerates the
//! unexecuted suffix with the cluster excluded, and finishes on the
//! single-process engine — with outputs identical to a fault-free run and
//! without re-executing anything already committed.

use std::sync::Arc;

use rheem_core::data::Record;
use rheem_core::{FailureInjector, FaultPolicy, JobResult, KernelParallelism, RheemContext};

use crate::replanning::{misestimated_plan, replanning_context};

/// What [`run_failover_ablation`] measured.
pub struct FailoverReport {
    /// Per-node platform assignments the optimizer chose up front.
    pub initial_assignments: Vec<String>,
    /// Per-node assignments the surviving run actually executed under.
    pub effective_assignments: Vec<String>,
    /// Failover re-plans the surviving run performed.
    pub failovers: usize,
    /// Committed atoms that were re-executed by a failover — the contract
    /// is that this is always zero (failover only replaces pending work).
    pub recommitted_atoms: usize,
    /// Whether the rigid (failover-disabled) run failed outright.
    pub rigid_run_failed: bool,
    /// Whether the surviving run's outputs match the fault-free run's.
    pub outputs_identical: bool,
}

fn outputs(r: &JobResult) -> Vec<Vec<Record>> {
    let mut out: Vec<(usize, Vec<Record>)> = r
        .outputs
        .iter()
        .map(|(n, d)| (n.0, d.records().to_vec()))
        .collect();
    out.sort_by_key(|(n, _)| *n);
    out.into_iter().map(|(_, d)| d).collect()
}

/// The replanning context under a thread budget of `threads`.
fn failover_context(threads: usize) -> RheemContext {
    replanning_context()
        .with_kernel_parallelism(KernelParallelism::sequential().with_threads(threads))
}

/// Optimize the workload once, then: (a) run it fault-free for reference
/// outputs, (b) run it against a permanently-down cluster with failover
/// disabled (must fail), and (c) run it against the same outage with
/// failover enabled (must finish on the fallback platform) — all under a
/// thread budget of `threads`.
pub fn run_failover_ablation(n: i64, threads: usize) -> FailoverReport {
    let exec = replanning_context().optimize(misestimated_plan(n)).unwrap();
    let baseline = failover_context(threads).execute_plan(&exec).unwrap();

    // Failover disabled: the outage is fatal once retries are exhausted.
    let rigid = failover_context(threads)
        .with_max_retries(1)
        .with_fault_policy(FaultPolicy {
            failover: false,
            ..FaultPolicy::instant()
        })
        .with_failure_injector(Arc::new(FailureInjector::platform_down("cluster")))
        .execute_plan(&exec);

    // Failover enabled: same outage, job must survive on the fallback.
    let adaptive = failover_context(threads)
        .with_max_retries(1)
        .with_fault_policy(FaultPolicy::instant())
        .with_failure_injector(Arc::new(FailureInjector::platform_down("cluster")))
        .execute_plan(&exec)
        .unwrap();

    let mut ids: Vec<usize> = adaptive.stats.atoms.iter().map(|a| a.atom_id).collect();
    ids.sort_unstable();
    let recommitted = ids.windows(2).filter(|w| w[0] == w[1]).count();

    FailoverReport {
        initial_assignments: exec.assignments.clone(),
        effective_assignments: adaptive
            .effective_plan
            .as_ref()
            .map(|p| p.assignments.clone())
            .unwrap_or_else(|| exec.assignments.clone()),
        failovers: adaptive.stats.failovers.len(),
        recommitted_atoms: recommitted,
        rigid_run_failed: rigid.is_err(),
        outputs_identical: outputs(&adaptive) == outputs(&baseline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_survives_a_cluster_outage_at_both_budgets() {
        for threads in [1, 4] {
            let report = run_failover_ablation(2_000, threads);
            assert!(
                report.initial_assignments.iter().any(|p| p == "cluster"),
                "budget {threads}: the optimizer should route the sort to the cluster: {:?}",
                report.initial_assignments
            );
            assert!(
                report.rigid_run_failed,
                "budget {threads}: without failover the outage must be fatal"
            );
            assert!(
                report.failovers >= 1,
                "budget {threads}: at least one failover"
            );
            assert_eq!(
                report.recommitted_atoms, 0,
                "budget {threads}: failover must never re-execute committed atoms"
            );
            assert!(
                report.effective_assignments.iter().all(|p| p != "cluster"),
                "budget {threads}: the effective plan must avoid the downed platform: {:?}",
                report.effective_assignments
            );
            assert!(
                report.outputs_identical,
                "budget {threads}: failover must not change outputs"
            );
        }
    }
}
