//! Ablation G — adaptive mid-job re-optimization at wave boundaries.
//!
//! The paper's freedom argument cuts both ways: a cost-based optimizer is
//! only as good as its cardinality estimates, and those can be wildly off
//! *before* the job runs while being exactly known *during* it. This
//! experiment stages the failure mode: a flat-map whose declared fanout
//! hint is 500× reality makes the optimizer route the downstream sort to a
//! cluster engine whose high per-atom startup only amortizes over millions
//! of records. A [`rheem_core::ReplanPolicy`] lets the executor catch the
//! drift at the first wave boundary and flip the remaining atoms back to
//! the single-process engine mid-flight — same outputs, strictly lower
//! simulated cost.

use std::sync::Arc;
use std::time::Duration;

use rheem_core::udf::{FlatMapUdf, KeyUdf};
use rheem_core::{
    rec, AtomInputs, AtomResult, Clock, ExecutionContext, ExecutionPlan, MovementCostModel,
    PhysicalOp, PhysicalPlan, PlanBuilder, Platform, Record, ReplanPolicy, RheemContext, TaskAtom,
};
use rheem_platforms::{JavaPlatform, OverheadConfig, SparkLikePlatform};

/// A Spark-like engine re-clocked for this experiment: a stage costs next
/// to nothing (shuffles are what the cluster is for) and an atom costs a
/// hefty 60 ms startup that only pays off at scale — the profile that
/// makes sort-at-a-million-rows attractive and sort-at-two-thousand-rows a
/// blunder. It leaves record expansion (flat-maps) to the driver, so a
/// plan reaches it only past one. Execution is [`SparkLikePlatform`]'s,
/// under the same overheads, so the clock the optimizer prices with is the
/// one the engine charges.
pub struct ClusterPlatform {
    inner: SparkLikePlatform,
}

impl ClusterPlatform {
    /// An 8-worker cluster with deterministic (accounted, never slept)
    /// overheads.
    pub fn new() -> Self {
        ClusterPlatform {
            inner: SparkLikePlatform::new(8).with_overheads(OverheadConfig::accounted_only(
                Duration::from_millis(60),
                Duration::from_micros(500),
            )),
        }
    }
}

impl Default for ClusterPlatform {
    fn default() -> Self {
        ClusterPlatform::new()
    }
}

impl Platform for ClusterPlatform {
    fn name(&self) -> &str {
        "cluster"
    }
    fn supports(&self, op: &PhysicalOp) -> bool {
        !matches!(op, PhysicalOp::FlatMap(_)) && self.inner.supports(op)
    }
    fn clock(&self) -> Clock {
        self.inner.clock()
    }
    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> rheem_core::Result<AtomResult> {
        self.inner.execute_atom(plan, atom, inputs, ctx)
    }
}

/// The mis-estimated workload: `n` records through a flat-map that
/// *declares* a fanout of 500 (so the optimizer prices the sort at
/// `500·n` rows) but actually emits one record per input, then a sort by
/// a key closure (the row kernel) and a collect.
pub(crate) fn misestimated_plan(n: i64) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection(
        "events",
        (0..n).map(|i| rec![(i * 37) % 8_191, i]).collect(),
    );
    let expanded = b.flat_map(
        src,
        // The hint models a historic worst case that never materializes.
        FlatMapUdf::new("expand", |r| vec![r.clone()]).with_fanout(500.0),
    );
    let bucket = KeyUdf::new("bucket", |r: &Record| r.fields()[0].clone());
    let sorted = b.sort(expanded, bucket, false);
    b.collect(sorted);
    b.build().unwrap()
}

/// A context with the single-process engine, the `ClusterPlatform`, and
/// cheap per-record movement.
pub(crate) fn replanning_context() -> RheemContext {
    let mut ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(ClusterPlatform::new()));
    ctx.optimizer_mut().movement = MovementCostModel::new(0.0, 1e-5);
    ctx
}

/// What [`run_replanning_ablation`] measured.
pub struct ReplanningReport {
    /// Per-node platform assignments the optimizer chose up front.
    pub initial_assignments: Vec<String>,
    /// Per-node assignments the adaptive run actually executed under.
    pub effective_assignments: Vec<String>,
    /// Simulated cost of running the initial plan as-is (ms).
    pub static_simulated_ms: f64,
    /// Simulated cost with mid-job re-optimization enabled (ms).
    pub adaptive_simulated_ms: f64,
    /// Re-plans the adaptive run performed.
    pub replans: usize,
    /// Whether both runs produced identical sink outputs.
    pub outputs_identical: bool,
}

/// Optimize the workload once, then execute the *same* plan twice — once
/// as planned, once with an aggressive [`ReplanPolicy`] — and report the
/// mid-flight platform flip.
pub fn run_replanning_ablation(n: i64) -> ReplanningReport {
    let exec: ExecutionPlan = replanning_context().optimize(misestimated_plan(n)).unwrap();

    let static_run = replanning_context().execute_plan(&exec).unwrap();
    let adaptive_run = replanning_context()
        .with_replan_policy(ReplanPolicy {
            threshold: 2.0,
            max_replans: 2,
        })
        .execute_plan(&exec)
        .unwrap();

    let outputs = |r: &rheem_core::JobResult| -> Vec<Vec<Record>> {
        let mut out: Vec<(usize, Vec<Record>)> = r
            .outputs
            .iter()
            .map(|(n, d)| (n.0, d.records().to_vec()))
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out.into_iter().map(|(_, d)| d).collect()
    };

    ReplanningReport {
        initial_assignments: exec.assignments.clone(),
        effective_assignments: adaptive_run
            .effective_plan
            .as_ref()
            .map(|p| p.assignments.clone())
            .unwrap_or_else(|| exec.assignments.clone()),
        static_simulated_ms: static_run.stats.total_simulated_ms(),
        adaptive_simulated_ms: adaptive_run.stats.total_simulated_ms(),
        replans: adaptive_run.stats.replans.len(),
        outputs_identical: outputs(&static_run) == outputs(&adaptive_run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_optimizer_is_fooled_and_the_replan_recovers() {
        let report = run_replanning_ablation(2_000);
        assert!(
            report.initial_assignments.iter().any(|p| p == "cluster"),
            "the fanout lie should route the sort to the cluster: {:?}",
            report.initial_assignments
        );
        assert_eq!(report.replans, 1, "one wave boundary, one re-plan");
        assert!(
            report.effective_assignments.iter().all(|p| p == "java"),
            "the re-plan should bring the suffix home: {:?}",
            report.effective_assignments
        );
        assert!(
            report.adaptive_simulated_ms < report.static_simulated_ms,
            "adaptive must be strictly cheaper: {} vs {}",
            report.adaptive_simulated_ms,
            report.static_simulated_ms
        );
        assert!(
            report.outputs_identical,
            "re-planning must not change outputs"
        );
    }
}
