//! Ablation F — cost-model calibration (the observability feedback loop).
//!
//! The optimizer is only as good as its cost models, and the paper's §8
//! lists "zero-knowledge" cost learning among the open challenges. This
//! experiment demonstrates the simplest closed loop: a platform whose
//! cost model *lies* (it claims to be nearly free) initially wins every
//! node, one observed run folds real per-operator runtimes into the
//! [`rheem_core::CostCalibration`] table, and the very next
//! optimization pass flips the plan to the genuinely cheaper platform.

use std::sync::Arc;
use std::time::Duration;

use rheem_core::udf::{KeyUdf, ReduceUdf};
use rheem_core::{
    rec, LinearCostModel, Observability, PhysicalPlan, PlanBuilder, Record, RheemContext,
};
use rheem_platforms::{JavaPlatform, MapReduceLikePlatform, OverheadConfig};

/// What [`run_calibration_flip`] measured across the two optimize+execute
/// rounds.
pub struct CalibrationFlipReport {
    /// Per-node platform assignments of the first (uncalibrated) plan.
    pub first_assignments: Vec<String>,
    /// Per-node platform assignments of the second (calibrated) plan.
    pub second_assignments: Vec<String>,
    /// Total observed simulated time of the first run (ms).
    pub first_observed_ms: f64,
    /// Total observed simulated time of the second run (ms).
    pub second_observed_ms: f64,
    /// `explain --observed` view of the first run: estimated vs observed
    /// cost and cardinality per atom, with error ratios.
    pub first_explain_observed: String,
    /// Same view for the second (calibrated) run.
    pub second_explain_observed: String,
    /// `(operator, platform)` pairs the calibration table learned.
    pub calibration_pairs: usize,
}

/// The aggregation workload: `group by key, sum` over `n` `[key, value]`
/// records with 64 distinct keys — a shuffle-heavy shape whose real cost
/// on the disk-phased engine is dominated by overheads its lying cost
/// model does not admit to.
pub fn flip_plan(n: usize) -> PhysicalPlan {
    let data: Vec<Record> = (0..n as i64).map(|i| rec![i % 64, i]).collect();
    let mut b = PlanBuilder::new();
    let src = b.collection("pairs", data);
    let red = b.reduce_by_key(
        src,
        KeyUdf::field(0).with_distinct_keys(64.0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    b.collect(red);
    b.build().unwrap()
}

/// A context where the MapReduce-like engine's cost model claims near-zero
/// prices while its execution charges real (accounted) startup and phase
/// overheads — the mismatch calibration exists to correct.
pub fn flip_context() -> (RheemContext, Arc<Observability>) {
    let observe = Arc::new(Observability::new());
    let liar = MapReduceLikePlatform::new(4)
        .with_overheads(OverheadConfig::accounted_only(
            Duration::from_millis(30),
            Duration::from_millis(10),
        ))
        .with_spill_dir(std::env::temp_dir().join(format!("rheem_cal_{}", std::process::id())))
        .with_cost_model(LinearCostModel {
            per_unit: 1e-6, // claims ~100× cheaper than it is
            speedup: 1.0,
            startup: 0.0, // claims free job setup; reality charges 30 ms
            shuffle_surcharge: 0.0,
        });
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(liar))
        .with_observability(observe.clone());
    (ctx, observe)
}

/// Optimize + execute the workload twice on [`flip_context`] and report
/// how the plan changed once the calibration table saw real runtimes.
pub fn run_calibration_flip(n: usize) -> CalibrationFlipReport {
    let (ctx, observe) = flip_context();

    let first_plan = ctx.optimize(flip_plan(n)).unwrap();
    let first = ctx.execute_plan(&first_plan).unwrap();
    let second_plan = ctx.optimize(flip_plan(n)).unwrap();
    let second = ctx.execute_plan(&second_plan).unwrap();

    CalibrationFlipReport {
        first_assignments: first_plan.assignments.clone(),
        second_assignments: second_plan.assignments.clone(),
        first_observed_ms: first.stats.total_simulated_ms(),
        second_observed_ms: second.stats.total_simulated_ms(),
        first_explain_observed: first_plan.explain_observed(&first.stats),
        second_explain_observed: second_plan.explain_observed(&second.stats),
        calibration_pairs: observe.calibration().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_calibrated_run_flips_the_plan() {
        let report = run_calibration_flip(20_000);
        assert!(
            report.first_assignments.iter().all(|p| p == "mapreduce"),
            "the lying cost model should win every node at first: {:?}",
            report.first_assignments
        );
        assert!(
            report.second_assignments.iter().all(|p| p == "java"),
            "calibration should flip the whole plan to java: {:?}",
            report.second_assignments
        );
        assert!(
            report.second_observed_ms < report.first_observed_ms,
            "the calibrated plan must actually be cheaper: {} vs {}",
            report.second_observed_ms,
            report.first_observed_ms
        );
        assert!(report.calibration_pairs >= 3, "source, reduce, and sink");
        // The observed view carries per-atom error ratios for both runs.
        assert!(report.first_explain_observed.contains("ms_ratio"));
        assert!(report.first_explain_observed.contains('x'));
        assert!(!report.second_explain_observed.contains("mapreduce"));
    }
}
