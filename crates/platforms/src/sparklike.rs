//! The Spark-like platform: partitioned batch execution with explicit
//! distribution overheads and simulated-parallel time accounting.
//!
//! This engine is the substitution for Apache Spark (see DESIGN.md). What
//! matters for every experiment in the paper is Spark's *cost structure*,
//! which this platform reproduces mechanically:
//!
//! * data lives in `workers` partitions; narrow operators (map, filter, ...)
//!   run as independent per-partition tasks;
//! * wide operators (group-by, joins, sort) first **shuffle** —
//!   repartition records by key hash — then run per partition, paying a
//!   per-stage scheduling overhead;
//! * every task atom pays a fixed **job-submission** overhead, and every
//!   loop iteration re-dispatches the body and pays a stage overhead —
//!   which is exactly why the paper's Figure 2 SVM "gap gets bigger with
//!   the number of iterations" on small data, while parallelism wins on
//!   big data.
//!
//! What this file holds is the engine's plumbing — task counts, the stage
//! charge, driver time spread over the workers. The execution operators
//! themselves (layout, exchange, per-partition kernel calls, time
//! accounting) are the shared `crate::runner`'s.

use std::sync::Arc;
use std::time::Duration;

use rheem_core::{
    AtomInputs, AtomResult, ExecutionContext, LinearCostModel, PhysicalOp, PhysicalPlan, Platform,
    PlatformCostModel, ProcessingProfile, Result, TaskAtom,
};

use crate::config::OverheadConfig;
use crate::runner::{self, BoundaryCharge, Engine, Parts};

/// Partitioned parallel (simulated) in-memory execution engine.
pub struct SparkLikePlatform {
    workers: usize,
    overheads: OverheadConfig,
    cost: Arc<LinearCostModel>,
    /// Platform-layer optimization (§4.3, Starfish-style tuning): when set,
    /// each stage launches `ceil(records / min_records_per_task)` tasks
    /// (capped at `workers`) instead of always `workers` — tiny inputs then
    /// avoid paying per-task dispatch for near-empty partitions.
    min_records_per_task: usize,
}

impl SparkLikePlatform {
    /// A platform with `workers` task slots and Spark-flavoured defaults:
    /// 25 ms job submission and 2 ms per stage (accounted, not slept —
    /// simulated time is the metric).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        SparkLikePlatform {
            workers,
            overheads: OverheadConfig::accounted_only(
                Duration::from_millis(25),
                Duration::from_millis(2),
            ),
            cost: Arc::new(LinearCostModel {
                // Slightly pricier per record than plain Java (serialization
                // and task dispatch), but divided across the workers.
                per_unit: 2e-4,
                speedup: workers as f64,
                startup: 100.0,
                shuffle_surcharge: 2e-4,
            }),
            min_records_per_task: 1,
        }
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }
}

impl Platform for SparkLikePlatform {
    fn name(&self) -> &str {
        "sparklike"
    }

    fn profile(&self) -> ProcessingProfile {
        ProcessingProfile::ParallelBatch
    }

    fn supports(&self, _op: &PhysicalOp) -> bool {
        true
    }

    fn cost_model(&self) -> Arc<dyn PlatformCostModel> {
        self.cost.clone()
    }

    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> Result<AtomResult> {
        runner::run_atom(self, self.name(), &self.overheads, plan, atom, inputs, ctx)
    }
}

impl Engine for SparkLikePlatform {
    fn workers(&self) -> usize {
        self.workers
    }

    /// Task count for a stage over `rows` inputs (§4.3 tuning).
    fn partitions_for(&self, rows: usize) -> usize {
        rows.div_ceil(self.min_records_per_task)
            .clamp(1, self.workers)
    }

    /// One stage-scheduling overhead per wide operator and per loop
    /// iteration; the data stays in memory.
    fn boundary(&self, _inputs: &mut [Parts]) -> Result<BoundaryCharge> {
        Ok(BoundaryCharge {
            overhead_ms: self.overheads.pay_stage(),
            io_ms: 0.0,
        })
    }

    /// Gathering and shuffle routing are distributed work in a real
    /// cluster, so the simulated charge is scaled by `1/workers`.
    fn driver_ms(&self, wall_ms: f64) -> f64 {
        wall_ms / self.workers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::udf::{FilterUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf};
    use rheem_core::{rec, Dataset, PlanBuilder, Record, RheemContext};

    fn spark() -> SparkLikePlatform {
        SparkLikePlatform::new(4).with_overheads(OverheadConfig::none())
    }

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(spark()))
    }

    fn sorted(mut v: Vec<Record>) -> Vec<Record> {
        v.sort();
        v
    }

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn loop_charges_stage_overhead_per_iteration() {
        let platform = SparkLikePlatform::new(2).with_overheads(OverheadConfig::accounted_only(
            Duration::from_millis(50),
            Duration::from_millis(3),
        ));
        let ctx = RheemContext::new().with_platform(Arc::new(platform));

        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("id", |r| r.clone()));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(20), 20);
        b.collect(l);
        let result = ctx.execute(b.build().unwrap()).unwrap();
        // 50 ms startup + 20 iterations × 3 ms.
        assert_eq!(
            result
                .stats
                .atoms
                .iter()
                .map(|a| a.simulated_overhead_ms)
                .sum::<f64>(),
            110.0
        );
        // Simulated elapsed includes overheads plus (tiny) measured work.
        let elapsed = result.stats.total_simulated_ms();
        assert!((110.0..250.0).contains(&elapsed), "elapsed {elapsed}");
    }

    #[test]
    fn simulated_elapsed_is_bounded_by_sequential_wall() {
        let ctx = ctx();
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(20_000));
        let m = b.map(
            src,
            MapUdf::new("spin", |r| {
                let mut acc = r.int(0).unwrap();
                for i in 0..50 {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                rec![acc]
            }),
        );
        b.collect(m);
        let result = ctx.execute(b.build().unwrap()).unwrap();
        let simulated = result.stats.total_simulated_ms();
        let wall = result.stats.total_wall.as_secs_f64() * 1e3;
        assert!(simulated > 0.0);
        // Balanced partitions: the critical path is ~wall/workers; it must
        // never exceed the sequential wall time.
        assert!(
            simulated <= wall,
            "simulated {simulated:.2} ms > sequential wall {wall:.2} ms"
        );
        assert!(
            simulated < wall * 0.7,
            "expected parallel speedup in simulated time: {simulated:.2} vs {wall:.2}"
        );
    }

    #[test]
    fn storage_round_trip_on_spark() {
        let storage = Arc::new(rheem_core::MemoryStorageService::new());
        use rheem_core::StorageService;
        storage.write("in", &Dataset::new(nums(50))).unwrap();
        let ctx = RheemContext::new()
            .with_platform(Arc::new(spark()))
            .with_storage(storage);
        let mut b = PlanBuilder::new();
        let src = b.storage_source("in");
        let m = b.map(src, MapUdf::new("x2", |r| rec![r.int(0).unwrap() * 2]));
        let sink = b.collect(m);
        let out = ctx.execute(b.build().unwrap()).unwrap();
        assert_eq!(out.outputs[&sink].len(), 50);
    }

    /// A declarative plan stays columnar from the source windows to the
    /// sink: every stage's tasks take the chunk kernels and hand chunks on.
    #[test]
    fn declarative_plans_run_columnar_tasks_end_to_end() {
        use rheem_core::udf::{AggFunc, Aggregate, GroupOutput};
        use rheem_core::Expr;
        let mut b = PlanBuilder::new();
        let l = b.collection("l", (0..400i64).map(|i| rec![i % 16, i]).collect());
        let r = b.collection("r", (0..16i64).map(|i| rec![i, i % 3]).collect());
        let kept = b.filter(
            l,
            FilterUdf::from_expr("big", Expr::field(1).ge(Expr::lit(100i64))),
        );
        let joined = b.hash_join(kept, r, KeyUdf::field(0), KeyUdf::field(0));
        let grouped = b.group_by(
            joined,
            KeyUdf::fields(vec![3]),
            GroupMapUdf::from_aggs(
                "sum",
                vec![
                    GroupOutput::First(3),
                    GroupOutput::Agg(Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Expr::field(1)),
                    }),
                ],
            ),
        );
        let sorted = b.sort(grouped, KeyUdf::field(1), true);
        let top = b.limit(sorted, 2);
        let sink = b.collect(top);
        let plan = b.build().unwrap();
        let reference = rheem_core::run_plan(&plan, &rheem_core::ExecutionContext::new()).unwrap();
        let result = ctx().execute(plan).unwrap();
        assert_eq!(result.outputs[&sink], reference[&sink]);
        assert!(result.outputs[&sink].has_chunk(), "the sink got a chunk");
        let row_path: Vec<&str> = result
            .stats
            .atoms
            .iter()
            .flat_map(|a| &a.node_observations)
            .filter(|o| !o.columnar)
            .map(|o| o.op.as_str())
            .collect();
        assert!(row_path.is_empty(), "row-path operators: {row_path:?}");
    }

    #[test]
    fn partitionable_custom_op_runs_per_partition() {
        use rheem_core::CustomPhysicalOp;
        struct PartDoubler;
        impl CustomPhysicalOp for PartDoubler {
            fn name(&self) -> &str {
                "PartDoubler"
            }
            fn arity(&self) -> usize {
                1
            }
            fn partitionable(&self) -> bool {
                true
            }
            fn execute(&self, inputs: &[Dataset]) -> rheem_core::Result<Dataset> {
                Ok(inputs[0]
                    .iter()
                    .map(|r| rec![r.int(0).unwrap() * 2])
                    .collect())
            }
        }
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(100));
        let c = b.custom(Arc::new(PartDoubler), vec![src]);
        let sink = b.collect(c);
        let result = ctx().execute(b.build().unwrap()).unwrap();
        assert_eq!(
            sorted(result.outputs[&sink].records().to_vec()),
            sorted((0..100i64).map(|i| rec![i * 2]).collect())
        );
    }
}

#[cfg(test)]
mod tuning_tests {
    use super::*;
    use rheem_core::{rec, CustomPhysicalOp, Dataset, PlanBuilder, RheemContext};
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl SparkLikePlatform {
        /// Enable the §4.3 platform-layer tuning: launch at most one task per
        /// `min` input records (still capped at the worker count).
        fn with_min_records_per_task(mut self, min: usize) -> Self {
            self.min_records_per_task = min.max(1);
            self
        }
    }

    /// A partitionable custom op that counts how many tasks executed it.
    struct TaskCounter(Arc<AtomicUsize>);
    impl CustomPhysicalOp for TaskCounter {
        fn name(&self) -> &str {
            "TaskCounter"
        }
        fn arity(&self) -> usize {
            1
        }
        fn partitionable(&self) -> bool {
            true
        }
        fn execute(&self, inputs: &[Dataset]) -> Result<Dataset> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(inputs[0].clone())
        }
    }

    fn count_tasks(platform: SparkLikePlatform, records: i64) -> usize {
        let counter = Arc::new(AtomicUsize::new(0));
        let ctx = RheemContext::new().with_platform(Arc::new(platform));
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..records).map(|i| rec![i]).collect());
        let c = b.custom(Arc::new(TaskCounter(counter.clone())), vec![src]);
        b.collect(c);
        ctx.execute(b.build().unwrap()).unwrap();
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn adaptive_task_sizing_reduces_tasks_on_tiny_inputs() {
        let untuned = SparkLikePlatform::new(4).with_overheads(OverheadConfig::none());
        assert_eq!(count_tasks(untuned, 100), 4);

        let tuned = SparkLikePlatform::new(4)
            .with_overheads(OverheadConfig::none())
            .with_min_records_per_task(1_000);
        assert_eq!(count_tasks(tuned, 100), 1, "100 records fit one task");

        let tuned = SparkLikePlatform::new(4)
            .with_overheads(OverheadConfig::none())
            .with_min_records_per_task(1_000);
        assert_eq!(count_tasks(tuned, 2_500), 3, "2500 records need 3 tasks");

        // Big inputs still use every worker.
        let tuned = SparkLikePlatform::new(4)
            .with_overheads(OverheadConfig::none())
            .with_min_records_per_task(1_000);
        assert_eq!(count_tasks(tuned, 100_000), 4);
    }
}
