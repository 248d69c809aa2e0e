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
//! What this file holds is the engine's clock — task slots, the stage
//! charge, driver time spread over the workers. The execution operators
//! themselves (layout, exchange, per-partition kernel calls, time
//! accounting) are the shared `crate::runner`'s.

use std::time::Duration;

use rheem_core::{
    AtomInputs, AtomResult, ChannelKind, ChannelSet, Clock, Exchange, ExecutionContext, PhysicalOp,
    PhysicalPlan, Platform, Result, TaskAtom,
};

use crate::config::OverheadConfig;
use crate::runner::{self, Engine};

/// Partitioned parallel (simulated) in-memory execution engine.
pub struct SparkLikePlatform {
    workers: usize,
    overheads: OverheadConfig,
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

    fn supports(&self, _op: &PhysicalOp) -> bool {
        true
    }

    /// One task per row up to the worker count, one stage charge per wide
    /// operator and per loop iteration, and driver-side work (gathering,
    /// shuffle routing) spread over the workers, as in a real cluster;
    /// boundaries in memory or streamed between running stages.
    fn clock(&self) -> Clock {
        Clock {
            startup_ms: self.overheads.startup_ms(),
            stage_ms: self.overheads.stage_ms(),
            workers: self.workers,
            driver_share: 1.0 / self.workers as f64,
            efficiency: 1.0,
            exchange: Exchange::Memory,
            channels: ChannelSet::of(&[ChannelKind::Memory, ChannelKind::Stream]),
        }
    }

    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> Result<AtomResult> {
        runner::run_atom(self, &self.overheads, plan, atom, inputs, ctx)
    }
}

impl Engine for SparkLikePlatform {}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::udf::{FilterUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf};
    use rheem_core::{rec, Dataset, PlanBuilder, Record, RheemContext};
    use std::sync::Arc;

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
