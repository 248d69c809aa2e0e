//! The Spark-like platform: partitioned batch execution with explicit
//! distribution overheads and simulated-parallel time accounting.
//!
//! This engine is the substitution for Apache Spark (see DESIGN.md). What
//! matters for every experiment in the paper is Spark's *cost structure*,
//! which this platform reproduces mechanically:
//!
//! * data lives in `workers` partitions; narrow operators (map, filter, ...)
//!   run as independent per-partition tasks;
//! * wide operators (group-by, joins, distinct, sort) first **shuffle** —
//!   repartition records by key hash — then run per partition, paying a
//!   per-stage scheduling overhead;
//! * every task atom pays a fixed **job-submission** overhead, and every
//!   loop iteration re-dispatches the body and pays a stage overhead —
//!   which is exactly why the paper's Figure 2 SVM "gap gets bigger with
//!   the number of iterations" on small data, while parallelism wins on
//!   big data.
//!
//! **Time accounting.** Each per-partition task is timed individually and
//! the platform charges the *critical path* — `max` across the stage's
//! tasks — into [`AtomResult::simulated_elapsed_ms`], plus all overheads,
//! plus driver-side shuffle plumbing scaled by `1/workers` (it is
//! distributed work in a real cluster). Tasks execute sequentially so the
//! per-task measurements are exact even on single-core hosts; the figures
//! in the paper are reproduced on *simulated* elapsed time, which is
//! deterministic and host-independent (see DESIGN.md's substitution table).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rheem_core::cost::{LinearCostModel, PlatformCostModel};
use rheem_core::data::{Dataset, Record};
use rheem_core::error::{Result, RheemError};
use rheem_core::kernels;
use rheem_core::physical::PhysicalOp;
use rheem_core::plan::{NodeId, PhysicalPlan, TaskAtom};
use rheem_core::platform::{AtomInputs, AtomResult, ExecutionContext, Platform, ProcessingProfile};
use rheem_core::rec;

use crate::config::OverheadConfig;
use crate::partition::{
    columnar_or_rows, concat, hash_partition_records, offsets, partition_by_key,
    run_partitions_timed, split,
};

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
                hash_engine_speedup: 1.0,
            }),
            min_records_per_task: 1,
        }
    }

    /// Enable the §4.3 platform-layer tuning: launch at most one task per
    /// `min` input records (still capped at the worker count).
    pub fn with_min_records_per_task(mut self, min: usize) -> Self {
        self.min_records_per_task = min.max(1);
        self
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: LinearCostModel) -> Self {
        self.cost = Arc::new(cost);
        self
    }

    /// The number of task slots.
    pub fn workers(&self) -> usize {
        self.workers
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
        let startup = self.overheads.pay_startup();
        let mut run = SparkRun {
            workers: self.workers,
            min_records_per_task: self.min_records_per_task,
            overheads: &self.overheads,
            ctx,
            overhead_ms: startup,
            elapsed_ms: startup,
            records_processed: 0,
            observations: Vec::new(),
            took_columnar: false,
        };
        // Channel-aware boundary ingest: datasets arriving on a non-memory
        // channel (the optimizer's chosen conversion route) pay a simulated
        // materialization cost before any task reads them.
        for bi in &atom.inputs {
            if let Some(d) = inputs.get(&(bi.consumer, bi.slot)) {
                let ms = self.overheads.channel_ingest_ms(bi.channel, d.len());
                run.overhead_ms += ms;
                run.elapsed_ms += ms;
            }
        }
        let mut outputs_parts =
            run.run_nodes(plan, &atom.nodes, Some(inputs), None, &atom.outputs)?;
        let mut outputs = HashMap::new();
        for n in &atom.outputs {
            let parts = outputs_parts
                .remove(n)
                .ok_or_else(|| RheemError::Execution {
                    platform: "sparklike".into(),
                    message: format!("atom output node {n} was not produced"),
                })?;
            outputs.insert(*n, concat(parts));
        }
        Ok(AtomResult {
            outputs,
            records_processed: run.records_processed,
            simulated_overhead_ms: run.overhead_ms,
            simulated_elapsed_ms: run.elapsed_ms,
            node_observations: run.observations,
        })
    }
}

/// A dataset in flight inside an atom: one [`Dataset`] per partition. A
/// partition is a lazy window of a source, a chunk a columnar task
/// produced, or the rows a row task produced — whichever it is, the next
/// task asks it for the view it needs.
type Parts = Vec<Dataset>;

/// One atom execution in flight.
struct SparkRun<'a> {
    workers: usize,
    min_records_per_task: usize,
    overheads: &'a OverheadConfig,
    ctx: &'a ExecutionContext,
    /// Charged fixed overheads (job startup, stage scheduling).
    overhead_ms: f64,
    /// Simulated elapsed time: overheads + critical path of every stage.
    elapsed_ms: f64,
    records_processed: u64,
    /// Per-kernel observations (top-level nodes only; loop bodies are
    /// charged to their `Loop` node).
    observations: Vec<rheem_core::observe::NodeObservation>,
    /// Whether the operator being executed ran its tasks on the columnar
    /// kernels (reset per node, reported on its observation).
    took_columnar: bool,
}

impl SparkRun<'_> {
    /// Task count for a stage over `records` inputs (§4.3 tuning).
    fn partitions_for(&self, records: usize) -> usize {
        records
            .div_ceil(self.min_records_per_task)
            .clamp(1, self.workers)
    }

    /// Charge one stage-scheduling overhead.
    fn stage(&mut self) {
        let ms = self.overheads.pay_stage();
        self.overhead_ms += ms;
        self.elapsed_ms += ms;
    }

    /// Run a stage's tasks, charging the per-partition critical path. Each
    /// task runs `op`'s columnar kernel on its partition where it has one
    /// ([`columnar_or_rows`], the entry shared with the interpreter) and
    /// `rows` on the partition's rows otherwise. `side[i]`, when given, is
    /// task `i`'s second input.
    fn tasks<F>(
        &mut self,
        op: &PhysicalOp,
        parts: Parts,
        side: Option<&Parts>,
        rows: F,
    ) -> Result<Parts>
    where
        F: Fn(usize, Vec<Record>) -> Result<Vec<Record>> + Send + Sync,
    {
        let took = AtomicBool::new(false);
        let (out, max_ms) = run_partitions_timed(parts, |i, p| {
            let side = side.map(|side| &side[i]);
            let (out, columnar) = columnar_or_rows(op, p, side, |p| rows(i, p))?;
            took.fetch_or(columnar, Ordering::Relaxed);
            Ok(out)
        })?;
        self.elapsed_ms += max_ms;
        self.took_columnar = took.into_inner();
        Ok(out)
    }

    /// Time driver/shuffle plumbing; distributed in a real cluster, so the
    /// simulated charge is scaled by `1/workers`.
    fn plumbing<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.elapsed_ms += t.elapsed().as_secs_f64() * 1e3 / self.workers as f64;
        out
    }

    /// Time work that is genuinely serial (a single gathered task).
    fn serial<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.elapsed_ms += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    /// Execute `nodes` of `plan` over partitioned intermediates.
    ///
    /// `keep` lists nodes whose partitions the caller reads from the
    /// returned map (atom outputs, the loop terminal); everything else is
    /// *moved* into its last consumer, so its rows can be too.
    fn run_nodes(
        &mut self,
        plan: &PhysicalPlan,
        nodes: &[NodeId],
        boundary: Option<&AtomInputs>,
        loop_state: Option<&Parts>,
        keep: &[NodeId],
    ) -> Result<HashMap<NodeId, Parts>> {
        // Count in-fragment consumers so each intermediate's partitions
        // can be moved (not shared) into the consumer that uses them last.
        let mut remaining: HashMap<NodeId, usize> = HashMap::new();
        for &id in nodes {
            for producer in &plan.node(id).inputs {
                *remaining.entry(*producer).or_insert(0) += 1;
            }
        }
        let mut results: HashMap<NodeId, Parts> = HashMap::new();
        for &id in nodes {
            // Cancellation checkpoint between stages: a cancelled job
            // stops without dispatching the next stage's tasks.
            self.ctx.check_cancelled()?;
            let node = plan.node(id);
            let mut inputs: Vec<Parts> = Vec::with_capacity(node.inputs.len());
            for (slot, producer) in node.inputs.iter().enumerate() {
                let parts = if results.contains_key(producer) {
                    let uses = remaining.get_mut(producer).expect("consumers counted");
                    *uses -= 1;
                    if *uses == 0 && !keep.contains(producer) {
                        results.remove(producer).expect("present")
                    } else {
                        results[producer].clone()
                    }
                } else if let Some(d) = boundary.and_then(|b| b.get(&(id, slot))) {
                    split(d, self.partitions_for(d.len()))
                } else {
                    return Err(RheemError::InvalidPlan(format!(
                        "node {id} input slot {slot} is not available"
                    )));
                };
                inputs.push(parts);
            }
            let before_ms = self.elapsed_ms;
            self.took_columnar = false;
            let out = self.exec_op(&node.op, inputs, loop_state)?;
            let out_records = out.iter().map(|p| p.len() as u64).sum::<u64>();
            self.records_processed += out_records;
            // Observe only top-level nodes: loop-body node ids belong to the
            // body fragment and whole-loop time lands on the Loop node.
            if boundary.is_some() {
                self.observations
                    .push(rheem_core::observe::NodeObservation {
                        node: id,
                        op: node.op.name(),
                        records_out: out_records,
                        elapsed_ms: self.elapsed_ms - before_ms,
                        // Partitions are this platform's parallel unit;
                        // per-partition kernels stay sequential.
                        morsels: 1,
                        columnar: self.took_columnar,
                    });
            }
            results.insert(id, out);
        }
        Ok(results)
    }

    fn exec_op(
        &mut self,
        op: &PhysicalOp,
        mut inputs: Vec<Parts>,
        loop_state: Option<&Parts>,
    ) -> Result<Parts> {
        let workers = self.workers;
        let out = match op {
            // ------------------------------------------------------- sources
            // Sources and sinks only hand partitions along: windows of the
            // source dataset, materialized by whoever reads them.
            PhysicalOp::CollectionSource { data, .. } => {
                self.took_columnar = true;
                split(data, self.partitions_for(data.len()))
            }
            PhysicalOp::StorageSource { dataset_id } => {
                let data = self.ctx.storage()?.read(dataset_id)?;
                split(&data, self.partitions_for(data.len()))
            }
            PhysicalOp::LoopInput => loop_state
                .cloned()
                .ok_or_else(|| RheemError::InvalidPlan("LoopInput outside a loop body".into()))?,

            // -------------------------------------------------- narrow (1:1)
            PhysicalOp::Map(u) => {
                self.tasks(op, std::mem::take(&mut inputs[0]), None, |_, p| {
                    Ok(kernels::map(&p, u))
                })?
            }
            PhysicalOp::FlatMap(u) => {
                self.tasks(op, std::mem::take(&mut inputs[0]), None, |_, p| {
                    Ok(kernels::flat_map(&p, u))
                })?
            }
            // Tasks own their partition's rows, so surviving records are
            // retained in place instead of cloned.
            PhysicalOp::Filter(u) => {
                self.tasks(op, std::mem::take(&mut inputs[0]), None, |_, p| {
                    Ok(kernels::filter_owned(p, u))
                })?
            }
            PhysicalOp::Project { indices } => {
                self.tasks(op, std::mem::take(&mut inputs[0]), None, |_, p| {
                    kernels::project(&p, indices)
                })?
            }
            // A partition without a columnar view takes the row reference.
            PhysicalOp::ChunkPipeline { stages } => {
                self.tasks(op, std::mem::take(&mut inputs[0]), None, |_, p| {
                    kernels::chunked::run_stages_rows(&p, stages)
                })?
            }
            PhysicalOp::Sample { fraction, seed } => {
                let parts = std::mem::take(&mut inputs[0]);
                let offs = offsets(&parts);
                self.tasks(op, parts, None, |i, p| {
                    kernels::sample(&p, *fraction, *seed, offs[i] as u64)
                })?
            }
            PhysicalOp::ZipWithId => {
                let parts = std::mem::take(&mut inputs[0]);
                let offs = offsets(&parts);
                self.tasks(op, parts, None, |i, p| {
                    kernels::zip_with_id(&p, offs[i] as i64)
                })?
            }
            // Partitions are in order, so a prefix is a prefix of them:
            // whole partitions, then a window of the one that crosses `n`.
            PhysicalOp::Limit { n } => {
                self.took_columnar = true;
                let mut wanted = *n;
                let mut out = Vec::new();
                for p in std::mem::take(&mut inputs[0]) {
                    if wanted == 0 {
                        break;
                    }
                    let take = wanted.min(p.len());
                    out.push(if take == p.len() { p } else { p.slice(0, take) });
                    wanted -= take;
                }
                out
            }

            // ------------------------------------------------- wide (shuffle)
            PhysicalOp::SortGroupBy { key, group } | PhysicalOp::HashGroupBy { key, group } => {
                self.stage();
                let sort_based = matches!(op, PhysicalOp::SortGroupBy { .. });
                let input = std::mem::take(&mut inputs[0]);
                let gathered = self.plumbing(|| concat(input));
                // A key over no fields is one global group: it must stay
                // in one task, which emits its one row even over no input.
                let n_parts = match key.fields.as_deref() {
                    Some([]) => 1,
                    _ => self.partitions_for(gathered.len()),
                };
                let parts = self.plumbing(|| partition_by_key(&gathered, key, n_parts));
                self.tasks(op, parts, None, |_, p| {
                    let groups = if sort_based {
                        kernels::sort_group(&p, key)
                    } else {
                        kernels::hash_group(&p, key)
                    };
                    Ok(kernels::apply_group_map(&groups, group))
                })?
            }
            PhysicalOp::ReduceByKey { key, reduce } => {
                // Map-side combine first (the classic Spark optimization),
                // then shuffle the partial aggregates.
                let combine = |_, p: Vec<Record>| Ok(kernels::reduce_by_key(&p, key, reduce));
                let local = self.tasks(op, std::mem::take(&mut inputs[0]), None, combine)?;
                self.stage();
                let gathered = self.plumbing(|| concat(local));
                let n_parts = self.partitions_for(gathered.len());
                let parts = self.plumbing(|| partition_by_key(&gathered, key, n_parts));
                self.tasks(op, parts, None, combine)?
            }
            PhysicalOp::GlobalReduce { reduce } => {
                let local = self.tasks(op, std::mem::take(&mut inputs[0]), None, |_, p| {
                    Ok(kernels::global_reduce(&p, reduce))
                })?;
                self.stage();
                let reduced =
                    self.serial(|| kernels::global_reduce(concat(local).records(), reduce));
                vec![Dataset::new(reduced)]
            }
            PhysicalOp::Sort { key, descending } => {
                // Simplification documented in DESIGN.md: a range-partitioned
                // distributed sort is modeled as gather + sort + re-split;
                // the cost model prices it as a shuffle either way.
                self.stage();
                let input = std::mem::take(&mut inputs[0]);
                let (sorted, columnar) = self.plumbing(|| {
                    columnar_or_rows(op, concat(input), None, |p| {
                        Ok(kernels::sort(&p, key, *descending))
                    })
                })?;
                self.took_columnar = columnar;
                split(&sorted, workers)
            }
            PhysicalOp::Distinct => {
                self.stage();
                let input = std::mem::take(&mut inputs[0]);
                let gathered = self.plumbing(|| concat(input));
                let n_parts = self.partitions_for(gathered.len());
                let parts = self.plumbing(|| {
                    hash_partition_records(gathered.records(), n_parts)
                        .into_iter()
                        .map(Dataset::new)
                        .collect()
                });
                self.tasks(op, parts, None, |_, p| Ok(kernels::distinct(&p)))?
            }

            // ----------------------------------------------------- binary ops
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            }
            | PhysicalOp::SortMergeJoin {
                left_key,
                right_key,
            } => {
                self.stage();
                let sort_based = matches!(op, PhysicalOp::SortMergeJoin { .. });
                let mut it = inputs.drain(..);
                let (l_in, r_in) = (it.next().expect("arity"), it.next().expect("arity"));
                drop(it);
                let l = self.plumbing(|| partition_by_key(&concat(l_in), left_key, workers));
                let r = self.plumbing(|| partition_by_key(&concat(r_in), right_key, workers));
                // Co-partitioned join: pair up the partition indexes.
                self.tasks(op, l, Some(&r), |i, lp| {
                    let rp = r[i].records();
                    Ok(if sort_based {
                        kernels::sort_merge_join(&lp, rp, left_key, right_key)
                    } else {
                        kernels::hash_join(&lp, rp, left_key, right_key)
                    })
                })?
            }
            PhysicalOp::NestedLoopJoin { predicate, .. } => {
                self.stage();
                let mut it = inputs.drain(..);
                let l = it.next().expect("arity");
                // Broadcast the (gathered) right side to every partition.
                let r_in = it.next().expect("arity");
                drop(it);
                let r = self.plumbing(|| concat(r_in));
                self.tasks(op, l, None, |_, lp| {
                    Ok(kernels::nested_loop_join(&lp, r.records(), predicate))
                })?
            }
            PhysicalOp::CrossProduct => {
                self.stage();
                let mut it = inputs.drain(..);
                let l = it.next().expect("arity");
                let r_in = it.next().expect("arity");
                drop(it);
                let r = self.plumbing(|| concat(r_in));
                self.tasks(op, l, None, |_, lp| {
                    Ok(kernels::cross_product(&lp, r.records()))
                })?
            }
            PhysicalOp::Union => {
                let mut it = inputs.drain(..);
                let mut parts = it.next().expect("arity");
                parts.extend(it.next().expect("arity"));
                drop(it);
                if parts.len() > workers {
                    self.plumbing(|| split(&concat(parts), workers))
                } else {
                    parts
                }
            }

            // --------------------------------------------------------- control
            PhysicalOp::Loop {
                body,
                condition,
                max_iterations,
                ..
            } => {
                let mut state = std::mem::take(&mut inputs[0]);
                let body_nodes: Vec<NodeId> = body.nodes().iter().map(|n| n.id).collect();
                let terminal = *body
                    .terminals()
                    .first()
                    .ok_or_else(|| RheemError::InvalidPlan("loop body has no terminal".into()))?;
                let mut iteration = 0u64;
                loop {
                    // The continuation test sees the gathered state (a
                    // driver-side action in Spark terms).
                    let gathered = self.plumbing(|| concat(state.clone()));
                    if iteration >= *max_iterations || !(condition.f)(iteration, gathered.records())
                    {
                        break;
                    }
                    // Each iteration is a re-dispatched job stage.
                    self.stage();
                    let mut outs =
                        self.run_nodes(body, &body_nodes, None, Some(&state), &[terminal])?;
                    state = outs.remove(&terminal).ok_or_else(|| {
                        RheemError::InvalidPlan("loop body terminal missing".into())
                    })?;
                    iteration += 1;
                }
                state
            }

            PhysicalOp::Custom(c) => {
                if c.partitionable() && c.arity() == 1 {
                    let (out, max_ms) =
                        run_partitions_timed(std::mem::take(&mut inputs[0]), |_, p| {
                            c.execute(&[p])
                        })?;
                    self.elapsed_ms += max_ms;
                    out
                } else {
                    // Gather every input and run the operator as one
                    // indivisible task — serial by construction, which is
                    // exactly what makes coarse-grained UDFs slow on a
                    // distributed engine (Figure 3 left).
                    self.stage();
                    let datasets: Vec<Dataset> = inputs.drain(..).map(concat).collect();
                    let result = self.serial(|| c.execute(&datasets))?;
                    split(&result, workers)
                }
            }

            // ----------------------------------------------------------- sinks
            PhysicalOp::CollectSink => {
                self.took_columnar = true;
                std::mem::take(&mut inputs[0])
            }
            PhysicalOp::CountSink => {
                self.took_columnar = true;
                let n: usize = inputs[0].iter().map(Dataset::len).sum();
                vec![Dataset::new(vec![rec![n as i64]])]
            }
            PhysicalOp::StorageSink { dataset_id } => {
                let data = concat(std::mem::take(&mut inputs[0]));
                self.ctx.storage()?.write(dataset_id, &data)?;
                vec![data]
            }
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::data::Record;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::udf::{
        FilterUdf, FlatMapUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf,
    };
    use rheem_core::RheemContext;

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

    /// Every plan must produce the same bag of records as the reference
    /// interpreter — the platform-independence contract.
    fn assert_matches_reference(plan: rheem_core::PhysicalPlan) {
        let reference =
            rheem_core::interpreter::run_plan(&plan, &rheem_core::ExecutionContext::new()).unwrap();
        let result = ctx().execute(plan).unwrap();
        assert_eq!(result.outputs.len(), reference.len());
        for (sink, data) in &result.outputs {
            assert_eq!(
                sorted(data.records().to_vec()),
                sorted(reference[sink].records().to_vec()),
                "sink {sink} differs from reference"
            );
        }
    }

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn narrow_pipeline_matches_reference() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(1000));
        let f = b.filter(src, FilterUdf::new("mod3", |r| r.int(0).unwrap() % 3 == 0));
        let m = b.map(f, MapUdf::new("sq", |r| rec![r.int(0).unwrap().pow(2)]));
        let fm = b.flat_map(m, FlatMapUdf::new("dup", |r| vec![r.clone(), r.clone()]));
        b.collect(fm);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn group_by_and_reduce_match_reference() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..500i64).map(|i| rec![i % 13, 1i64]).collect());
        let g = b.group_by(
            src,
            KeyUdf::field(0),
            GroupMapUdf::new("count", |k, members| {
                vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
            }),
        );
        b.collect(g);
        let src2 = b.collection("s2", (0..500i64).map(|i| rec![i % 13, 1i64]).collect());
        let r = b.reduce_by_key(
            src2,
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        b.collect(r);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn joins_match_reference() {
        let mut b = PlanBuilder::new();
        let l = b.collection("l", (0..100i64).map(|i| rec![i % 10, i]).collect());
        let r = b.collection("r", (0..40i64).map(|i| rec![i % 10, i * 100]).collect());
        let j = b.hash_join(l, r, KeyUdf::field(0), KeyUdf::field(0));
        b.collect(j);
        let j2 = b.sort_merge_join(l, r, KeyUdf::field(0), KeyUdf::field(0));
        b.collect(j2);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn theta_join_cross_sort_distinct_match_reference() {
        let mut b = PlanBuilder::new();
        let l = b.collection("l", nums(30));
        let r = b.collection("r", nums(20));
        let t = b.theta_join(
            l,
            r,
            "lt",
            0.5,
            Arc::new(|a: &Record, c: &Record| a.int(0).unwrap() < c.int(0).unwrap()),
        );
        b.collect(t);
        let cp = b.cross_product(l, r);
        b.collect(cp);
        let s = b.sort(l, KeyUdf::field(0), true);
        b.collect(s);
        let dup = b.union(l, l);
        let d = b.distinct(dup);
        b.collect(d);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn global_reduce_sample_limit_zip_match_reference() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(200));
        let g = b.global_reduce(
            src,
            ReduceUdf::new("sum", |a, x| rec![a.int(0).unwrap() + x.int(0).unwrap()]),
        );
        b.collect(g);
        let smp = b.sample(src, 0.25, 9);
        b.collect(smp);
        let z = b.zip_with_id(src);
        b.collect(z);
        let lim = b.limit(src, 17);
        let cnt = b.count(lim);
        let _ = cnt;
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn loop_runs_partitioned_and_matches_reference() {
        // Per-element update loop: every record is incremented each iteration.
        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(100));
        let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(10), 10);
        b.collect(l);
        assert_matches_reference(b.build().unwrap());
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
        assert_eq!(result.stats.total_simulated_overhead_ms(), 110.0);
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
        let storage = Arc::new(rheem_core::platform::MemoryStorageService::new());
        use rheem_core::platform::StorageService;
        storage.write("in", &Dataset::new(nums(50))).unwrap();
        let ctx = RheemContext::new()
            .with_platform(Arc::new(spark()))
            .with_storage(storage.clone());
        let mut b = PlanBuilder::new();
        let src = b.storage_source("in");
        let m = b.map(src, MapUdf::new("x2", |r| rec![r.int(0).unwrap() * 2]));
        b.write_storage(m, "out");
        ctx.execute(b.build().unwrap()).unwrap();
        assert_eq!(storage.read("out").unwrap().len(), 50);
    }

    /// A declarative plan stays columnar from the source windows to the
    /// sink: every stage's tasks take the chunk kernels and hand chunks on.
    #[test]
    fn declarative_plans_run_columnar_tasks_end_to_end() {
        use rheem_core::expr::Expr;
        use rheem_core::udf::{AggFunc, Aggregate, GroupOutput};
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
        let reference =
            rheem_core::interpreter::run_plan(&plan, &rheem_core::ExecutionContext::new()).unwrap();
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
        use rheem_core::physical::CustomPhysicalOp;
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
    use rheem_core::physical::CustomPhysicalOp;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::rec;
    use rheem_core::RheemContext;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
