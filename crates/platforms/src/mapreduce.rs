//! The MapReduce-like platform: batch execution with disk-materialized
//! phase boundaries.
//!
//! Substitution for Hadoop MapReduce (see DESIGN.md). Its cost structure —
//! the reason Mahout-era iterative ML was slow enough that "all ML
//! algorithms initially implemented in Hadoop had to be re-implemented in
//! Spark" (§2) — comes from two real mechanisms reproduced here:
//!
//! * a large fixed **job setup** overhead per task atom;
//! * every *phase boundary* (each wide operator, and every loop iteration)
//!   **spills its input to local disk and reads it back**, doing real file
//!   I/O in the native codec.
//!
//! Narrow operators still run on parallel "mapper" threads.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rheem_core::cost::{LinearCostModel, PlatformCostModel};
use rheem_core::data::{Dataset, Record};
use rheem_core::error::{Result, RheemError};
use rheem_core::kernels;
use rheem_core::physical::PhysicalOp;
use rheem_core::plan::{NodeId, PhysicalPlan, TaskAtom};
use rheem_core::platform::{AtomInputs, AtomResult, ExecutionContext, Platform, ProcessingProfile};
use rheem_core::rec;
use rheem_storage::codec;

use crate::config::OverheadConfig;
use crate::partition::{chunk, columnar_or_rows, gather, hash_partition, run_partitions_timed};

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Disk-phased batch execution engine.
pub struct MapReduceLikePlatform {
    workers: usize,
    overheads: OverheadConfig,
    spill_dir: PathBuf,
    cost: Arc<LinearCostModel>,
}

impl MapReduceLikePlatform {
    /// A platform with `workers` mapper threads, Hadoop-flavoured defaults
    /// (120 ms job setup, 8 ms per phase, both slept), spilling under the
    /// system temp directory.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        MapReduceLikePlatform {
            workers,
            overheads: OverheadConfig::slept(Duration::from_millis(120), Duration::from_millis(8)),
            spill_dir: std::env::temp_dir().join("rheem_mr_spills"),
            cost: Arc::new(LinearCostModel {
                per_unit: 3e-4,
                speedup: (workers as f64 / 2.0).max(1.0),
                startup: 1500.0,
                shuffle_surcharge: 2e-3, // disk write + read per record
                hash_engine_speedup: 1.0,
            }),
        }
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }

    /// Override the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = dir.into();
        self
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: LinearCostModel) -> Self {
        self.cost = Arc::new(cost);
        self
    }

    /// Write records to a spill file and read them back (a real phase
    /// boundary). Returns the round-tripped records.
    fn spill_round_trip(&self, records: Vec<Record>) -> Result<Vec<Record>> {
        std::fs::create_dir_all(&self.spill_dir)?;
        let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = self
            .spill_dir
            .join(format!("spill_{}_{id}.rrec", std::process::id()));
        let text = codec::encode_batch(&records);
        std::fs::write(&path, &text)?;
        let read_back = std::fs::read_to_string(&path)?;
        let out = codec::decode_batch(&read_back)?;
        std::fs::remove_file(&path).ok();
        Ok(out)
    }
}

impl Platform for MapReduceLikePlatform {
    fn name(&self) -> &str {
        "mapreduce"
    }

    fn profile(&self) -> ProcessingProfile {
        ProcessingProfile::DiskBatch
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
        let mut run = MrRun {
            platform: self,
            ctx,
            overhead_ms: startup,
            elapsed_ms: startup,
            records_processed: 0,
            observations: Vec::new(),
            took_columnar: false,
        };
        // Channel-aware boundary ingest: a boundary dataset arriving on a
        // non-memory channel pays its simulated materialization cost (for
        // this disk-bound platform typically a File deserialize) up front.
        for bi in &atom.inputs {
            if let Some(d) = inputs.get(&(bi.consumer, bi.slot)) {
                let ms = self.overheads.channel_ingest_ms(bi.channel, d.len());
                run.overhead_ms += ms;
                run.elapsed_ms += ms;
            }
        }
        let mut results = run.run_nodes(plan, &atom.nodes, Some(inputs), None, &atom.outputs)?;
        let mut outputs = HashMap::new();
        for n in &atom.outputs {
            let records = results.remove(n).ok_or_else(|| RheemError::Execution {
                platform: "mapreduce".into(),
                message: format!("atom output node {n} was not produced"),
            })?;
            outputs.insert(*n, Dataset::new(records));
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

struct MrRun<'a> {
    platform: &'a MapReduceLikePlatform,
    ctx: &'a ExecutionContext,
    overhead_ms: f64,
    /// Simulated elapsed: overheads + serial phase I/O + per-wave critical
    /// path of the parallel mapper/reducer tasks.
    elapsed_ms: f64,
    records_processed: u64,
    /// Per-kernel observations (top-level nodes only; loop bodies are
    /// charged to their `Loop` node).
    observations: Vec<rheem_core::observe::NodeObservation>,
    /// Whether the operator being executed ran on the columnar kernels
    /// (reset per node, reported on its observation).
    took_columnar: bool,
}

impl MrRun<'_> {
    /// A phase boundary: charge the overhead and round-trip through disk.
    /// Disk I/O is charged serially — HDFS-era clusters were I/O-bound at
    /// phase boundaries, which is exactly the profile this platform models.
    fn phase(&mut self, records: Vec<Record>) -> Result<Vec<Record>> {
        let stage = self.platform.overheads.pay_stage();
        self.overhead_ms += stage;
        self.elapsed_ms += stage;
        let t = std::time::Instant::now();
        let out = self.platform.spill_round_trip(records)?;
        self.elapsed_ms += t.elapsed().as_secs_f64() * 1e3;
        Ok(out)
    }

    /// Execute `nodes` of `plan`; `keep` lists nodes whose records the
    /// caller reads from the returned map (atom outputs, the loop
    /// terminal) — everything else is *moved* into its last consumer
    /// instead of deep-cloned.
    fn run_nodes(
        &mut self,
        plan: &PhysicalPlan,
        nodes: &[NodeId],
        boundary: Option<&AtomInputs>,
        loop_state: Option<&Vec<Record>>,
        keep: &[NodeId],
    ) -> Result<HashMap<NodeId, Vec<Record>>> {
        // Count in-fragment consumers so each intermediate can be moved
        // (not cloned) into the consumer that uses it last.
        let mut remaining: HashMap<NodeId, usize> = HashMap::new();
        for &id in nodes {
            for producer in &plan.node(id).inputs {
                *remaining.entry(*producer).or_insert(0) += 1;
            }
        }
        let mut results: HashMap<NodeId, Vec<Record>> = HashMap::new();
        for &id in nodes {
            // Cancellation checkpoint between MR rounds: a cancelled job
            // stops without scheduling the next round.
            self.ctx.check_cancelled()?;
            let node = plan.node(id);
            let mut inputs: Vec<Vec<Record>> = Vec::with_capacity(node.inputs.len());
            for (slot, producer) in node.inputs.iter().enumerate() {
                let recs = if results.contains_key(producer) {
                    let uses = remaining.get_mut(producer).expect("consumers counted");
                    *uses -= 1;
                    if *uses == 0 && !keep.contains(producer) {
                        results.remove(producer).expect("present")
                    } else {
                        results[producer].clone()
                    }
                } else if let Some(d) = boundary.and_then(|b| b.get(&(id, slot))) {
                    d.records().to_vec()
                } else {
                    return Err(RheemError::InvalidPlan(format!(
                        "node {id} input slot {slot} is not available"
                    )));
                };
                inputs.push(recs);
            }
            let before_ms = self.elapsed_ms;
            self.took_columnar = false;
            let out = self.exec_op(&node.op, inputs, loop_state)?;
            self.records_processed += out.len() as u64;
            // Observe only top-level nodes: loop-body node ids belong to the
            // body fragment and whole-loop time lands on the Loop node.
            if boundary.is_some() {
                self.observations
                    .push(rheem_core::observe::NodeObservation {
                        node: id,
                        op: node.op.name(),
                        records_out: out.len() as u64,
                        elapsed_ms: self.elapsed_ms - before_ms,
                        // Mapper/reducer partitions are this platform's
                        // parallel unit; per-partition kernels stay
                        // sequential.
                        morsels: 1,
                        columnar: self.took_columnar,
                    });
            }
            results.insert(id, out);
        }
        Ok(results)
    }

    /// Run a narrow op as one wave of parallel mapper tasks; the simulated
    /// elapsed time is the wave's critical path.
    fn mappers<F>(&mut self, records: Vec<Record>, f: F) -> Result<Vec<Record>>
    where
        F: Fn(Vec<Record>) -> Result<Vec<Record>> + Send + Sync,
    {
        self.reducers(chunk(&records, self.platform.workers), f)
    }

    /// Run reducer tasks over already-shuffled partitions.
    fn reducers<F>(&mut self, parts: Vec<Vec<Record>>, f: F) -> Result<Vec<Record>>
    where
        F: Fn(Vec<Record>) -> Result<Vec<Record>> + Send + Sync,
    {
        let (out, max_ms) = run_partitions_timed(parts, |_, p| f(p))?;
        self.elapsed_ms += max_ms;
        Ok(gather(out))
    }

    /// [`MrRun::reducers`] through [`columnar_or_rows`]: `op`'s columnar
    /// kernel per task where it has one, `rows` otherwise.
    fn columnar_tasks<F>(
        &mut self,
        op: &PhysicalOp,
        parts: Vec<Vec<Record>>,
        rows: F,
    ) -> Result<Vec<Record>>
    where
        F: Fn(Vec<Record>) -> Result<Vec<Record>> + Send + Sync,
    {
        let took = AtomicBool::new(false);
        let out = self.reducers(parts, |p| {
            let (out, columnar) = columnar_or_rows(op, Dataset::new(p), None, &rows)?;
            took.fetch_or(columnar, Ordering::Relaxed);
            Ok(out.into_records())
        })?;
        self.took_columnar = took.into_inner();
        Ok(out)
    }

    fn exec_op(
        &mut self,
        op: &PhysicalOp,
        mut inputs: Vec<Vec<Record>>,
        loop_state: Option<&Vec<Record>>,
    ) -> Result<Vec<Record>> {
        let take0 = |inputs: &mut Vec<Vec<Record>>| std::mem::take(&mut inputs[0]);
        let out = match op {
            PhysicalOp::CollectionSource { data, .. } => data.records().to_vec(),
            PhysicalOp::StorageSource { dataset_id } => {
                self.ctx.storage()?.read(dataset_id)?.into_records()
            }
            PhysicalOp::LoopInput => loop_state
                .cloned()
                .ok_or_else(|| RheemError::InvalidPlan("LoopInput outside a loop body".into()))?,

            // Map phase: parallel mappers, no disk.
            PhysicalOp::Map(u) => {
                let splits = chunk(&take0(&mut inputs), self.platform.workers);
                self.columnar_tasks(op, splits, |p| Ok(kernels::map(&p, u)))?
            }
            PhysicalOp::FlatMap(u) => {
                let u = u.clone();
                self.mappers(take0(&mut inputs), move |p| Ok(kernels::flat_map(&p, &u)))?
            }
            PhysicalOp::Filter(u) => {
                // Mappers own their split: retain in place, no clone.
                let splits = chunk(&take0(&mut inputs), self.platform.workers);
                self.columnar_tasks(op, splits, |p| Ok(kernels::filter_owned(p, u)))?
            }
            PhysicalOp::Project { indices } => {
                let indices = indices.clone();
                self.mappers(take0(&mut inputs), move |p| kernels::project(&p, &indices))?
            }
            PhysicalOp::ChunkPipeline { stages } => {
                // Narrow: each mapper split runs the fused stage chain
                // sequentially; a ragged split takes the row reference.
                let splits = chunk(&take0(&mut inputs), self.platform.workers);
                self.columnar_tasks(op, splits, |p| {
                    kernels::chunked::run_stages_rows(&p, stages)
                })?
            }
            PhysicalOp::Sample { fraction, seed } => {
                // Single-threaded: position-indexed sampling must see global
                // offsets; Hadoop would do this in one mapper wave anyway.
                kernels::sample(&inputs[0], *fraction, *seed, 0)?
            }
            PhysicalOp::Limit { n } => kernels::limit(&inputs[0], *n),
            PhysicalOp::ZipWithId => kernels::zip_with_id(&inputs[0], 0)?,

            // Reduce phases: spill to disk, then shuffle + reduce in
            // parallel reducers.
            PhysicalOp::SortGroupBy { key, group } | PhysicalOp::HashGroupBy { key, group } => {
                let sort_based = matches!(op, PhysicalOp::SortGroupBy { .. });
                let spilled = self.phase(take0(&mut inputs))?;
                // A key over no fields is one global group: it must stay
                // in one reducer, which emits its one row even over no
                // input.
                let n_parts = match key.fields.as_deref() {
                    Some([]) => 1,
                    _ => self.platform.workers,
                };
                let parts = hash_partition(&spilled, key, n_parts);
                self.columnar_tasks(op, parts, |p| {
                    let groups = if sort_based {
                        kernels::sort_group(&p, key)
                    } else {
                        kernels::hash_group(&p, key)
                    };
                    Ok(kernels::apply_group_map(&groups, group))
                })?
            }
            PhysicalOp::ReduceByKey { key, reduce } => {
                // Combiner in the map phase, then the disk shuffle.
                let combined = {
                    let (key, reduce) = (key.clone(), reduce.clone());
                    self.mappers(take0(&mut inputs), move |p| {
                        Ok(kernels::reduce_by_key(&p, &key, &reduce))
                    })?
                };
                let spilled = self.phase(combined)?;
                let parts = hash_partition(&spilled, key, self.platform.workers);
                let (key, reduce) = (key.clone(), reduce.clone());
                self.reducers(parts, move |p| {
                    Ok(kernels::reduce_by_key(&p, &key, &reduce))
                })?
            }
            PhysicalOp::GlobalReduce { reduce } => {
                let spilled = self.phase(take0(&mut inputs))?;
                kernels::global_reduce(&spilled, reduce)
            }
            PhysicalOp::Sort { key, descending } => {
                let spilled = self.phase(take0(&mut inputs))?;
                let (sorted, columnar) = columnar_or_rows(op, Dataset::new(spilled), None, |p| {
                    Ok(kernels::sort(&p, key, *descending))
                })?;
                self.took_columnar = columnar;
                sorted.into_records()
            }
            PhysicalOp::Distinct => {
                let spilled = self.phase(take0(&mut inputs))?;
                kernels::distinct(&spilled)
            }
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            }
            | PhysicalOp::SortMergeJoin {
                left_key,
                right_key,
            } => {
                let sort_based = matches!(op, PhysicalOp::SortMergeJoin { .. });
                let l = self.phase(std::mem::take(&mut inputs[0]))?;
                let r = Dataset::new(self.phase(std::mem::take(&mut inputs[1]))?);
                let (joined, columnar) = columnar_or_rows(op, Dataset::new(l), Some(&r), |l| {
                    Ok(if sort_based {
                        kernels::sort_merge_join(&l, r.records(), left_key, right_key)
                    } else {
                        kernels::hash_join(&l, r.records(), left_key, right_key)
                    })
                })?;
                self.took_columnar = columnar;
                joined.into_records()
            }
            PhysicalOp::NestedLoopJoin { predicate, .. } => {
                let l = self.phase(std::mem::take(&mut inputs[0]))?;
                let r = self.phase(std::mem::take(&mut inputs[1]))?;
                let r = Arc::new(r);
                let predicate = predicate.clone();
                self.mappers(l, move |p| {
                    Ok(kernels::nested_loop_join(&p, &r, &predicate))
                })?
            }
            PhysicalOp::CrossProduct => {
                let l = self.phase(std::mem::take(&mut inputs[0]))?;
                let r = self.phase(std::mem::take(&mut inputs[1]))?;
                let r = Arc::new(r);
                self.mappers(l, move |p| Ok(kernels::cross_product(&p, &r)))?
            }
            PhysicalOp::Union => {
                let mut l = std::mem::take(&mut inputs[0]);
                l.extend(std::mem::take(&mut inputs[1]));
                l
            }

            PhysicalOp::Loop {
                body,
                condition,
                max_iterations,
                ..
            } => {
                // Iterative jobs on MapReduce: every iteration is a separate
                // job whose input and output hit the disk. This is the cost
                // profile that motivated Figure 2 and the Mahout→MLlib
                // migration discussed in §2.
                let mut state = take0(&mut inputs);
                let body_nodes: Vec<NodeId> = body.nodes().iter().map(|n| n.id).collect();
                let terminal = *body
                    .terminals()
                    .first()
                    .ok_or_else(|| RheemError::InvalidPlan("loop body has no terminal".into()))?;
                let mut iteration = 0u64;
                while iteration < *max_iterations && (condition.f)(iteration, &state) {
                    state = self.phase(state)?;
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
                let datasets: Vec<Dataset> = inputs.drain(..).map(Dataset::new).collect();
                c.execute(&datasets)?.into_records()
            }

            PhysicalOp::CollectSink => take0(&mut inputs),
            PhysicalOp::CountSink => vec![rec![inputs[0].len() as i64]],
            PhysicalOp::StorageSink { dataset_id } => {
                let data = Dataset::new(take0(&mut inputs));
                self.ctx.storage()?.write(dataset_id, &data)?;
                data.into_records()
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
    use rheem_core::udf::{GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
    use rheem_core::RheemContext;

    fn mr() -> MapReduceLikePlatform {
        MapReduceLikePlatform::new(4)
            .with_overheads(OverheadConfig::none())
            .with_spill_dir(
                std::env::temp_dir().join(format!("rheem_mr_test_{}", std::process::id())),
            )
    }

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(mr()))
    }

    fn sorted(mut v: Vec<Record>) -> Vec<Record> {
        v.sort();
        v
    }

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
    fn mixed_pipeline_matches_reference_through_disk() {
        let mut b = PlanBuilder::new();
        let src = b.collection(
            "s",
            (0..300i64)
                .map(|i| rec![i % 7, i, format!("v{i}")])
                .collect(),
        );
        let g = b.group_by(
            src,
            KeyUdf::field(0),
            GroupMapUdf::new("sum", |k, members| {
                let total: i64 = members.iter().map(|r| r.int(1).unwrap()).sum();
                vec![Record::new(vec![k.clone(), total.into()])]
            }),
        );
        b.collect(g);
        let s = b.sort(src, KeyUdf::field(1), true);
        let lim = b.limit(s, 5);
        b.collect(lim);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn joins_match_reference_through_disk() {
        let mut b = PlanBuilder::new();
        let l = b.collection("l", (0..50i64).map(|i| rec![i % 5, i]).collect());
        let r = b.collection("r", (0..20i64).map(|i| rec![i % 5, i * 10]).collect());
        let j = b.hash_join(l, r, KeyUdf::field(0), KeyUdf::field(0));
        b.collect(j);
        let cp = b.cross_product(l, r);
        b.collect(cp);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn reduce_by_key_with_combiner_matches_reference() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..400i64).map(|i| rec![i % 11, 1i64]).collect());
        let red = b.reduce_by_key(
            src,
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        b.collect(red);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn loop_spills_every_iteration() {
        let platform = MapReduceLikePlatform::new(2)
            .with_overheads(OverheadConfig::accounted_only(
                Duration::from_millis(100),
                Duration::from_millis(10),
            ))
            .with_spill_dir(
                std::env::temp_dir().join(format!("rheem_mr_loop_{}", std::process::id())),
            );
        let ctx = RheemContext::new().with_platform(Arc::new(platform));

        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(5), 5);
        let sink = b.collect(l);
        let result = ctx.execute(b.build().unwrap()).unwrap();
        // 100 startup + 5 iterations × 10 phase.
        assert_eq!(result.stats.total_simulated_overhead_ms(), 150.0);
        assert_eq!(
            result.outputs[&sink].records(),
            (5..15i64).map(|i| rec![i]).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn float_payloads_survive_the_disk_round_trip() {
        let mut b = PlanBuilder::new();
        let src = b.collection(
            "s",
            vec![rec![1i64, 0.1f64], rec![1i64, 0.2f64], rec![2i64, f64::NAN]],
        );
        let g = b.group_by(src, KeyUdf::field(0), GroupMapUdf::identity());
        b.collect(g);
        assert_matches_reference(b.build().unwrap());
    }
}
