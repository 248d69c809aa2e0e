//! The fragment runners: the execution operators of every engine that keeps
//! a dataset in partitions ([`run_atom`]), and the in-process wrapper of the
//! engines that hand a fragment to the core's interpreter
//! ([`run_in_process`]).
//!
//! An operator runs in two steps. Its [`Layout`] says how the input must be
//! spread over partitions — left as it is, shuffled by key, gathered,
//! broadcast — and the runner's exchange step puts it there; then the
//! operator table ([`kernels::execute`]) runs on every partition, chunk
//! kernel or row kernel as the partition allows. An [`Engine`] contributes
//! only what differs between engines: how many partitions, what a stage
//! boundary costs and whether the data goes through disk there, and how
//! driver-side time is charged.
//!
//! **Time accounting.** Each per-partition task is timed individually and
//! a stage is charged its *critical path* — `max` across its tasks — plus
//! the engine's overheads, plus driver-side plumbing at the engine's rate.
//! Tasks execute sequentially so the per-task measurements are exact even
//! on single-core hosts; the figures in the paper are reproduced on
//! *simulated* elapsed time (see DESIGN.md's substitution table).

use std::collections::HashMap;
use std::time::Instant;

use rheem_core::data::Dataset;
use rheem_core::error::{Result, RheemError};
use rheem_core::observe::NodeObservation;
use rheem_core::physical::{Layout, PhysicalOp};
use rheem_core::plan::{NodeId, PhysicalPlan, TaskAtom};
use rheem_core::platform::{AtomInputs, AtomResult, ExecutionContext};
use rheem_core::udf::KeyUdf;
use rheem_core::{interpreter, kernels, KernelParallelism};

use crate::config::OverheadConfig;
use crate::partition::{concat, partition_by_key, run_partitions_timed, split};

/// A dataset in flight inside an atom: one [`Dataset`] per partition. A
/// partition is a lazy window of a source, a chunk a columnar task
/// produced, or the rows a row task produced — whichever it is, the next
/// task asks it for the view it needs.
pub(crate) type Parts = Vec<Dataset>;

/// What crossing a stage boundary cost.
#[derive(Default)]
pub(crate) struct BoundaryCharge {
    /// Fixed scheduling overhead (also reported as overhead).
    pub overhead_ms: f64,
    /// Serial time moving the data (disk round trips).
    pub io_ms: f64,
}

/// The plumbing an engine puts around the shared execution operators.
pub(crate) trait Engine {
    /// Task slots: the partition count of a full-width exchange.
    fn workers(&self) -> usize;

    /// Tasks a stage over `rows` input rows runs as (at most `workers`).
    fn partitions_for(&self, rows: usize) -> usize;

    /// The inputs of one operator (or a loop iteration's state) cross a
    /// stage boundary: charge it, and leave each input as the next stage
    /// reads it — partition for partition.
    fn boundary(&self, inputs: &mut [Parts]) -> Result<BoundaryCharge>;

    /// The simulated charge for `wall_ms` of driver-side plumbing
    /// (gathering, routing a shuffle).
    fn driver_ms(&self, wall_ms: f64) -> f64;
}

/// Execute `atom` on `engine`: pay the job startup and the channel ingest
/// of its boundary inputs, run its nodes, gather its outputs.
pub(crate) fn run_atom<E: Engine>(
    engine: &E,
    name: &str,
    overheads: &OverheadConfig,
    plan: &PhysicalPlan,
    atom: &TaskAtom,
    inputs: &AtomInputs,
    ctx: &ExecutionContext,
) -> Result<AtomResult> {
    let startup = overheads.pay_startup();
    let mut run = Run {
        engine,
        ctx,
        overhead_ms: startup,
        elapsed_ms: startup,
        records_processed: 0,
        observations: Vec::new(),
    };
    // Channel-aware boundary ingest: datasets arriving on a non-memory
    // channel (the optimizer's chosen conversion route) pay a simulated
    // materialization cost before any task reads them.
    for bi in &atom.inputs {
        if let Some(d) = inputs.get(&(bi.consumer, bi.slot)) {
            let ms = overheads.channel_ingest_ms(bi.channel, d.len());
            run.overhead_ms += ms;
            run.elapsed_ms += ms;
        }
    }
    let mut parts = run.run_nodes(plan, &atom.nodes, Some(inputs), None, &atom.outputs)?;
    let mut outputs = HashMap::new();
    for n in &atom.outputs {
        let parts = parts.remove(n).ok_or_else(|| RheemError::Execution {
            platform: name.into(),
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

/// Execute `atom` in one process, through the core's interpreter: pay the
/// job startup, run its nodes, hand back its outputs. `efficiency` scales
/// the measured work — the atom's and every kernel's — to the modeled
/// engine's speed (1.0: the interpreter's own).
pub(crate) fn run_in_process(
    overheads: &OverheadConfig,
    efficiency: f64,
    plan: &PhysicalPlan,
    atom: &TaskAtom,
    inputs: &AtomInputs,
    ctx: &ExecutionContext,
) -> Result<AtomResult> {
    let overhead = overheads.pay_startup();
    let started = Instant::now();
    let run = interpreter::run_fragment(plan, &atom.nodes, inputs, ctx, None)?;
    let work_ms = ms_since(started) * efficiency;
    let outputs = atom
        .outputs
        .iter()
        .filter_map(|n| run.outputs.get(n).map(|d| (*n, d.clone())))
        .collect();
    let mut node_observations = run.observations;
    for o in &mut node_observations {
        o.elapsed_ms *= efficiency;
    }
    Ok(AtomResult {
        outputs,
        records_processed: run.records_processed,
        simulated_overhead_ms: overhead,
        simulated_elapsed_ms: overhead + work_ms,
        node_observations,
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The operator table on gathered inputs, as a single sequential task.
fn single_task(op: &PhysicalOp, gathered: &[Dataset]) -> Result<(Dataset, bool)> {
    kernels::execute(op, gathered, &KernelParallelism::sequential())
}

/// One atom execution in flight.
struct Run<'a, E> {
    engine: &'a E,
    ctx: &'a ExecutionContext,
    /// Charged fixed overheads (job startup, stage scheduling).
    overhead_ms: f64,
    /// Simulated elapsed time: overheads + boundary I/O + the critical
    /// path of every stage + driver-side plumbing.
    elapsed_ms: f64,
    records_processed: u64,
    /// Per-kernel observations (top-level nodes only; loop bodies are
    /// charged to their `Loop` node).
    observations: Vec<NodeObservation>,
}

impl<E: Engine> Run<'_, E> {
    /// Cross a stage boundary with one operator's inputs.
    fn stage(&mut self, inputs: &mut [Parts]) -> Result<()> {
        let charge = self.engine.boundary(inputs)?;
        self.overhead_ms += charge.overhead_ms;
        self.elapsed_ms += charge.overhead_ms + charge.io_ms;
        Ok(())
    }

    /// [`Run::stage`] for an operator with one input.
    fn stage_one(&mut self, input: Parts) -> Result<Parts> {
        let mut input = [input];
        self.stage(&mut input)?;
        let [input] = input;
        Ok(input)
    }

    /// Time driver-side plumbing, charged at the engine's rate.
    fn driver<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.elapsed_ms += self.engine.driver_ms(ms_since(t));
        out
    }

    /// Time work that is genuinely serial (a single gathered task).
    fn serial<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.elapsed_ms += ms_since(t);
        out
    }

    /// Run `op` as one stage: the operator table on every partition (the
    /// partition is the parallel unit, so kernels stay sequential), charging
    /// the critical path. Task `i` is given `right(i)` as its second input.
    /// The flag is true when every task ran without touching rows.
    fn tasks<'r>(
        &mut self,
        op: &PhysicalOp,
        parts: Parts,
        right: impl Fn(usize) -> Option<&'r Dataset>,
    ) -> Result<(Parts, bool)> {
        let sequential = KernelParallelism::sequential();
        let mut columnar = true;
        let (out, max_ms) = run_partitions_timed(parts, |i, p| {
            let mut inputs = vec![p];
            inputs.extend(right(i).cloned());
            let (out, took) = kernels::execute(op, &inputs, &sequential)?;
            columnar &= took;
            Ok(out)
        })?;
        self.elapsed_ms += max_ms;
        Ok((out, columnar))
    }

    /// Stage boundary, then shuffle so that rows with equal keys meet.
    fn shuffle_by_key(&mut self, input: Parts, key: &KeyUdf) -> Result<Parts> {
        let input = self.stage_one(input)?;
        let gathered = self.driver(|| concat(input));
        // A key over no fields is one global group: it must stay in one
        // task, which emits its one row even over no input.
        let n_parts = match key.fields.as_deref() {
            Some([]) => 1,
            _ => self.engine.partitions_for(gathered.len()),
        };
        Ok(self.driver(|| partition_by_key(&gathered, key, n_parts)))
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
                    split(d, self.engine.partitions_for(d.len()))
                } else {
                    return Err(RheemError::InvalidPlan(format!(
                        "node {id} input slot {slot} is not available"
                    )));
                };
                inputs.push(parts);
            }
            let before_ms = self.elapsed_ms;
            let (out, columnar) = self.exec_op(&node.op, inputs, loop_state)?;
            // A cancel that fired inside a kernel truncated its output:
            // never hand that on as this node's result.
            self.ctx.check_cancelled()?;
            let out_records = out.iter().map(|p| p.len() as u64).sum::<u64>();
            self.records_processed += out_records;
            // Observe only top-level nodes: loop-body node ids belong to the
            // body fragment and whole-loop time lands on the Loop node.
            if boundary.is_some() {
                self.observations.push(NodeObservation {
                    node: id,
                    op: node.op.name(),
                    records_out: out_records,
                    elapsed_ms: self.elapsed_ms - before_ms,
                    // Partitions are the parallel unit; per-partition
                    // kernels stay sequential.
                    morsels: 1,
                    columnar,
                });
            }
            results.insert(id, out);
        }
        Ok(results)
    }

    /// Lay `op`'s inputs out as its [`Layout`] asks, then run it; also
    /// reports whether it ran without touching rows.
    fn exec_op(
        &mut self,
        op: &PhysicalOp,
        inputs: Vec<Parts>,
        loop_state: Option<&Parts>,
    ) -> Result<(Parts, bool)> {
        let workers = self.engine.workers();
        let mut inputs = inputs.into_iter();
        let mut next = || inputs.next().expect("plan validation checked the arity");
        Ok(match op.layout() {
            // Sources and sinks only hand partitions along: windows of the
            // source dataset, materialized by whoever reads them.
            Layout::Source => {
                let (data, passed) = interpreter::execute_op(op, &[], self.ctx, None)?;
                (split(&data, self.engine.partitions_for(data.len())), passed)
            }
            Layout::LoopState => {
                let state = loop_state.ok_or_else(|| {
                    RheemError::InvalidPlan("LoopInput outside a loop body".into())
                })?;
                (state.clone(), true)
            }
            Layout::Narrow => self.tasks(op, next(), |_| None)?,
            // Partitions are in order, so a prefix is a prefix of them.
            Layout::Prefix(n) => {
                let mut wanted = n;
                let mut out = Vec::new();
                for p in next() {
                    let take = wanted.min(p.len());
                    out.push(if take == p.len() { p } else { p.slice(0, take) });
                    wanted -= take;
                    if wanted == 0 {
                        break;
                    }
                }
                (out, true)
            }
            Layout::ByKey(key) => {
                let parts = self.shuffle_by_key(next(), key)?;
                self.tasks(op, parts, |_| None)?
            }
            // Combine first (the classic map-side optimization), then
            // shuffle the partial aggregates.
            Layout::CombineByKey(key) => {
                let (local, _) = self.tasks(op, next(), |_| None)?;
                let parts = self.shuffle_by_key(local, key)?;
                self.tasks(op, parts, |_| None)?
            }
            // Simplification documented in DESIGN.md: a range-partitioned
            // distributed sort is modeled as gather + sort + re-split; the
            // cost model prices it as a shuffle either way.
            Layout::Gather => {
                let input = self.stage_one(next())?;
                let (sorted, columnar) = self.driver(|| single_task(op, &[concat(input)]))?;
                (split(&sorted, workers), columnar)
            }
            Layout::CombineGather => {
                let (local, _) = self.tasks(op, next(), |_| None)?;
                let local = self.stage_one(local)?;
                let (reduced, columnar) = self.serial(|| single_task(op, &[concat(local)]))?;
                (vec![reduced], columnar)
            }
            Layout::CoPartition(left_key, right_key) => {
                let mut sides = [next(), next()];
                self.stage(&mut sides)?;
                let [l, r] = sides;
                let l = self.driver(|| partition_by_key(&concat(l), left_key, workers));
                let r = self.driver(|| partition_by_key(&concat(r), right_key, workers));
                self.tasks(op, l, |i| Some(&r[i]))?
            }
            Layout::BroadcastRight => {
                let mut sides = [next(), next()];
                self.stage(&mut sides)?;
                let [l, r] = sides;
                let r = self.driver(|| concat(r));
                self.tasks(op, l, |_| Some(&r))?
            }
            Layout::Concat => {
                let mut parts = next();
                parts.extend(next());
                if parts.len() > workers {
                    parts = self.driver(|| split(&concat(parts), workers));
                }
                (parts, false)
            }
            Layout::Loop {
                body,
                condition,
                max_iterations,
            } => {
                let mut state = next();
                let body_nodes: Vec<NodeId> = body.nodes().iter().map(|n| n.id).collect();
                let terminal = *body
                    .terminals()
                    .first()
                    .ok_or_else(|| RheemError::InvalidPlan("loop body has no terminal".into()))?;
                let mut iteration = 0u64;
                loop {
                    // The continuation test sees the gathered state (a
                    // driver-side action).
                    let gathered = self.driver(|| concat(state.clone()));
                    if iteration >= max_iterations || !(condition.f)(iteration, gathered.records())
                    {
                        break;
                    }
                    // Each iteration is a re-dispatched stage.
                    let crossed = self.stage_one(state)?;
                    let mut outs =
                        self.run_nodes(body, &body_nodes, None, Some(&crossed), &[terminal])?;
                    state = outs.remove(&terminal).ok_or_else(|| {
                        RheemError::InvalidPlan("loop body terminal missing".into())
                    })?;
                    iteration += 1;
                }
                (state, false)
            }
            Layout::Custom {
                per_partition: true,
            } => self.tasks(op, next(), |_| None)?,
            // Gather every input and run the operator as one indivisible
            // task — serial by construction, which is exactly what makes
            // coarse-grained UDFs slow on a distributed engine (Figure 3
            // left).
            Layout::Custom {
                per_partition: false,
            } => {
                let mut inputs: Vec<Parts> = inputs.collect();
                self.stage(&mut inputs)?;
                let gathered: Vec<Dataset> = inputs.into_iter().map(concat).collect();
                let (result, columnar) = self.serial(|| single_task(op, &gathered))?;
                (split(&result, workers), columnar)
            }
            Layout::Sink => {
                let data = concat(next());
                let (out, passed) = interpreter::execute_op(op, &[data], self.ctx, None)?;
                (vec![out], passed)
            }
        })
    }
}
