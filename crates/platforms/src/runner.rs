//! The fragment runners: the execution operators of every engine that keeps
//! a dataset in partitions ([`run_atom`]), and the in-process wrapper of the
//! engines that hand a fragment to the core's interpreter
//! ([`run_in_process`]).
//!
//! An operator runs in two steps. Its [`Layout`] says how the input must be
//! spread over partitions — left as it is, shuffled by key, gathered,
//! broadcast — and the runner's exchange step puts it there; then the
//! operator table ([`kernels::execute`]) runs on every partition, chunk
//! kernel or row kernel as the partition allows. What differs between
//! engines is their [`Clock`] and, for an [`Engine`] on disk, the spill.
//!
//! **Time accounting.** Every measured span — a per-partition task, a
//! spill, driver-side plumbing, an in-process atom — is read on the
//! [`WorkClock`] (wall time less run-queue wait), and a stage is charged
//! its *critical path* — `max` across its tasks — plus the clock's
//! overheads, plus driver-side plumbing at the clock's driver share. Tasks execute sequentially so the per-task measurements are exact
//! even on single-core hosts (DESIGN.md's substitution table). Each node
//! also records its kernel work (the sum of its task times) and its spills:
//! what the optimizer's kernel-rate table learns from.

use std::collections::HashMap;

use rheem_core::udf::KeyUdf;
use rheem_core::{
    execute_op, kernels, run_fragment, AtomInputs, AtomResult, Clock, Dataset, Exchange,
    ExecutionContext, Layout, NodeId, NodeObservation, PhysicalOp, PhysicalPlan, Platform, Result,
    RheemError, TaskAtom, WorkClock,
};

use crate::config::OverheadConfig;
use crate::partition::{concat, partition_by_key, run_partitions_timed, split};

/// A dataset in flight inside an atom: one [`Dataset`] per partition. A
/// partition is a lazy window of a source, a chunk a columnar task
/// produced, or the rows a row task produced — whichever it is, the next
/// task asks it for the view it needs.
pub(crate) type Parts = Vec<Dataset>;

/// A partitioned engine: its [`Clock`] (through [`Platform::clock`]) and,
/// on a disk-phased clock, what happens to the data at a stage boundary.
pub(crate) trait Engine: Platform {
    /// Round-trip every partition of a stage's inputs through disk, leaving
    /// each as the next stage reads it. In-memory engines keep the data.
    fn spill(&self, _inputs: &mut [Parts]) -> Result<()> {
        Ok(())
    }
}

/// Execute `atom` on `engine`: pay the job startup, run its nodes, gather
/// its outputs.
pub(crate) fn run_atom<E: Engine>(
    engine: &E,
    overheads: &OverheadConfig,
    plan: &PhysicalPlan,
    atom: &TaskAtom,
    inputs: &AtomInputs,
    ctx: &ExecutionContext,
) -> Result<AtomResult> {
    let clock = engine.clock();
    let startup = overheads.pay(clock.startup_ms);
    let mut run = Run {
        engine,
        clock,
        overheads,
        ctx,
        overhead_ms: startup,
        elapsed_ms: startup,
        work_ms: 0.0,
        spilled_rows: 0,
        spill_ms: 0.0,
        records_processed: 0,
        observations: Vec::new(),
    };
    let mut parts = run.run_nodes(plan, &atom.nodes, Some(inputs), None, &atom.outputs)?;
    let mut outputs = HashMap::new();
    for n in &atom.outputs {
        let parts = parts.remove(n).ok_or_else(|| RheemError::Execution {
            platform: engine.name().into(),
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
/// job startup, run its nodes, hand back its outputs. The measured work —
/// the atom's and every kernel's — is charged at the clock's efficiency;
/// each kernel's own work is kept as measured.
pub(crate) fn run_in_process(
    overheads: &OverheadConfig,
    clock: &Clock,
    plan: &PhysicalPlan,
    atom: &TaskAtom,
    inputs: &AtomInputs,
    ctx: &ExecutionContext,
) -> Result<AtomResult> {
    let overhead = overheads.pay(clock.startup_ms);
    let timer = WorkClock::start();
    let run = run_fragment(plan, &atom.nodes, inputs, ctx, None)?;
    let work_ms = timer.stop().work_ms * clock.efficiency;
    let outputs = atom
        .outputs
        .iter()
        .filter_map(|n| run.outputs.get(n).map(|d| (*n, d.clone())))
        .collect();
    let mut node_observations = run.observations;
    for o in &mut node_observations {
        o.elapsed_ms *= clock.efficiency;
    }
    Ok(AtomResult {
        outputs,
        records_processed: run.records_processed,
        simulated_overhead_ms: overhead,
        simulated_elapsed_ms: overhead + work_ms,
        node_observations,
    })
}

/// One atom execution in flight.
struct Run<'a, E> {
    engine: &'a E,
    clock: Clock,
    overheads: &'a OverheadConfig,
    ctx: &'a ExecutionContext,
    /// Charged fixed overheads (job startup, stage scheduling).
    overhead_ms: f64,
    /// Simulated elapsed time: overheads + boundary I/O + the critical
    /// path of every stage + driver-side plumbing.
    elapsed_ms: f64,
    /// Kernel work: every task's time, summed.
    work_ms: f64,
    /// Rows spilled at stage boundaries, and the time that took.
    spilled_rows: u64,
    spill_ms: f64,
    records_processed: u64,
    /// Per-kernel observations (top-level nodes only; loop bodies are
    /// charged to their `Loop` node).
    observations: Vec<NodeObservation>,
}

impl<E: Engine> Run<'_, E> {
    /// Cross a stage boundary with one operator's inputs: the clock's
    /// stage charge — per input on a disk-phased clock, whose engine then
    /// spills each, the disk I/O charged serially.
    fn stage(&mut self, inputs: &mut [Parts]) -> Result<()> {
        let disk = self.clock.exchange == Exchange::Disk;
        for _ in 0..if disk { inputs.len() } else { 1 } {
            let ms = self.overheads.pay(self.clock.stage_ms);
            self.overhead_ms += ms;
            self.elapsed_ms += ms;
        }
        if disk {
            let clock = WorkClock::start();
            self.engine.spill(inputs)?;
            let ms = clock.stop().work_ms;
            self.elapsed_ms += ms;
            self.spill_ms += ms;
            self.spilled_rows += inputs.iter().flatten().map(|p| p.len() as u64).sum::<u64>();
        }
        Ok(())
    }

    /// [`Run::stage`] for an operator with one input.
    fn stage_one(&mut self, input: Parts) -> Result<Parts> {
        let mut input = [input];
        self.stage(&mut input)?;
        let [input] = input;
        Ok(input)
    }

    /// Time driver-side plumbing, charged at the clock's driver share.
    fn driver<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let clock = WorkClock::start();
        let out = f();
        self.elapsed_ms += clock.stop().work_ms * self.clock.driver_share;
        out
    }

    /// Run `op` as one task on gathered inputs: kernel work, charged in
    /// full when `serial` (genuinely one task) and at the driver share when
    /// the driver runs it.
    fn single_task(
        &mut self,
        op: &PhysicalOp,
        gathered: &[Dataset],
        serial: bool,
    ) -> Result<(Dataset, bool)> {
        let clock = WorkClock::start();
        let out = kernels::execute(op, gathered)?;
        let ms = clock.stop().work_ms;
        self.work_ms += ms;
        self.elapsed_ms += if serial {
            ms
        } else {
            ms * self.clock.driver_share
        };
        Ok(out)
    }

    /// Run `op` as one stage: the operator table on every partition (the
    /// partition is the parallel unit; each kernel runs whole), charging
    /// the critical path. Task `i` is given `right(i)` as its second input.
    /// The flag is true when every task ran without touching rows.
    fn tasks<'r>(
        &mut self,
        op: &PhysicalOp,
        parts: Parts,
        right: impl Fn(usize) -> Option<&'r Dataset>,
    ) -> Result<(Parts, bool)> {
        let mut columnar = true;
        let (out, max_ms, sum_ms) = run_partitions_timed(parts, |i, p| {
            let mut inputs = vec![p];
            inputs.extend(right(i).cloned());
            let (out, took) = kernels::execute(op, &inputs)?;
            columnar &= took;
            Ok(out)
        })?;
        self.elapsed_ms += max_ms;
        self.work_ms += sum_ms;
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
            _ => self.clock.partitions_for(gathered.len()),
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
                    split(d, self.clock.partitions_for(d.len()))
                } else {
                    return Err(RheemError::InvalidPlan(format!(
                        "node {id} input slot {slot} is not available"
                    )));
                };
                inputs.push(parts);
            }
            let before = (
                self.elapsed_ms,
                self.work_ms,
                self.spilled_rows,
                self.spill_ms,
            );
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
                    elapsed_ms: self.elapsed_ms - before.0,
                    work_ms: self.work_ms - before.1,
                    columnar,
                    spilled_rows: self.spilled_rows - before.2,
                    spill_ms: self.spill_ms - before.3,
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
        let workers = self.clock.workers;
        let mut inputs = inputs.into_iter();
        let mut next = || inputs.next().expect("plan validation checked the arity");
        Ok(match op.layout() {
            // Sources and sinks only hand partitions along: windows of the
            // source dataset, materialized by whoever reads them.
            Layout::Source => {
                let (data, passed) = execute_op(op, &[], self.ctx, None)?;
                (split(&data, self.clock.partitions_for(data.len())), passed)
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
            // distributed sort is modeled as gather + sort + re-split, the
            // sort charged at the driver share.
            Layout::Gather => {
                let input = self.stage_one(next())?;
                let gathered = self.driver(|| concat(input));
                let (sorted, columnar) = self.single_task(op, &[gathered], false)?;
                (split(&sorted, workers), columnar)
            }
            Layout::CombineGather => {
                let (local, _) = self.tasks(op, next(), |_| None)?;
                let local = self.stage_one(local)?;
                let (reduced, columnar) = self.single_task(op, &[concat(local)], true)?;
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
                let (result, columnar) = self.single_task(op, &gathered, true)?;
                (split(&result, workers), columnar)
            }
            Layout::Sink => {
                let data = concat(next());
                let (out, passed) = execute_op(op, &[data], self.ctx, None)?;
                (vec![out], passed)
            }
        })
    }
}
