//! A reference single-threaded plan-fragment interpreter.
//!
//! This is the core of the "plain Java program" execution style from the
//! paper's Figure 2 experiment: no partitioning, no scheduling, no fixed
//! overheads — just straight-line evaluation of operators over full batches.
//! Every kernel call goes through the operator table ([`kernels::execute`]);
//! what is left here is the fragment loop and the operators bound to an
//! execution context. The `JavaPlatform` delegates to it wholesale; the
//! partitioned runner resolves its sources and sinks through [`execute_op`].

use std::collections::HashMap;

use crate::data::Dataset;
use crate::error::{Result, RheemError};
use crate::kernels;
use crate::observe::WorkClock;
use crate::physical::PhysicalOp;
use crate::plan::{NodeId, PhysicalPlan};
use crate::platform::{AtomInputs, ExecutionContext};

/// The result of interpreting a plan fragment.
#[derive(Clone, Debug, Default)]
pub struct FragmentRun {
    /// Output dataset of every executed node.
    pub outputs: HashMap<NodeId, Dataset>,
    /// Total records produced across all executed operators.
    pub records_processed: u64,
    /// Per-node kernel observations (timing + true output cardinality),
    /// for the fragment's top-level nodes only: loop-body iterations fold
    /// into their `Loop` node's observation, because body node ids belong
    /// to a different plan and would collide with the outer plan's ids.
    pub observations: Vec<crate::observe::NodeObservation>,
}

/// Interpret the given `nodes` of `plan` in order.
///
/// Each node's inputs are resolved first from previously executed nodes in
/// this fragment, then from `boundary` (datasets crossing the atom
/// boundary). `loop_state`, when present, binds any [`PhysicalOp::LoopInput`]
/// node.
pub fn run_fragment(
    plan: &PhysicalPlan,
    nodes: &[NodeId],
    boundary: &AtomInputs,
    ctx: &ExecutionContext,
    loop_state: Option<&Dataset>,
) -> Result<FragmentRun> {
    let mut run = FragmentRun::default();
    for &id in nodes {
        // Cancellation checkpoint: between operators; inside one, a closure
        // kernel stops before its next row.
        ctx.check_cancelled()?;
        let node = plan.node(id);
        let mut inputs: Vec<Dataset> = Vec::with_capacity(node.inputs.len());
        for (slot, producer) in node.inputs.iter().enumerate() {
            let ds = if let Some(d) = run.outputs.get(producer) {
                d.clone()
            } else if let Some(d) = boundary.get(&(id, slot)) {
                d.clone()
            } else {
                return Err(RheemError::InvalidPlan(format!(
                    "node {id} input slot {slot} (producer {producer}) is not available"
                )));
            };
            inputs.push(ds);
        }
        // One clock reading per operator, outside any kernel hot loop: the
        // kernel runs whole on this thread, so this is its work.
        let clock = WorkClock::start();
        let out = execute_op(&node.op, &inputs, ctx, loop_state);
        let work_ms = clock.stop().work_ms;
        let (out, columnar) = out?;
        if loop_state.is_none() {
            run.observations.push(crate::observe::NodeObservation {
                node: id,
                op: node.op.name(),
                records_out: out.len() as u64,
                elapsed_ms: work_ms,
                work_ms,
                columnar,
                spilled_rows: 0,
                spill_ms: 0.0,
            });
        }
        run.records_processed += out.len() as u64;
        run.outputs.insert(id, out);
    }
    Ok(run)
}

/// Execute a single physical operator on gathered inputs, reporting
/// whether it ran without touching rows (see [`kernels::execute`], the
/// operator table every kernel call goes through). What the table cannot
/// know is resolved here: the storage service, the loop state, and the
/// driving of a loop body.
pub fn execute_op(
    op: &PhysicalOp,
    inputs: &[Dataset],
    ctx: &ExecutionContext,
    loop_state: Option<&Dataset>,
) -> Result<(Dataset, bool)> {
    let out = match op {
        PhysicalOp::StorageSource { dataset_id } => (ctx.storage()?.read(dataset_id)?, false),
        PhysicalOp::LoopInput => {
            let state = loop_state
                .ok_or_else(|| RheemError::InvalidPlan("LoopInput outside a loop body".into()))?;
            (state.clone(), true)
        }
        PhysicalOp::Loop {
            body,
            condition,
            max_iterations,
            ..
        } => {
            let state = run_loop(body, condition, *max_iterations, inputs[0].clone(), ctx)?;
            (state, false)
        }
        _ => kernels::execute(op, inputs)?,
    };
    // A cancel that fires *inside* a closure kernel truncates its output
    // (it stops before the next row). The pre-node checkpoint in
    // `run_fragment` only covers nodes that have a successor, so re-check
    // here: a truncated result must never be returned as this operator's
    // (and possibly the job's) output.
    ctx.check_cancelled()?;
    Ok(out)
}

/// Drive a [`PhysicalOp::Loop`]: evaluate the condition before each
/// iteration, run the body on the current state, and use the body's terminal
/// output as the next state.
pub(crate) fn run_loop(
    body: &PhysicalPlan,
    condition: &crate::udf::LoopCondUdf,
    max_iterations: u64,
    initial: Dataset,
    ctx: &ExecutionContext,
) -> Result<Dataset> {
    let terminal = *body
        .terminals()
        .first()
        .ok_or_else(|| RheemError::InvalidPlan("loop body has no terminal".into()))?;
    let all_nodes: Vec<NodeId> = body.nodes().iter().map(|n| n.id).collect();
    let mut state = initial;
    let mut iteration = 0u64;
    while iteration < max_iterations && (condition.f)(iteration, state.records()) {
        ctx.check_cancelled()?;
        let run = run_fragment(body, &all_nodes, &HashMap::new(), ctx, Some(&state))?;
        state = run
            .outputs
            .get(&terminal)
            .cloned()
            .ok_or_else(|| RheemError::InvalidPlan("loop body terminal missing".into()))?;
        iteration += 1;
    }
    Ok(state)
}

/// Convenience for tests and docs: execute a whole plan on the reference
/// interpreter and return the outputs of its sink nodes.
pub fn run_plan(plan: &PhysicalPlan, ctx: &ExecutionContext) -> Result<HashMap<NodeId, Dataset>> {
    plan.validate()?;
    let all: Vec<NodeId> = plan.nodes().iter().map(|n| n.id).collect();
    let run = run_fragment(plan, &all, &HashMap::new(), ctx, None)?;
    Ok(plan
        .sinks()
        .into_iter()
        .filter_map(|s| run.outputs.get(&s).map(|d| (s, d.clone())))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Value;
    use crate::plan::PlanBuilder;
    use crate::platform::{MemoryStorageService, StorageService};
    use crate::rec;
    use crate::udf::{FilterUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
    use std::sync::Arc;

    fn nums(n: i64) -> Vec<crate::data::Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn straight_line_pipeline() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let f = b.filter(src, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0));
        let m = b.map(f, MapUdf::new("sq", |r| rec![r.int(0).unwrap().pow(2)]));
        let sink = b.collect(m);
        let plan = b.build().unwrap();
        let out = run_plan(&plan, &ExecutionContext::new()).unwrap();
        let result = &out[&sink];
        assert_eq!(
            result.records(),
            &[
                rec![0i64],
                rec![4i64],
                rec![16i64],
                rec![36i64],
                rec![64i64]
            ]
        );
    }

    #[test]
    fn group_by_and_reduce_agree() {
        let data = vec![
            rec!["a", 1i64],
            rec!["b", 2i64],
            rec!["a", 3i64],
            rec!["b", 4i64],
        ];
        let mut b = PlanBuilder::new();
        let src = b.collection("s", data.clone());
        let g = b.group_by(
            src,
            KeyUdf::field(0),
            GroupMapUdf::new("sum", |k, members| {
                let total: i64 = members.iter().map(|r| r.int(1).unwrap()).sum();
                vec![crate::data::Record::new(vec![k.clone(), Value::Int(total)])]
            }),
        );
        let gs = b.collect(g);
        let src2 = b.collection("s2", data);
        let red = b.reduce_by_key(
            src2,
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.str(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        let rs = b.collect(red);
        let plan = b.build().unwrap();
        let out = run_plan(&plan, &ExecutionContext::new()).unwrap();
        assert_eq!(out[&gs], out[&rs]);
        assert_eq!(out[&gs].records(), &[rec!["a", 4i64], rec!["b", 6i64]]);
    }

    #[test]
    fn loop_accumulates_state() {
        // State: single record [x]; body: x <- x * 2; 5 iterations.
        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("x2", |r| rec![r.int(0).unwrap() * 2]));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(5), 100);
        let sink = b.collect(l);
        let plan = b.build().unwrap();
        let out = run_plan(&plan, &ExecutionContext::new()).unwrap();
        assert_eq!(out[&sink].records(), &[rec![32i64]]);
    }

    #[test]
    fn loop_respects_max_iterations_cap() {
        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![0i64]]);
        // Condition always true, but cap at 3.
        let l = b.repeat(src, body, LoopCondUdf::new("forever", |_, _| true), 3);
        let sink = b.collect(l);
        let plan = b.build().unwrap();
        let out = run_plan(&plan, &ExecutionContext::new()).unwrap();
        assert_eq!(out[&sink].records(), &[rec![3i64]]);
    }

    #[test]
    fn storage_source_reads_through_the_context() {
        let storage = Arc::new(MemoryStorageService::new());
        storage.write("in", &Dataset::new(nums(4))).unwrap();
        let ctx = ExecutionContext::new().with_storage(storage);

        let mut b = PlanBuilder::new();
        let src = b.storage_source("in");
        let m = b.map(src, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let sink = b.collect(m);
        let plan = b.build().unwrap();
        let out = run_plan(&plan, &ctx).unwrap();
        assert_eq!(
            out[&sink].records(),
            &[rec![1i64], rec![2i64], rec![3i64], rec![4i64]]
        );
    }

    /// A cancel fired *inside* the kernel of a fragment's last node must
    /// surface as `Cancelled`, not as a silently truncated `Ok` — there is
    /// no later node whose pre-check could catch the fired token, and the
    /// map stops before its next row once the token fires.
    #[test]
    fn cancel_mid_kernel_of_the_last_node_surfaces_cancelled() {
        use crate::error::CancelReason;
        use crate::fault::CancelToken;

        let token = CancelToken::new();
        let trip = token.clone();
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(64));
        let m = b.map(
            src,
            MapUdf::new("cancel-mid", move |r| {
                if r.int(0).unwrap() == 5 {
                    trip.cancel(CancelReason::Explicit);
                }
                r.clone()
            }),
        );
        b.collect(m);
        let plan = b.build().unwrap();
        let ctx = ExecutionContext::new().with_cancel_token(token.clone());
        // Run only up to the map: the fragment *ends* on the truncating
        // kernel, exactly the shape of an atom whose terminal node is a
        // map/flat_map/filter.
        let result = crate::fault::with_cancel_scope(&token, || {
            run_fragment(&plan, &[src, m], &HashMap::new(), &ctx, None)
        });
        assert!(
            matches!(result, Err(RheemError::Cancelled { .. })),
            "truncated fragment must not be returned as success: {result:?}"
        );
    }

    #[test]
    fn missing_input_is_reported() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(2));
        let m = b.map(src, MapUdf::new("id", |r| r.clone()));
        b.collect(m);
        let plan = b.build().unwrap();
        // Run only the map node, without providing its boundary input.
        let err = run_fragment(&plan, &[m], &HashMap::new(), &ExecutionContext::new(), None);
        assert!(err.is_err());
    }

    #[test]
    fn loop_input_outside_loop_errors() {
        let mut b = PlanBuilder::new();
        let li = b.loop_input();
        b.collect(li);
        let plan = b.build().unwrap();
        assert!(run_plan(&plan, &ExecutionContext::new()).is_err());
    }
}
