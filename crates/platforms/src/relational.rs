//! The relational platform: a PostgreSQL-like single-node engine.
//!
//! Substitution for the paper's relational DBMS (§1: "one may aggregate
//! large datasets with traditional queries on top of a relational database
//! such as PostgreSQL, but ML tasks might be much faster if executed on
//! Spark"). The profile reproduced here:
//!
//! * a per-query connection overhead, and kernel work charged at half its
//!   measured time — decades of engine engineering;
//! * loops and application-defined operators are simply **not
//!   supported** — the multi-platform optimizer must place them elsewhere,
//!   which is what creates genuinely mixed execution plans.

use std::time::Duration;

use rheem_core::{
    AtomInputs, AtomResult, ChannelKind, ChannelSet, Clock, ExecutionContext, PhysicalOp,
    PhysicalPlan, Platform, Result, RheemError, TaskAtom,
};

use crate::config::OverheadConfig;
use crate::runner::run_in_process;

/// Single-node relational execution engine.
pub struct RelationalPlatform {
    overheads: OverheadConfig,
}

/// The clock's engine-efficiency factor: measured kernel work is charged
/// at this share.
///
/// The reference interpreter executes relational operators with generic
/// record handling; a real DBMS executes them with decades of
/// engineering (vectorization, tuned joins, statistics). Like the
/// parallel platforms' critical-path accounting, this factor makes the
/// *simulated* elapsed time reflect the engine being modeled rather
/// than our substrate (see DESIGN.md).
const EFFICIENCY: f64 = 0.5;

impl Default for RelationalPlatform {
    fn default() -> Self {
        RelationalPlatform::new()
    }
}

impl RelationalPlatform {
    /// A platform with a 5 ms connection overhead and a 2× simulated
    /// engine-efficiency advantage over the generic interpreter.
    pub fn new() -> Self {
        RelationalPlatform {
            overheads: OverheadConfig::accounted_only(Duration::from_millis(5), Duration::ZERO),
        }
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }
}

impl Platform for RelationalPlatform {
    fn name(&self) -> &str {
        "relational"
    }

    fn supports(&self, op: &PhysicalOp) -> bool {
        !matches!(
            op,
            PhysicalOp::Loop { .. } | PhysicalOp::Custom(_) | PhysicalOp::LoopInput
        )
    }

    /// In process; bulk-loads files or exchanges result sets in memory.
    fn clock(&self) -> Clock {
        Clock::in_process(
            self.overheads.startup_ms(),
            EFFICIENCY,
            ChannelSet::of(&[ChannelKind::Memory, ChannelKind::File]),
        )
    }

    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> Result<AtomResult> {
        // Reject unsupported operators defensively: the optimizer should
        // never route them here, but a forced-platform configuration might.
        for n in &atom.nodes {
            let op = &plan.node(*n).op;
            if !self.supports(op) {
                return Err(RheemError::Execution {
                    platform: "relational".into(),
                    message: format!("operator {} is not supported by the engine", op.name()),
                });
            }
        }
        run_in_process(&self.overheads, &self.clock(), plan, atom, inputs, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::udf::{KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
    use rheem_core::{rec, PlanBuilder, RheemContext};
    use std::sync::Arc;

    fn rel() -> RelationalPlatform {
        RelationalPlatform::new().with_overheads(OverheadConfig::none())
    }

    #[test]
    fn relational_query_executes() {
        let mut b = PlanBuilder::new();
        let src = b.collection("orders", (0..100i64).map(|i| rec![i % 10, i * 2]).collect());
        let red = b.reduce_by_key(
            src,
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        let sink = b.collect(red);
        let ctx = RheemContext::new().with_platform(Arc::new(rel()));
        let result = ctx.execute(b.build().unwrap()).unwrap();
        assert_eq!(result.outputs[&sink].len(), 10);
        assert_eq!(result.stats.platforms_used(), vec!["relational"]);
    }

    #[test]
    fn loops_are_not_supported() {
        let p = rel();
        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("id", |r| r.clone()));
        let body = body.build_fragment().unwrap();
        let op = PhysicalOp::Loop {
            body: Arc::new(body),
            condition: LoopCondUdf::fixed_iterations(1),
            max_iterations: 1,
            expected_iterations: 1.0,
        };
        assert!(!p.supports(&op));
        assert!(!p.supports(&PhysicalOp::LoopInput));
        assert!(p.supports(&PhysicalOp::Limit { n: 1 }));
    }

    #[test]
    fn forced_execution_of_unsupported_op_fails_cleanly() {
        let ctx = RheemContext::new()
            .with_platform(Arc::new(rel()))
            .force_platform("relational");
        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("id", |r| r.clone()));
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let l = b.repeat(
            src,
            body.build_fragment().unwrap(),
            LoopCondUdf::fixed_iterations(1),
            1,
        );
        b.collect(l);
        // The optimizer has no feasible platform for the loop.
        assert!(ctx.execute(b.build().unwrap()).is_err());
    }
}
