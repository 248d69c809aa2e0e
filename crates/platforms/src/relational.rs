//! The relational platform: a PostgreSQL-like single-node engine.
//!
//! Substitution for the paper's relational DBMS (§1: "one may aggregate
//! large datasets with traditional queries on top of a relational database
//! such as PostgreSQL, but ML tasks might be much faster if executed on
//! Spark"). The cost profile reproduced here:
//!
//! * relational operators (scan, filter, project, joins, grouping, sort)
//!   are cheap per record — decades of engine engineering;
//! * opaque record-level UDFs (`Map`/`FlatMap`) are *expensive* — they
//!   leave the optimized plan path, like PL/pgSQL functions;
//! * loops and application-defined operators are simply **not
//!   supported** — the multi-platform optimizer must place them elsewhere,
//!   which is what creates genuinely mixed execution plans.

use std::sync::Arc;
use std::time::Duration;

use rheem_core::cost::{op_work_units, PlatformCostModel};
use rheem_core::error::{Result, RheemError};
use rheem_core::physical::PhysicalOp;
use rheem_core::plan::{PhysicalPlan, TaskAtom};
use rheem_core::platform::{AtomInputs, AtomResult, ExecutionContext, Platform, ProcessingProfile};

use crate::config::OverheadConfig;
use crate::runner::run_in_process;

/// Cost model with differentiated relational-vs-UDF prices.
#[derive(Clone, Debug)]
pub struct RelationalCostModel {
    /// Per-unit price for native relational operators.
    pub relational_per_unit: f64,
    /// Per-unit price for opaque UDF operators.
    pub udf_per_unit: f64,
    /// Per-atom connection/parse/plan overhead.
    pub startup: f64,
}

impl Default for RelationalCostModel {
    fn default() -> Self {
        RelationalCostModel {
            relational_per_unit: 5e-5,
            udf_per_unit: 5e-4,
            startup: 10.0,
        }
    }
}

impl PlatformCostModel for RelationalCostModel {
    fn op_cost(&self, op: &PhysicalOp, input_cards: &[f64], output_card: f64) -> f64 {
        let work = op_work_units(op, input_cards, output_card);
        let per_unit = match op {
            PhysicalOp::Map(_)
            | PhysicalOp::Project { .. }
            | PhysicalOp::ChunkPipeline { .. }
            | PhysicalOp::FlatMap(_)
            | PhysicalOp::Custom(_)
            | PhysicalOp::Loop { .. } => self.udf_per_unit,
            _ => self.relational_per_unit,
        };
        work * per_unit
    }

    fn atom_startup_cost(&self) -> f64 {
        self.startup
    }
}

/// Single-node relational execution engine.
pub struct RelationalPlatform {
    overheads: OverheadConfig,
    cost: Arc<RelationalCostModel>,
}

/// Simulated engine-efficiency factor applied to measured work time.
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
            cost: Arc::new(RelationalCostModel::default()),
        }
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: RelationalCostModel) -> Self {
        self.cost = Arc::new(cost);
        self
    }
}

impl Platform for RelationalPlatform {
    fn name(&self) -> &str {
        "relational"
    }

    fn profile(&self) -> ProcessingProfile {
        ProcessingProfile::Relational
    }

    fn supports(&self, op: &PhysicalOp) -> bool {
        !matches!(
            op,
            PhysicalOp::Loop { .. } | PhysicalOp::Custom(_) | PhysicalOp::LoopInput
        )
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
        // Kernels are scaled like the atom total, so calibration sees the
        // modeled engine's speed.
        run_in_process(&self.overheads, EFFICIENCY, plan, atom, inputs, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::rec;
    use rheem_core::udf::{KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
    use rheem_core::RheemContext;

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

    #[test]
    fn cost_model_penalizes_udfs() {
        let m = RelationalCostModel::default();
        let map = PhysicalOp::Map(MapUdf::new("udf", |r| r.clone()));
        let filter = PhysicalOp::Filter(rheem_core::udf::FilterUdf::new("p", |_| true));
        let udf_cost = m.op_cost(&map, &[1000.0], 1000.0);
        let rel_cost = m.op_cost(&filter, &[1000.0], 1000.0);
        assert!(udf_cost > rel_cost * 5.0);
        // A row-shaping operator outside the filter/join/group family pays
        // the UDF price too.
        let project = PhysicalOp::Project { indices: vec![0] };
        let work = op_work_units(&project, &[1000.0], 1000.0);
        assert_eq!(
            m.op_cost(&project, &[1000.0], 1000.0),
            work * m.udf_per_unit
        );
    }
}
