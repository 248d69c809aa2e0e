//! Plan-time compilation of transparent operator chains into
//! [`PhysicalOp::ChunkPipeline`]s.
//!
//! UDFs built from the expression IR ([`crate::expr::Expr`]) carry their
//! declarative form next to the opaque closure (see
//! [`crate::udf::MapUdf::from_exprs`] / [`crate::udf::FilterUdf::from_expr`]).
//! For those operators the optimizer can do what a row-at-a-time
//! interpreter cannot: fuse an adjacent `Filter → Map → Project` chain into
//! **one** physical operator that evaluates the whole chain per columnar
//! chunk — no intermediate record materialization, no per-row dynamic
//! dispatch, one pass over the data.
//!
//! Fusion is deliberately conservative:
//!
//! * only single-consumer producers are folded into their consumer (a
//!   shared intermediate result must stay materialized);
//! * a pipeline must contain at least one *expression-bearing* stage
//!   (filter predicate or map expressions) — a bare `Project` chain gains
//!   nothing from chunk evaluation and is left for the per-operator kernel;
//! * opaque (closure-only) UDFs never fuse, so plans written before the
//!   expression IR existed — and their golden explains — are untouched.
//!
//! Cost-wise the fused operator is priced like everything else, by its
//! platform's clock over its kernel rate: its cardinality is
//! the product-fold of the stage selectivities and its work units are
//! `input + output` (a single pass), which is exactly the saving the
//! rewrite claims.

use std::sync::Arc;

use crate::error::Result;
use crate::physical::{PhysicalOp, PipelineStage, StageKind};
use crate::plan::{NodeId, PhysicalPlan};

use super::rewrites::{consumer_counts, rebuild};

/// Partition the plan into maximal linear chains, the graph contraction
/// the lattice enumerator ([`super::enumerate()`]) searches over.
///
/// Every node lands in exactly one chain (a singleton when it cannot
/// extend); a node joins its producer's chain iff it has exactly one input
/// and that producer has exactly one consumer — the same "transparent
/// straight line" shape pipeline fusion exploits, but independent of
/// whether the UDFs are expression-bearing: chain contraction only groups
/// nodes for *enumeration*, it never changes the plan.
///
/// Chains are returned with nodes in dataflow order, sorted by head node
/// id — a valid topological order of the contracted DAG (a chain's head
/// always has a larger id than every node of any chain it depends on).
pub(crate) fn contract_chains(plan: &PhysicalPlan) -> Vec<Vec<NodeId>> {
    let counts = consumer_counts(plan);
    let mut chain_of: Vec<usize> = vec![usize::MAX; plan.len()];
    let mut chains: Vec<Vec<NodeId>> = Vec::new();
    for node in plan.nodes() {
        let extend = match node.inputs.as_slice() {
            [only] if counts[only.0] == 1 => Some(chain_of[only.0]),
            _ => None,
        };
        let c = match extend {
            Some(c) => c,
            None => {
                chains.push(Vec::new());
                chains.len() - 1
            }
        };
        chains[c].push(node.id);
        chain_of[node.id.0] = c;
    }
    chains.sort_by_key(|c| c[0]);
    chains
}

/// Whether any stage actually evaluates expressions (the requirement for a
/// pipeline to exist at all).
fn has_expr_stage(stages: &[PipelineStage]) -> bool {
    stages
        .iter()
        .any(|s| matches!(s.kind, StageKind::Filter { .. } | StageKind::Map { .. }))
}

/// Fuse every maximal run of pipeline-able operators into one
/// [`PhysicalOp::ChunkPipeline`], stages in dataflow order — the only fusion
/// the optimizer has.
///
/// A run is a stretch of consecutive pipeline-able nodes inside one chain of
/// [`contract_chains`], so every link in it is single-input and
/// single-consumer. The pipeline takes the place of the run's last node and
/// reads what the run's first node read; the nodes before the last are
/// dropped. All runs are rewritten in one rebuild of the plan.
pub(crate) fn fuse_pipelines(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let mut fused: Vec<Option<PhysicalOp>> = vec![None; plan.len()];
    // Identity for every surviving node; a folded node points at its run's
    // input.
    let mut redirect: Vec<NodeId> = (0..plan.len()).map(NodeId).collect();
    for chain in contract_chains(&plan) {
        for run in chain.split(|&id| plan.node(id).op.pipeline_stages().is_none()) {
            let [folded @ .., last] = run else { continue };
            if folded.is_empty() {
                continue; // a lone operator keeps its own kernel
            }
            let stages: Vec<PipelineStage> = run
                .iter()
                .filter_map(|&id| plan.node(id).op.pipeline_stages())
                .flatten()
                .collect();
            if !has_expr_stage(&stages) {
                continue; // e.g. Project over Project: nothing to compile
            }
            let input = plan.node(run[0]).inputs[0];
            for id in folded {
                redirect[id.0] = input;
            }
            fused[last.0] = Some(PhysicalOp::ChunkPipeline {
                stages: Arc::from(stages),
            });
        }
    }
    if fused.iter().all(Option::is_none) {
        return Ok(plan);
    }
    rebuild(
        &plan,
        |id| redirect[id.0] == id,
        |id| fused[id.0].take(),
        |id| redirect[id.0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::interpreter::run_plan;
    use crate::optimizer::rewrites::apply_rewrites;
    use crate::plan::PlanBuilder;
    use crate::platform::ExecutionContext;
    use crate::rec;
    use crate::udf::{FilterUdf, MapUdf};

    fn nums(n: i64) -> Vec<crate::data::Record> {
        (0..n).map(|i| rec![i, i * 2]).collect()
    }

    /// Chains of 2..=12 transparent stages in varying mixes: one pass leaves
    /// one pipeline whose stages are the chain's operators in dataflow order.
    #[test]
    fn generated_transparent_chains_become_one_pipeline_in_order() {
        for n in 2..=12usize {
            let mut b = PlanBuilder::new();
            let mut at = b.collection("s", nums(64));
            let mut names = Vec::new();
            for stage in 0..n {
                // Never a projection first, so the chain bears an expression.
                let kind = (n + stage * stage) % if stage == 0 { 2 } else { 3 };
                let name = format!("s{stage}");
                let bound = Expr::lit(60 - stage as i64);
                at = match kind {
                    0 => b.filter(at, FilterUdf::from_expr(&name, Expr::field(0).lt(bound))),
                    1 => {
                        let exprs = vec![Expr::field(0).add(Expr::lit(1i64)), Expr::field(1)];
                        b.map(at, MapUdf::from_exprs(&name, exprs))
                    }
                    _ => b.project(at, vec![1, 0]),
                };
                names.push(if kind == 2 { "π[1,0]".into() } else { name });
            }
            b.collect(at);
            let plan = b.build().unwrap();
            let before = run_plan(&plan, &ExecutionContext::new()).unwrap();

            let rewritten = apply_rewrites(plan).unwrap();
            assert_eq!(rewritten.len(), 3, "{}", rewritten.explain());
            let PhysicalOp::ChunkPipeline { stages } = &rewritten.nodes()[1].op else {
                panic!("expected one pipeline:\n{}", rewritten.explain());
            };
            let fused: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(fused, names);
            let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
            assert_eq!(
                before.values().next().unwrap(),
                after.values().next().unwrap()
            );
        }
    }

    /// Opaque UDFs never fuse — not into a pipeline, and not with each
    /// other: two adjacent opaque maps stay two operators.
    #[test]
    fn opaque_udfs_do_not_fuse() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let f = b.filter(src, FilterUdf::new("keep", |r| r.int(0).unwrap() < 5));
        let m1 = b.map(f, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let m2 = b.map(m1, MapUdf::new("dbl", |r| rec![r.int(0).unwrap() * 2]));
        let p = b.project(m2, vec![0]);
        b.collect(p);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();

        let rewritten = apply_rewrites(plan).unwrap();
        let names: Vec<String> = rewritten.nodes().iter().map(|n| n.op.name()).collect();
        assert_eq!(rewritten.len(), 6, "{names:?}");
        assert!(
            names[2].contains("inc") && names[3].contains("dbl"),
            "{names:?}"
        );
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
    }

    #[test]
    fn shared_intermediate_results_stay_materialized() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let f = b.filter(
            src,
            FilterUdf::from_expr("keep", Expr::field(0).lt(Expr::lit(5i64))),
        );
        let p = b.project(f, vec![0]);
        b.collect(p);
        b.collect(f); // second consumer: f must not be folded into p
        let plan = b.build().unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        assert!(
            rewritten
                .nodes()
                .iter()
                .any(|n| matches!(n.op, PhysicalOp::Filter(_))),
            "{}",
            rewritten.explain()
        );
    }

    #[test]
    fn bare_project_chains_are_left_alone() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let p1 = b.project(src, vec![0, 1]);
        let p2 = b.project(p1, vec![0]);
        b.collect(p2);
        let plan = b.build().unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        assert!(!rewritten
            .nodes()
            .iter()
            .any(|n| matches!(n.op, PhysicalOp::ChunkPipeline { .. })));
    }

    #[test]
    fn fused_pipeline_matches_row_semantics_on_dirty_data() {
        use crate::data::Value;
        let mut b = PlanBuilder::new();
        let data = vec![
            rec![1i64, 2i64],
            vec![Value::Null, Value::Float(f64::NAN)].into(),
            rec![-0.0f64, 7i64],
            vec![Value::Int(i64::MAX), Value::Int(1)].into(),
        ];
        let src = b.collection("s", data);
        let f = b.filter(
            src,
            FilterUdf::from_expr("notnull", Expr::IsNull(Arc::new(Expr::field(0))).not()),
        );
        let m = b.map(
            f,
            MapUdf::from_exprs("calc", vec![Expr::field(0).add(Expr::field(1))]),
        );
        b.collect(m);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        assert!(rewritten
            .nodes()
            .iter()
            .any(|n| matches!(n.op, PhysicalOp::ChunkPipeline { .. })));
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
    }
}
