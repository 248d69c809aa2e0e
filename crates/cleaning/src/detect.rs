//! Violation detection: the five BigDansing logical operators compiled to
//! RHEEM plans, under four alternative physical strategies.
//!
//! The paper's Figure 3 is entirely about these strategies:
//!
//! * [`DetectionStrategy::OperatorPipeline`] — the BigDansing way: `Scope`
//!   (project the rule's columns) → `Block` (group by the equality key) →
//!   `Iterate` + `Detect` (enumerate and test pairs *within* each block).
//!   Fine operator granularity lets the platform parallelize per block
//!   (Figure 3 left, winning side).
//! * [`DetectionStrategy::SingleUdf`] — the whole detection as one opaque
//!   UDF. Same asymptotic work, but a single indivisible task: no
//!   distribution (Figure 3 left, losing side).
//! * [`DetectionStrategy::CrossProduct`] — a theta self-join over the full
//!   pair space, the "state-of-the-art baseline" profile the paper had to
//!   stop after 22 hours (Figure 3 right, losing side).
//! * [`DetectionStrategy::IeJoin`] — the IEJoin physical-operator
//!   extension for inequality rules (Figure 3 right, winning side).

use std::sync::Arc;

use rheem_core::udf::{GroupMapUdf, KeyUdf, MapUdf};
use rheem_core::{
    CustomPhysicalOp, Dataset, JobResult, NodeId, PhysicalPlan, PlanBuilder, Record, Result,
    RheemContext, Text,
};

use crate::iejoin::IeJoinOp;
use crate::rules::{DenialConstraint, Violation};

/// How to physically execute violation detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectionStrategy {
    /// Scope → Block → Iterate/Detect operator pipeline (BigDansing).
    OperatorPipeline,
    /// One monolithic detect UDF (coarse granularity baseline).
    SingleUdf,
    /// Theta self-join over all pairs (no blocking, no IEJoin).
    CrossProduct,
    /// Operator pipeline with the IEJoin physical operator (inequality
    /// rules only).
    IeJoin,
}

/// Enumerate violations among a block's members (the `Iterate` + `Detect`
/// operators fused, as BigDansing's physical plan does); `name` is the
/// rule's name, shared by every violation record.
fn detect_within(rule: &DenialConstraint, name: &Text, members: &[Record]) -> Vec<Record> {
    let mut out = Vec::new();
    for t1 in members {
        for t2 in members {
            if rule.violates(t1, t2).unwrap_or(false) {
                out.push(Violation::record(
                    name,
                    t1.int(rule.id_column).expect("id column"),
                    t2.int(rule.id_column).expect("id column"),
                ));
            }
        }
    }
    out
}

/// The monolithic "single Detect UDF" baseline: blocking, iteration, and
/// detection all inside one opaque, non-partitionable operator.
struct MonolithicDetect {
    rule: DenialConstraint,
}

impl CustomPhysicalOp for MonolithicDetect {
    fn name(&self) -> &str {
        "MonolithicDetect"
    }

    fn arity(&self) -> usize {
        1
    }

    fn execute(&self, inputs: &[Dataset]) -> Result<Dataset> {
        // Same blocking as the pipeline — but sequential and indivisible.
        let records = inputs[0].records();
        let name = Text::from(self.rule.name.as_str());
        let mut out = Vec::new();
        match self.rule.blocking_column() {
            Some(col) => {
                let key = KeyUdf::field(col);
                for (_, members) in rheem_core::kernels::hash_group(records, &key) {
                    out.extend(detect_within(&self.rule, &name, &members));
                }
            }
            None => out.extend(detect_within(&self.rule, &name, records)),
        }
        Ok(Dataset::new(out))
    }

    fn output_cardinality(&self, input_cards: &[f64]) -> f64 {
        let n = input_cards.first().copied().unwrap_or(0.0);
        (n * 0.1).max(1.0)
    }

    fn cost_factor(&self) -> f64 {
        8.0 // opaque pair enumeration
    }

    fn partitionable(&self) -> bool {
        false // the whole point of the baseline
    }
}

/// Build a detection plan; returns the plan and its sink node.
pub fn build_detection_plan(
    data: Vec<Record>,
    rule: &DenialConstraint,
    strategy: DetectionStrategy,
) -> Result<(PhysicalPlan, NodeId)> {
    let mut b = PlanBuilder::new();
    let src = b.collection(format!("{}-input", rule.name), data);
    let violations = match strategy {
        DetectionStrategy::OperatorPipeline => {
            // Scope: keep only the rule's columns.
            let scope = rule.scope_columns();
            let rebased = rule.rebased();
            let scoped = b.project(src, scope);
            match rebased.blocking_column() {
                Some(col) => {
                    // Block + Iterate + Detect.
                    let rule = rebased;
                    let name = Text::from(rule.name.as_str());
                    b.group_by(
                        scoped,
                        KeyUdf::field(col),
                        GroupMapUdf::new(format!("detect-{}", rule.name), move |_, members| {
                            detect_within(&rule, &name, members)
                        })
                        .with_per_group_output(2.0),
                    )
                }
                // No equality predicate: pairs via theta self-join.
                None => theta_pairs(&mut b, scoped, rebased, 0.25),
            }
        }
        DetectionStrategy::SingleUdf => {
            b.custom(Arc::new(MonolithicDetect { rule: rule.clone() }), vec![src])
        }
        DetectionStrategy::CrossProduct => {
            let scope = rule.scope_columns();
            let rebased = rule.rebased();
            let scoped = b.project(src, scope);
            theta_pairs(&mut b, scoped, rebased, 0.01)
        }
        DetectionStrategy::IeJoin => {
            let scope = rule.scope_columns();
            let rebased = rule.rebased();
            let scoped = b.project(src, scope);
            b.custom(Arc::new(IeJoinOp::new(rebased)?), vec![scoped])
        }
    };
    let sink = b.collect(violations);
    Ok((b.build()?, sink))
}

/// Every violating pair of `scoped` (already projected to `rule`'s scope)
/// by theta self-join, as violation records; `selectivity` is the
/// optimizer's hint for the share of pairs that violate.
fn theta_pairs(
    b: &mut PlanBuilder,
    scoped: NodeId,
    rule: DenialConstraint,
    selectivity: f64,
) -> NodeId {
    let rule_for_join = rule.clone();
    let joined = b.theta_join(
        scoped,
        scoped,
        format!("violates-{}", rule.name),
        selectivity,
        Arc::new(move |t1: &Record, t2: &Record| rule_for_join.violates(t1, t2).unwrap_or(false)),
    );
    let width = rule.scope_columns().len();
    let name = Text::from(rule.name.as_str());
    b.map(
        joined,
        MapUdf::new("to-violation", move |pair: &Record| {
            Violation::record(
                &name,
                pair.int(rule.id_column).expect("id"),
                pair.int(width + rule.id_column).expect("id"),
            )
        }),
    )
}

/// Run detection end to end; returns the (sorted, deduplicated) violations
/// and the job result with its statistics.
pub fn detect(
    ctx: &RheemContext,
    data: Vec<Record>,
    rule: &DenialConstraint,
    strategy: DetectionStrategy,
) -> Result<(Vec<Violation>, JobResult)> {
    let (plan, sink) = build_detection_plan(data, rule, strategy)?;
    let result = ctx.execute(plan)?;
    let mut violations: Vec<Violation> = result.outputs[&sink]
        .iter()
        .map(Violation::from_record)
        .collect::<Result<_>>()?;
    violations.sort();
    violations.dedup();
    Ok((violations, result))
}

/// Convenience: count violations of a rule (any strategy).
pub fn count_violations(
    ctx: &RheemContext,
    data: Vec<Record>,
    rule: &DenialConstraint,
    strategy: DetectionStrategy,
) -> Result<usize> {
    detect(ctx, data, rule, strategy).map(|(v, _)| v.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;
    use rheem_platforms::JavaPlatform;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    /// Tax-like layout: [id, zip, state, salary, rate].
    fn dirty_data() -> Vec<Record> {
        vec![
            rec![0i64, 10i64, "CA", 50_000.0, 12.5],
            rec![1i64, 10i64, "CA", 80_000.0, 14.0],
            rec![2i64, 10i64, "TX", 60_000.0, 13.0], // FD violation vs 0, 1
            rec![3i64, 20i64, "NY", 90_000.0, 2.0],  // ineq violation vs all poorer
            rec![4i64, 20i64, "NY", 30_000.0, 11.0],
        ]
    }

    fn fd() -> DenialConstraint {
        DenialConstraint::functional_dependency("fd-zip-state", 0, 1, 2)
    }

    fn ineq() -> DenialConstraint {
        DenialConstraint::inequality("ineq-salary-rate", 0, 3, 4)
    }

    #[test]
    fn fd_detection_pipeline_finds_expected_pairs() {
        let (violations, _) = detect(
            &ctx(),
            dirty_data(),
            &fd(),
            DetectionStrategy::OperatorPipeline,
        )
        .unwrap();
        // Ordered pairs: (0,2), (2,0), (1,2), (2,1).
        assert_eq!(violations.len(), 4);
        assert!(violations.iter().all(|v| v.t1 == 2 || v.t2 == 2));
    }

    #[test]
    fn all_strategies_agree_on_fd_rules() {
        let data = dirty_data();
        let baseline = count_violations(
            &ctx(),
            data.clone(),
            &fd(),
            DetectionStrategy::OperatorPipeline,
        )
        .unwrap();
        for strategy in [
            DetectionStrategy::SingleUdf,
            DetectionStrategy::CrossProduct,
        ] {
            let n = count_violations(&ctx(), data.clone(), &fd(), strategy).unwrap();
            assert_eq!(n, baseline, "strategy {strategy:?} disagrees");
        }
    }

    #[test]
    fn all_strategies_agree_on_inequality_rules() {
        let data = dirty_data();
        let baseline = count_violations(
            &ctx(),
            data.clone(),
            &ineq(),
            DetectionStrategy::OperatorPipeline,
        )
        .unwrap();
        assert!(baseline > 0);
        for strategy in [
            DetectionStrategy::SingleUdf,
            DetectionStrategy::CrossProduct,
            DetectionStrategy::IeJoin,
        ] {
            let n = count_violations(&ctx(), data.clone(), &ineq(), strategy).unwrap();
            assert_eq!(n, baseline, "strategy {strategy:?} disagrees");
        }
    }

    #[test]
    fn clean_data_has_no_violations() {
        let clean = vec![
            rec![0i64, 10i64, "CA", 50_000.0, 12.5],
            rec![1i64, 10i64, "CA", 80_000.0, 14.0],
        ];
        for strategy in [
            DetectionStrategy::OperatorPipeline,
            DetectionStrategy::SingleUdf,
            DetectionStrategy::CrossProduct,
        ] {
            assert_eq!(
                count_violations(&ctx(), clean.clone(), &fd(), strategy).unwrap(),
                0
            );
        }
    }

    #[test]
    fn iejoin_strategy_rejects_fd_rules() {
        assert!(build_detection_plan(dirty_data(), &fd(), DetectionStrategy::IeJoin).is_err());
    }

    #[test]
    fn detection_agrees_with_generator_ground_truth() {
        use rheem_datagen::tax::{self, columns, TaxConfig};
        let (data, injected) = tax::generate(&TaxConfig::new(400).with_error_rates(0.05, 0.0));
        let rule = DenialConstraint::functional_dependency(
            "zip-state",
            columns::ID,
            columns::ZIP,
            columns::STATE,
        );
        let (violations, _) =
            detect(&ctx(), data, &rule, DetectionStrategy::OperatorPipeline).unwrap();
        // Every injected dirty record participates in at least one violation
        // (its zip has clean siblings with overwhelming probability).
        let dirty_involved: std::collections::HashSet<i64> =
            violations.iter().flat_map(|v| [v.t1, v.t2]).collect();
        assert!(
            dirty_involved.len() >= injected.fd_dirty_records,
            "violations cover {} records, injected {}",
            dirty_involved.len(),
            injected.fd_dirty_records
        );
    }
}
