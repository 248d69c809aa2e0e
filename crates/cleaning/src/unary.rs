//! Unary (single-tuple) constraints.
//!
//! Not every data quality rule compares tuple pairs: domain checks ("no
//! negative salary", "state must be two letters") are denial constraints
//! over a single tuple. They compile to a trivially parallel
//! `Scope → Detect` plan — a `FlatMap` emitting one violation per dirty
//! record — and complement the two-tuple rules of [`crate::rules`].

use rheem_core::udf::FlatMapUdf;
use rheem_core::{
    JobResult, NodeId, PhysicalPlan, PlanBuilder, Record, Result, RheemContext, Value,
};

use crate::rules::{CompOp, Violation};

/// One predicate `t.column ⟨op⟩ literal`.
#[derive(Clone, Debug)]
pub struct UnaryPredicate {
    /// Attribute of the tuple.
    pub column: usize,
    /// Comparison operator.
    pub op: CompOp,
    /// Literal to compare against.
    pub value: Value,
}

impl UnaryPredicate {
    /// Construct a predicate.
    pub(crate) fn new(column: usize, op: CompOp, value: impl Into<Value>) -> Self {
        UnaryPredicate {
            column,
            op,
            value: value.into(),
        }
    }

    /// Evaluate on one tuple.
    pub(crate) fn eval(&self, t: &Record) -> Result<bool> {
        Ok(self.op.eval(t.get(self.column)?, &self.value))
    }
}

/// A single-tuple denial constraint: a tuple satisfying *all* predicates is
/// a violation.
#[derive(Clone, Debug)]
pub struct UnaryConstraint {
    /// Rule name.
    pub name: String,
    /// Column holding the record id.
    pub id_column: usize,
    /// The conjunction of predicates.
    pub predicates: Vec<UnaryPredicate>,
}

impl UnaryConstraint {
    /// True iff the tuple violates the rule.
    pub(crate) fn violates(&self, t: &Record) -> Result<bool> {
        for p in &self.predicates {
            if !p.eval(t)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Build the detection plan (`Scope → Detect` as a flat map).
    pub(crate) fn build_detection_plan(&self, data: Vec<Record>) -> Result<(PhysicalPlan, NodeId)> {
        let rule = self.clone();
        let mut b = PlanBuilder::new();
        let src = b.collection(format!("{}-input", self.name), data);
        let detected = b.flat_map(
            src,
            FlatMapUdf::new(format!("detect-{}", self.name), move |t: &Record| {
                match (rule.violates(t), t.int(rule.id_column)) {
                    (Ok(true), Ok(id)) => vec![Violation {
                        rule: rule.name.clone(),
                        t1: id,
                        t2: id,
                    }
                    .to_record()],
                    _ => Vec::new(),
                }
            })
            .with_fanout(0.05),
        );
        let sink = b.collect(detected);
        Ok((b.build()?, sink))
    }

    /// Detect violations end to end.
    pub fn detect(
        &self,
        ctx: &RheemContext,
        data: Vec<Record>,
    ) -> Result<(Vec<Violation>, JobResult)> {
        let (plan, sink) = self.build_detection_plan(data)?;
        let result = ctx.execute(plan)?;
        let mut violations: Vec<Violation> = result.outputs[&sink]
            .iter()
            .map(Violation::from_record)
            .collect::<Result<_>>()?;
        violations.sort();
        Ok((violations, result))
    }
}

/// Convenience: the "attribute must not be null" rule.
pub fn not_null(name: impl Into<String>, id_column: usize, column: usize) -> UnaryConstraint {
    UnaryConstraint {
        name: name.into(),
        id_column,
        predicates: vec![UnaryPredicate {
            column,
            op: CompOp::Eq,
            value: Value::Null,
        }],
    }
}

/// Convenience: `column` must lie in `[lo, hi]` — violated outside.
///
/// Encoded as two rules (below-lo OR above-hi cannot be a conjunction), so
/// this returns both; run each and union the violations.
pub fn range_check(
    name: impl Into<String>,
    id_column: usize,
    column: usize,
    lo: f64,
    hi: f64,
) -> (UnaryConstraint, UnaryConstraint) {
    let name = name.into();
    (
        UnaryConstraint {
            name: format!("{name}-below"),
            id_column,
            predicates: vec![UnaryPredicate::new(column, CompOp::Lt, lo)],
        },
        UnaryConstraint {
            name: format!("{name}-above"),
            id_column,
            predicates: vec![UnaryPredicate::new(column, CompOp::Gt, hi)],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rheem_core::rec;
    use rheem_platforms::JavaPlatform;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    /// Layout: [id, salary].
    fn data() -> Vec<Record> {
        vec![
            rec![0i64, 50_000.0],
            rec![1i64, -10.0],
            Record::new(vec![Value::Int(2), Value::Null]),
            rec![3i64, 9_000_000.0],
        ]
    }

    #[test]
    fn negative_salary_rule() {
        let rule = UnaryConstraint {
            name: "no-negative-salary".into(),
            id_column: 0,
            predicates: vec![UnaryPredicate::new(1, CompOp::Lt, 0.0)],
        };
        let (violations, _) = rule.detect(&ctx(), data()).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].t1, 1);
        assert_eq!(violations[0].t1, violations[0].t2);
    }

    #[test]
    fn not_null_rule() {
        let rule = not_null("salary-present", 0, 1);
        let (violations, _) = rule.detect(&ctx(), data()).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].t1, 2);
    }

    #[test]
    fn range_check_pair() {
        let (below, above) = range_check("plausible-salary", 0, 1, 0.0, 1_000_000.0);
        let (v1, _) = below.detect(&ctx(), data()).unwrap();
        let (v2, _) = above.detect(&ctx(), data()).unwrap();
        assert_eq!(v1.len(), 1); // the negative salary
        assert_eq!(v2.len(), 1); // the 9M salary
        assert_ne!(v1[0].t1, v2[0].t1);
    }

    #[test]
    fn conjunction_requires_all_predicates() {
        // Violation only when salary < 0 AND id > 0 (nonsense rule, tests
        // the conjunction).
        let rule = UnaryConstraint {
            name: "conj".into(),
            id_column: 0,
            predicates: vec![
                UnaryPredicate::new(1, CompOp::Lt, 0.0),
                UnaryPredicate::new(0, CompOp::Gt, 100i64),
            ],
        };
        let (violations, _) = rule.detect(&ctx(), data()).unwrap();
        assert!(violations.is_empty());
    }
}
