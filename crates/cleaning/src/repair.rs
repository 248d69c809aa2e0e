//! Fix generation (`GenFix`) and repair.
//!
//! BigDansing's fifth operator, `GenFix`, emits candidate fixes per
//! violation; a repair phase then chooses a consistent assignment. We
//! implement the standard equivalence-class repair for equality rules
//! (cells connected by violations form a class; the class adopts its most
//! frequent value) and a bound-tightening repair for the inequality rule.

use std::collections::HashMap;

use rheem_core::data::{Record, Value};
use rheem_core::error::{Result, RheemError};

use crate::rules::{CompOp, DenialConstraint, Fix, Violation};

/// Generate candidate fixes for a batch of violations (the `GenFix`
/// operator). For equality rules each side may adopt the other's
/// right-hand-side value; for inequality rules the lower-taxed side may
/// raise its rate to the other's.
pub fn gen_fixes(
    data: &[Record],
    rule: &DenialConstraint,
    violations: &[Violation],
) -> Result<Vec<Fix>> {
    let by_id: HashMap<i64, &Record> = data
        .iter()
        .map(|r| Ok((r.int(rule.id_column)?, r)))
        .collect::<Result<_>>()?;
    let mut fixes = Vec::new();
    for v in violations {
        let (t1, t2) = (
            by_id
                .get(&v.t1)
                .ok_or_else(|| RheemError::DatasetNotFound(format!("record {}", v.t1)))?,
            by_id
                .get(&v.t2)
                .ok_or_else(|| RheemError::DatasetNotFound(format!("record {}", v.t2)))?,
        );
        for p in &rule.predicates {
            match p.op {
                CompOp::Neq => {
                    // Either side may adopt the other's value.
                    fixes.push(Fix {
                        rule: rule.name.clone(),
                        record_id: v.t1,
                        column: p.left,
                        suggestion: t2.get(p.right)?.clone(),
                    });
                    fixes.push(Fix {
                        rule: rule.name.clone(),
                        record_id: v.t2,
                        column: p.right,
                        suggestion: t1.get(p.left)?.clone(),
                    });
                }
                CompOp::Lt => {
                    // t1.col < t2.col contributed to the violation: raise it.
                    fixes.push(Fix {
                        rule: rule.name.clone(),
                        record_id: v.t1,
                        column: p.left,
                        suggestion: t2.get(p.right)?.clone(),
                    });
                }
                CompOp::Gt => {
                    fixes.push(Fix {
                        rule: rule.name.clone(),
                        record_id: v.t2,
                        column: p.right,
                        suggestion: t1.get(p.left)?.clone(),
                    });
                }
                CompOp::Eq => {} // the join condition, not a repairable cell
            }
        }
    }
    Ok(fixes)
}

/// Holistic repair for FD-shaped rules (`t1.k = t2.k ∧ t1.v ≠ t2.v`): every
/// equivalence class (records sharing the key) adopts its most frequent
/// right-hand-side value. The result provably has zero violations of the
/// rule.
pub fn repair_fd(data: &[Record], rule: &DenialConstraint) -> Result<Vec<Record>> {
    let key_col = rule.blocking_column().ok_or_else(|| {
        RheemError::InvalidPlan(format!(
            "rule {} has no equality predicate; not FD-shaped",
            rule.name
        ))
    })?;
    let value_cols: Vec<usize> = rule
        .predicates
        .iter()
        .filter(|p| p.op == CompOp::Neq && p.left == p.right)
        .map(|p| p.left)
        .collect();
    if value_cols.is_empty() {
        return Err(RheemError::InvalidPlan(format!(
            "rule {} has no ≠ predicate; not FD-shaped",
            rule.name
        )));
    }

    // Majority value per (key, value-column).
    let mut counts: HashMap<(Value, usize, Value), usize> = HashMap::new();
    for r in data {
        let k = r.get(key_col)?.clone();
        for &vc in &value_cols {
            *counts
                .entry((k.clone(), vc, r.get(vc)?.clone()))
                .or_insert(0) += 1;
        }
    }
    let mut majority: HashMap<(Value, usize), (Value, usize)> = HashMap::new();
    for ((k, vc, v), n) in counts {
        match majority.get(&(k.clone(), vc)) {
            // Deterministic tie-break: higher count wins, then smaller value.
            Some((best_v, best_n)) if *best_n > n || (*best_n == n && *best_v <= v) => {}
            _ => {
                majority.insert((k, vc), (v, n));
            }
        }
    }

    data.iter()
        .map(|r| {
            let k = r.get(key_col)?.clone();
            let fields: Vec<Value> = r
                .fields()
                .iter()
                .enumerate()
                .map(|(col, v)| {
                    if value_cols.contains(&col) {
                        majority
                            .get(&(k.clone(), col))
                            .map(|(mv, _)| mv.clone())
                            .unwrap_or_else(|| v.clone())
                    } else {
                        v.clone()
                    }
                })
                .collect();
            Ok(Record::new(fields))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{count_violations, detect, DetectionStrategy};
    use rheem_core::rec;
    use rheem_core::RheemContext;
    use rheem_platforms::JavaPlatform;
    use std::sync::Arc;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    fn fd() -> DenialConstraint {
        DenialConstraint::functional_dependency("fd", 0, 1, 2)
    }

    fn data() -> Vec<Record> {
        vec![
            rec![0i64, 10i64, "CA"],
            rec![1i64, 10i64, "CA"],
            rec![2i64, 10i64, "TX"],
            rec![3i64, 20i64, "NY"],
        ]
    }

    #[test]
    fn gen_fixes_proposes_both_directions() {
        let (violations, _) =
            detect(&ctx(), data(), &fd(), DetectionStrategy::OperatorPipeline).unwrap();
        let fixes = gen_fixes(&data(), &fd(), &violations).unwrap();
        // 4 ordered violations × 2 fixes each.
        assert_eq!(fixes.len(), 8);
        assert!(fixes
            .iter()
            .any(|f| f.record_id == 2 && f.suggestion == Value::str("CA")));
        assert!(fixes
            .iter()
            .any(|f| f.record_id == 0 && f.suggestion == Value::str("TX")));
    }

    #[test]
    fn majority_repair_eliminates_all_fd_violations() {
        let repaired = repair_fd(&data(), &fd()).unwrap();
        // Majority in zip 10 is CA: record 2 gets repaired.
        assert_eq!(repaired[2].str(2).unwrap(), "CA");
        assert_eq!(repaired[3].str(2).unwrap(), "NY"); // untouched
        let n =
            count_violations(&ctx(), repaired, &fd(), DetectionStrategy::OperatorPipeline).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn repair_on_generated_tax_data_converges() {
        use rheem_datagen::tax::{self, columns, TaxConfig};
        let (data, _) = tax::generate(&TaxConfig::new(600).with_error_rates(0.08, 0.0));
        let rule = DenialConstraint::functional_dependency(
            "zip-state",
            columns::ID,
            columns::ZIP,
            columns::STATE,
        );
        let before = count_violations(
            &ctx(),
            data.clone(),
            &rule,
            DetectionStrategy::OperatorPipeline,
        )
        .unwrap();
        assert!(before > 0);
        let repaired = repair_fd(&data, &rule).unwrap();
        let after =
            count_violations(&ctx(), repaired, &rule, DetectionStrategy::OperatorPipeline).unwrap();
        assert_eq!(after, 0, "repair left violations ({before} before)");
    }

    #[test]
    fn repair_fd_rejects_non_fd_rules() {
        let ineq = DenialConstraint::inequality("i", 0, 1, 2);
        assert!(repair_fd(&data(), &ineq).is_err());
    }

    #[test]
    fn gen_fixes_fails_on_unknown_ids() {
        let v = vec![Violation {
            rule: "fd".into(),
            t1: 99,
            t2: 0,
        }];
        assert!(gen_fixes(&data(), &fd(), &v).is_err());
    }
}
