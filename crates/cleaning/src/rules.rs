//! Data quality rules: two-tuple denial constraints.
//!
//! BigDansing (paper §5.1) "models data quality rules with five operators,
//! namely Scope, Block, Iterate, Detect, and GenFix". The rule *language*
//! here is the class those operators are evaluated over in the paper's
//! experiments: **denial constraints over pairs of tuples** — "no two
//! tuples t1, t2 may satisfy all of p_1 ∧ ... ∧ p_k", where each predicate
//! compares an attribute of t1 with an attribute of t2.
//!
//! Both rules of the evaluation are instances:
//!
//! * the FD `zip → state` is `¬(t1.zip = t2.zip ∧ t1.state ≠ t2.state)`;
//! * the salary rule is `¬(t1.salary > t2.salary ∧ t1.rate < t2.rate)`.

use rheem_core::{Record, Result, Text, Value};

/// Comparison operators usable in denial-constraint predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `≠`
    Neq,
    /// `<` (strict)
    Lt,
    /// `>` (strict)
    Gt,
}

impl CompOp {
    /// Evaluate the comparison on two values.
    ///
    /// `=` / `≠` use strict value equality (`Null = Null` holds, which is
    /// what `not_null`-style rules rely on). `<` / `>` are defined only
    /// within a comparable class — two numerics (`Int`/`Float` compare
    /// numerically), two strings, or two booleans — and are `false`
    /// otherwise, so a `Null` never satisfies an inequality.
    pub(crate) fn eval(&self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering;
        match self {
            CompOp::Eq => a == b,
            CompOp::Neq => a != b,
            CompOp::Lt | CompOp::Gt => {
                let ord = match (a, b) {
                    (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                        let (x, y) = (
                            a.as_float().expect("numeric"),
                            b.as_float().expect("numeric"),
                        );
                        x.total_cmp(&y)
                    }
                    (Value::Str(x), Value::Str(y)) => x.cmp(y),
                    (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
                    _ => return false,
                };
                match self {
                    CompOp::Lt => ord == Ordering::Less,
                    CompOp::Gt => ord == Ordering::Greater,
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Whether the operator is an (in)equality usable as a blocking key.
    pub(crate) fn is_equality(&self) -> bool {
        matches!(self, CompOp::Eq)
    }

    /// Whether the operator is a strict inequality (IEJoin-eligible).
    pub(crate) fn is_inequality(&self) -> bool {
        matches!(self, CompOp::Lt | CompOp::Gt)
    }
}

/// One predicate `t1.left ⟨op⟩ t2.right`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DcPredicate {
    /// Attribute of the first tuple.
    pub left: usize,
    /// Comparison operator.
    pub op: CompOp,
    /// Attribute of the second tuple.
    pub right: usize,
}

impl DcPredicate {
    /// Construct a predicate.
    pub(crate) fn new(left: usize, op: CompOp, right: usize) -> Self {
        DcPredicate { left, op, right }
    }

    /// Evaluate on a tuple pair.
    pub(crate) fn eval(&self, t1: &Record, t2: &Record) -> Result<bool> {
        Ok(self.op.eval(t1.get(self.left)?, t2.get(self.right)?))
    }
}

/// A two-tuple denial constraint: a violation is an *ordered* pair
/// `(t1, t2)`, `t1 ≠ t2`, satisfying every predicate.
#[derive(Clone, Debug)]
pub struct DenialConstraint {
    /// Rule name (appears in violation records).
    pub name: String,
    /// Column holding the unique record id.
    pub id_column: usize,
    /// The conjunction of predicates.
    pub predicates: Vec<DcPredicate>,
}

impl DenialConstraint {
    /// The FD `lhs → rhs` as a denial constraint.
    pub fn functional_dependency(
        name: impl Into<String>,
        id_column: usize,
        lhs: usize,
        rhs: usize,
    ) -> Self {
        DenialConstraint {
            name: name.into(),
            id_column,
            predicates: vec![
                DcPredicate::new(lhs, CompOp::Eq, lhs),
                DcPredicate::new(rhs, CompOp::Neq, rhs),
            ],
        }
    }

    /// The paper's salary rule: `¬(t1.a > t2.a ∧ t1.b < t2.b)`.
    pub fn inequality(name: impl Into<String>, id_column: usize, a: usize, b: usize) -> Self {
        DenialConstraint {
            name: name.into(),
            id_column,
            predicates: vec![
                DcPredicate::new(a, CompOp::Gt, a),
                DcPredicate::new(b, CompOp::Lt, b),
            ],
        }
    }

    /// True iff the (ordered) pair violates the rule.
    pub(crate) fn violates(&self, t1: &Record, t2: &Record) -> Result<bool> {
        if t1.get(self.id_column)? == t2.get(self.id_column)? {
            return Ok(false); // a tuple cannot violate against itself
        }
        for p in &self.predicates {
            if !p.eval(t1, t2)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The blocking key column, if some predicate is `t1.c = t2.c`
    /// (violating pairs then necessarily share that attribute).
    pub(crate) fn blocking_column(&self) -> Option<usize> {
        self.predicates
            .iter()
            .find(|p| p.op.is_equality() && p.left == p.right)
            .map(|p| p.left)
    }

    /// The two strict-inequality predicates, if this rule is IEJoin-eligible
    /// (exactly two predicates, both strict inequalities on numeric columns).
    pub(crate) fn iejoin_predicates(&self) -> Option<(DcPredicate, DcPredicate)> {
        match self.predicates.as_slice() {
            [p1, p2]
                if p1.op.is_inequality()
                    && p2.op.is_inequality()
                    && p1.left == p1.right
                    && p2.left == p2.right =>
            {
                Some((*p1, *p2))
            }
            _ => None,
        }
    }

    /// Columns the rule reads (the `Scope` of the rule): id column plus
    /// every predicate column, deduplicated, in ascending order.
    pub(crate) fn scope_columns(&self) -> Vec<usize> {
        let mut cols = vec![self.id_column];
        for p in &self.predicates {
            cols.push(p.left);
            cols.push(p.right);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Rewrite the rule's column indices for records already projected onto
    /// [`DenialConstraint::scope_columns`].
    pub(crate) fn rebased(&self) -> DenialConstraint {
        let scope = self.scope_columns();
        let rebase = |col: usize| {
            scope
                .iter()
                .position(|&c| c == col)
                .expect("scope contains every rule column")
        };
        DenialConstraint {
            name: self.name.clone(),
            id_column: rebase(self.id_column),
            predicates: self
                .predicates
                .iter()
                .map(|p| DcPredicate::new(rebase(p.left), p.op, rebase(p.right)))
                .collect(),
        }
    }
}

/// A detected violation: ordered pair of record ids.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Violation {
    /// Rule that was violated.
    pub rule: String,
    /// Id of the first tuple.
    pub t1: i64,
    /// Id of the second tuple.
    pub t2: i64,
}

impl Violation {
    /// Encode a violation of the rule named `rule` as a record
    /// `[rule(Str), t1(Int), t2(Int)]`. A detector builds the name's `Text`
    /// once, so its violation records share one string.
    pub(crate) fn record(rule: &Text, t1: i64, t2: i64) -> Record {
        Record::new(vec![
            Value::Str(rule.clone()),
            Value::Int(t1),
            Value::Int(t2),
        ])
    }

    /// Decode from the record layout of [`Violation::to_record`].
    pub(crate) fn from_record(r: &Record) -> Result<Self> {
        Ok(Violation {
            rule: r.str(0)?.to_string(),
            t1: r.int(1)?,
            t2: r.int(2)?,
        })
    }
}

/// A candidate fix emitted by `GenFix`: make `record_id.column` equal to
/// the value currently held by `donor_id.column` (equality repairs), or
/// adjust it to `bound` (inequality repairs).
#[derive(Clone, Debug, PartialEq)]
pub struct Fix {
    /// Rule that produced the fix.
    pub rule: String,
    /// Record to change.
    pub record_id: i64,
    /// Column to change.
    pub column: usize,
    /// Suggested new value.
    pub suggestion: Value,
}

impl Fix {}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    fn fd() -> DenialConstraint {
        // Layout: [id, zip, state].
        DenialConstraint::functional_dependency("fd", 0, 1, 2)
    }

    #[test]
    fn fd_violation_detection() {
        let rule = fd();
        let a = rec![1i64, 10i64, "CA"];
        let b = rec![2i64, 10i64, "TX"];
        let c = rec![3i64, 10i64, "CA"];
        assert!(rule.violates(&a, &b).unwrap());
        assert!(rule.violates(&b, &a).unwrap());
        assert!(!rule.violates(&a, &c).unwrap());
        assert!(!rule.violates(&a, &a).unwrap()); // same id
    }

    #[test]
    fn inequality_rule_detection() {
        // Layout: [id, salary, rate].
        let rule = DenialConstraint::inequality("ineq", 0, 1, 2);
        let rich_low_tax = rec![1i64, 100_000.0, 5.0];
        let poor_high_tax = rec![2i64, 30_000.0, 20.0];
        assert!(rule.violates(&rich_low_tax, &poor_high_tax).unwrap());
        assert!(!rule.violates(&poor_high_tax, &rich_low_tax).unwrap());
    }

    #[test]
    fn blocking_and_iejoin_eligibility() {
        assert_eq!(fd().blocking_column(), Some(1));
        assert!(fd().iejoin_predicates().is_none());
        let ineq = DenialConstraint::inequality("i", 0, 1, 2);
        assert_eq!(ineq.blocking_column(), None);
        let (p1, p2) = ineq.iejoin_predicates().unwrap();
        assert_eq!(p1.op, CompOp::Gt);
        assert_eq!(p2.op, CompOp::Lt);
    }

    #[test]
    fn scope_and_rebase() {
        // Rule over columns {0 (id), 4 (zip), 6 (state)} of a wide record.
        let rule = DenialConstraint::functional_dependency("fd", 0, 4, 6);
        assert_eq!(rule.scope_columns(), vec![0, 4, 6]);
        let rebased = rule.rebased();
        assert_eq!(rebased.id_column, 0);
        assert_eq!(rebased.predicates[0].left, 1);
        assert_eq!(rebased.predicates[1].left, 2);
        // Rebased rule sees projected records identically.
        let wide1 = rec![1i64, "x", "y", "z", 10i64, "w", "CA"];
        let wide2 = rec![2i64, "x", "y", "z", 10i64, "w", "TX"];
        let narrow1 = wide1.project(&rule.scope_columns()).unwrap();
        let narrow2 = wide2.project(&rule.scope_columns()).unwrap();
        assert_eq!(
            rule.violates(&wide1, &wide2).unwrap(),
            rebased.violates(&narrow1, &narrow2).unwrap()
        );
    }

    #[test]
    fn violation_and_fix_round_trip() {
        let v = Violation {
            rule: "fd".into(),
            t1: 3,
            t2: 9,
        };
        let record = Violation::record(&Text::from("fd"), v.t1, v.t2);
        assert_eq!(Violation::from_record(&record).unwrap(), v);
    }

    #[test]
    fn comp_op_total_behaviour() {
        use CompOp::*;
        assert!(Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(Neq.eval(&Value::str("a"), &Value::str("b")));
        assert!(Lt.eval(&Value::Float(1.0), &Value::Float(2.0)));
        assert!(Gt.eval(&Value::Float(3.0), &Value::Float(2.0)));
        assert!(!Gt.eval(&Value::Float(2.0), &Value::Float(2.0)));
        // Mixed numerics compare numerically; Null never satisfies < or >.
        assert!(Lt.eval(&Value::Int(1), &Value::Float(1.5)));
        assert!(!Lt.eval(&Value::Null, &Value::Float(0.0)));
        assert!(!Gt.eval(&Value::str("z"), &Value::Int(1)));
        assert!(Eq.eval(&Value::Null, &Value::Null));
    }
}
