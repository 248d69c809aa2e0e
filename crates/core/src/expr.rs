//! A small expression IR for transparent filter/map/project logic.
//!
//! The paper's processing abstraction is "fully based on user-defined
//! functions" (§1), which makes operators opaque to the optimizer. The
//! UDF-analysis line of work (Hueske et al., PAPERS.md) shows how much an
//! engine gains when it can see *inside* an operator; this module is the
//! declarative half of that bargain: operators may carry an [`Expr`] tree
//! instead of (in addition to) an opaque closure, which lets the optimizer
//! fuse adjacent operators into a single per-chunk evaluation loop
//! (`ChunkPipeline`) and lets kernels evaluate vectorized over columns.
//!
//! Semantics are SQL's, and null-safe:
//!
//! * field references past the record width read as `Null`;
//! * arithmetic: `Int ⊕ Int → Int` (wrapping; `Mod` by zero → `Null`),
//!   mixed `Int`/`Float` widens to `Float` (IEEE), non-numeric operands →
//!   `Null`;
//! * `SqlDiv` is always `Float`, with a zero divisor → `Null`;
//! * the `Sql*` comparisons are numeric-aware (`Int` and `Float` compare
//!   by value, floats by `total_cmp`) and null-propagating: a `Null`
//!   operand or a non-numeric variant mismatch yields `Null`;
//! * `And`/`Or` are Kleene three-valued, treating any non-`Bool` operand as
//!   unknown (`Null`);
//! * `Not`/`Neg` on an unsupported operand → `Null`;
//! * `IsTrue` maps `Bool(true)` to `true` and *everything else* (including
//!   `Null`) to `false` — SQL `AND`/`OR`/`NOT` lower to the Kleene
//!   connectives over `IsTrue` operands, which makes them two-valued.
//!
//! The row evaluator ([`Expr::eval`]) and the vectorized evaluator
//! ([`Expr::eval_chunk`]) share the same scalar functions, so they agree by
//! construction; the proptest suite additionally checks byte identity.

use std::fmt;
use std::sync::Arc;

use crate::data::{Chunk, Column, Record, Value};

/// Binary operators of the expression IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (wrapping for `Int`).
    Add,
    /// Subtraction (wrapping for `Int`).
    Sub,
    /// Multiplication (wrapping for `Int`).
    Mul,
    /// Remainder (`Int` by zero → `Null`; `Float` follows IEEE).
    Mod,
    /// Kleene logical and.
    And,
    /// Kleene logical or.
    Or,
    /// SQL division: always `Float`; a zero divisor or a non-numeric
    /// operand → `Null`.
    SqlDiv,
    /// SQL `=`: numeric-aware, `Null` on a `Null` or mismatched operand.
    SqlEq,
    /// SQL `<>` (same operand rules as [`BinOp::SqlEq`]).
    SqlNe,
    /// SQL `<` (same operand rules as [`BinOp::SqlEq`]).
    SqlLt,
    /// SQL `<=` (same operand rules as [`BinOp::SqlEq`]).
    SqlLe,
    /// SQL `>` (same operand rules as [`BinOp::SqlEq`]).
    SqlGt,
    /// SQL `>=` (same operand rules as [`BinOp::SqlEq`]).
    SqlGe,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Mod => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            // The `?` marks the null-propagating SQL operators in the
            // display form, which plan fingerprints hash.
            BinOp::SqlDiv => "/?",
            BinOp::SqlEq => "=?",
            BinOp::SqlNe => "<>?",
            BinOp::SqlLt => "<?",
            BinOp::SqlLe => "<=?",
            BinOp::SqlGt => ">?",
            BinOp::SqlGe => ">=?",
        }
    }

    fn is_sql_comparison(self) -> bool {
        matches!(
            self,
            BinOp::SqlEq | BinOp::SqlNe | BinOp::SqlLt | BinOp::SqlLe | BinOp::SqlGt | BinOp::SqlGe
        )
    }
}

/// A declarative scalar expression over one record / one chunk row.
#[derive(Clone, Debug)]
pub enum Expr {
    /// The value of field `i` (`Null` when out of bounds).
    Field(usize),
    /// A constant.
    Lit(Value),
    /// Logical negation (`Null` on non-`Bool`).
    Not(Arc<Expr>),
    /// Arithmetic negation (`Null` on non-numeric; wrapping for `Int`).
    Neg(Arc<Expr>),
    /// True iff the operand is `Null`.
    IsNull(Arc<Expr>),
    /// True iff the operand is `Bool(true)`; never `Null`.
    IsTrue(Arc<Expr>),
    /// A binary operation.
    Bin(BinOp, Arc<Expr>, Arc<Expr>),
}

// The builders deliberately shadow the `std::ops` trait names: `Expr` is a
// by-value AST builder, not an arithmetic type, and `a.add(b)` reads as the
// expression it constructs.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Reference to field `i`.
    pub fn field(i: usize) -> Expr {
        Expr::Field(i)
    }

    /// A literal constant.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Build a binary expression `self ⊕ rhs`.
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Bin(op, Arc::new(self), Arc::new(rhs))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }

    /// `self % rhs`.
    pub fn rem(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mod, rhs)
    }

    /// SQL `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::SqlEq, rhs)
    }

    /// SQL `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::SqlGt, rhs)
    }

    /// SQL `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::SqlGe, rhs)
    }

    /// `self && rhs` (Kleene).
    pub(crate) fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// `self || rhs` (Kleene).
    pub(crate) fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }

    /// `!self`.
    pub(crate) fn not(self) -> Expr {
        Expr::Not(Arc::new(self))
    }

    /// `-self`.
    pub(crate) fn neg(self) -> Expr {
        Expr::Neg(Arc::new(self))
    }

    /// `self IS TRUE`: `Bool(true)` → `true`, anything else → `false`.
    pub fn is_true(self) -> Expr {
        Expr::IsTrue(Arc::new(self))
    }

    /// Evaluate over one record (the row path).
    pub(crate) fn eval(&self, r: &Record) -> Value {
        match self {
            Expr::Field(i) => r.fields().get(*i).cloned().unwrap_or(Value::Null),
            Expr::Lit(v) => v.clone(),
            Expr::Not(e) => scalar_not(&e.eval(r)),
            Expr::Neg(e) => scalar_neg(&e.eval(r)),
            Expr::IsNull(e) => Value::Bool(e.eval(r).is_null()),
            Expr::IsTrue(e) => scalar_is_true(&e.eval(r)),
            Expr::Bin(op, a, b) => scalar_bin(*op, &a.eval(r), &b.eval(r)),
        }
    }

    /// Evaluate over a whole chunk, producing one output column.
    ///
    /// Typed columns without nulls take vectorized fast paths (no per-row
    /// [`Value`] boxing); everything else falls back to a scalar loop over
    /// the same functions [`Expr::eval`] uses.
    pub(crate) fn eval_chunk(&self, chunk: &Chunk) -> Column {
        match self.eval_vec(chunk) {
            Ev::Col(c) => c,
            Ev::Lit(v) => {
                let values = vec![v; chunk.rows()];
                Column::from_values(&values)
            }
        }
    }

    fn eval_vec(&self, chunk: &Chunk) -> Ev {
        match self {
            Expr::Field(i) => match chunk.column(*i) {
                Some(c) => Ev::Col(c.clone()),
                None => Ev::Lit(Value::Null),
            },
            Expr::Lit(v) => Ev::Lit(v.clone()),
            Expr::Not(e) => unary_vec(&e.eval_vec(chunk), chunk.rows(), scalar_not),
            Expr::Neg(e) => unary_vec(&e.eval_vec(chunk), chunk.rows(), scalar_neg),
            Expr::IsNull(e) => unary_vec(&e.eval_vec(chunk), chunk.rows(), |v| {
                Value::Bool(v.is_null())
            }),
            Expr::IsTrue(e) => match e.eval_vec(chunk) {
                // A clean Bool lane is its own truth lane.
                Ev::Col(c) if c.bools().is_some() && c.no_nulls() => Ev::Col(c),
                other => unary_vec(&other, chunk.rows(), scalar_is_true),
            },
            Expr::Bin(op, a, b) => bin_vec(*op, &a.eval_vec(chunk), &b.eval_vec(chunk), chunk),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Field(i) => write!(f, "#{i}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "{s:?}"),
                // Debug keeps `1.0` apart from the `Int` literal `1`: plan
                // fingerprints hash this form.
                Value::Float(x) => write!(f, "{x:?}"),
                other => write!(f, "{other}"),
            },
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::IsNull(e) => write!(f, "({e}) is null"),
            Expr::IsTrue(e) => write!(f, "({e}) is true"),
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
        }
    }
}

/// `!v` with `Null` on non-`Bool` operands.
pub(crate) fn scalar_not(v: &Value) -> Value {
    match v {
        Value::Bool(b) => Value::Bool(!b),
        _ => Value::Null,
    }
}

/// `-v` with `Null` on non-numeric operands; wrapping for `Int`.
pub(crate) fn scalar_neg(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_neg()),
        Value::Float(x) => Value::Float(-x),
        _ => Value::Null,
    }
}

/// `v IS TRUE`: only `Bool(true)` is true; `Null` and every other value
/// are false.
pub(crate) fn scalar_is_true(v: &Value) -> Value {
    Value::Bool(matches!(v, Value::Bool(true)))
}

/// Apply a binary operator to two scalars — the single source of truth for
/// both the row and the vectorized evaluation path.
pub(crate) fn scalar_bin(op: BinOp, a: &Value, b: &Value) -> Value {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Mod => scalar_arith(op, a, b),
        BinOp::SqlDiv => match (a, b) {
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                sql_div(to_f64(a), to_f64(b)).map_or(Value::Null, Value::Float)
            }
            _ => Value::Null,
        },
        BinOp::SqlEq | BinOp::SqlNe | BinOp::SqlLt | BinOp::SqlLe | BinOp::SqlGt | BinOp::SqlGe => {
            match sql_ordering(a, b) {
                Some(ord) => Value::Bool(cmp_holds(op, ord)),
                None => Value::Null,
            }
        }
        BinOp::And => match (as_kleene(a), as_kleene(b)) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (as_kleene(a), as_kleene(b)) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
    }
}

/// SQL division on widened operands: `None` (→ `Null`) on a zero divisor
/// of either sign.
#[inline]
fn sql_div(x: f64, y: f64) -> Option<f64> {
    (y != 0.0).then(|| x / y)
}

/// The ordering SQL comparisons see: `Int` and `Float` compare numerically
/// (mixed pairs widen, floats by `total_cmp`), other same-variant pairs by
/// value; `None` when either side is `Null` or the variants do not mix.
pub(crate) fn sql_ordering(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    Some(match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(_) | Value::Int(_), Value::Float(_) | Value::Int(_)) => {
            to_f64(a).total_cmp(&to_f64(b))
        }
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => return None,
    })
}

fn as_kleene(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn scalar_arith(op: BinOp, a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            BinOp::Add => Value::Int(x.wrapping_add(*y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(*y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(*y)),
            BinOp::Mod => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Int(x.wrapping_rem(*y))
                }
            }
            _ => unreachable!("scalar_arith called with non-arithmetic op"),
        },
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let (x, y) = (to_f64(a), to_f64(b));
            Value::Float(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Mod => x % y,
                _ => unreachable!("scalar_arith called with non-arithmetic op"),
            })
        }
        _ => Value::Null,
    }
}

fn to_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(x) => *x,
        _ => 0.0,
    }
}

/// Intermediate result of vectorized evaluation: a column or a scalar that
/// stays scalar (literals are not splatted until forced).
enum Ev {
    Col(Column),
    Lit(Value),
}

impl Ev {
    fn value(&self, i: usize) -> Value {
        match self {
            Ev::Col(c) => c.value(i),
            Ev::Lit(v) => v.clone(),
        }
    }
}

fn unary_vec(e: &Ev, rows: usize, f: impl Fn(&Value) -> Value) -> Ev {
    match e {
        Ev::Lit(v) => Ev::Lit(f(v)),
        Ev::Col(c) => {
            let values: Vec<Value> = (0..rows).map(|i| f(&c.value(i))).collect();
            Ev::Col(Column::from_values(&values))
        }
    }
}

/// One operand of a typed loop: a whole lane, or a scalar that stands for
/// every row.
#[derive(Clone, Copy)]
enum Operand<'a, T> {
    Lane(&'a [T]),
    Scalar(T),
}

impl<T: Copy> Operand<'_, T> {
    /// True when `pred` holds for some row.
    fn any(&self, pred: impl Fn(T) -> bool) -> bool {
        match self {
            Operand::Lane(lane) => lane.iter().any(|&x| pred(x)),
            Operand::Scalar(x) => pred(*x),
        }
    }
}

/// A numeric operand without NULLs, in its own type.
#[derive(Clone, Copy)]
enum Num<'a> {
    Int(Operand<'a, i64>),
    Float(Operand<'a, f64>),
}

impl Num<'_> {
    /// True when some row is zero, of either sign.
    fn has_zero(&self) -> bool {
        match self {
            Num::Int(x) => x.any(|v| v == 0),
            Num::Float(x) => x.any(|v| v == 0.0),
        }
    }
}

fn num_operand(e: &Ev) -> Option<Num<'_>> {
    match e {
        Ev::Col(c) if c.no_nulls() => c
            .ints()
            .map(|lane| Num::Int(Operand::Lane(lane)))
            .or_else(|| c.floats().map(|lane| Num::Float(Operand::Lane(lane)))),
        Ev::Lit(Value::Int(x)) => Some(Num::Int(Operand::Scalar(*x))),
        Ev::Lit(Value::Float(x)) => Some(Num::Float(Operand::Scalar(*x))),
        _ => None,
    }
}

fn bool_operand(e: &Ev) -> Option<Operand<'_, bool>> {
    match e {
        Ev::Col(c) if c.no_nulls() => c.bools().map(Operand::Lane),
        Ev::Lit(Value::Bool(b)) => Some(Operand::Scalar(*b)),
        _ => None,
    }
}

/// `f` over two operands, row by row. Their shapes are matched here, once,
/// so each loop body is `f` alone.
fn zip_with<A: Copy, B: Copy, T>(
    a: Operand<'_, A>,
    b: Operand<'_, B>,
    f: impl Fn(A, B) -> T,
) -> Vec<T> {
    match (a, b) {
        (Operand::Lane(x), Operand::Lane(y)) => x.iter().zip(y).map(|(&l, &r)| f(l, r)).collect(),
        (Operand::Lane(x), Operand::Scalar(r)) => x.iter().map(|&l| f(l, r)).collect(),
        (Operand::Scalar(l), Operand::Lane(y)) => y.iter().map(|&r| f(l, r)).collect(),
        (Operand::Scalar(_), Operand::Scalar(_)) => {
            unreachable!("two scalars fold before a typed loop")
        }
    }
}

/// A lane element that widens to `f64`.
trait Widen: Copy {
    fn widen(self) -> f64;
}

impl Widen for i64 {
    #[inline]
    fn widen(self) -> f64 {
        self as f64
    }
}

impl Widen for f64 {
    #[inline]
    fn widen(self) -> f64 {
        self
    }
}

/// `f` over two numeric operands widened to `f64`: one loop per pair of
/// operand types, an `Int` lane converting inside it.
fn zip_f64<T>(a: Num<'_>, b: Num<'_>, f: impl Fn(f64, f64) -> T) -> Vec<T> {
    fn widened<A: Widen, B: Widen, T>(
        a: Operand<'_, A>,
        b: Operand<'_, B>,
        f: impl Fn(f64, f64) -> T,
    ) -> Vec<T> {
        zip_with(a, b, |l, r| f(l.widen(), r.widen()))
    }
    match (a, b) {
        (Num::Int(x), Num::Int(y)) => widened(x, y, f),
        (Num::Int(x), Num::Float(y)) => widened(x, y, f),
        (Num::Float(x), Num::Int(y)) => widened(x, y, f),
        (Num::Float(x), Num::Float(y)) => widened(x, y, f),
    }
}

/// The comparison `$op` as one typed loop per operator: `$zip` walks the
/// operands, handing its closure each row's pair, and `$ord` orders a pair.
macro_rules! compare {
    ($op:expr, $zip:ident($a:expr, $b:expr), $ord:expr) => {{
        let ord = $ord;
        match $op {
            BinOp::SqlEq => $zip($a, $b, |l, r| ord(l, r).is_eq()),
            BinOp::SqlNe => $zip($a, $b, |l, r| ord(l, r).is_ne()),
            BinOp::SqlLt => $zip($a, $b, |l, r| ord(l, r).is_lt()),
            BinOp::SqlLe => $zip($a, $b, |l, r| ord(l, r).is_le()),
            BinOp::SqlGt => $zip($a, $b, |l, r| ord(l, r).is_gt()),
            BinOp::SqlGe => $zip($a, $b, |l, r| ord(l, r).is_ge()),
            _ => unreachable!("compare! on a non-comparison operator"),
        }
    }};
}

/// `op` over two clean operands as a typed loop, or `None` where only the
/// scalar semantics answer: a row can be `Null` (a division or remainder
/// by zero), or an operand is not a clean numeric or `Bool` one.
fn typed_bin(op: BinOp, a: &Ev, b: &Ev) -> Option<Column> {
    if let BinOp::And | BinOp::Or = op {
        let (x, y) = (bool_operand(a)?, bool_operand(b)?);
        let lane = if op == BinOp::And {
            zip_with(x, y, |l, r| l & r)
        } else {
            zip_with(x, y, |l, r| l | r)
        };
        return Some(Column::from_typed_bool(lane));
    }
    let (x, y) = (num_operand(a)?, num_operand(b)?);
    let comparison = op.is_sql_comparison();
    Some(match (x, y) {
        (Num::Int(l), Num::Int(r)) if comparison => {
            Column::from_typed_bool(compare!(op, zip_with(l, r), |l: i64, r: i64| l.cmp(&r)))
        }
        // A mixed pair widens.
        _ if comparison => {
            Column::from_typed_bool(compare!(op, zip_f64(x, y), |l: f64, r: f64| {
                l.total_cmp(&r)
            }))
        }
        // SQL division is `Float`, `Null` only on a zero divisor.
        _ if op == BinOp::SqlDiv && !y.has_zero() => {
            Column::from_typed_float(zip_f64(x, y, |l, r| l / r))
        }
        (Num::Int(l), Num::Int(r)) => Column::from_typed_int(match op {
            BinOp::Add => zip_with(l, r, i64::wrapping_add),
            BinOp::Sub => zip_with(l, r, i64::wrapping_sub),
            BinOp::Mul => zip_with(l, r, i64::wrapping_mul),
            BinOp::Mod if !y.has_zero() => zip_with(l, r, i64::wrapping_rem),
            _ => return None,
        }),
        _ => Column::from_typed_float(match op {
            BinOp::Add => zip_f64(x, y, |l, r| l + r),
            BinOp::Sub => zip_f64(x, y, |l, r| l - r),
            BinOp::Mul => zip_f64(x, y, |l, r| l * r),
            BinOp::Mod => zip_f64(x, y, |l, r| l % r),
            _ => return None,
        }),
    })
}

fn bin_vec(op: BinOp, a: &Ev, b: &Ev, chunk: &Chunk) -> Ev {
    if let (Ev::Lit(x), Ev::Lit(y)) = (a, b) {
        return Ev::Lit(scalar_bin(op, x, y));
    }
    if let Some(column) = typed_bin(op, a, b) {
        return Ev::Col(column);
    }
    // ---- generic scalar loop (shared semantics with Expr::eval) ---------
    let values: Vec<Value> = (0..chunk.rows())
        .map(|i| scalar_bin(op, &a.value(i), &b.value(i)))
        .collect();
    Ev::Col(Column::from_values(&values))
}

fn cmp_holds(op: BinOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinOp::SqlEq => ord.is_eq(),
        BinOp::SqlNe => ord.is_ne(),
        BinOp::SqlLt => ord.is_lt(),
        BinOp::SqlLe => ord.is_le(),
        BinOp::SqlGt => ord.is_gt(),
        BinOp::SqlGe => ord.is_ge(),
        _ => unreachable!("cmp_holds called with non-comparison op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    impl Expr {
        /// `self * rhs`.
        pub(crate) fn mul(self, rhs: Expr) -> Expr {
            self.bin(BinOp::Mul, rhs)
        }

        /// SQL `self < rhs`.
        pub(crate) fn lt(self, rhs: Expr) -> Expr {
            self.bin(BinOp::SqlLt, rhs)
        }

        /// SQL `self / rhs`.
        pub(crate) fn div(self, rhs: Expr) -> Expr {
            self.bin(BinOp::SqlDiv, rhs)
        }
    }

    fn both(e: &Expr, records: &[Record]) -> (Vec<Value>, Vec<Value>) {
        let row: Vec<Value> = records.iter().map(|r| e.eval(r)).collect();
        let chunk = Chunk::from_records(records).unwrap();
        let col = e.eval_chunk(&chunk);
        let vec: Vec<Value> = (0..records.len()).map(|i| col.value(i)).collect();
        (row, vec)
    }

    #[test]
    fn row_and_vectorized_paths_agree_on_typed_data() {
        let records: Vec<Record> = (0..50i64).map(|i| rec![i, i as f64 * 0.5]).collect();
        for e in [
            Expr::field(0).add(Expr::lit(3i64)),
            Expr::field(0).mul(Expr::field(0)),
            Expr::field(0).lt(Expr::lit(25i64)),
            Expr::field(1).div(Expr::lit(0.0)),
            Expr::field(1).ge(Expr::lit(10.0)),
            Expr::field(0).add(Expr::field(1)),
            Expr::field(0)
                .lt(Expr::lit(10i64))
                .or(Expr::field(1).gt(Expr::lit(20.0))),
        ] {
            let (row, vec) = both(&e, &records);
            assert_eq!(row, vec, "paths disagree for {e}");
        }
    }

    #[test]
    fn row_and_vectorized_paths_agree_on_dirty_data() {
        let records = vec![
            rec![1i64, "x"],
            Record::new(vec![Value::Null, Value::str("y")]),
            Record::new(vec![Value::Float(f64::NAN), Value::Null]),
            rec![3i64, "x"],
        ];
        for e in [
            Expr::field(0).add(Expr::lit(1i64)),
            Expr::field(0).lt(Expr::lit(2i64)),
            Expr::field(1).eq(Expr::lit("x")),
            Expr::IsNull(Arc::new(Expr::field(0))),
            Expr::IsNull(Arc::new(Expr::field(0))).not(),
            Expr::field(7).eq(Expr::lit(1i64)),
        ] {
            let (row, vec) = both(&e, &records);
            assert_eq!(row, vec, "paths disagree for {e}");
        }
    }

    #[test]
    fn int_arithmetic_wraps_and_div_by_zero_is_null() {
        let e = Expr::field(0).add(Expr::lit(1i64));
        assert_eq!(e.eval(&rec![i64::MAX]), Value::Int(i64::MIN));
        let d = Expr::field(0).div(Expr::lit(0i64));
        assert_eq!(d.eval(&rec![5i64]), Value::Null);
        let m = Expr::field(0).rem(Expr::lit(0i64));
        assert_eq!(m.eval(&rec![5i64]), Value::Null);
    }

    #[test]
    fn mixed_int_float_widens() {
        let e = Expr::field(0).add(Expr::lit(0.5));
        assert_eq!(e.eval(&rec![2i64]), Value::Float(2.5));
        // A Float remainder by zero is IEEE, not Null.
        let m = Expr::lit(1.0).rem(Expr::lit(0i64));
        assert!(matches!(m.eval(&Record::empty()), Value::Float(x) if x.is_nan()));
    }

    #[test]
    fn sql_operators_agree_on_both_paths_and_propagate_null() {
        let typed: Vec<Record> = (0..40i64).map(|i| rec![i - 5, i as f64 * 0.5]).collect();
        let dirty = vec![
            rec![1i64, 2.5],
            Record::new(vec![Value::Null, Value::Float(f64::NAN)]),
            Record::new(vec![Value::str("x"), Value::Float(-0.0)]),
            Record::new(vec![Value::Bool(true), Value::Null]),
            rec![0i64, 0.0],
        ];
        let sql_ops = [
            BinOp::SqlEq,
            BinOp::SqlNe,
            BinOp::SqlLt,
            BinOp::SqlLe,
            BinOp::SqlGt,
            BinOp::SqlGe,
            BinOp::SqlDiv,
        ];
        for records in [&typed, &dirty] {
            for op in sql_ops {
                for e in [
                    Expr::field(0).bin(op, Expr::lit(3i64)),
                    Expr::field(1).bin(op, Expr::lit(3i64)),
                    Expr::field(0).bin(op, Expr::field(1)),
                    Expr::field(1).bin(op, Expr::lit(0.0)),
                    Expr::field(0).bin(op, Expr::lit(Value::Null)),
                    Expr::field(0)
                        .bin(op, Expr::lit(1i64))
                        .is_true()
                        .and(Expr::field(1).bin(op, Expr::lit(2.0)).is_true())
                        .not(),
                ] {
                    let (row, vec) = both(&e, records);
                    assert_eq!(row, vec, "paths disagree for {e}");
                }
            }
        }
    }

    #[test]
    fn sql_comparisons_are_numeric_aware_and_null_propagating() {
        let r = Record::empty();
        let cmp = |a: Value, op: BinOp, b: Value| Expr::Lit(a).bin(op, Expr::Lit(b)).eval(&r);
        // Int vs Float compares by value.
        assert_eq!(
            cmp(499i64.into(), BinOp::SqlLt, 499.5.into()),
            Value::Bool(true)
        );
        assert_eq!(
            cmp(5i64.into(), BinOp::SqlEq, 5.0.into()),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::lit(499i64).lt(Expr::lit(0.5)).eval(&r),
            Value::Bool(false)
        );
        // Floats compare by total_cmp: -0.0 < 0.0, NaN above everything.
        assert_eq!(
            cmp((-0.0).into(), BinOp::SqlEq, 0.0.into()),
            Value::Bool(false)
        );
        assert_eq!(
            cmp(f64::NAN.into(), BinOp::SqlGt, f64::INFINITY.into()),
            Value::Bool(true)
        );
        // Null and cross-type operands are unknown.
        assert_eq!(cmp(Value::Null, BinOp::SqlEq, Value::Null), Value::Null);
        assert_eq!(cmp(1i64.into(), BinOp::SqlNe, "1".into()), Value::Null);
        assert_eq!(cmp(true.into(), BinOp::SqlLt, 1i64.into()), Value::Null);
        assert_eq!(cmp("a".into(), BinOp::SqlLt, "b".into()), Value::Bool(true));
        // Division is Float, and NULL on a zero divisor of either sign.
        assert_eq!(
            cmp(7i64.into(), BinOp::SqlDiv, 2i64.into()),
            Value::Float(3.5)
        );
        assert_eq!(cmp(7i64.into(), BinOp::SqlDiv, 0i64.into()), Value::Null);
        assert_eq!(cmp(7.0.into(), BinOp::SqlDiv, (-0.0).into()), Value::Null);
        assert_eq!(cmp("7".into(), BinOp::SqlDiv, 1i64.into()), Value::Null);
        // The builders are these operators, on the row and the chunk path:
        // over clean lanes (the typed loops) and over a NULL (the scalar one).
        let (t, f, null) = (Value::Bool(true), Value::Bool(false), Value::Null);
        let clean = vec![rec![5i64, 5.0], rec![6i64, 4.5]];
        let dirty = vec![rec![5i64, 5.0], Record::new(vec![Value::Null, 4.5.into()])];
        for (records, e, expected) in [
            (
                &clean,
                Expr::field(0).eq(Expr::field(1)),
                [t.clone(), f.clone()],
            ),
            (
                &clean,
                Expr::field(0).gt(Expr::field(1)),
                [f.clone(), t.clone()],
            ),
            (
                &clean,
                Expr::field(0).ge(Expr::lit(5.5)),
                [f.clone(), t.clone()],
            ),
            (
                &clean,
                Expr::field(1).gt(Expr::lit(4i64)),
                [t.clone(), t.clone()],
            ),
            (
                &dirty,
                Expr::field(0).eq(Expr::field(1)),
                [t.clone(), null.clone()],
            ),
            (
                &dirty,
                Expr::field(0).gt(Expr::field(1)),
                [f.clone(), null.clone()],
            ),
            (
                &dirty,
                Expr::field(0).ge(Expr::field(1)),
                [t.clone(), null.clone()],
            ),
            (
                &clean,
                Expr::field(0).ge(Expr::lit(Value::Null)),
                [null.clone(), null.clone()],
            ),
        ] {
            let (row, vec) = both(&e, records);
            assert_eq!(row, expected, "row path of {e}");
            assert_eq!(vec, expected, "chunk path of {e}");
        }
    }

    #[test]
    fn is_true_is_two_valued() {
        let r = Record::empty();
        assert_eq!(Expr::lit(true).is_true().eval(&r), Value::Bool(true));
        for v in [
            Value::Bool(false),
            Value::Null,
            Value::Int(1),
            Value::str("true"),
        ] {
            assert_eq!(Expr::Lit(v).is_true().eval(&r), Value::Bool(false));
        }
        // NOT over an unknown comparison is true — SQL's NOT here is
        // two-valued, unlike the Kleene `not`.
        let unknown = Expr::lit(Value::Null).bin(BinOp::SqlGt, Expr::lit(1i64));
        assert_eq!(unknown.clone().not().eval(&r), Value::Null);
        assert_eq!(unknown.is_true().not().eval(&r), Value::Bool(true));
    }

    #[test]
    fn kleene_logic() {
        let null = Expr::lit(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        let r = Record::empty();
        assert_eq!(f.clone().and(null.clone()).eval(&r), Value::Bool(false));
        assert_eq!(t.clone().and(null.clone()).eval(&r), Value::Null);
        assert_eq!(t.clone().or(null.clone()).eval(&r), Value::Bool(true));
        assert_eq!(f.clone().or(null.clone()).eval(&r), Value::Null);
        assert_eq!(null.clone().not().eval(&r), Value::Null);
        assert_eq!(t.not().eval(&r), Value::Bool(false));
    }

    #[test]
    fn field_out_of_bounds_reads_null() {
        let e = Expr::field(3);
        assert_eq!(e.eval(&rec![1i64]), Value::Null);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::field(0)
            .lt(Expr::lit(10i64))
            .and(Expr::field(1).eq(Expr::lit("x")));
        assert_eq!(e.to_string(), "((#0 <? 10) && (#1 =? \"x\"))");
        // Plan fingerprints hash this form: literals of different types
        // must print apart.
        assert_eq!(Expr::field(0).lt(Expr::lit(1i64)).to_string(), "(#0 <? 1)");
        assert_eq!(Expr::field(0).lt(Expr::lit(1.0)).to_string(), "(#0 <? 1.0)");
        assert_eq!(Expr::field(2).is_true().to_string(), "(#2) is true");
    }
}
