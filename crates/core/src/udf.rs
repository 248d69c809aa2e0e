//! UDF (user-defined function) types.
//!
//! The paper's entire processing abstraction "is fully based on user-defined
//! functions" (§1): every operator at every layer carries user logic. We
//! model UDFs as reference-counted closures so that physical plans are
//! cheaply clonable data structures the optimizer can rewrite, split, and
//! ship to platforms.
//!
//! Each UDF is wrapped in a small named struct: the name shows up in plan
//! explanations and execution statistics, and optional hints (selectivity,
//! fan-out) feed the cardinality estimator (§4.2).

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::data::{Record, Value};
use crate::expr::{sql_ordering, Expr};

/// Sanitize a user-supplied cardinality hint: non-finite values fall back
/// to `default`, negative values clamp to zero.
///
/// Hints flow straight into cardinality estimation, where a `NaN` or `-∞`
/// would poison every downstream plan-cost comparison (`NaN < NaN` is
/// false, so enumeration would pick arbitrary platforms).
fn sanitize_hint(value: f64, default: f64) -> f64 {
    if value.is_finite() {
        value.max(0.0)
    } else {
        default
    }
}

/// `Record -> Record` transformation.
pub type MapFn = Arc<dyn Fn(&Record) -> Record + Send + Sync>;
/// `Record -> [Record]` transformation (also used for per-quantum filters
/// with side information).
pub type FlatMapFn = Arc<dyn Fn(&Record) -> Vec<Record> + Send + Sync>;
/// Predicate over a single data quantum.
pub type FilterFn = Arc<dyn Fn(&Record) -> bool + Send + Sync>;
/// Key extractor used by grouping, reduction, joins, and sorting.
pub type KeyFn = Arc<dyn Fn(&Record) -> Value + Send + Sync>;
/// Commutative-associative combiner for (keyed or global) reduction.
pub type ReduceFn = Arc<dyn Fn(Record, &Record) -> Record + Send + Sync>;
/// Per-group transformation: `(key, members) -> [Record]`.
pub type GroupMapFn = Arc<dyn Fn(&Value, &[Record]) -> Vec<Record> + Send + Sync>;
/// Binary predicate over a pair of quanta (theta joins, violation detection).
pub type PairPredicateFn = Arc<dyn Fn(&Record, &Record) -> bool + Send + Sync>;
/// Loop continuation test: `(iteration, loop state) -> keep going?`.
pub type LoopCondFn = Arc<dyn Fn(u64, &[Record]) -> bool + Send + Sync>;

/// A named unary `map` UDF.
#[derive(Clone)]
pub struct MapUdf {
    /// Display name used in plan explanations and stats.
    pub name: String,
    /// The function itself.
    pub f: MapFn,
    /// Declarative output expressions (one per output field), when the map
    /// is transparent. `f` and `exprs` always agree: [`MapUdf::from_exprs`]
    /// derives the closure from the expressions.
    pub exprs: Option<Arc<[Expr]>>,
}

impl MapUdf {
    /// Wrap a closure with a display name.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Record) -> Record + Send + Sync + 'static,
    ) -> Self {
        MapUdf {
            name: name.into(),
            f: Arc::new(f),
            exprs: None,
        }
    }

    /// Build a transparent map from output-field expressions.
    ///
    /// The row closure is derived from the expressions, so the opaque and
    /// declarative views of this UDF cannot drift apart; the optimizer may
    /// fuse transparent maps into chunk pipelines.
    pub fn from_exprs(name: impl Into<String>, exprs: Vec<Expr>) -> Self {
        let exprs: Arc<[Expr]> = exprs.into();
        let for_closure = exprs.clone();
        MapUdf {
            name: name.into(),
            f: Arc::new(move |r: &Record| {
                Record::new(for_closure.iter().map(|e| e.eval(r)).collect())
            }),
            exprs: Some(exprs),
        }
    }
}

/// A named `flat_map` UDF with an optional average fan-out hint.
#[derive(Clone)]
pub struct FlatMapUdf {
    /// Display name.
    pub name: String,
    /// The function itself.
    pub f: FlatMapFn,
    /// Expected number of output quanta per input quantum (default 1.0).
    pub fanout: f64,
}

impl FlatMapUdf {
    /// Wrap a closure with a display name and default fan-out 1.0.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Record) -> Vec<Record> + Send + Sync + 'static,
    ) -> Self {
        FlatMapUdf {
            name: name.into(),
            f: Arc::new(f),
            fanout: 1.0,
        }
    }

    /// Attach a fan-out hint for the cardinality estimator.
    ///
    /// Non-finite hints are ignored (the default 1.0 is kept) and negative
    /// hints clamp to zero, so estimation can never be `NaN`-poisoned.
    pub fn with_fanout(mut self, fanout: f64) -> Self {
        self.fanout = sanitize_hint(fanout, 1.0);
        self
    }
}

/// A named filter UDF with an optional selectivity hint.
#[derive(Clone)]
pub struct FilterUdf {
    /// Display name.
    pub name: String,
    /// The predicate.
    pub f: FilterFn,
    /// Expected fraction of quanta kept (default 0.5).
    pub selectivity: f64,
    /// Declarative predicate, when the filter is transparent. A record is
    /// kept iff the expression evaluates to `Bool(true)` (so `Null` drops
    /// the record, SQL-style). `f` and `expr` always agree:
    /// [`FilterUdf::from_expr`] derives the closure from the expression.
    pub expr: Option<Arc<Expr>>,
}

impl FilterUdf {
    /// Wrap a predicate with a display name and default selectivity 0.5.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Record) -> bool + Send + Sync + 'static,
    ) -> Self {
        FilterUdf {
            name: name.into(),
            f: Arc::new(f),
            selectivity: 0.5,
            expr: None,
        }
    }

    /// Build a transparent filter from a predicate expression.
    ///
    /// The row closure is derived from the expression, so the opaque and
    /// declarative views cannot drift apart; the optimizer may fuse
    /// transparent filters into chunk pipelines.
    pub fn from_expr(name: impl Into<String>, expr: Expr) -> Self {
        let expr = Arc::new(expr);
        let for_closure = expr.clone();
        FilterUdf {
            name: name.into(),
            f: Arc::new(move |r: &Record| matches!(for_closure.eval(r), Value::Bool(true))),
            selectivity: 0.5,
            expr: Some(expr),
        }
    }

    /// Attach a selectivity hint in `[0, 1]`.
    ///
    /// `NaN` hints are ignored (the default 0.5 is kept); infinities clamp
    /// into range like any other out-of-range value.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        // `f64::clamp` propagates NaN, so guard it explicitly.
        self.selectivity = if selectivity.is_nan() {
            0.5
        } else {
            selectivity.clamp(0.0, 1.0)
        };
        self
    }
}

/// A named key-extraction UDF.
#[derive(Clone)]
pub struct KeyUdf {
    /// Display name.
    pub name: String,
    /// The key extractor.
    pub f: KeyFn,
    /// Expected number of distinct keys, if known (cardinality hint).
    pub distinct_keys: Option<f64>,
    /// The field indices the key reads, when the key is declarative
    /// ([`KeyUdf::field`] / [`KeyUdf::fields`]). Lets chunked kernels hash
    /// the key columns directly instead of materializing a [`Value`] per
    /// row. `f` and `fields` always agree: the constructors derive the
    /// closure from the indices.
    pub fields: Option<Arc<[usize]>>,
}

impl KeyUdf {
    /// Wrap a key extractor with a display name.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Record) -> Value + Send + Sync + 'static,
    ) -> Self {
        KeyUdf {
            name: name.into(),
            f: Arc::new(f),
            distinct_keys: None,
            fields: None,
        }
    }

    /// Key extractor that simply reads field `index`.
    pub fn field(index: usize) -> Self {
        KeyUdf {
            name: format!("field#{index}"),
            f: Arc::new(move |r: &Record| r.get(index).cloned().unwrap_or(Value::Null)),
            distinct_keys: None,
            fields: Some(Arc::from([index])),
        }
    }

    /// Key over a tuple of fields (a composite grouping key).
    ///
    /// One index is exactly [`KeyUdf::field`]; no index is the constant key
    /// (every record in one group — a global aggregate). For two or more
    /// the row closure returns an injective, *order-preserving* string
    /// encoding of the tuple: two records get equal encodings iff their key
    /// fields are pairwise equal, and encodings sort like the tuples do
    /// under [`Value`]'s total order — so kernels that group and order on
    /// the key columns directly agree with kernels that call the closure.
    pub fn fields(indices: Vec<usize>) -> Self {
        if let [index] = indices[..] {
            return KeyUdf::field(index);
        }
        let fields: Arc<[usize]> = indices.into();
        let for_closure = fields.clone();
        KeyUdf {
            name: format!("fields#{fields:?}"),
            f: Arc::new(move |r: &Record| {
                if for_closure.is_empty() {
                    return Value::Null;
                }
                let mut s = String::new();
                for &i in for_closure.iter() {
                    encode_key_field(&mut s, r.fields().get(i).unwrap_or(&Value::Null));
                }
                Value::Str(s.into())
            }),
            distinct_keys: None,
            fields: Some(fields),
        }
    }

    /// The single field a declarative key reads, if it reads exactly one.
    pub(crate) fn field_index(&self) -> Option<usize> {
        match self.fields.as_deref() {
            Some([index]) => Some(*index),
            _ => None,
        }
    }

    /// Attach a distinct-key-count hint.
    ///
    /// Non-finite hints are ignored (no hint is recorded) and negative
    /// hints clamp to zero, so estimation can never be `NaN`-poisoned.
    pub fn with_distinct_keys(mut self, n: f64) -> Self {
        if n.is_finite() {
            self.distinct_keys = Some(n.max(0.0));
        }
        self
    }
}

/// Append one key field to a composite-key encoding (see
/// [`KeyUdf::fields`]): a variant tag in [`Value`] rank order, then a
/// fixed-width big-endian payload (sign-biased `Int`, `total_cmp`-ordered
/// `Float` bits) or the string with `\0` escaped and a `\0\0` terminator —
/// each field encoding is prefix-free and sorts like the value it encodes.
fn encode_key_field(s: &mut String, v: &Value) {
    const SIGN: u64 = 1 << 63;
    match v {
        Value::Null => s.push('0'),
        Value::Bool(b) => s.push_str(if *b { "11" } else { "10" }),
        Value::Int(i) => {
            let _ = write!(s, "2{:016x}", (*i as u64) ^ SIGN);
        }
        Value::Float(x) => {
            let bits = x.to_bits();
            let ordered = if bits & SIGN != 0 { !bits } else { bits ^ SIGN };
            let _ = write!(s, "3{ordered:016x}");
        }
        Value::Str(v) => {
            s.push('4');
            for c in v.chars() {
                if c == '\0' {
                    s.push_str("\0\u{1}");
                } else {
                    s.push(c);
                }
            }
            s.push_str("\0\0");
        }
    }
}

/// A named keyed/global reduction UDF.
#[derive(Clone)]
pub struct ReduceUdf {
    /// Display name.
    pub name: String,
    /// The combiner; must be associative for partitioned execution.
    pub f: ReduceFn,
}

impl ReduceUdf {
    /// Wrap a combiner with a display name.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(Record, &Record) -> Record + Send + Sync + 'static,
    ) -> Self {
        ReduceUdf {
            name: name.into(),
            f: Arc::new(f),
        }
    }
}

/// Aggregate functions of a declarative group map
/// ([`GroupMapUdf::from_aggs`]), with SQL semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of non-`Null` inputs (`COUNT(*)` counts every row).
    Count,
    /// Sum of the numeric inputs: `Int` (wrapping) while every input is
    /// `Int`, `Float` once any is; `Null` over no numeric input.
    Sum,
    /// Least non-`Null` input under the SQL ordering; ties keep the first.
    Min,
    /// Greatest non-`Null` input under the SQL ordering; ties keep the last.
    Max,
    /// `Float` mean of the numeric inputs; `Null` over none.
    Avg,
}

/// One aggregate of a declarative group map.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// The per-row input; `None` is `COUNT(*)`-style "every row counts".
    pub arg: Option<Expr>,
}

/// One output field of a declarative group map.
#[derive(Clone, Debug)]
pub enum GroupOutput {
    /// Field `i` of the group's first member in input order (a grouping
    /// column: every member carries the same value).
    First(usize),
    /// An aggregate over the group's members.
    Agg(Aggregate),
}

/// Running state of one [`Aggregate`] over one group: accumulate every
/// member's input in input order, then finalize.
///
/// This is the scalar reference the vectorized hash aggregate
/// ([`crate::kernels::chunked::hash_aggregate`]) is byte-identical to; its
/// typed accumulator lanes are these folds specialized to one value type.
#[derive(Clone, Debug)]
pub enum AggState {
    /// Inputs counted so far.
    Count(i64),
    /// Both running sums, and which kinds of input were seen.
    Sum {
        /// Wrapping sum of the `Int` inputs.
        int: i64,
        /// Sum of every numeric input, widened, in input order.
        float: f64,
        /// Any numeric input seen.
        seen: bool,
        /// Any `Float` input seen.
        seen_float: bool,
    },
    /// Best input so far; `max` picks the direction.
    Extreme {
        /// `true` for MAX, `false` for MIN.
        max: bool,
        /// The current extreme.
        best: Option<Value>,
    },
    /// Widened sum and count of the numeric inputs.
    Avg {
        /// Sum in input order.
        sum: f64,
        /// Numeric inputs seen.
        n: u64,
    },
}

impl AggState {
    /// The empty state of `func`.
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                int: 0,
                float: 0.0,
                seen: false,
                seen_float: false,
            },
            AggFunc::Min | AggFunc::Max => AggState::Extreme {
                max: func == AggFunc::Max,
                best: None,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Fold in one member's input. `Null` (and, for the numeric
    /// aggregates, any non-numeric value) is skipped.
    pub(crate) fn accumulate(&mut self, v: &Value) {
        match self {
            AggState::Count(n) => *n += i64::from(!v.is_null()),
            AggState::Sum {
                int,
                float,
                seen,
                seen_float,
            } => match v {
                Value::Int(i) => {
                    *seen = true;
                    *int = int.wrapping_add(*i);
                    *float += *i as f64;
                }
                Value::Float(x) => {
                    *seen = true;
                    *seen_float = true;
                    *float += x;
                }
                _ => {}
            },
            AggState::Extreme { max, best } => {
                if v.is_null() {
                    return;
                }
                // MIN replaces on strictly-less, MAX on not-less; values the
                // SQL ordering cannot compare never replace.
                let replace = match best {
                    None => true,
                    Some(b) => sql_ordering(v, b).is_some_and(|ord| ord.is_lt() != *max),
                };
                if replace {
                    *best = Some(v.clone());
                }
            }
            AggState::Avg { sum, n } => {
                if let Value::Int(_) | Value::Float(_) = v {
                    *sum += v.as_float().expect("numeric");
                    *n += 1;
                }
            }
        }
    }

    /// The aggregate's value over everything accumulated.
    pub(crate) fn finalize(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { seen: false, .. } => Value::Null,
            AggState::Sum {
                float,
                seen_float: true,
                ..
            } => Value::Float(float),
            AggState::Sum { int, .. } => Value::Int(int),
            AggState::Extreme { best, .. } => best.unwrap_or(Value::Null),
            AggState::Avg { n: 0, .. } => Value::Null,
            AggState::Avg { sum, n } => Value::Float(sum / n as f64),
        }
    }
}

/// A named per-group transformation UDF.
#[derive(Clone)]
pub struct GroupMapUdf {
    /// Display name.
    pub name: String,
    /// The per-group function.
    pub f: GroupMapFn,
    /// Expected output quanta per group (default 1.0).
    pub per_group_output: f64,
    /// Declarative output fields, when the group map is transparent: one
    /// output record per group. `f` and `aggs` always agree:
    /// [`GroupMapUdf::from_aggs`] derives the closure from the spec.
    pub aggs: Option<Arc<[GroupOutput]>>,
}

impl GroupMapUdf {
    /// Wrap a per-group closure with a display name.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Value, &[Record]) -> Vec<Record> + Send + Sync + 'static,
    ) -> Self {
        GroupMapUdf {
            name: name.into(),
            f: Arc::new(f),
            per_group_output: 1.0,
            aggs: None,
        }
    }

    /// Build a transparent group map emitting one record per group, one
    /// field per [`GroupOutput`].
    ///
    /// The row closure is derived from the spec (each aggregate folds the
    /// members through an [`AggState`] in input order), so the opaque and
    /// declarative views cannot drift apart; the hash aggregate kernel uses
    /// the spec to accumulate in typed lanes without ever materializing a
    /// member list. Over *no* members (a global aggregate of empty input)
    /// the closure still emits its one record: `First` fields read `Null`
    /// and every aggregate finalizes its empty state.
    pub fn from_aggs(name: impl Into<String>, outputs: Vec<GroupOutput>) -> Self {
        let aggs: Arc<[GroupOutput]> = outputs.into();
        let for_closure = aggs.clone();
        GroupMapUdf {
            name: name.into(),
            f: Arc::new(move |_key: &Value, members: &[Record]| {
                let fields = for_closure
                    .iter()
                    .map(|output| match output {
                        GroupOutput::First(i) => members
                            .first()
                            .and_then(|r| r.fields().get(*i))
                            .cloned()
                            .unwrap_or(Value::Null),
                        GroupOutput::Agg(agg) => {
                            let mut state = AggState::new(agg.func);
                            for r in members {
                                match &agg.arg {
                                    Some(arg) => state.accumulate(&arg.eval(r)),
                                    None => state.accumulate(&Value::Bool(true)),
                                }
                            }
                            state.finalize()
                        }
                    })
                    .collect();
                vec![Record::new(fields)]
            }),
            per_group_output: 1.0,
            aggs: Some(aggs),
        }
    }

    /// The identity group map: re-emits every member, prefixed with nothing.
    pub fn identity() -> Self {
        GroupMapUdf::new("identity", |_k, members: &[Record]| members.to_vec())
    }

    /// Attach an output-size hint (records emitted per group).
    ///
    /// Non-finite hints are ignored (the default 1.0 is kept) and negative
    /// hints clamp to zero, so estimation can never be `NaN`-poisoned.
    pub fn with_per_group_output(mut self, n: f64) -> Self {
        self.per_group_output = sanitize_hint(n, 1.0);
        self
    }
}

/// A named loop-continuation UDF.
#[derive(Clone)]
pub struct LoopCondUdf {
    /// Display name.
    pub name: String,
    /// Returns `true` while the loop should continue.
    pub f: LoopCondFn,
}

impl LoopCondUdf {
    /// Wrap a continuation test with a display name.
    pub(crate) fn new(
        name: impl Into<String>,
        f: impl Fn(u64, &[Record]) -> bool + Send + Sync + 'static,
    ) -> Self {
        LoopCondUdf {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// Continue for exactly `n` iterations.
    pub fn fixed_iterations(n: u64) -> Self {
        LoopCondUdf::new(format!("iters<{n}"), move |i, _| i < n)
    }
}

macro_rules! impl_debug_by_name {
    ($($t:ty),*) => {
        $(impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($t), "({})"), self.name)
            }
        })*
    };
}

impl_debug_by_name!(
    MapUdf,
    FlatMapUdf,
    FilterUdf,
    KeyUdf,
    ReduceUdf,
    GroupMapUdf,
    LoopCondUdf
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    #[test]
    fn map_udf_applies() {
        let udf = MapUdf::new("inc", |r: &Record| rec![r.int(0).unwrap() + 1]);
        assert_eq!((udf.f)(&rec![1i64]), rec![2i64]);
        assert_eq!(format!("{udf:?}"), "MapUdf(inc)");
    }

    #[test]
    fn filter_selectivity_is_clamped() {
        let udf = FilterUdf::new("always", |_| true).with_selectivity(3.0);
        assert_eq!(udf.selectivity, 1.0);
        let udf = udf.with_selectivity(-1.0);
        assert_eq!(udf.selectivity, 0.0);
    }

    #[test]
    fn key_field_extracts_and_handles_missing() {
        let k = KeyUdf::field(1);
        assert_eq!((k.f)(&rec![1i64, "x"]), Value::str("x"));
        assert_eq!((k.f)(&rec![1i64]), Value::Null);
    }

    #[test]
    fn fixed_iterations_condition() {
        let c = LoopCondUdf::fixed_iterations(3);
        assert!((c.f)(0, &[]));
        assert!((c.f)(2, &[]));
        assert!(!(c.f)(3, &[]));
    }

    #[test]
    fn group_map_identity_reemits_members() {
        let g = GroupMapUdf::identity();
        let members = vec![rec![1i64], rec![2i64]];
        assert_eq!((g.f)(&Value::Int(0), &members), members);
    }

    #[test]
    fn fanout_hint_rejects_nonfinite_and_negative() {
        let base = FlatMapUdf::new("f", |r| vec![r.clone()]);
        assert_eq!(base.clone().with_fanout(f64::NAN).fanout, 1.0);
        assert_eq!(base.clone().with_fanout(f64::INFINITY).fanout, 1.0);
        assert_eq!(base.clone().with_fanout(f64::NEG_INFINITY).fanout, 1.0);
        assert_eq!(base.clone().with_fanout(-3.0).fanout, 0.0);
        assert_eq!(base.with_fanout(2.5).fanout, 2.5);
    }

    #[test]
    fn per_group_output_hint_rejects_nonfinite_and_negative() {
        let base = GroupMapUdf::identity();
        assert_eq!(
            base.clone()
                .with_per_group_output(f64::NAN)
                .per_group_output,
            1.0
        );
        assert_eq!(
            base.clone()
                .with_per_group_output(f64::INFINITY)
                .per_group_output,
            1.0
        );
        assert_eq!(
            base.clone().with_per_group_output(-1.0).per_group_output,
            0.0
        );
        assert_eq!(base.with_per_group_output(4.0).per_group_output, 4.0);
    }

    #[test]
    fn distinct_keys_hint_rejects_nonfinite_and_negative() {
        let base = KeyUdf::field(0);
        assert_eq!(
            base.clone().with_distinct_keys(f64::NAN).distinct_keys,
            None
        );
        assert_eq!(
            base.clone().with_distinct_keys(f64::INFINITY).distinct_keys,
            None
        );
        assert_eq!(
            base.clone().with_distinct_keys(-5.0).distinct_keys,
            Some(0.0)
        );
        assert_eq!(base.with_distinct_keys(10.0).distinct_keys, Some(10.0));
    }

    #[test]
    fn selectivity_hint_rejects_nan() {
        let udf = FilterUdf::new("p", |_| true).with_selectivity(f64::NAN);
        assert_eq!(udf.selectivity, 0.5);
        let udf = FilterUdf::new("p", |_| true).with_selectivity(f64::INFINITY);
        assert_eq!(udf.selectivity, 1.0);
    }

    #[test]
    fn expr_filter_closure_matches_expression() {
        use crate::expr::Expr;
        let udf = FilterUdf::from_expr("lt10", Expr::field(0).lt(Expr::lit(10i64)));
        assert!((udf.f)(&rec![5i64]));
        assert!(!(udf.f)(&rec![15i64]));
        // `Null < 10` is unknown, and a filter keeps only `true`.
        assert!(!(udf.f)(&Record::new(vec![Value::Null])));
        assert!(udf.expr.is_some());
    }

    #[test]
    fn expr_map_closure_matches_expressions() {
        use crate::expr::Expr;
        let udf = MapUdf::from_exprs(
            "proj+1",
            vec![Expr::field(1), Expr::field(0).add(Expr::lit(1i64))],
        );
        assert_eq!((udf.f)(&rec![41i64, "x"]), rec!["x", 42i64]);
    }

    #[test]
    fn composite_key_encoding_is_injective_and_order_preserving() {
        // Every pair of these tuples must compare under the encoding
        // exactly as the tuples themselves compare under Value's order.
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(10),
            Value::Int(i64::MAX),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("\0"),
            Value::str("\u{1}"),
            Value::str("a"),
            Value::str("a\0"),
            Value::str("a\0b"),
            Value::str("a\u{1}"),
            Value::str("ab"),
            Value::str("b"),
        ];
        let key = KeyUdf::fields(vec![0, 1]);
        let tuples: Vec<Record> = values
            .iter()
            .flat_map(|a| {
                values
                    .iter()
                    .map(|b| Record::new(vec![a.clone(), b.clone()]))
            })
            .collect();
        for a in &tuples {
            for b in &tuples {
                assert_eq!(
                    (key.f)(a).cmp(&(key.f)(b)),
                    a.cmp(b),
                    "encoding misorders {a} and {b}"
                );
            }
        }
        // Missing fields read as Null; no field at all is the constant key.
        assert_eq!(
            (key.f)(&rec![1i64]),
            (key.f)(&Record::new(vec![Value::Int(1), Value::Null]))
        );
        assert_eq!((KeyUdf::fields(vec![]).f)(&rec![1i64]), Value::Null);
        assert_eq!(KeyUdf::fields(vec![]).fields.as_deref(), Some(&[][..]));
    }

    #[test]
    fn aggregate_closure_follows_sql_semantics() {
        let agg = |func, arg: Option<Expr>| GroupOutput::Agg(Aggregate { func, arg });
        let udf = GroupMapUdf::from_aggs(
            "aggs",
            vec![
                GroupOutput::First(0),
                agg(AggFunc::Count, None),
                agg(AggFunc::Count, Some(Expr::field(1))),
                agg(AggFunc::Sum, Some(Expr::field(1))),
                agg(AggFunc::Avg, Some(Expr::field(1))),
                agg(AggFunc::Min, Some(Expr::field(2))),
                agg(AggFunc::Max, Some(Expr::field(2))),
                agg(AggFunc::Sum, Some(Expr::field(2))),
            ],
        );
        let members = vec![
            rec!["k", 10i64, 5i64],
            Record::new(vec![Value::str("k"), Value::Null, Value::Float(5.0)]),
            rec!["k", 30i64, "text"],
            rec!["k", 2i64, 0.5],
        ];
        let out = (udf.f)(&Value::Null, &members);
        assert_eq!(
            out,
            vec![Record::new(vec![
                Value::str("k"),
                Value::Int(4),      // COUNT(*) counts rows
                Value::Int(3),      // COUNT(x) skips NULL
                Value::Int(42),     // SUM over Ints stays Int
                Value::Float(14.0), // AVG is Float
                Value::Float(0.5),  // MIN is numeric-aware, skips Str
                Value::Float(5.0),  // MAX keeps the last of Int 5 = Float 5.0
                Value::Float(10.5), // SUM turns Float once any input is
            ])]
        );
        // Over no members: First reads Null, aggregates finalize empty.
        let empty = (udf.f)(&Value::Null, &[]);
        let mut expected = vec![Value::Null; 8];
        expected[1] = Value::Int(0);
        expected[2] = Value::Int(0);
        assert_eq!(empty, vec![Record::new(expected)]);
        assert_eq!(udf.per_group_output, 1.0);
        assert!(udf.aggs.is_some() && GroupMapUdf::identity().aggs.is_none());
    }

    #[test]
    fn key_field_records_its_index() {
        assert_eq!(KeyUdf::field(2).field_index(), Some(2));
        assert_eq!(KeyUdf::new("k", |_| Value::Null).field_index(), None);
        assert_eq!(KeyUdf::fields(vec![2]).field_index(), Some(2));
        assert_eq!(KeyUdf::fields(vec![0, 2]).field_index(), None);
    }
}
