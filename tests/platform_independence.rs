//! The platform-independence contract, end to end: any plan produces the
//! same bag of records on every registered platform (§2 "Processing
//! Platform Independence"). Includes a property-based test that builds
//! random operator pipelines and cross-checks all engines against the
//! reference interpreter.

use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem::rec;
use rheem_core::{run_plan, PhysicalPlan};

fn all_platform_contexts() -> Vec<(&'static str, RheemContext)> {
    vec![
        (
            "java",
            RheemContext::new().with_platform(Arc::new(JavaPlatform::new())),
        ),
        (
            "sparklike",
            RheemContext::new().with_platform(Arc::new(
                SparkLikePlatform::new(4).with_overheads(OverheadConfig::none()),
            )),
        ),
        (
            "mapreduce",
            RheemContext::new().with_platform(Arc::new(
                MapReduceLikePlatform::new(4)
                    .with_overheads(OverheadConfig::none())
                    .with_spill_dir(
                        std::env::temp_dir()
                            .join(format!("rheem_integration_{}", std::process::id())),
                    ),
            )),
        ),
        (
            "relational",
            RheemContext::new().with_platform(Arc::new(
                RelationalPlatform::new().with_overheads(OverheadConfig::none()),
            )),
        ),
    ]
}

fn sorted(mut v: Vec<Record>) -> Vec<Record> {
    v.sort();
    v
}

/// Normalize a job's outputs into a sorted multiset of sorted bags.
/// The optimizer's rewrite pass renumbers nodes, so sinks are matched by
/// content (bag semantics), not by id.
fn bags(outputs: impl IntoIterator<Item = Dataset>) -> Vec<Vec<Record>> {
    let mut out: Vec<Vec<Record>> = outputs
        .into_iter()
        .map(|d| sorted(d.records().to_vec()))
        .collect();
    out.sort();
    out
}

/// Execute on every platform and compare against the reference interpreter.
fn assert_platform_independent(plan: &PhysicalPlan) {
    let reference = run_plan(plan, &rheem_core::ExecutionContext::new()).expect("reference runs");
    let reference_bags = bags(reference.into_values());
    for (name, ctx) in all_platform_contexts() {
        // Skip engines that cannot run the plan at all (e.g. relational
        // with loops) — the optimizer would never route it there.
        let supported = {
            let platform = ctx.platforms().all()[0].clone();
            plan.nodes().iter().all(|n| platform.supports(&n.op))
        };
        if !supported {
            continue;
        }
        let result = ctx.execute(plan.clone()).expect("plan executes");
        assert_eq!(
            bags(result.outputs.into_values()),
            reference_bags,
            "platform {name} disagrees with the reference"
        );
    }
}

#[test]
fn relational_style_query_is_platform_independent() {
    let mut b = PlanBuilder::new();
    let orders = b.collection("orders", rheem_datagen::orders(500, 60, 1));
    let customers = b.collection("customers", rheem_datagen::customers(60, 5, 2));
    let big = b.filter(
        orders,
        FilterUdf::new("big", |r| r.float(2).unwrap() > 1000.0),
    );
    let joined = b.hash_join(big, customers, KeyUdf::field(1), KeyUdf::field(0));
    // Normalize each joined row to [region, cents] first: a stable
    // accumulator shape, and integer money so the aggregate is exact
    // regardless of per-partition summation order.
    let rows = b.map(
        joined,
        MapUdf::new("project-region-cents", |r| {
            Record::new(vec![
                r.get(5).unwrap().clone(),
                ((r.float(2).unwrap() * 100.0).round() as i64).into(),
            ])
        }),
    );
    let by_region = b.reduce_by_key(
        rows,
        KeyUdf::field(0),
        ReduceUdf::new("sum", |a, x| {
            Record::new(vec![
                a.get(0).unwrap().clone(),
                (a.int(1).unwrap() + x.int(1).unwrap()).into(),
            ])
        }),
    );
    b.collect(by_region);
    let plan = b.build().unwrap();
    assert_platform_independent(&plan);
}

#[test]
fn iterative_plan_is_platform_independent() {
    // Relational is skipped automatically (no loop support).
    let mut body = PlanBuilder::new();
    let li = body.loop_input();
    let doubled = body.map(li, MapUdf::new("x2", |r| rec![r.int(0).unwrap() * 2]));
    body.filter(
        doubled,
        FilterUdf::new("cap", |r| r.int(0).unwrap() < 1_000_000),
    );
    let body = body.build_fragment().unwrap();

    let mut b = PlanBuilder::new();
    let src = b.collection("s", (1..50i64).map(|i| rec![i]).collect());
    let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(6), 6);
    b.collect(l);
    assert_platform_independent(&b.build().unwrap());
}

#[test]
fn loop_join_union_reduce_is_platform_independent() {
    // Multi-row loop state `[node, value]`, hash-joined with a body-local
    // edge list, unioned with a second body-local collection and summed per
    // key: each node's next value is the sum over its in-edges.
    let edges: Vec<Record> = (0..40i64)
        .flat_map(|v| [rec![v, (v + 1) % 40], rec![v, (v * 7) % 40]])
        .collect();
    let mut body = PlanBuilder::new();
    let state = body.loop_input();
    let edge_src = body.collection("edges", edges);
    let joined = body.hash_join(edge_src, state, KeyUdf::field(0), KeyUdf::field(0));
    let pushed = body.map(
        joined,
        MapUdf::new("push", |r| rec![r.int(1).unwrap(), r.int(3).unwrap()]),
    );
    let zeros = body.collection("zeros", (0..40i64).map(|v| rec![v, 0i64]).collect());
    let all = body.union(pushed, zeros);
    body.reduce_by_key(
        all,
        KeyUdf::field(0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    let body = body.build_fragment().unwrap();

    let mut b = PlanBuilder::new();
    let init = b.collection("init", (0..40i64).map(|v| rec![v, v % 3]).collect());
    let l = b.repeat(init, body, LoopCondUdf::fixed_iterations(5), 5);
    b.collect(l);
    assert_platform_independent(&b.build().unwrap());
}

#[test]
fn cleaning_pipeline_is_platform_independent() {
    use rheem_cleaning::{build_detection_plan, DenialConstraint, DetectionStrategy};
    use rheem_datagen::tax::{columns, generate, TaxConfig};
    let (data, _) = generate(&TaxConfig::new(800).with_seed(3));
    let rule =
        DenialConstraint::functional_dependency("fd", columns::ID, columns::ZIP, columns::STATE);
    for strategy in [
        DetectionStrategy::OperatorPipeline,
        DetectionStrategy::SingleUdf,
    ] {
        let (plan, _) = build_detection_plan(data.clone(), &rule, strategy).unwrap();
        assert_platform_independent(&plan);
    }
}

// ---------------------------------------------------------------------------
// Property-based pipeline fuzzing
// ---------------------------------------------------------------------------

/// A randomly chosen unary operator step.
#[derive(Clone, Debug)]
enum Step {
    MapAddConst(i64),
    FilterMod(i64),
    SortAsc,
    GroupCount,
    ReduceSum,
    LimitTo(usize),
    UnionSelf,
}

fn apply_step(b: &mut PlanBuilder, input: rheem_core::NodeId, step: &Step) -> rheem_core::NodeId {
    match step {
        Step::MapAddConst(c) => {
            let c = *c;
            b.map(
                input,
                MapUdf::new("add", move |r| {
                    rec![r.int(0).unwrap().wrapping_add(c), r.int(1).unwrap_or(0)]
                }),
            )
        }
        Step::FilterMod(m) => {
            let m = (*m).max(1);
            b.filter(
                input,
                FilterUdf::new("mod", move |r| r.int(0).unwrap().rem_euclid(m) != 0),
            )
        }
        Step::SortAsc => b.sort(input, KeyUdf::field(0), false),
        Step::GroupCount => b.group_by(
            input,
            KeyUdf::new("mod7", |r| (r.int(0).unwrap().rem_euclid(7)).into()),
            GroupMapUdf::new("count", |k, members| {
                vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
            }),
        ),
        // Note: the combiner must be commutative and associative for the
        // result to be platform-independent (partitioned engines reduce in
        // a different order) — hence `min` for the representative, not
        // "first seen".
        Step::ReduceSum => b.reduce_by_key(
            input,
            KeyUdf::new("mod5", |r| (r.int(0).unwrap().rem_euclid(5)).into()),
            ReduceUdf::new("sum", |a, x| {
                rec![
                    a.int(0).unwrap().min(x.int(0).unwrap()),
                    a.int(1).unwrap_or(0).wrapping_add(x.int(1).unwrap_or(0))
                ]
            }),
        ),
        Step::LimitTo(n) => {
            // Order across platforms is a bag, so sort before limiting to
            // keep the prefix deterministic.
            let s = b.sort(input, KeyUdf::field(0), false);
            b.limit(s, *n)
        }
        Step::UnionSelf => b.union(input, input),
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-100i64..100).prop_map(Step::MapAddConst),
        (1i64..9).prop_map(Step::FilterMod),
        Just(Step::SortAsc),
        Just(Step::GroupCount),
        Just(Step::ReduceSum),
        (1usize..50).prop_map(Step::LimitTo),
        Just(Step::UnionSelf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// Arbitrary pipelines of supported operators agree across every
    /// platform (bag semantics).
    #[test]
    fn prop_random_pipelines_are_platform_independent(
        seed in 0u64..1000,
        len in 0usize..120,
        steps in proptest::collection::vec(step_strategy(), 0..5),
    ) {
        let data: Vec<Record> = (0..len as i64)
            .map(|i| rec![(i.wrapping_mul(seed as i64 + 3)).rem_euclid(97), 1i64])
            .collect();
        let mut b = PlanBuilder::new();
        let mut node = b.collection("fuzz", data);
        for step in &steps {
            node = apply_step(&mut b, node, step);
        }
        b.collect(node);
        let plan = b.build().unwrap();
        assert_platform_independent(&plan);
    }
}

// ---------------------------------------------------------------------------
// The engine-equivalence table: every operator, in its transparent and its
// opaque form, on every engine, over clean, dirty, ragged and empty inputs
// ---------------------------------------------------------------------------

use std::collections::HashMap;

use rheem_core::udf::{AggFunc, Aggregate, GroupOutput};
use rheem_core::{
    BinOp, CustomPhysicalOp, ExecutionContext, Expr, KernelParallelism, MemoryStorageService,
    PhysicalOp, StorageService, TaskAtom,
};

const VARIANTS: usize = 21;

/// One position per variant, without a wildcard: a new variant does not
/// compile until it is given a position here, and
/// `every_operator_answers_the_same_on_every_engine` then fails until the
/// table holds a form of it.
fn position(op: &PhysicalOp) -> usize {
    match op {
        PhysicalOp::CollectionSource { .. } => 0,
        PhysicalOp::StorageSource { .. } => 1,
        PhysicalOp::LoopInput => 2,
        PhysicalOp::Map(_) => 3,
        PhysicalOp::FlatMap(_) => 4,
        PhysicalOp::Filter(_) => 5,
        PhysicalOp::Project { .. } => 6,
        PhysicalOp::SortGroupBy { .. } => 7,
        PhysicalOp::HashGroupBy { .. } => 8,
        PhysicalOp::ReduceByKey { .. } => 9,
        PhysicalOp::GlobalReduce { .. } => 10,
        PhysicalOp::Sort { .. } => 11,
        PhysicalOp::Limit { .. } => 12,
        PhysicalOp::ChunkPipeline { .. } => 13,
        PhysicalOp::HashJoin { .. } => 14,
        PhysicalOp::NestedLoopJoin { .. } => 15,
        PhysicalOp::CrossProduct => 16,
        PhysicalOp::Union => 17,
        PhysicalOp::Loop { .. } => 18,
        PhysicalOp::Custom(_) => 19,
        PhysicalOp::CollectSink => 20,
    }
}

/// What must hold about a form's answer beyond the bag of its rows.
#[derive(Clone, Copy, PartialEq)]
enum Order {
    /// The operator defines no order: equal bags.
    Bag,
    /// The operator defines the order (a sort, a prefix): equal sequences.
    Sequence,
}

/// One way of writing an operator: a chain whose first operator reads the
/// table's inputs (none, the left one, or both, by its arity) and whose
/// other operators each read their predecessor.
struct Form {
    label: &'static str,
    chain: Vec<PhysicalOp>,
    order: Order,
}

fn form(label: &'static str, op: PhysicalOp, order: Order) -> Form {
    Form {
        label,
        chain: vec![op],
        order,
    }
}

/// Rows are `[key, int, float, tag]`.
const KEY: usize = 0;
const INT: usize = 1;
const FLOAT: usize = 2;
const TAG: usize = 3;

fn field(r: &Record, i: usize) -> Value {
    r.fields().get(i).cloned().unwrap_or(Value::Null)
}

fn clean_rows(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| rec![i % 12, i, (i % 17) as f64 * 0.5, format!("t{}", i % 5)])
        .collect()
}

/// NULL keys and payloads, two NaN payloads, both zeros, empty strings, and
/// a key that holds two thirds of the rows.
fn dirty_rows(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let key = match i % 9 {
                0 => Value::Null,
                1 | 2 => Value::Int(i % 7),
                _ => Value::Int(3),
            };
            let int = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i * 37 % 101 - 50)
            };
            let float = match i % 8 {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(f64::from_bits(0x7ff8_0000_0000_beef)),
                2 => Value::Float(0.0),
                3 => Value::Float(-0.0),
                4 => Value::Null,
                _ => Value::Float(i as f64 * 0.25 - 20.0),
            };
            let tag = if i % 6 == 0 {
                Value::str("")
            } else {
                Value::str(format!("d{}", i % 4))
            };
            Record::new(vec![key, int, float, tag])
        })
        .collect()
}

/// Clean rows, every seventh a field longer: no columnar layout.
fn ragged_rows(n: i64) -> Vec<Record> {
    let mut rows = clean_rows(n);
    for r in rows.iter_mut().step_by(7) {
        let mut fields = r.fields().to_vec();
        fields.push(Value::Bool(true));
        *r = Record::new(fields);
    }
    rows
}

/// The right-hand table of the binary operators: `[key, label]`.
fn right_rows() -> Vec<Record> {
    let mut rows: Vec<Record> = (0..9i64).map(|k| rec![k, format!("r{k}")]).collect();
    rows.push(Record::new(vec![Value::Null, Value::str("null-key")]));
    rows.push(rec![3i64, "r3-again"]);
    rows
}

/// A partitionable custom operator (each row twice) and two that are not
/// (the input's cardinality; both inputs' cardinalities).
struct Twice;
struct Cardinality(usize);

impl CustomPhysicalOp for Twice {
    fn name(&self) -> &str {
        "Twice"
    }
    fn arity(&self) -> usize {
        1
    }
    fn partitionable(&self) -> bool {
        true
    }
    fn execute(&self, inputs: &[Dataset]) -> rheem_core::Result<Dataset> {
        Ok(inputs[0]
            .iter()
            .flat_map(|r| [r.clone(), r.clone()])
            .collect())
    }
}

impl CustomPhysicalOp for Cardinality {
    fn name(&self) -> &str {
        "Cardinality"
    }
    fn arity(&self) -> usize {
        self.0
    }
    fn execute(&self, inputs: &[Dataset]) -> rheem_core::Result<Dataset> {
        let counts = inputs.iter().map(|d| Value::Int(d.len() as i64)).collect();
        Ok(Dataset::new(vec![Record::new(counts)]))
    }
}

fn agg(func: AggFunc, arg: Option<usize>) -> GroupOutput {
    GroupOutput::Agg(Aggregate {
        func,
        arg: arg.map(Expr::field),
    })
}

/// Both group-by operators in each form, built by `make(key, group)`.
fn group_by_forms(
    names: [&'static str; 4],
    make: impl Fn(KeyUdf, GroupMapUdf) -> PhysicalOp,
) -> Vec<Form> {
    let aggregates = || {
        GroupMapUdf::from_aggs(
            "aggs",
            vec![
                GroupOutput::First(KEY),
                agg(AggFunc::Count, None),
                agg(AggFunc::Sum, Some(INT)),
                agg(AggFunc::Sum, Some(FLOAT)),
                agg(AggFunc::Min, Some(FLOAT)),
                agg(AggFunc::Max, Some(TAG)),
                agg(AggFunc::Avg, Some(INT)),
            ],
        )
    };
    let count_members = || {
        GroupMapUdf::new("count", |k, members| {
            vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
        })
    };
    let [transparent, opaque, opaque_group, global] = names;
    vec![
        form(
            transparent,
            make(KeyUdf::field(KEY), aggregates()),
            Order::Bag,
        ),
        form(
            opaque,
            make(KeyUdf::new("key", |r| field(r, KEY)), count_members()),
            Order::Bag,
        ),
        form(
            opaque_group,
            make(KeyUdf::fields(vec![KEY, TAG]), count_members()),
            Order::Bag,
        ),
        // A key over no fields is one global group: one row, also over no
        // input.
        form(
            global,
            make(
                KeyUdf::fields(vec![]),
                GroupMapUdf::from_aggs(
                    "global",
                    vec![agg(AggFunc::Count, None), agg(AggFunc::Sum, Some(INT))],
                ),
            ),
            Order::Bag,
        ),
    ]
}

fn stages_of(ops: &[PhysicalOp]) -> PhysicalOp {
    PhysicalOp::ChunkPipeline {
        stages: ops
            .iter()
            .flat_map(|op| op.pipeline_stages().expect("a transparent operator"))
            .collect(),
    }
}

/// Every operator in every form it can be written in, over `left`.
fn forms(left: &[Record]) -> Vec<Form> {
    use Order::{Bag, Sequence};
    let int_is_small = || Expr::field(INT).bin(BinOp::SqlLt, Expr::lit(40i64));
    let filter = || PhysicalOp::Filter(FilterUdf::from_expr("small", int_is_small()));
    let map = || {
        PhysicalOp::Map(MapUdf::from_exprs(
            "shift",
            vec![
                Expr::field(KEY),
                Expr::field(INT).add(Expr::lit(1i64)),
                Expr::field(FLOAT).bin(BinOp::Mul, Expr::lit(2.0)),
                Expr::field(TAG),
            ],
        ))
    };
    let increment = || {
        MapUdf::new("inc", |r| {
            let mut fields = r.fields().to_vec();
            if let Some(Value::Int(i)) = fields.get(INT) {
                fields[INT] = Value::Int(i + 1);
            }
            Record::new(fields)
        })
    };
    let sum_min_max = |r: Record, x: &Record| {
        let int = match (field(&r, INT), field(x, INT)) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(b)),
            _ => Value::Null,
        };
        Record::new(vec![
            field(&r, KEY),
            int,
            field(&r, FLOAT).min(field(x, FLOAT)),
            field(&r, TAG).max(field(x, TAG)),
        ])
    };
    let loop_over = |body_map: PhysicalOp| {
        let mut body = PlanBuilder::new();
        let state = body.loop_input();
        body.add(body_map, vec![state]);
        PhysicalOp::Loop {
            body: Arc::new(body.build_fragment().expect("a loop body")),
            condition: LoopCondUdf::fixed_iterations(3),
            max_iterations: 3,
            expected_iterations: 3.0,
        }
    };
    let sort = |key: KeyUdf, descending| PhysicalOp::Sort { key, descending };

    let mut table = vec![
        // Sources (`LoopInput` is in the loops below).
        form(
            "collection source",
            PhysicalOp::CollectionSource {
                data: Dataset::new(left.to_vec()),
                name: "left".into(),
            },
            Sequence,
        ),
        form(
            "storage source",
            PhysicalOp::StorageSource {
                dataset_id: "stored".into(),
            },
            Sequence,
        ),
        // Narrow.
        form("map, expressions", map(), Bag),
        form("map, closure", PhysicalOp::Map(increment()), Bag),
        form(
            "flat map",
            PhysicalOp::FlatMap(FlatMapUdf::new("by-parity", |r| match field(r, INT) {
                Value::Int(i) if i % 2 == 0 => vec![r.clone(), r.clone()],
                Value::Int(_) => vec![],
                _ => vec![r.clone()],
            })),
            Bag,
        ),
        form("filter, expression", filter(), Bag),
        form(
            "filter, closure",
            PhysicalOp::Filter(FilterUdf::new("small", |r| field(r, INT) < Value::Int(40))),
            Bag,
        ),
        form(
            "project",
            PhysicalOp::Project {
                indices: vec![TAG, KEY],
            },
            Bag,
        ),
        form(
            "chunk pipeline",
            stages_of(&[
                filter(),
                map(),
                PhysicalOp::Project {
                    indices: vec![INT, KEY],
                },
            ]),
            Bag,
        ),
        // Positional: a prefix is defined by the input's order, which every
        // engine keeps.
        form("limit", PhysicalOp::Limit { n: 17 }, Sequence),
        form("limit 0", PhysicalOp::Limit { n: 0 }, Sequence),
        // Keyed and global reductions (associative combiners: partitioned
        // engines combine per partition first).
        form(
            "reduce by key, field key",
            PhysicalOp::ReduceByKey {
                key: KeyUdf::field(KEY),
                reduce: ReduceUdf::new("sum-min-max", sum_min_max),
            },
            Bag,
        ),
        form(
            "reduce by key, closures",
            PhysicalOp::ReduceByKey {
                key: KeyUdf::new("key", |r| field(r, KEY)),
                reduce: ReduceUdf::new("sum-min-max", sum_min_max),
            },
            Bag,
        ),
        form(
            "global reduce",
            PhysicalOp::GlobalReduce {
                reduce: ReduceUdf::new("sum-min-max", sum_min_max),
            },
            Bag,
        ),
        // Order-defining.
        form(
            "sort, field key",
            sort(KeyUdf::field(FLOAT), false),
            Sequence,
        ),
        form(
            "sort, field key, descending",
            sort(KeyUdf::field(KEY), true),
            Sequence,
        ),
        form(
            "sort, closure key",
            sort(
                KeyUdf::new("tag-then-int", |r| {
                    Value::str(format!("{}|{}", field(r, TAG), field(r, INT)))
                }),
                false,
            ),
            Sequence,
        ),
        Form {
            label: "limit after sort",
            chain: vec![sort(KeyUdf::field(INT), true), PhysicalOp::Limit { n: 9 }],
            order: Sequence,
        },
        // Binary.
        form(
            "hash join, field keys",
            PhysicalOp::HashJoin {
                left_key: KeyUdf::field(KEY),
                right_key: KeyUdf::field(0),
            },
            Bag,
        ),
        form(
            "hash join, closure keys",
            PhysicalOp::HashJoin {
                left_key: KeyUdf::new("key", |r| field(r, KEY)),
                right_key: KeyUdf::new("key", |r| field(r, KEY)),
            },
            Bag,
        ),
        form(
            "theta join",
            PhysicalOp::NestedLoopJoin {
                predicate: Arc::new(|l: &Record, r: &Record| field(l, KEY) < field(r, 0)),
                name: "key-below".into(),
                selectivity: 0.5,
            },
            Bag,
        ),
        form("cross product", PhysicalOp::CrossProduct, Bag),
        form("union", PhysicalOp::Union, Bag),
        // Control.
        form("loop, expressions in the body", loop_over(map()), Bag),
        form(
            "loop, closure in the body",
            loop_over(PhysicalOp::Map(increment())),
            Bag,
        ),
        form(
            "custom, per partition",
            PhysicalOp::Custom(Arc::new(Twice)),
            Bag,
        ),
        form(
            "custom, gathered",
            PhysicalOp::Custom(Arc::new(Cardinality(1))),
            Bag,
        ),
        form(
            "custom, two gathered inputs",
            PhysicalOp::Custom(Arc::new(Cardinality(2))),
            Bag,
        ),
        // Sinks.
        form("collect sink", PhysicalOp::CollectSink, Sequence),
    ];
    table.extend(group_by_forms(
        [
            "hash group by, field key and aggregates",
            "hash group by, closures",
            "hash group by, field keys and a closure",
            "hash group by, global aggregate",
        ],
        |key, group| PhysicalOp::HashGroupBy { key, group },
    ));
    table.extend(group_by_forms(
        [
            "sort group by, field key and aggregates",
            "sort group by, closures",
            "sort group by, field keys and a closure",
            "sort group by, global aggregate",
        ],
        |key, group| PhysicalOp::SortGroupBy { key, group },
    ));
    table
}

/// The plan of one form over the table's inputs, its last operator
/// collected unless it is a sink itself.
fn plan_of(form: &Form, left: &[Record], right: &[Record]) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut last = None;
    for op in &form.chain {
        let inputs = match (op.arity(), last) {
            (0, _) => vec![],
            (1, Some(previous)) => vec![previous],
            (1, None) => vec![b.collection("left", left.to_vec())],
            _ => vec![
                b.collection("left", left.to_vec()),
                b.collection("right", right.to_vec()),
            ],
        };
        last = Some(b.add(op.clone(), inputs));
    }
    let last = last.expect("a form has an operator");
    if !form.chain.last().is_some_and(PhysicalOp::is_sink) {
        b.collect(last);
    }
    b.build().expect("the form is a valid plan")
}

/// A context whose storage holds `stored` and whose morsel layer, at a
/// budget of `threads`, engages on the table's small inputs.
fn table_context(stored: &[Record], threads: usize) -> ExecutionContext {
    let storage = Arc::new(MemoryStorageService::new());
    storage
        .write("stored", &Dataset::new(stored.to_vec()))
        .expect("stores");
    ExecutionContext::new()
        .with_storage(storage)
        .with_kernel_parallelism(
            KernelParallelism::sequential()
                .with_threads(threads)
                .with_morsel_size(16)
                .with_min_rows(1),
        )
}

fn mark_positions(plan: &PhysicalPlan, seen: &mut [bool; VARIANTS]) {
    for node in plan.nodes() {
        seen[position(&node.op)] = true;
        if let PhysicalOp::Loop { body, .. } = &node.op {
            mark_positions(body, seen);
        }
    }
}

#[test]
fn every_operator_answers_the_same_on_every_engine() {
    let spill_dir = std::env::temp_dir().join(format!("rheem_table_{}", std::process::id()));
    let engines: Vec<(&str, Arc<dyn Platform>)> = vec![
        ("java", Arc::new(JavaPlatform::new())),
        (
            "sparklike, 1 worker",
            Arc::new(SparkLikePlatform::new(1).with_overheads(OverheadConfig::none())),
        ),
        (
            "sparklike, 3 workers",
            Arc::new(SparkLikePlatform::new(3).with_overheads(OverheadConfig::none())),
        ),
        (
            "sparklike, 4 workers",
            Arc::new(SparkLikePlatform::new(4).with_overheads(OverheadConfig::none())),
        ),
        (
            "mapreduce",
            Arc::new(
                MapReduceLikePlatform::new(4)
                    .with_overheads(OverheadConfig::none())
                    .with_spill_dir(&spill_dir),
            ),
        ),
        (
            "relational",
            Arc::new(RelationalPlatform::new().with_overheads(OverheadConfig::none())),
        ),
    ];
    let inputs = [
        ("clean", clean_rows(230)),
        ("dirty", dirty_rows(230)),
        ("ragged", ragged_rows(230)),
        ("empty", Vec::new()),
    ];
    let right = right_rows();
    let mut seen = [false; VARIANTS];
    for (kind, left) in &inputs {
        for form in forms(left) {
            let plan = plan_of(&form, left, &right);
            mark_positions(&plan, &mut seen);
            let context = format!("`{}` over {kind} input", form.label);
            let reference_ctx = table_context(left, 1);
            let reference = run_plan(&plan, &reference_ctx)
                .unwrap_or_else(|e| panic!("{context}: the reference fails: {e}"));
            if form.label.ends_with("global aggregate") {
                let answer: Vec<usize> = reference.values().map(Dataset::len).collect();
                assert_eq!(answer, [1], "{context}: a global aggregate is one row");
            }
            let atom = TaskAtom {
                id: 0,
                platform: String::new(),
                nodes: plan.nodes().iter().map(|n| n.id).collect(),
                inputs: Vec::new(),
                outputs: plan.sinks(),
            };
            for (engine, platform) in &engines {
                if !plan.nodes().iter().all(|n| platform.supports(&n.op)) {
                    continue;
                }
                for threads in [1, 4] {
                    let context = format!("{context} on {engine}, {threads} threads");
                    let ctx = table_context(left, threads);
                    let result = platform
                        .execute_atom(&plan, &atom, &HashMap::new(), &ctx)
                        .unwrap_or_else(|e| panic!("{context}: {e}"));
                    assert_eq!(result.outputs.len(), reference.len(), "{context}");
                    for (sink, expected) in &reference {
                        let answered = result.outputs[sink].records().to_vec();
                        let expected = expected.records().to_vec();
                        if form.order == Order::Sequence {
                            assert_eq!(answered, expected, "{context}: sequence");
                        } else {
                            assert_eq!(sorted(answered), sorted(expected), "{context}: bag");
                        }
                    }
                }
            }
        }
    }
    let missing: Vec<usize> = (0..VARIANTS).filter(|&p| !seen[p]).collect();
    assert!(
        missing.is_empty(),
        "no form covers the variants at {missing:?}"
    );
    let leaked: Vec<_> = std::fs::read_dir(&spill_dir)
        .map(|dir| dir.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(leaked.is_empty(), "spill files left behind: {leaked:?}");
}
