//! Byte-identity of the columnar chunk kernels against their row-based
//! twins.
//!
//! The columnar execution path (`rheem_core::kernels::chunked` and the
//! morsel-parallel `parallel::run_pipeline_chunk`) claims *exact* equivalence
//! with the record-at-a-time kernels — not just bag equality: the same
//! records, in the same order, with the same float bit patterns. This
//! suite fuzzes that contract over dirty data (`Null`, `NaN`, `-0.0`,
//! mixed-type columns, skewed keys) at several [`KernelParallelism`]
//! settings, and drives a fused-pipeline plan through the executor at each
//! of them.

use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem_core::data::{Chunk, Value};
use rheem_core::expr::Expr;
use rheem_core::kernels::parallel::KernelParallelism;
use rheem_core::kernels::{self, chunked, parallel};
use rheem_core::optimizer::rewrites::apply_rewrites;
use rheem_core::physical::{PhysicalOp, PipelineStage, StageKind};
use rheem_core::{interpreter, ExecutionContext};

/// One dirty value: every `Value` variant, with the float edge cases
/// (`NaN`, `-0.0`, infinities) and a deliberately narrow Int range so keys
/// skew (many duplicates per batch).
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Bool(true)),
        Just(Value::Bool(false)),
        (-4i64..4).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        (-100i64..100).prop_map(|i| Value::Float(i as f64 * 0.25)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        (0i64..3).prop_map(|i| Value::from(format!("s{i}"))),
    ]
}

/// A rectangular batch of `rows` records, `width` fields each.
fn batch_strategy() -> impl Strategy<Value = Vec<Record>> {
    (
        1usize..4,
        0usize..120,
        proptest::collection::vec(value_strategy(), 0..360),
    )
        .prop_map(|(width, rows, pool)| {
            (0..rows)
                .map(|r| {
                    Record::new(
                        (0..width)
                            .map(|c| pool.get((r * width + c) % pool.len().max(1)).cloned())
                            .map(|v| v.unwrap_or(Value::Null))
                            .collect(),
                    )
                })
                .collect()
        })
}

/// An all-Int key column batch with skewed keys plus a payload field —
/// exercises the typed Int fast paths in grouping/joins/sort.
fn int_keyed_batch_strategy() -> impl Strategy<Value = Vec<Record>> {
    (0usize..150, any::<u64>()).prop_map(|(rows, seed)| {
        (0..rows)
            .map(|i| {
                let k = ((seed >> (i % 13)) as i64).rem_euclid(5);
                Record::new(vec![Value::Int(k), Value::Int(i as i64)])
            })
            .collect()
    })
}

fn chunk_of(records: &[Record]) -> Chunk {
    Chunk::from_records(records).expect("rectangular batch")
}

/// The parallelism settings every comparison runs at: sequential, tiny
/// morsels, and an oversubscribed thread count.
fn parallelism_settings() -> Vec<KernelParallelism> {
    vec![
        KernelParallelism::sequential(),
        KernelParallelism::sequential()
            .with_threads(3)
            .with_morsel_size(7)
            .with_min_rows(0),
        KernelParallelism::sequential()
            .with_threads(16)
            .with_morsel_size(1)
            .with_min_rows(0),
    ]
}

/// A pipeline touching every stage kind: filter on field 0, a map that
/// mixes arithmetic and comparison, then a projection.
fn test_stages() -> Vec<PipelineStage> {
    vec![
        PipelineStage {
            name: "keep".into(),
            kind: StageKind::Filter {
                expr: Arc::new(Expr::field(0).is_null().not()),
                selectivity: 0.9,
            },
        },
        PipelineStage {
            name: "calc".into(),
            kind: StageKind::Map {
                exprs: vec![
                    Expr::field(0).add(Expr::field(1)),
                    Expr::field(0).lt(Expr::field(1)),
                    Expr::field(0),
                ]
                .into(),
            },
        },
        PipelineStage {
            name: "π".into(),
            kind: StageKind::Project {
                indices: vec![0, 2].into(),
            },
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// filter / map / project chunk kernels are byte-identical to the row
    /// kernels on dirty mixed-type batches.
    #[test]
    fn prop_unary_chunk_kernels_match_row_kernels(records in batch_strategy()) {
        let chunk = chunk_of(&records);
        let width = records.first().map(|r| r.width()).unwrap_or(1);

        // Filter: expression predicate vs the derived row closure.
        let pred = Expr::field(0).lt(Expr::lit(1i64));
        let row_filter = FilterUdf::from_expr("p", pred.clone());
        prop_assert_eq!(
            chunked::filter(&chunk, &pred).to_records(),
            kernels::filter(&records, &row_filter)
        );

        // Map: arithmetic + comparison + null probe, row vs vectorized.
        let exprs = vec![
            Expr::field(0).add(Expr::field(width - 1)),
            Expr::field(0).le(Expr::field(width - 1)),
            Expr::field(0).is_null(),
        ];
        let row_map = MapUdf::from_exprs("m", exprs.clone());
        prop_assert_eq!(
            chunked::map(&chunk, &exprs).to_records(),
            kernels::map(&records, &row_map)
        );

        // Project: in-bounds result and out-of-bounds error agree.
        let keep = [width - 1, 0];
        prop_assert_eq!(
            chunked::project(&chunk, &keep).unwrap().to_records(),
            kernels::project(&records, &keep).unwrap()
        );
        if !records.is_empty() {
            prop_assert!(chunked::project(&chunk, &[width]).is_err());
            prop_assert!(kernels::project(&records, &[width]).is_err());
        }
    }

    /// Grouping and sort agree with the row kernels — group order, member
    /// order, and float payload bits.
    #[test]
    fn prop_grouping_chunk_kernels_match_row_kernels(
        mixed in batch_strategy(),
        keyed in int_keyed_batch_strategy(),
    ) {
        for records in [&mixed, &keyed] {
            let chunk = chunk_of(records);
            let key = KeyUdf::field(0);
            prop_assert_eq!(
                chunked::hash_group(&chunk, &key),
                kernels::hash_group(records, &key)
            );
            for descending in [false, true] {
                prop_assert_eq!(
                    chunked::sort(&chunk, &key, descending).to_records(),
                    kernels::sort(records, &key, descending)
                );
            }
        }
    }

    /// Joins agree with the row kernels: match order is left-major with
    /// right matches in input order, and keys compare with `Value` equality
    /// (Int(1) never matches Float(1.0)).
    #[test]
    fn prop_join_chunk_kernels_match_row_kernels(
        left in int_keyed_batch_strategy(),
        right in batch_strategy(),
    ) {
        let (lc, rc) = (chunk_of(&left), chunk_of(&right));
        let key = KeyUdf::field(0);
        prop_assert_eq!(
            chunked::hash_join(&lc, &rc, &key, &key).to_records(),
            kernels::hash_join(&left, &right, &key, &key)
        );
        prop_assert_eq!(
            chunked::sort_merge_join(&lc, &rc, &key, &key).to_records(),
            kernels::sort_merge_join(&left, &right, &key, &key)
        );
    }

    /// The morsel-parallel fused-pipeline runner equals the row-at-a-time
    /// reference at every parallelism setting (zero-copy slices included).
    #[test]
    fn prop_run_pipeline_matches_row_reference(records in batch_strategy()) {
        let stages = test_stages();
        let reference = chunked::run_stages_rows(&records, &stages).unwrap();
        let chunk = chunk_of(&records);
        for p in parallelism_settings() {
            prop_assert_eq!(
                parallel::run_pipeline_chunk(&chunk, &stages, &p).unwrap().to_records(),
                reference.clone()
            );
        }
    }
}

/// End to end: a plan whose filter→map→project chain fuses into a
/// `ChunkPipeline` produces the same records as the unfused reference
/// interpreter run at several thread budgets.
#[test]
fn fused_plan_matches_reference_at_every_budget() {
    let data: Vec<Record> = (0..5000i64)
        .map(|i| {
            if i % 97 == 0 {
                Record::new(vec![Value::Null, Value::Float(f64::NAN)])
            } else if i % 31 == 0 {
                Record::new(vec![Value::Float(-0.0), Value::Int(i)])
            } else {
                Record::new(vec![Value::Int(i % 11), Value::Int(i)])
            }
        })
        .collect();

    let build = || {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", data.clone());
        let f = b.filter(
            src,
            FilterUdf::from_expr("keep", Expr::field(0).is_null().not()).with_selectivity(0.9),
        );
        let m = b.map(
            f,
            MapUdf::from_exprs(
                "calc",
                vec![
                    Expr::field(0).add(Expr::field(1)),
                    Expr::field(1),
                    Expr::field(0),
                ],
            ),
        );
        let p = b.project(m, vec![0, 1]);
        b.collect(p);
        b.build().unwrap()
    };

    // Reference: the unfused plan on the sequential interpreter.
    let reference: Vec<Vec<Record>> = interpreter::run_plan(&build(), &ExecutionContext::new())
        .unwrap()
        .into_values()
        .map(|d| d.records().to_vec())
        .collect();
    assert_eq!(reference.len(), 1);

    // The rewrite pass must actually fuse the chain into one pipeline.
    let fused = apply_rewrites(build()).unwrap();
    assert!(
        fused
            .nodes()
            .iter()
            .any(|n| matches!(n.op, PhysicalOp::ChunkPipeline { .. })),
        "expected a fused pipeline:\n{}",
        fused.explain()
    );

    for p in parallelism_settings() {
        let ctx = RheemContext::new()
            .with_platform(Arc::new(JavaPlatform::new()))
            .with_kernel_parallelism(p);
        let result = ctx.execute(fused.clone()).unwrap();
        let outputs: Vec<Vec<Record>> = result
            .outputs
            .into_values()
            .map(|d| d.records().to_vec())
            .collect();
        assert_eq!(outputs, reference, "{p:?} diverged");
    }
}

/// Every operator reports the path it took, and the hub counts them: a
/// plan mixing declarative operators with one opaque closure runs
/// columnar up to the closure and row-at-a-time only there.
#[test]
fn operators_report_the_path_they_took() {
    use rheem_core::udf::{AggFunc, Aggregate, GroupOutput};
    use rheem_core::Observability;

    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..200i64).map(|i| rheem::rec![i % 7, i]).collect());
    let kept = b.filter(
        src,
        FilterUdf::from_expr("small", Expr::field(1).lt(Expr::lit(150i64))),
    );
    let grouped = b.group_by(
        kept,
        KeyUdf::field(0),
        GroupMapUdf::from_aggs(
            "sum",
            vec![
                GroupOutput::First(0),
                GroupOutput::Agg(Aggregate {
                    func: AggFunc::Sum,
                    arg: Some(Expr::field(1)),
                }),
            ],
        ),
    );
    let opaque = b.map(grouped, MapUdf::new("closure", |r| r.clone()));
    let sorted = b.sort(opaque, KeyUdf::field(1), true);
    let sink = b.collect(sorted);
    let plan = b.build().unwrap();

    let observe = Arc::new(Observability::new());
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_observability(observe.clone());
    let result = ctx.execute(plan).unwrap();
    assert_eq!(result.outputs[&sink].len(), 7);

    let paths: Vec<(String, bool)> = result
        .stats
        .atoms
        .iter()
        .flat_map(|a| &a.node_observations)
        .map(|o| (o.op.split('(').next().unwrap().to_string(), o.columnar))
        .collect();
    assert_eq!(
        paths,
        [
            ("CollectionSource", true),
            ("Filter", true),
            ("HashGroupBy", true),
            // The closure needs rows...
            ("Map", false),
            // ... and the sort after it converts them back once.
            ("Sort", true),
            ("CollectSink", true),
        ]
        .map(|(op, columnar)| (op.to_string(), columnar))
    );
    let counters = observe.metrics().snapshot().counters;
    let count = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(count("kernel.path.columnar"), Some(5));
    assert_eq!(count("kernel.path.row"), Some(1));
}
