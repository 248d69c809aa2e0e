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
//! of them. It also holds the join's direct-address probe to the row kernel
//! across the 65 536-key range boundary, the join's shared and gathered
//! lanes to it over generated probe and build windows, filters to it at every
//! selectivity, and each typed expression loop to the row map kernel,
//! operator by operator.

use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem_core::kernels::{self, chunked, parallel};
use rheem_core::{
    apply_rewrites, run_plan, BinOp, Chunk, ExecutionContext, Expr, KernelParallelism, PhysicalOp,
    PipelineStage, StageKind, Value,
};

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

/// `NOT (e IS NULL)`.
fn not_null(e: Expr) -> Expr {
    Expr::Not(Arc::new(Expr::IsNull(Arc::new(e))))
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
                expr: Arc::new(not_null(Expr::field(0))),
                selectivity: 0.9,
            },
        },
        PipelineStage {
            name: "calc".into(),
            kind: StageKind::Map {
                exprs: vec![
                    Expr::field(0).add(Expr::field(1)),
                    Expr::field(0).bin(BinOp::SqlLt, Expr::field(1)),
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
        let pred = Expr::field(0).bin(BinOp::SqlLt, Expr::lit(1i64));
        let row_filter = FilterUdf::from_expr("p", pred.clone());
        prop_assert_eq!(
            chunked::filter(&chunk, &pred).to_records(),
            kernels::filter(&records, &row_filter)
        );

        // Map: arithmetic + comparison + null probe, row vs vectorized.
        let exprs = vec![
            Expr::field(0).add(Expr::field(width - 1)),
            Expr::field(0).bin(BinOp::SqlLe, Expr::field(width - 1)),
            Expr::IsNull(Arc::new(Expr::field(0))),
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

    /// The join agrees with the row kernel: match order is left-major with
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
            FilterUdf::from_expr("keep", not_null(Expr::field(0))).with_selectivity(0.9),
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
    let reference: Vec<Vec<Record>> = run_plan(&build(), &ExecutionContext::new())
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
        "expected a fused pipeline: {:?}",
        fused.nodes()
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
        FilterUdf::from_expr("small", Expr::field(1).bin(BinOp::SqlLt, Expr::lit(150i64))),
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

// ---------------------------------------------------------------------------
// Direct-address join probe
// ---------------------------------------------------------------------------

/// splitmix64 step: the generated sides below draw keys from one seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `(left, right)` `[key, payload]` sides of an equi-join on field 0 whose
/// build (right) keys span exactly `range` values from `lo`, which may be
/// negative: both ends are present once the side has two rows, every third
/// row repeats an earlier key, and either side may be empty. Probe keys
/// hit build keys, miss inside the range, and fall just outside it and at
/// the `i64` extremes. A range of 65 536 takes the direct-address table and
/// one of 65 537 the hash fallback, so the two sides of that boundary must
/// agree with the row kernel alike.
fn dense_join_strategy() -> impl Strategy<Value = (Vec<Record>, Vec<Record>)> {
    (
        prop_oneof![Just(1i64), 2i64..64, Just(65_536i64), Just(65_537i64)],
        -70_000i64..100,
        prop_oneof![Just(0usize), 1usize..80],
        prop_oneof![Just(0usize), 1usize..160],
        any::<u64>(),
    )
        .prop_map(|(range, lo, right_rows, left_rows, seed)| {
            let hi = lo + range - 1;
            let mut rng = seed;
            let mut keys: Vec<i64> = Vec::new();
            for i in 0..right_rows {
                let k = match i {
                    0 => lo,
                    1 => hi,
                    _ if i % 3 == 2 => keys[next(&mut rng) as usize % keys.len()],
                    _ => lo + (next(&mut rng) % range as u64) as i64,
                };
                keys.push(k);
            }
            let right = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| rheem::rec![k, i as i64])
                .collect();
            let left = (0..left_rows)
                .map(|i| {
                    let k = match next(&mut rng) % 8 {
                        0 if !keys.is_empty() => keys[next(&mut rng) as usize % keys.len()],
                        1 => lo - 1 - (next(&mut rng) % 3) as i64,
                        2 => hi + 1 + (next(&mut rng) % 3) as i64,
                        3 => [i64::MIN, i64::MAX][(next(&mut rng) % 2) as usize],
                        _ => lo + (next(&mut rng) % range as u64) as i64,
                    };
                    rheem::rec![k, -(i as i64)]
                })
                .collect();
            (left, right)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The direct-address probe (and its hash fallback past 65 536 keys of
    /// range) joins exactly as the row kernel does: the same pairs, left-
    /// major, duplicate build keys matched in right input order.
    #[test]
    fn prop_direct_address_join_matches_row_kernel(sides in dense_join_strategy()) {
        let (left, right) = sides;
        let key = KeyUdf::field(0);
        prop_assert_eq!(
            chunked::hash_join(&chunk_of(&left), &chunk_of(&right), &key, &key).to_records(),
            kernels::hash_join(&left, &right, &key, &key)
        );
    }
}

// ---------------------------------------------------------------------------
// Join twin: what the chunk join shares and what it gathers
// ---------------------------------------------------------------------------

/// The key lanes a generated join runs on.
#[derive(Clone, Copy, Debug)]
enum JoinKeys {
    /// `Int` on both sides (the typed lanes).
    Int,
    /// Dictionary strings on both sides (the typed lanes).
    Dict,
    /// `Int` with NULLs and `Float`s among them (the generic `Value` lanes).
    Dirty,
    /// `Int` probe keys against `Float` build keys: nothing matches.
    IntVsFloat,
}

impl JoinKeys {
    fn probe(self, n: i64) -> Value {
        match self {
            JoinKeys::Int | JoinKeys::IntVsFloat => Value::Int(n),
            JoinKeys::Dict => Value::from(format!("k{n}")),
            JoinKeys::Dirty => match n.rem_euclid(5) {
                0 => Value::Null,
                1 => Value::Float(n as f64),
                _ => Value::Int(n),
            },
        }
    }

    fn build(self, n: i64) -> Value {
        match self {
            JoinKeys::IntVsFloat => Value::Float(n as f64),
            keys => keys.probe(n),
        }
    }
}

/// One generated join: `[payload, key, tag]` probe rows and `[key, payload]`
/// build rows, each with the rows before and after its window (`(rows,
/// offset, len)`).
#[derive(Debug)]
struct JoinCase {
    probe: (Vec<Record>, usize, usize),
    build: (Vec<Record>, usize, usize),
}

impl JoinCase {
    /// The rows a side's window holds, and the window itself.
    fn side(rows: &(Vec<Record>, usize, usize)) -> (Vec<Record>, Chunk) {
        let (all, offset, len) = rows;
        let window = all[*offset..offset + len].to_vec();
        (window, chunk_of(all).slice(*offset, *len))
    }
}

/// Build keys unique or repeated, a probe side that matches every row or
/// first misses at row 0, in the middle or at the last row (or misses at
/// random), either side possibly empty, and each side an offset window of
/// a larger chunk.
fn join_case_strategy() -> impl Strategy<Value = JoinCase> {
    (
        0usize..4,
        prop_oneof![Just(0usize), 1usize..40],
        prop_oneof![Just(0usize), 1usize..60],
        0usize..5,
        any::<u64>(),
    )
        .prop_map(|(kind, build_rows, probe_rows, miss, seed)| {
            let keys = [
                JoinKeys::Int,
                JoinKeys::Dict,
                JoinKeys::Dirty,
                JoinKeys::IntVsFloat,
            ][kind];
            let mut rng = seed;
            let unique = next(&mut rng).is_multiple_of(2);
            let build_keys: Vec<i64> = (0..build_rows as i64)
                .map(|i| {
                    if unique {
                        i * 3
                    } else {
                        (next(&mut rng) % (build_rows as u64 / 2 + 1)) as i64 * 3
                    }
                })
                .collect();
            let first_miss = match miss {
                1 => Some(0),
                2 => Some(probe_rows / 2),
                3 => Some(probe_rows.saturating_sub(1)),
                _ => None,
            };
            let probe_keys: Vec<i64> = (0..probe_rows)
                .map(|i| {
                    let misses = Some(i) == first_miss
                        || (miss == 4 && next(&mut rng).is_multiple_of(4))
                        || build_keys.is_empty();
                    if misses {
                        -1 - 3 * (next(&mut rng) % 4) as i64
                    } else {
                        build_keys[next(&mut rng) as usize % build_keys.len()]
                    }
                })
                .collect();
            let mut pad = |keys: Vec<i64>| {
                let (before, after) =
                    ((next(&mut rng) % 3) as usize, (next(&mut rng) % 3) as usize);
                let len = keys.len();
                let padded: Vec<i64> = std::iter::repeat_n(0, before)
                    .chain(keys)
                    .chain(std::iter::repeat_n(0, after))
                    .collect();
                (padded, before, len)
            };
            let (probe_keys, probe_at, probe_len) = pad(probe_keys);
            let (build_keys, build_at, build_len) = pad(build_keys);
            let probe = probe_keys
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    let tag = Value::from(format!("t{}", i % 3));
                    Record::new(vec![Value::Int(i as i64), keys.probe(k), tag])
                })
                .collect();
            let build = build_keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Record::new(vec![keys.build(k), Value::Int(-(i as i64))]))
                .collect();
            JoinCase {
                probe: (probe, probe_at, probe_len),
                build: (build, build_at, build_len),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The chunk join equals the row kernel whether it shares the probe
    /// side and the probe key lane or gathers them: over unique and
    /// repeated build keys, probes that match every row or miss first at
    /// row 0, in the middle or last, empty sides, typed and generic key
    /// lanes, and windows of larger chunks.
    #[test]
    fn prop_join_twin_shares_only_what_it_may(case in join_case_strategy()) {
        let (probe, probe_chunk) = JoinCase::side(&case.probe);
        let (build, build_chunk) = JoinCase::side(&case.build);
        let (lk, rk) = (KeyUdf::field(1), KeyUdf::field(0));
        prop_assert_eq!(
            chunked::hash_join(&probe_chunk, &build_chunk, &lk, &rk).to_records(),
            kernels::hash_join(&probe, &build, &lk, &rk)
        );
    }
}

// ---------------------------------------------------------------------------
// Filter selection
// ---------------------------------------------------------------------------

/// `[id Int, price Float, flag Bool-or-Null]` rows: prices in `0..100` with
/// `-0.0` and NaN among them, flags NULL on every fifth row.
fn priced_batch_strategy() -> impl Strategy<Value = Vec<Record>> {
    (1usize..300, any::<u64>()).prop_map(|(rows, seed)| {
        let mut rng = seed;
        (0..rows)
            .map(|i| {
                let price = match next(&mut rng) % 20 {
                    0 => -0.0,
                    1 => f64::NAN,
                    r => (r * 5 + next(&mut rng) % 5) as f64,
                };
                let flag = if i % 5 == 4 {
                    Value::Null
                } else {
                    Value::Bool(next(&mut rng).is_multiple_of(2))
                };
                Record::new(vec![Value::Int(i as i64), Value::Float(price), flag])
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Filters at 0 %, some and 100 % selectivity keep the row kernel's
    /// rows, and a filter that keeps every row hands its input's lanes on
    /// rather than copying them. A nullable `Bool` lane as the mask keeps
    /// exactly its valid `true` rows.
    #[test]
    fn prop_filters_at_every_selectivity_match_row_kernel(
        records in priced_batch_strategy(),
        bound in 0i64..100,
    ) {
        let chunk = chunk_of(&records);
        let price = |op: BinOp, bound: i64| Expr::field(1).bin(op, Expr::lit(bound)).is_true();
        // SQL's order puts NaN above every number: no price is below -1,
        // and every one, NaN included, is at least -1.
        let cases = [
            (price(BinOp::SqlLt, -1), Some(0)),
            (price(BinOp::SqlLt, bound), None),
            (price(BinOp::SqlGe, -1), Some(records.len())),
            (Expr::field(2), None),
        ];
        for (pred, kept) in &cases {
            let expect = kernels::filter(&records, &FilterUdf::from_expr("p", pred.clone()));
            if let Some(kept) = kept {
                prop_assert_eq!(expect.len(), *kept);
            }
            prop_assert_eq!(chunked::filter(&chunk, pred).to_records(), expect);
        }
        let all = chunked::filter(&chunk, &cases[2].0);
        let lane = |chunk: &Chunk, c: usize| chunk.columns()[c].clone();
        prop_assert_eq!(
            lane(&all, 0).ints().unwrap().as_ptr(),
            lane(&chunk, 0).ints().unwrap().as_ptr()
        );
        prop_assert_eq!(
            lane(&all, 1).floats().unwrap().as_ptr(),
            lane(&chunk, 1).floats().unwrap().as_ptr()
        );
    }
}

/// Stage chains that exercise the single gather: filters alone, filters
/// with maps and projections on either side, and two filters in a row.
fn selection_chains() -> Vec<Vec<PipelineStage>> {
    let filter = |name: &str, expr: Expr| PipelineStage {
        name: name.into(),
        kind: StageKind::Filter {
            expr: Arc::new(expr),
            selectivity: 0.5,
        },
    };
    let map = |exprs: Vec<Expr>| PipelineStage {
        name: "m".into(),
        kind: StageKind::Map {
            exprs: exprs.into(),
        },
    };
    let project = |indices: Vec<usize>| PipelineStage {
        name: "π".into(),
        kind: StageKind::Project {
            indices: indices.into(),
        },
    };
    let cheap = || {
        filter(
            "cheap",
            Expr::field(1).bin(BinOp::SqlLt, Expr::lit(50i64)).is_true(),
        )
    };
    vec![
        vec![cheap()],
        vec![
            cheap(),
            map(vec![
                Expr::field(0),
                Expr::field(1).bin(BinOp::Mul, Expr::lit(2i64)),
            ]),
        ],
        vec![
            map(vec![Expr::field(1), Expr::field(0).rem(Expr::lit(3i64))]),
            filter("mod3", Expr::field(1).eq(Expr::lit(0i64))),
            project(vec![0]),
        ],
        vec![cheap(), filter("flag", Expr::field(2)), project(vec![2, 0])],
        vec![project(vec![1, 0]), filter("all", not_null(Expr::field(0)))],
        vec![map(vec![Expr::field(0).add(Expr::lit(1i64))])],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Per-morsel selections gathered once from the parent chunk give the
    /// row reference's rows at 1, 2, 7 and 8 threads, with morsels small
    /// enough that every thread count cuts several.
    #[test]
    fn prop_single_gather_pipeline_matches_row_reference(
        records in priced_batch_strategy(),
        morsel in 1usize..40,
    ) {
        let chunk = chunk_of(&records);
        for stages in selection_chains() {
            let reference = chunked::run_stages_rows(&records, &stages).unwrap();
            for threads in [1, 2, 7, 8] {
                let p = KernelParallelism::sequential()
                    .with_threads(threads)
                    .with_morsel_size(morsel)
                    .with_min_rows(0);
                let out = parallel::run_pipeline_chunk(&chunk, &stages, &p).unwrap();
                prop_assert!(
                    out.to_records() == reference,
                    "{} threads over {:?}",
                    threads,
                    stages.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// A pipeline whose filters keep every row gathers nothing: its output
/// reads the input's lanes at every thread count.
#[test]
fn an_all_pass_pipeline_shares_the_input_lanes() {
    let records: Vec<Record> = (0..5_000i64)
        .map(|i| rheem::rec![i, i as f64 * 0.5])
        .collect();
    let chunk = chunk_of(&records);
    let stages = [PipelineStage {
        name: "all".into(),
        kind: StageKind::Filter {
            expr: Arc::new(Expr::field(1).bin(BinOp::SqlGt, Expr::lit(-1i64)).is_true()),
            selectivity: 1.0,
        },
    }];
    for threads in [1, 2, 7, 8] {
        let p = KernelParallelism::sequential()
            .with_threads(threads)
            .with_morsel_size(64)
            .with_min_rows(0);
        let out = parallel::run_pipeline_chunk(&chunk, &stages, &p).unwrap();
        assert_eq!(out.rows(), records.len());
        assert_eq!(
            out.columns()[0].ints().unwrap().as_ptr(),
            chunk.columns()[0].ints().unwrap().as_ptr(),
            "{threads} threads copied the Int lane"
        );
        assert_eq!(
            out.columns()[1].floats().unwrap().as_ptr(),
            chunk.columns()[1].floats().unwrap().as_ptr(),
            "{threads} threads copied the Float lane"
        );
    }
}

// ---------------------------------------------------------------------------
// Typed lanes vs the row map kernel
// ---------------------------------------------------------------------------

/// One operand of a binary expression: a clean lane (one value per row) or
/// a literal.
#[derive(Clone, Debug)]
enum Side {
    Lane(Vec<Value>),
    Lit(Value),
}

/// `i64` values with the extremes, zero and its neighbours over-drawn.
fn int_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
        Just(-1i64),
        Just(1i64),
        -5i64..5,
        any::<i64>(),
    ]
}

/// `f64` values with both zeros, NaNs of several payloads and signs, the
/// infinities and values that widen from integers.
fn float_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_0000_0000_0001)),
        Just(f64::from_bits(0xfff8_0000_0000_0002)),
        Just(f64::from_bits(0x7ff0_0000_0000_0003)),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(9.223_372_036_854_776e18),
        (-20i64..20).prop_map(|i| i as f64 * 0.5),
    ]
}

/// `(left, right)` operands over 1 to 24 rows: each side an Int or a
/// Float lane or literal, never two literals (those fold before any lane).
fn operands_strategy() -> impl Strategy<Value = (Side, Side)> {
    let lanes = || {
        (
            proptest::collection::vec(int_strategy(), 24..25),
            proptest::collection::vec(float_strategy(), 24..25),
        )
    };
    ((1usize..25, 0u8..4, 0u8..4), lanes(), lanes()).prop_map(
        |((rows, left, right), (li, lf), (ri, rf))| {
            let side = |shape: u8, ints: Vec<i64>, floats: Vec<f64>| match shape {
                0 => Side::Lane(ints[..rows].iter().map(|&x| Value::Int(x)).collect()),
                1 => Side::Lane(floats[..rows].iter().map(|&x| Value::Float(x)).collect()),
                2 => Side::Lit(Value::Int(ints[0])),
                _ => Side::Lit(Value::Float(floats[0])),
            };
            // Two literals would fold before any lane: the right one
            // becomes a lane of its type.
            let right = if left >= 2 && right >= 2 {
                right - 2
            } else {
                right
            };
            (side(left, li, lf), side(right, ri, rf))
        },
    )
}

/// `op` over the operands through the chunk map kernel (the typed lanes)
/// equals the row map kernel (the scalar operator) row by row, bit for
/// bit.
fn typed_lane_matches_scalar(op: BinOp, (left, right): &(Side, Side)) -> TestCaseResult {
    let rows = [left, right]
        .iter()
        .find_map(|side| match side {
            Side::Lane(values) => Some(values.len()),
            Side::Lit(_) => None,
        })
        .expect("one side is a lane");
    let value = |side: &Side, i: usize| match side {
        Side::Lane(values) => values[i].clone(),
        Side::Lit(v) => v.clone(),
    };
    let records: Vec<Record> = (0..rows)
        .map(|i| Record::new(vec![value(left, i), value(right, i)]))
        .collect();
    let operand = |side: &Side, field: usize| match side {
        Side::Lane(_) => Expr::field(field),
        Side::Lit(v) => Expr::Lit(v.clone()),
    };
    let expr = operand(left, 0).bin(op, operand(right, 1));
    let mapped = chunked::map(&chunk_of(&records), std::slice::from_ref(&expr));
    let column = &mapped.columns()[0];
    let rows_mapped = kernels::map(&records, &MapUdf::from_exprs("row", vec![expr.clone()]));
    for (i, row) in rows_mapped.iter().enumerate() {
        let (a, b) = (value(left, i), value(right, i));
        let (typed, scalar) = (column.value(i), row.fields()[0].clone());
        // Rust leaves unspecified which input's payload an operation on two
        // NaNs returns (and the compiler may swap `+` or `*` operands), so
        // there both sides need only be NaN.
        let nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
        if nan(&a) && nan(&b) && nan(&scalar) {
            prop_assert!(nan(&typed), "{} at row {} gave {:?}", expr, i, typed);
            continue;
        }
        prop_assert!(
            typed == scalar,
            "{} at row {}: {:?} {:?} {:?} gave {:?}, row kernel {:?}",
            expr,
            i,
            a,
            op,
            b,
            typed,
            scalar
        );
    }
    Ok(())
}

/// One property per arithmetic operator and two per SQL division and
/// comparison: the proptest stub seeds a case from its test's name, so the
/// two names of an operator sample different operands.
macro_rules! typed_lane_props {
    ($($name:ident => $op:ident),* $(,)?) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            $(
                #[test]
                fn $name(operands in operands_strategy()) {
                    typed_lane_matches_scalar(BinOp::$op, &operands)?;
                }
            )*
        }
    };
}

typed_lane_props! {
    prop_typed_add_matches_scalar => Add,
    prop_typed_sub_matches_scalar => Sub,
    prop_typed_mul_matches_scalar => Mul,
    prop_typed_div_matches_scalar => SqlDiv,
    prop_typed_mod_matches_scalar => Mod,
    prop_typed_eq_matches_scalar => SqlEq,
    prop_typed_ne_matches_scalar => SqlNe,
    prop_typed_lt_matches_scalar => SqlLt,
    prop_typed_le_matches_scalar => SqlLe,
    prop_typed_gt_matches_scalar => SqlGt,
    prop_typed_ge_matches_scalar => SqlGe,
    prop_typed_sql_div_matches_scalar => SqlDiv,
    prop_typed_sql_eq_matches_scalar => SqlEq,
    prop_typed_sql_ne_matches_scalar => SqlNe,
    prop_typed_sql_lt_matches_scalar => SqlLt,
    prop_typed_sql_le_matches_scalar => SqlLe,
    prop_typed_sql_gt_matches_scalar => SqlGt,
    prop_typed_sql_ge_matches_scalar => SqlGe,
}
