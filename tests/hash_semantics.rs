//! Semantics of the vectorized hash engine, through the two hashes other
//! crates see: the row routing hash (`kernels::key_hash`) and the
//! column-wise one (`chunked::key_tuple_hashes`).
//!
//! Two contracts are fuzzed and stress-tested here. First, the
//! hand-rolled hasher must agree with `Value` equality exactly: equal
//! values hash equal, across every variant and every float edge class
//! (`-0.0` vs `0.0`, distinct NaN payloads, dictionary vs inline
//! strings), and a typed lane hashes as the row does. Second, the
//! engine-backed kernels must stay byte-identical to their row twins even
//! on *adversarial* keys — whole key sets crafted to land in one radix
//! bucket, so partitioning degenerates and every probe chain piles onto
//! the same table region — at every parallelism setting.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem_core::kernels::{self, chunked, hash_i64, parallel, radix_bucket};
use rheem_core::udf::{AggFunc, Aggregate, GroupOutput};
use rheem_core::{run_plan, Chunk, ExecutionContext, Expr, KernelParallelism, Text, Value};

/// One dirty value: every variant, with the float edge cases the hasher
/// must separate exactly as `Value` equality does.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-4i64..4).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        (-100i64..100).prop_map(|i| Value::Float(i as f64 * 0.25)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(f64::INFINITY)),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        (0i64..3).prop_map(|i| Value::from(format!("s{i}"))),
        any::<u64>().prop_map(|n| Value::from(format!("{:x}", n % 64))),
    ]
}

/// `n` distinct `i64` keys that all hash into radix bucket 0 — the
/// engine's worst case: the partition pass puts *every* key in one
/// bucket, and the other 63 stay empty.
fn bucket0_keys(n: usize) -> Vec<i64> {
    let keys: Vec<i64> = (0i64..)
        .filter(|&k| radix_bucket(hash_i64(k)) == 0)
        .take(n)
        .collect();
    assert_eq!(keys.len(), n, "search space exhausted");
    keys
}

/// An adversarial batch: `rows` records whose keys cycle through
/// `distinct` bucket-0 keys, with an input-position payload so member
/// order and accumulator folds are observable.
fn adversarial_batch(rows: usize, distinct: usize) -> Vec<Record> {
    let keys = bucket0_keys(distinct);
    (0..rows)
        .map(|i| {
            let payload = match i % 5 {
                0 => Value::Float(-0.0),
                1 => Value::Float(f64::NAN),
                2 => Value::Null,
                _ => Value::Int(i as i64),
            };
            Record::new(vec![Value::Int(keys[i % distinct]), payload])
        })
        .collect()
}

/// Keep the key, sum the payload as `Float` (`Int` widens, anything else
/// folds to `Null`).
fn first_and_float_sum() -> ReduceUdf {
    ReduceUdf::new("agg", |acc, x| {
        let sum = match (acc.float(1), x.float(1)) {
            (Ok(a), Ok(b)) => Value::Float(a + b),
            _ => Value::Null,
        };
        Record::new(vec![acc.get(0).unwrap().clone(), sum])
    })
}

fn chunk_of(records: &[Record]) -> Chunk {
    Chunk::from_records(records).expect("rectangular batch")
}

/// The routing hash of a one-field record.
fn row_hash(v: &Value) -> u64 {
    kernels::key_hash(&KeyUdf::field(0), &Record::new(vec![v.clone()]))
}

/// The column-wise hash of row `row` of a one-column chunk of `column`.
fn lane_hash(column: &[Value], row: usize) -> u64 {
    let records: Vec<Record> = column
        .iter()
        .map(|v| Record::new(vec![v.clone()]))
        .collect();
    chunked::key_tuple_hashes(&chunk_of(&records), &[0])[row]
}

/// Sequential, tiny-morsel, and oversubscribed settings — every
/// comparison must hold at all of them.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The fundamental hasher contract: `a == b` implies equal hashes,
    /// for every pair the dirty strategy can produce.
    #[test]
    fn prop_equal_values_hash_equal(a in value_strategy(), b in value_strategy()) {
        prop_assert_eq!(row_hash(&a), row_hash(&a.clone()));
        if a == b {
            prop_assert_eq!(row_hash(&a), row_hash(&b));
        }
    }

    /// Each typed lane agrees with the row hash on its variant — the
    /// engine may hash an `i64` lane, a `f64` lane, a dictionary, or a
    /// `Vec<Value>` for the same logical key and must get the same bits.
    #[test]
    fn prop_typed_lanes_agree_with_hash_value(k in any::<i64>(), bits in any::<u64>(), n in any::<u64>()) {
        let x = f64::from_bits(bits);
        let s = format!("{n:x}");
        for v in [Value::Int(k), Value::Float(x), Value::from(s.clone())] {
            prop_assert_eq!(lane_hash(&[v.clone(), v.clone()], 1), row_hash(&v));
        }
    }
}

/// Float key classes follow `total_cmp`, not `==`: `-0.0`/`0.0` are
/// *different* keys, and NaNs group by bit pattern — equal-payload NaNs
/// together, distinct payloads apart. The mixer is a bijection on the
/// tagged bits, so the distinctions are exact, not probabilistic.
#[test]
fn float_key_classes_match_total_order_equality() {
    let float = |x: f64| row_hash(&Value::Float(x));
    assert_ne!(float(-0.0), float(0.0));
    assert_eq!(float(-0.0), float(-0.0));

    let nan_a = f64::NAN;
    let nan_b = f64::from_bits(f64::NAN.to_bits() ^ 1); // payload-tweaked NaN
    let nan_c = -f64::NAN; // sign-flipped NaN
    assert!(nan_b.is_nan() && nan_c.is_nan());
    assert_eq!(float(nan_a), float(f64::NAN));
    assert_ne!(float(nan_a), float(nan_b));
    assert_ne!(float(nan_a), float(nan_c));

    // And the grouping kernel observes those classes: four float-key
    // classes stay four groups, byte-identical to the row kernel.
    let records: Vec<Record> = [0.0, -0.0, nan_a, nan_b, 0.0, nan_a]
        .iter()
        .enumerate()
        .map(|(i, &f)| Record::new(vec![Value::Float(f), Value::Int(i as i64)]))
        .collect();
    let key = KeyUdf::field(0);
    let grouped = chunked::hash_group(&chunk_of(&records), &key);
    assert_eq!(grouped.len(), 4);
    assert_eq!(grouped, kernels::hash_group(&records, &key));
}

/// A dictionary-encoded string column and inline `Value::Str` keys are
/// the same keys to the engine: the dictionary hashes each distinct
/// string once, and those hashes match the row hash of the inline value.
#[test]
fn dict_and_inline_strings_hash_alike() {
    let records: Vec<Record> = (0..48)
        .map(|i| Record::new(vec![Value::from(format!("k{}", i % 5)), Value::Int(i)]))
        .collect();
    let lanes = chunked::key_tuple_hashes(&chunk_of(&records), &[0]);
    for (r, lane) in records.iter().zip(lanes) {
        assert_eq!(lane, kernels::key_hash(&KeyUdf::field(0), r));
    }
    // Grouping through the dictionary lane equals the row kernel, which
    // compares inline `Value::Str` keys.
    let key = KeyUdf::field(0);
    assert_eq!(
        chunked::hash_group(&chunk_of(&records), &key),
        kernels::hash_group(&records, &key)
    );
}

/// A string is one type however it was built — from `&str`, from a
/// `String`'s buffer, or read back from a dictionary lane: equal bytes
/// compare, order and hash alike, on the row path, the column path and
/// through `std::hash` (where a `Text` hashes as its `str`, so maps keyed
/// by it are looked up by `&str`). The values a lane hands out share its
/// entry's allocation.
#[test]
fn strings_built_three_ways_hash_compare_and_order_alike() {
    let std_hash = |h: &dyn Fn(&mut DefaultHasher)| {
        let mut hasher = DefaultHasher::new();
        h(&mut hasher);
        hasher.finish()
    };
    let words = ["", "a", "ab", "b", "é", "a"];
    let column: Vec<Value> = words.iter().map(Value::str).collect();
    let records: Vec<Record> = column
        .iter()
        .map(|v| Record::new(vec![v.clone()]))
        .collect();
    let chunk = chunk_of(&records);
    let lane = &chunk.columns()[0];
    let (dict, codes) = lane.dict_codes().expect("a dictionary lane");
    for (i, &w) in words.iter().enumerate() {
        let borrowed = Value::str(w);
        let owned = Value::from(w.to_string());
        let read = lane.value(i);
        for v in [&owned, &read] {
            assert_eq!(v, &borrowed);
            assert_eq!(row_hash(v), row_hash(&borrowed));
            assert_eq!(std_hash(&|h| v.hash(h)), std_hash(&|h| borrowed.hash(h)));
            for (j, &u) in words.iter().enumerate() {
                assert_eq!(v.cmp(&lane.value(j)), w.cmp(u), "{w:?} against {u:?}");
            }
        }
        assert_eq!(lane_hash(&column, i), row_hash(&borrowed));
        let Value::Str(text) = read else {
            panic!("a dictionary lane reads back strings")
        };
        let entry = &dict[codes[i] as usize];
        assert!(Text::ptr_eq(&text, entry), "a value shares its entry");
        assert_eq!(std_hash(&|h| text.hash(h)), std_hash(&|h| w.hash(h)));
    }
    assert_eq!(dict.len(), 5, "the repeated \"a\" is one entry");
}

/// Direct and radix-partitioned builds induce the same grouping: the
/// morsel-parallel kernel folds its partial groups per radix bucket, the
/// row kernel builds one direct table, and both give the same groups with
/// the same members in the same order.
#[test]
fn forced_partition_paths_induce_identical_grouping() {
    // Mixed cardinality with collision pressure: 1500 rows, 300 keys.
    let records: Vec<Record> = (0..1500i64)
        .map(|i| Record::new(vec![Value::Int((i * 7) % 300), Value::Int(i)]))
        .collect();
    let key = KeyUdf::field(0);
    let direct = kernels::hash_group(&records, &key);
    assert_eq!(direct.len(), 300);
    for p in parallelism_settings() {
        assert_eq!(parallel::hash_group(&records, &key, &p), direct);
    }
}

/// Above the adaptive thresholds (≥ 65536 rows, > 1024 sampled-distinct
/// keys) `build_index` flips to the partitioned path on its own; the
/// grouping kernel must stay byte-identical to the row twin there too.
#[test]
fn auto_radix_path_above_threshold_matches_row_kernel() {
    let records: Vec<Record> = (0..70_000i64)
        .map(|i| Record::new(vec![Value::Int(i % 4099), Value::Int(i)]))
        .collect();
    let key = KeyUdf::field(0);
    let grouped = chunked::hash_group(&chunk_of(&records), &key);
    assert_eq!(grouped.len(), 4099);
    assert_eq!(grouped, kernels::hash_group(&records, &key));
}

/// Collision pileup: hundreds of distinct keys all in radix bucket 0.
/// Grouping, typed aggregation, reduction, and the join must remain byte-identical
/// to the row kernels — sequentially and at every morsel setting.
#[test]
fn collision_heavy_kernels_match_row_twins() {
    let records = adversarial_batch(1200, 160);
    let chunk = chunk_of(&records);
    let key = KeyUdf::field(0);

    let row_groups = kernels::hash_group(&records, &key);
    assert_eq!(chunked::hash_group(&chunk, &key), row_groups);

    let outputs = vec![
        GroupOutput::First(0),
        GroupOutput::Agg(Aggregate {
            func: AggFunc::Sum,
            arg: Some(Expr::field(1)),
        }),
    ];
    assert_eq!(
        chunked::hash_aggregate(&chunk, &[0], &outputs).to_records(),
        kernels::apply_group_map(&row_groups, &GroupMapUdf::from_aggs("agg", outputs.clone()))
    );

    let reduce = first_and_float_sum();
    let row_reduced = kernels::reduce_by_key(&records, &key, &reduce);

    // Join against a probe side that hits and misses: half the build keys
    // plus keys from *other* buckets that must not false-match.
    let mut right: Vec<Record> = bucket0_keys(80)
        .into_iter()
        .map(|k| Record::new(vec![Value::Int(k), Value::from("hit")]))
        .collect();
    right.extend((1..40i64).map(|k| Record::new(vec![Value::Int(-k), Value::from("miss")])));
    let rchunk = chunk_of(&right);
    let row_joined = kernels::hash_join(&records, &right, &key, &key);
    assert!(!row_joined.is_empty());
    assert_eq!(
        chunked::hash_join(&chunk, &rchunk, &key, &key).to_records(),
        row_joined
    );

    for p in parallelism_settings() {
        assert_eq!(parallel::hash_group(&records, &key, &p), row_groups.clone());
        assert_eq!(
            parallel::reduce_by_key(&records, &key, &reduce, &p),
            row_reduced.clone()
        );
        assert_eq!(
            parallel::hash_join(&records, &right, &key, &key, &p),
            row_joined.clone()
        );
    }
}

/// End to end: an adversarial-keyed plan — group-by feeding a hash join —
/// produces the reference interpreter's records at every thread budget.
#[test]
fn adversarial_keys_end_to_end_at_every_budget() {
    let facts = adversarial_batch(2000, 120);
    let dims: Vec<Record> = bucket0_keys(120)
        .into_iter()
        .enumerate()
        .map(|(i, k)| Record::new(vec![Value::Int(k), Value::Int(i as i64 * 10)]))
        .collect();

    let build = || {
        let mut b = PlanBuilder::new();
        let f = b.collection("facts", facts.clone());
        let d = b.collection("dims", dims.clone());
        let red = b.reduce_by_key(f, KeyUdf::field(0), first_and_float_sum());
        let j = b.hash_join(red, d, KeyUdf::field(0), KeyUdf::field(0));
        b.collect(j);
        b.build().unwrap()
    };

    let reference: Vec<Vec<Record>> = run_plan(&build(), &ExecutionContext::new())
        .unwrap()
        .into_values()
        .map(|d| d.records().to_vec())
        .collect();
    assert_eq!(reference.len(), 1);
    assert!(!reference[0].is_empty());

    for p in parallelism_settings() {
        let ctx = RheemContext::new()
            .with_platform(Arc::new(JavaPlatform::new()))
            .with_kernel_parallelism(p);
        let result = ctx.execute(build()).unwrap();
        let outputs: Vec<Vec<Record>> = result
            .outputs
            .into_values()
            .map(|d| d.records().to_vec())
            .collect();
        assert_eq!(outputs, reference, "{p:?} diverged");
    }
}
