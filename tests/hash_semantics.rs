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
//! on *adversarial* keys — whole key sets crafted so that every key starts
//! its probe at the same slot of a slot table, and every probe chain piles
//! onto one table region — and whole plans over them at every thread
//! budget.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rheem::prelude::*;
use rheem_core::kernels::{self, chunked, hash_i64};
use rheem_core::udf::{AggFunc, Aggregate, GroupOutput};
use rheem_core::{run_plan, Chunk, ExecutionContext, Expr, KernelParallelism, Text, Value};
use testkit::budget;

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

/// `n` (at most 160) distinct `i64` keys whose hashes share their low 16
/// bits — the engine's worst case: a slot table indexes by the low bits of
/// a hash, so in every table of up to 2^16 entries (all the tables these
/// tests build) every key starts probing at the same slot and each insert
/// or probe walks the chain of all the keys before it. The keys also span
/// far more than 2^16, so an `Int` lane of them takes the hash path, not
/// direct addressing.
fn colliding_keys(n: usize) -> &'static [i64] {
    static KEYS: OnceLock<Vec<i64>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| {
        (0i64..)
            .filter(|&k| hash_i64(k) & 0xffff == 0)
            .take(160)
            .collect()
    });
    &keys[..n]
}

/// An adversarial batch: `rows` records whose keys cycle through
/// `distinct` colliding keys, with an input-position payload so member
/// order and accumulator folds are observable.
fn adversarial_batch(rows: usize, distinct: usize) -> Vec<Record> {
    let keys = colliding_keys(distinct);
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

/// One atom at a time, an odd width and an oversubscribed one — every
/// comparison must hold at all of them.
fn parallelism_settings() -> Vec<KernelParallelism> {
    vec![budget(1), budget(3), budget(16)]
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

/// A large, high-cardinality key column: 70 000 rows over 20 011 keys
/// spread far past the direct-address range, so one slot table holds them
/// all and grows twice past its first size. Grouping stays byte-identical
/// to the row kernel.
#[test]
fn large_high_cardinality_keys_match_row_kernel() {
    let records: Vec<Record> = (0..70_000i64)
        .map(|i| Record::new(vec![Value::Int((i % 20_011) * 7_919), Value::Int(i)]))
        .collect();
    let key = KeyUdf::field(0);
    let grouped = chunked::hash_group(&chunk_of(&records), &key);
    assert_eq!(grouped.len(), 20_011);
    assert_eq!(grouped, kernels::hash_group(&records, &key));
}

/// Collision pileup: 160 distinct keys on one probe sequence. Grouping,
/// typed aggregation and the join must remain byte-identical to the row
/// kernels.
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

    // Join against a probe side that hits and misses: half the build keys
    // plus keys off the colliding sequence that must not false-match.
    let mut right: Vec<Record> = colliding_keys(80)
        .iter()
        .map(|&k| Record::new(vec![Value::Int(k), Value::from("hit")]))
        .collect();
    right.extend((1..40i64).map(|k| Record::new(vec![Value::Int(-k), Value::from("miss")])));
    let rchunk = chunk_of(&right);
    let row_joined = kernels::hash_join(&records, &right, &key, &key);
    assert!(!row_joined.is_empty());
    assert_eq!(
        chunked::hash_join(&chunk, &rchunk, &key, &key).to_records(),
        row_joined
    );
}

/// End to end: an adversarial-keyed plan — group-by feeding a hash join —
/// produces the reference interpreter's records at every thread budget.
#[test]
fn adversarial_keys_end_to_end_at_every_budget() {
    let facts = adversarial_batch(2000, 120);
    let dims: Vec<Record> = colliding_keys(120)
        .iter()
        .enumerate()
        .map(|(i, &k)| Record::new(vec![Value::Int(k), Value::Int(i as i64 * 10)]))
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
