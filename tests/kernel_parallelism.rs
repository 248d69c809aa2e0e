//! Morsel-driven kernel parallelism (DESIGN.md §5): only a narrow
//! operator splits into morsels, and every morsel kernel must be
//! **byte-identical** to its sequential twin at any thread count and any
//! morsel size; whole jobs — whose keyed operators run whole — must replay
//! identically, same outputs, same recorded work ([`testkit::work`]),
//! across `KernelParallelism` settings.
//!
//! The property test sweeps adversarial knobs (`threads ∈ {1,2,7,8}`,
//! `morsel_size ∈ {1,3,huge}`) over random batches with Null keys, NaN
//! keys, skewed key domains, and empty inputs.

use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem::rec;
use rheem_core::kernels::{self, parallel};
use rheem_core::{KernelParallelism, Observability};
use rheem_platforms::test_context;
use testkit::{work, AtomWork};

/// The knob sweep required by the determinism contract: thread counts
/// around the powers of two plus an odd one, and morsel sizes that force
/// one-record morsels, ragged splits, and the everything-in-one-morsel
/// degenerate case.
fn knob_sweep() -> Vec<KernelParallelism> {
    let mut out = Vec::new();
    for threads in [1usize, 2, 7, 8] {
        for morsel in [1usize, 3, 1 << 20] {
            out.push(
                KernelParallelism::sequential()
                    .with_threads(threads)
                    .with_morsel_size(morsel)
                    .with_min_rows(0),
            );
        }
    }
    out
}

/// Keys spanning every comparison edge case: `Null`, `NaN`, signed zeros,
/// a deliberately skewed tiny integer domain, and short strings.
fn key_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        (0i64..4).prop_map(Value::Int), // skew: hot tiny domain
        (0i64..4).prop_map(Value::Int), // doubled arm keeps the domain hot
        (-100i64..100).prop_map(Value::Int),
        (0usize..4).prop_map(|i| Value::Str(["", "a", "b", "ab"][i].into())),
    ]
}

/// `[key, payload]` records; payloads are small so reduction sums stay
/// far from overflow.
fn batch_strategy(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (key_strategy(), 0i64..1000).prop_map(|(k, p)| rec![k, p]),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Embarrassingly-parallel kernels: morsel split + ordered concat is
    /// invisible at every thread count and morsel size.
    #[test]
    fn prop_morsel_kernels_match_sequential(batch in batch_strategy(120)) {
        let map_udf = MapUdf::new("x3", |r| {
            Record::new(vec![r.get(0).unwrap().clone(), Value::Int(r.int(1).unwrap() * 3)])
        });
        let fm_udf = FlatMapUdf::new("dup-evens", |r| {
            let n = r.int(1).unwrap();
            if n % 2 == 0 { vec![r.clone(), r.clone()] } else { vec![] }
        });
        let filter_udf = FilterUdf::new("small", |r| r.int(1).unwrap() < 500);
        for p in knob_sweep() {
            prop_assert_eq!(parallel::map(&batch, &map_udf, &p), kernels::map(&batch, &map_udf));
            prop_assert_eq!(
                parallel::flat_map(&batch, &fm_udf, &p),
                kernels::flat_map(&batch, &fm_udf)
            );
            prop_assert_eq!(
                parallel::filter(&batch, &filter_udf, &p),
                kernels::filter(&batch, &filter_udf)
            );
        }
    }
}

/// Empty inputs take the sequential fallback at every knob setting.
#[test]
fn empty_inputs_match_sequential() {
    let empty: Vec<Record> = vec![];
    for p in knob_sweep() {
        assert!(parallel::map(&empty, &MapUdf::new("id", |r| r.clone()), &p).is_empty());
        assert!(
            parallel::flat_map(&empty, &FlatMapUdf::new("one", |r| vec![r.clone()]), &p).is_empty()
        );
        assert!(parallel::filter(&empty, &FilterUdf::new("t", |_| true), &p).is_empty());
    }
}

/// A multi-operator job: maps and filters, which split into morsels, and
/// grouping, reduction, two joins and a sort, which run whole.
fn workload_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection(
        "s",
        (0..400i64).map(|i| rec![i % 13, i]).collect::<Vec<_>>(),
    );
    let mapped = b.map(
        src,
        MapUdf::new("x2", |r| rec![r.int(0).unwrap(), r.int(1).unwrap() * 2]),
    );
    let filtered = b.filter(
        mapped,
        FilterUdf::new("keep", |r| r.int(1).unwrap() % 3 != 0),
    );
    let summed = b.reduce_by_key(
        filtered,
        KeyUdf::field(0).with_distinct_keys(13.0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    b.collect(summed);
    let dims = b.collection(
        "dims",
        (0..13i64).map(|i| rec![i, i * 100]).collect::<Vec<_>>(),
    );
    let joined = b.hash_join(filtered, dims, KeyUdf::field(0), KeyUdf::field(0));
    b.collect(joined);
    let enriched = b.hash_join(summed, dims, KeyUdf::field(0), KeyUdf::field(0));
    let sorted = b.sort(enriched, KeyUdf::field(1), true);
    b.collect(sorted);
    let grouped = b.group_by(
        filtered,
        KeyUdf::field(0).with_distinct_keys(13.0),
        GroupMapUdf::new("count", |k, members| {
            vec![Record::new(vec![
                k.clone(),
                Value::Int(members.len() as i64),
            ])]
        }),
    );
    b.collect(grouped);
    b.build().unwrap()
}

type Replay = (Vec<(rheem_core::NodeId, Vec<Record>)>, Vec<AtomWork>, u64);

/// Run the workload under one thread budget; return its outputs (keyed,
/// record order preserved), the work it recorded, and the
/// `kernel.parallel.invocations` counter.
fn replay(p: KernelParallelism) -> Replay {
    let observe = Arc::new(Observability::new());
    let ctx = test_context()
        .with_kernel_parallelism(p)
        .with_observability(observe.clone());
    let result = ctx.execute(workload_plan()).unwrap();
    let mut outputs: Vec<(rheem_core::NodeId, Vec<Record>)> = result
        .outputs
        .iter()
        .map(|(n, d)| (*n, d.records().to_vec()))
        .collect();
    outputs.sort_by_key(|(n, _)| *n);
    let invocations = observe
        .metrics()
        .counter_value("kernel.parallel.invocations");
    (outputs, work(&result.stats), invocations)
}

/// The replay contract: outputs and recorded work are identical across
/// every `KernelParallelism` setting (budgets 1, 2 and 8: wave width and
/// kernel threads both move) — morsel execution shows only in the counters
/// and in the `morsels` field `work` leaves out.
#[test]
fn job_outputs_and_traces_are_parallelism_invariant() {
    let settings = [
        KernelParallelism::sequential(),
        KernelParallelism::sequential()
            .with_threads(2)
            .with_morsel_size(7)
            .with_min_rows(1),
        KernelParallelism::sequential()
            .with_threads(8)
            .with_morsel_size(3)
            .with_min_rows(1),
    ];
    let (base_out, base_work, base_inv) = replay(settings[0]);
    assert_eq!(base_inv, 0, "threads=1 must never take the parallel path");
    let mut saw_parallel = false;
    for p in settings {
        let (out, recorded, inv) = replay(p);
        assert_eq!(out, base_out, "outputs drifted under {p:?}");
        assert_eq!(recorded, base_work, "recorded work drifted under {p:?}");
        saw_parallel |= inv > 0;
    }
    assert!(
        saw_parallel,
        "the 8-thread setting should exercise the morsel path"
    );
}

/// The `kernel.parallel.*` counters replay identically run to run at one
/// budget (the split is a function of the budget and the wave alone), so
/// they are part of the deterministic-counter contract, not a scheduling
/// artifact.
#[test]
fn parallel_counters_replay_at_one_budget() {
    let p = KernelParallelism::sequential()
        .with_threads(8)
        .with_morsel_size(16)
        .with_min_rows(1);
    let (_, _, first) = replay(p);
    let (_, _, second) = replay(p);
    assert!(first > 0);
    assert_eq!(first, second);
}

/// An in-process kernel records its sequential work: what its threads
/// worked, the caller's work plus what its morsel workers worked beyond the
/// caller's wait for them (a sleep is work). A map that sleeps 1 ms
/// a row, over 64 rows in four 16-row morsels on 4 threads, sleeps 64 ms in
/// all, in about a quarter of that wall time. A sleep never runs short, so
/// neither bound can flake.
#[test]
fn an_in_process_kernel_records_its_sequential_work() {
    let p = KernelParallelism::sequential()
        .with_threads(4)
        .with_morsel_size(16)
        .with_min_rows(1);
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..64i64).map(|i| rec![i]).collect::<Vec<_>>());
    let slept = b.map(
        src,
        MapUdf::new("sleep", |r| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            r.clone()
        }),
    );
    b.collect(slept);
    let ctx = test_context()
        .with_kernel_parallelism(p)
        .force_platform("java");
    let result = ctx.execute(b.build().unwrap()).unwrap();
    let map = result
        .stats
        .atoms
        .iter()
        .flat_map(|a| &a.node_observations)
        .find(|o| o.op.starts_with("Map"))
        .expect("the map was observed");
    assert_eq!(map.morsels, 4, "{map:?}");
    assert!(map.work_ms >= 64.0, "{map:?}");
    assert!(map.work_ms >= 2.0 * map.elapsed_ms, "{map:?}");
}
