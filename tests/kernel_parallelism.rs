//! The thread budget is the wave width (DESIGN.md §5): every in-process
//! kernel runs whole on its atom's thread, so whole jobs must replay
//! identically — same outputs, same recorded work ([`testkit::work`]) — at
//! every budget, and an in-process kernel's recorded work is what its one
//! thread worked.

use rheem::prelude::*;
use rheem::rec;
use rheem_platforms::test_context;
use testkit::{budget, work, AtomWork};

/// The budgets every replay runs at: one atom at a time, the powers of two
/// around a small host, and an odd one.
const BUDGETS: [usize; 4] = [1, 2, 7, 8];

/// A multi-operator job: maps and filters, grouping, reduction, two joins
/// and a sort.
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

type Replay = (Vec<(rheem_core::NodeId, Vec<Record>)>, Vec<AtomWork>);

/// Run `plan` at a thread budget of `threads`; return its outputs (keyed,
/// record order preserved) and the work it recorded.
fn replay(plan: PhysicalPlan, threads: usize) -> Replay {
    let ctx = test_context().with_kernel_parallelism(budget(threads));
    let result = ctx.execute(plan).unwrap();
    let mut outputs: Vec<(rheem_core::NodeId, Vec<Record>)> = result
        .outputs
        .iter()
        .map(|(n, d)| (*n, d.records().to_vec()))
        .collect();
    outputs.sort_by_key(|(n, _)| *n);
    (outputs, work(&result.stats))
}

/// The replay contract: outputs and recorded work are identical at every
/// thread budget — the wave width moves, nothing else.
#[test]
fn job_outputs_and_traces_are_parallelism_invariant() {
    let base = replay(workload_plan(), 1);
    for threads in BUDGETS {
        assert_eq!(
            replay(workload_plan(), threads),
            base,
            "budget {threads} drifted"
        );
    }
}

/// An empty source runs through every closure kernel to empty outputs, and
/// the same recorded work, at every budget.
#[test]
fn empty_inputs_match_sequential() {
    let plan = || {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", Vec::new());
        let mapped = b.map(src, MapUdf::new("id", |r| r.clone()));
        let spread = b.flat_map(mapped, FlatMapUdf::new("one", |r| vec![r.clone()]));
        let kept = b.filter(spread, FilterUdf::new("t", |_| true));
        b.collect(kept);
        b.build().unwrap()
    };
    let base = replay(plan(), 1);
    assert!(base.0.iter().all(|(_, rows)| rows.is_empty()));
    for threads in BUDGETS {
        assert_eq!(replay(plan(), threads), base, "budget {threads} drifted");
    }
}

/// An in-process kernel records its sequential work: what its one thread
/// worked (a sleep is work), at any budget. A map that sleeps 1 ms a row
/// over 64 rows records at least 64 ms, and java charges exactly that work
/// (its clock's efficiency is 1). A sleep never runs short, so the bound
/// cannot flake.
#[test]
fn an_in_process_kernel_records_its_sequential_work() {
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
        .with_kernel_parallelism(budget(4))
        .force_platform("java");
    let result = ctx.execute(b.build().unwrap()).unwrap();
    let map = result
        .stats
        .atoms
        .iter()
        .flat_map(|a| &a.node_observations)
        .find(|o| o.op.starts_with("Map"))
        .expect("the map was observed");
    assert!(map.work_ms >= 64.0, "{map:?}");
    assert_eq!(map.elapsed_ms, map.work_ms, "{map:?}");
}
