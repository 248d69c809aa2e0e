//! The observability layer, end to end: deterministic replay across thread
//! budgets, metrics under fault injection, and calibration hygiene.
//!
//! The replay contract: executing the same plan at thread budgets 1 and 4
//! must record the same work in the job's `ExecutionStats`
//! ([`testkit::work`] leaves out waves, timings and morsels, which are
//! scheduling artifacts) and identical deterministic counters — parallelism
//! may reorder work, but never change what happened.

use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem::rec;
use rheem_core::optimizer::enumerate::split_into_atoms;
use rheem_core::{ExecutionPlan, FailureInjector, Observability};
use rheem_platforms::test_context;
use testkit::{budget, work, AtomWork};

/// An injector failing the first `attempts` attempts of atom 0 (the only
/// atom of a one-platform plan).
fn fail_atom_0(attempts: usize) -> FailureInjector {
    let injector = FailureInjector::none();
    injector.fail_atom(0, attempts);
    injector
}

/// A shared source fanning out to three hand-pinned branches across three
/// platforms — the shape where wave width matters the most (both branch
/// atoms share a wave).
fn fanout_exec_plan() -> ExecutionPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..200i64).map(|i| rec![i % 10, i]).collect());
    let doubled = b.map(
        src,
        MapUdf::new("x2", |r| rec![r.int(0).unwrap(), r.int(1).unwrap() * 2]),
    );
    b.collect(doubled);
    let even = b.filter(src, FilterUdf::new("even", |r| r.int(1).unwrap() % 2 == 0));
    b.collect(even);
    let summed = b.reduce_by_key(
        src,
        KeyUdf::field(0).with_distinct_keys(10.0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    b.collect(summed);
    let physical = b.build().unwrap();
    let assignments: Vec<String> = [
        "java",      // source
        "sparklike", // map branch
        "sparklike",
        "mapreduce", // filter branch
        "mapreduce",
        "java", // reduce branch (merges with the source atom)
        "java",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let atoms = split_into_atoms(&physical, &assignments);
    ExecutionPlan {
        physical: Arc::new(physical),
        assignments,
        atoms,
        estimated_cost: 0.0,
        estimates: vec![],
        enumeration: Default::default(),
    }
}

/// Total wave count plus sorted `(atom_id, wave)` pairs — the wave
/// structure a run reported, which the replay contract requires to be
/// budget-invariant.
type WaveAccounting = (usize, Vec<(usize, usize)>);

fn wave_accounting(result: &rheem_core::executor::JobResult) -> WaveAccounting {
    let mut atoms: Vec<(usize, usize)> = result
        .stats
        .atoms
        .iter()
        .map(|a| (a.atom_id, a.wave))
        .collect();
    atoms.sort_unstable();
    (result.stats.waves, atoms)
}

/// Execute `exec` under a thread budget of `threads` with a fresh
/// observability hub; return the work the job recorded, the deterministic
/// counter snapshot, and the wave accounting.
fn run_at_budget(
    exec: &ExecutionPlan,
    threads: usize,
) -> (Vec<AtomWork>, Vec<(String, u64)>, WaveAccounting) {
    let observe = Arc::new(Observability::new());
    let ctx = test_context()
        .with_kernel_parallelism(budget(threads))
        .with_observability(observe.clone());
    let result = ctx.execute_plan(exec).unwrap();
    // Histograms are timing-derived (bucketed wall measurements) and are
    // deliberately excluded from the replay contract; counters are not.
    (
        work(&result.stats),
        observe.metrics().snapshot().counters,
        wave_accounting(&result),
    )
}

#[test]
fn sequential_and_parallel_runs_trace_the_same_job() {
    let exec = fanout_exec_plan();
    let (seq_work, seq_counters, seq_waves) = run_at_budget(&exec, 1);
    let (par_work, par_counters, par_waves) = run_at_budget(&exec, 4);
    assert_eq!(
        seq_work, par_work,
        "recorded work must not depend on scheduling"
    );
    assert_eq!(
        seq_counters, par_counters,
        "deterministic counters must not depend on scheduling"
    );
    assert_eq!(
        seq_waves, par_waves,
        "wave accounting must not depend on scheduling"
    );
    // The record reflects the plan: three atoms (the java source merges
    // with the java reduce branch), seven kernels under them.
    assert_eq!(seq_work.len(), 3, "{seq_work:?}");
    let kernels: usize = seq_work.iter().map(|(.., k)| k.len()).sum();
    assert_eq!(kernels, 7, "{seq_work:?}");
    // And the counters carry the real totals.
    let get = |name: &str| {
        seq_counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("executor.atoms_completed"), 3);
    assert_eq!(get("executor.jobs_completed"), 1);
    assert_eq!(get("executor.atom_retries"), 0);
    assert!(get("executor.records_out") > 0);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[test]
fn injected_failures_are_counted_exactly_attempts_minus_one() {
    let observe = Arc::new(Observability::new());
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_failure_injector(Arc::new(fail_atom_0(2)))
        .with_max_retries(3)
        .with_observability(observe.clone());
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..10i64).map(|i| rec![i]).collect());
    b.collect(src);
    let result = ctx.execute(b.build().unwrap()).unwrap();

    assert_eq!(result.stats.atoms[0].attempts, 3);
    let m = observe.metrics();
    assert_eq!(m.counter_value("executor.atom_retries"), 2);
    assert_eq!(m.counter_value("executor.atom_failures"), 2);
    assert_eq!(m.counter_value("executor.atoms_completed"), 1);
}

#[test]
fn parallel_retries_land_in_the_record_and_the_counters() {
    let observe = Arc::new(Observability::new());
    let injector = Arc::new(FailureInjector::none());
    // Four failures spread across the two parallel branch atoms.
    let exec = fanout_exec_plan();
    let branches: Vec<usize> = exec
        .atoms
        .iter()
        .filter(|a| a.platform != "java")
        .map(|a| a.id)
        .collect();
    for &atom in &branches {
        injector.fail_atom(atom, 2);
    }
    let ctx = test_context()
        .with_kernel_parallelism(budget(4))
        .with_max_retries(3)
        .with_failure_injector(injector)
        .with_observability(observe.clone());
    let result = ctx.execute_plan(&exec).unwrap();

    assert_eq!(result.stats.retries, 4);
    for atom in result.stats.atoms.iter() {
        let expected = if branches.contains(&atom.atom_id) {
            3
        } else {
            1
        };
        assert_eq!(atom.attempts, expected, "atom {}", atom.atom_id);
    }
    let m = observe.metrics();
    assert_eq!(m.counter_value("executor.atom_retries"), 4);
    assert_eq!(m.counter_value("executor.atom_failures"), 4);
    assert_eq!(m.counter_value("executor.jobs_completed"), 1);
}

#[test]
fn failed_attempts_do_not_pollute_the_calibration_table() {
    let run = |injector: Arc<FailureInjector>| {
        let observe = Arc::new(Observability::new());
        let ctx = RheemContext::new()
            .with_platform(Arc::new(JavaPlatform::new()))
            .with_failure_injector(injector)
            .with_max_retries(2)
            .with_observability(observe.clone());
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..100i64).map(|i| rec![i % 5, i]).collect());
        let red = b.reduce_by_key(
            src,
            KeyUdf::field(0).with_distinct_keys(5.0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        b.collect(red);
        // Optimizer-built plan so estimates exist and calibration engages.
        let result = ctx.execute(b.build().unwrap()).unwrap();
        (observe, result.stats.retries)
    };

    let (clean, clean_retries) = run(Arc::new(FailureInjector::none()));
    let (faulty, faulty_retries) = run(Arc::new(fail_atom_0(2)));
    assert_eq!(clean_retries, 0);
    assert_eq!(faulty_retries, 2);
    // Only the committed (successful) attempt feeds calibration: the same
    // operators were observed the same number of times either way.
    assert_eq!(
        faulty.calibration().total_samples(),
        clean.calibration().total_samples(),
        "failed attempts must not add calibration samples"
    );
    assert!(clean.calibration().total_samples() > 0);
}

// ---------------------------------------------------------------------------
// Property-based replay over random multi-platform plans
// ---------------------------------------------------------------------------

/// Unary pipeline steps (a subset of the platform-independence fuzzer's,
/// restricted to operators whose output is deterministic as a bag and
/// whose record counts don't depend on partitioning).
#[derive(Clone, Debug)]
enum Step {
    MapAdd(i64),
    FilterMod(i64),
    ReduceSum,
    UnionSelf,
}

fn apply_step(b: &mut PlanBuilder, input: rheem_core::NodeId, step: &Step) -> rheem_core::NodeId {
    match step {
        Step::MapAdd(c) => {
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
        Step::UnionSelf => b.union(input, input),
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-100i64..100).prop_map(Step::MapAdd),
        (1i64..9).prop_map(Step::FilterMod),
        Just(Step::ReduceSum),
        Just(Step::UnionSelf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// For random multi-platform plans, the optimizer picks the same plan
    /// in both contexts (fresh calibration each) and the two thread
    /// budgets replay to the same recorded work and counters.
    #[test]
    fn prop_replay_is_schedule_independent(
        seed in 0u64..500,
        len in 1usize..300,
        branches in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..3), 1..4),
    ) {
        let mut b = PlanBuilder::new();
        let data: Vec<Record> = (0..len as i64)
            .map(|i| rec![(i.wrapping_mul(seed as i64 + 7)).rem_euclid(83), 1i64])
            .collect();
        let src = b.collection("fuzz", data);
        for steps in &branches {
            let mut node = src;
            for step in steps {
                node = apply_step(&mut b, node, step);
            }
            b.collect(node);
        }
        let physical = b.build().unwrap();

        let run = |threads: usize| {
            let observe = Arc::new(Observability::new());
            let ctx = test_context()
                .with_kernel_parallelism(budget(threads))
                .with_observability(observe.clone());
            let exec = ctx.optimize(physical.clone()).unwrap();
            let result = ctx.execute_plan(&exec).unwrap();
            (
                exec.assignments.clone(),
                work(&result.stats),
                observe.metrics().snapshot().counters,
                wave_accounting(&result),
            )
        };
        let (seq_assign, seq_work, seq_counters, seq_waves) = run(1);
        let (par_assign, par_work, par_counters, par_waves) = run(4);
        prop_assert_eq!(seq_assign, par_assign);
        prop_assert_eq!(seq_work, par_work);
        prop_assert_eq!(seq_counters, par_counters);
        prop_assert_eq!(seq_waves, par_waves);
    }
}
