//! Multi-platform task execution (§2's second pillar): one task, several
//! engines, task atoms crossing platform boundaries — plus the executor's
//! §4.2 duties: monitoring, failure handling, and budget enforcement.

use std::sync::Arc;
use std::time::Duration;

use rheem::prelude::*;
use rheem::rec;
use rheem_core::{
    split_into_atoms, ChannelKind, ExecutionPlan, FailureInjector, JobResult, NodeId, RheemError,
};
use rheem_platforms::test_context;
use testkit::budget;

/// A plan the relational engine *cannot* run end to end (it has a loop),
/// while the loop-free prefix is cheap relational work. With a relational
/// engine that is much cheaper for scans/joins, the optimizer must split.
fn mixed_plan(n: i64) -> rheem_core::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let orders = b.collection(
        "orders",
        (0..n).map(|i| rec![i % 50, (i % 997) as f64]).collect(),
    );
    let agg = b.reduce_by_key(
        orders,
        KeyUdf::field(0).with_distinct_keys(50.0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.float(1).unwrap() + x.float(1).unwrap()]
        }),
    );
    // Iterative post-processing (no relational support).
    let mut body = PlanBuilder::new();
    let li = body.loop_input();
    body.map(
        li,
        MapUdf::new("decay", |r| {
            rec![r.int(0).unwrap(), r.float(1).unwrap() * 0.9]
        }),
    );
    let body = body.build_fragment().unwrap();
    let looped = b.repeat(agg, body, LoopCondUdf::fixed_iterations(5), 5);
    b.collect(looped);
    b.build().unwrap()
}

#[test]
fn optimizer_splits_plans_across_platforms_when_profitable() {
    // Force the situation by making movement free and the aggregation's
    // kernel heavy enough (100 ms) that an engine which spreads or discounts
    // it pays for its own startup, while the loop after it stays in process.
    let mut ctx = test_context();
    ctx.optimizer_mut().movement = rheem_core::MovementCostModel::free();
    let plan = mixed_plan(100_000);
    let reduce = plan
        .nodes()
        .iter()
        .find(|n| n.op.kernel() == "ReduceByKey")
        .unwrap();
    let key = rheem_core::KernelKey::of(&reduce.op);
    ctx.optimizer().calibration.observe(key, 100_050.0, 100.0);
    let exec = ctx.optimize(plan).unwrap();
    let platforms: std::collections::HashSet<&str> =
        exec.assignments.iter().map(String::as_str).collect();
    assert!(
        platforms.len() >= 2,
        "expected a mixed plan, got {:?}\n{}",
        platforms,
        exec.explain()
    );
    // The loop cannot be on the relational platform.
    let loop_node = exec
        .physical
        .nodes()
        .iter()
        .find(|nd| matches!(nd.op, rheem_core::PhysicalOp::Loop { .. }))
        .unwrap();
    assert_ne!(exec.assignments[loop_node.id.0], "relational");

    // And it runs correctly end to end.
    let result = ctx.execute_plan(&exec).unwrap();
    assert!(result.stats.platforms_used().len() >= 2);
    let out = result.outputs.values().next().unwrap();
    assert_eq!(out.len(), 50);
    // 0.9^5 decay applied to each aggregate.
    let first = out
        .iter()
        .find(|r| r.int(0).unwrap() == 0)
        .expect("key 0 present");
    let expected: f64 = (0..100_000i64)
        .filter(|i| i % 50 == 0)
        .map(|i| (i % 997) as f64)
        .sum::<f64>()
        * 0.9f64.powi(5);
    assert!((first.float(1).unwrap() - expected).abs() < 1e-6);
}

/// `n` rows through one map whose closure sleeps `nap` per row: a cost
/// that does not depend on the host's speed, since a sleep never runs short.
fn map_plan(n: i64, name: &'static str, nap: Duration) -> rheem_core::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("rows", (0..n).map(|i| rec![i]).collect());
    let mapped = b.map(
        src,
        MapUdf::new(name, move |r| {
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            rec![r.int(0).unwrap() + 1]
        }),
    );
    b.collect(mapped);
    b.build().unwrap()
}

#[test]
fn a_slow_closure_does_not_reprice_another_map() {
    // A cheap map over 200 000 rows stays in process; a map whose kernel
    // cost 100x more per row would move to the partitioned engine.
    let observe = Arc::new(rheem_core::Observability::new());
    let ctx = test_context()
        .with_observability(observe.clone())
        .force_platform("java");
    let free = test_context().with_observability(observe.clone());
    let cheap = || map_plan(200_000, "inc", Duration::ZERO);
    let before = free.optimize(cheap()).unwrap().assignments;
    assert!(!before.iter().any(|p| p == "sparklike"), "{before:?}");
    // A tenant's slow closure, observed in process, job after job: at least
    // 100 µs a row, so 50 µs a work unit (a row in, a row out), over 4x the
    // ≈ 11–12 µs a unit at which the 200 000-row map moves.
    for _ in 0..5 {
        ctx.execute(map_plan(2_000, "spin", Duration::from_micros(100)))
            .unwrap();
    }
    let spin = map_plan(1, "spin", Duration::ZERO);
    let spin_map = &spin.nodes()[1].op;
    let fitted = observe
        .calibration()
        .rate(rheem_core::KernelKey::of(spin_map));
    assert_eq!(fitted.samples, 5);
    let seeded = observe
        .calibration()
        .rate(rheem_core::KernelKey::new("Map", false));
    assert!(
        fitted.us(4_000.0) > 100.0 * seeded.us(4_000.0),
        "{fitted:?}"
    );
    let slow = free
        .optimize(map_plan(200_000, "spin", Duration::ZERO))
        .unwrap();
    assert_eq!(slow.assignments[1], "sparklike");
    // The cheap map is still priced at its own rate: same plan.
    assert_eq!(free.optimize(cheap()).unwrap().assignments, before);
}

#[test]
fn movement_costs_steer_the_optimizer_away_from_switching() {
    // With free movement the optimizer splits (previous test); with
    // punitive movement pricing it must consolidate.
    let mut ctx = test_context();
    ctx.optimizer_mut().movement = rheem_core::MovementCostModel::new(1e9, 1e9);
    let exec = ctx.optimize(mixed_plan(100_000)).unwrap();
    let platforms: std::collections::HashSet<&str> =
        exec.assignments.iter().map(String::as_str).collect();
    assert_eq!(
        platforms.len(),
        1,
        "punitive movement pricing must produce a single-platform plan:\n{}",
        exec.explain()
    );
}

#[test]
fn executor_retries_injected_failures_and_records_them() {
    let injector = Arc::new(FailureInjector::none());
    injector.fail_atom(0, 2);
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_failure_injector(injector)
        .with_max_retries(3);
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..10i64).map(|i| rec![i]).collect());
    b.collect(src);
    let result = ctx.execute(b.build().unwrap()).unwrap();
    assert_eq!(result.stats.retries, 2);
    assert_eq!(result.stats.atoms[0].attempts, 3);
    assert_eq!(result.outputs.values().next().unwrap().len(), 10);
}

#[test]
fn executor_gives_up_when_retries_are_exhausted() {
    let injector = Arc::new(FailureInjector::platform_down("java"));
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_failure_injector(injector)
        .with_max_retries(2);
    let mut b = PlanBuilder::new();
    let src = b.collection("s", vec![rec![1i64]]);
    b.collect(src);
    let err = ctx.execute(b.build().unwrap()).unwrap_err();
    assert!(matches!(err, RheemError::Execution { .. }), "{err}");
}

#[test]
fn job_timeout_is_enforced_between_atoms() {
    // Two atoms: force a platform switch by pinning... simpler: a plan with
    // a mapreduce-only section after a java section via unsupported op is
    // overkill; instead use a tiny timeout that trips before the first atom.
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_timeout(Duration::ZERO);
    let mut b = PlanBuilder::new();
    let src = b.collection("s", vec![rec![1i64]]);
    b.collect(src);
    // Duration::ZERO elapses immediately; the pre-atom check fires.
    std::thread::sleep(Duration::from_millis(2));
    let err = ctx.execute(b.build().unwrap()).unwrap_err();
    assert!(matches!(err, RheemError::BudgetExceeded(_)), "{err}");
}

#[test]
fn monitoring_reports_per_atom_accounting() {
    let ctx = test_context().force_platform("sparklike");
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..1000i64).map(|i| rec![i % 20, i]).collect());
    let red = b.reduce_by_key(
        src,
        KeyUdf::field(0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    b.collect(red);
    let result = ctx.execute(b.build().unwrap()).unwrap();
    assert_eq!(result.stats.atoms.len(), 1);
    let atom = &result.stats.atoms[0];
    assert_eq!(atom.platform, "sparklike");
    assert!(atom.records_out >= 1020); // source + aggregates + sink
    assert!(atom.simulated_overhead_ms > 0.0);
    assert!(atom.simulated_elapsed_ms >= atom.simulated_overhead_ms);
    assert!(result.stats.total_simulated_ms() >= atom.simulated_elapsed_ms);
}

#[test]
fn no_platform_for_operator_is_a_clean_error() {
    // Relational-only context cannot run a loop.
    let ctx = RheemContext::new().with_platform(Arc::new(
        RelationalPlatform::new().with_overheads(OverheadConfig::none()),
    ));
    let err = ctx.optimize(mixed_plan(100)).unwrap_err();
    assert!(matches!(err, RheemError::NoPlatformFor { .. }), "{err}");
}

#[test]
fn the_job_record_reports_the_lifecycle() {
    let observe = Arc::new(rheem_core::Observability::new());
    let injector = Arc::new(FailureInjector::none());
    injector.fail_atom(0, 1);
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_failure_injector(injector)
        .with_observability(observe.clone());
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..5i64).map(|i| rec![i]).collect());
    b.collect(src);
    let result = ctx.execute(b.build().unwrap()).unwrap();

    let stats = &result.stats;
    let atoms: Vec<(usize, &str, usize, u64)> = stats
        .atoms
        .iter()
        .map(|a| (a.atom_id, a.platform.as_str(), a.attempts, a.records_out))
        .collect();
    // One retry, then 5 source + 5 sink records.
    assert_eq!(atoms, vec![(0, "java", 2, 10)]);
    assert_eq!(stats.retries, 1);
    assert!(stats.failed_atom.is_none());
    // The job was reported once, when it ended.
    let m = observe.metrics();
    assert_eq!(m.counter_value("executor.jobs_completed"), 1);
    assert_eq!(m.counter_value("executor.atoms_completed"), 1);
    assert_eq!(m.counter_value("executor.atom_retries"), 1);
}

// ---------------------------------------------------------------------------
// Wave scheduling
// ---------------------------------------------------------------------------

/// A shared source fanning out to three branches hand-pinned to three
/// distinct platforms: four atoms, of which the three branch atoms are
/// mutually independent.
fn fanout_exec_plan() -> ExecutionPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..100i64).map(|i| rec![i % 10, i]).collect());
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

/// A java → mapreduce boundary whose route is Memory → File, so the
/// mapreduce consumer reads a File: the boundary is charged exactly the
/// optimizer's price for that route, once, as movement — and nothing for
/// it inside the mapreduce atom, whose overhead is its job setup and one
/// phase.
#[test]
fn a_file_boundary_is_charged_its_route_once_as_movement() {
    let n = 5_000usize;
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..n as i64).map(|i| rec![i % 10, i]).collect());
    let summed = b.reduce_by_key(
        src,
        KeyUdf::field(0).with_distinct_keys(10.0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    let sink = b.collect(summed);
    let physical = b.build().unwrap();
    let assignments: Vec<String> = ["java", "mapreduce", "mapreduce"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let atoms = split_into_atoms(&physical, &assignments);
    assert_eq!(atoms.len(), 2);
    let exec = ExecutionPlan {
        physical: Arc::new(physical),
        assignments,
        atoms,
        estimated_cost: 0.0,
        estimates: vec![],
        enumeration: Default::default(),
    };
    let ctx = test_context();
    let platform = |name: &str| {
        ctx.platforms()
            .all()
            .iter()
            .find(|p| p.name() == name)
            .unwrap()
            .clone()
    };
    let (java, mapreduce) = (platform("java"), platform("mapreduce"));
    let route =
        ctx.optimizer()
            .movement
            .route(java.clock().channels, mapreduce.clock().channels, n as f64);
    assert_eq!(route.path, vec![ChannelKind::Memory, ChannelKind::File]);

    let result = ctx.execute_plan(&exec).unwrap();
    assert_eq!(result.outputs[&sink].len(), 10);
    let atom = |name: &str| {
        result
            .stats
            .atoms
            .iter()
            .find(|a| a.platform == name)
            .unwrap()
    };
    assert_eq!(atom("java").movement_cost_ms, 0.0);
    assert!((atom("mapreduce").movement_cost_ms - route.total_ms()).abs() < 1e-9);
    assert!((result.stats.total_movement_ms - route.total_ms()).abs() < 1e-9);
    let clock = mapreduce.clock();
    assert_eq!(
        atom("mapreduce").simulated_overhead_ms,
        clock.startup_ms + clock.stage_ms,
        "the boundary adds nothing inside the mapreduce atom"
    );
}

fn sorted_outputs(result: &JobResult) -> Vec<(NodeId, Vec<Record>)> {
    let mut out: Vec<(NodeId, Vec<Record>)> = result
        .outputs
        .iter()
        .map(|(n, d)| (*n, d.records().to_vec()))
        .collect();
    out.sort_by_key(|(n, _)| *n);
    out
}

#[test]
fn independent_atoms_share_a_wave_and_match_sequential_output() {
    let exec = fanout_exec_plan();
    assert!(exec.atoms.len() >= 3, "{}", exec.explain());
    let platforms: std::collections::HashSet<&str> =
        exec.atoms.iter().map(|a| a.platform.as_str()).collect();
    assert!(
        platforms.len() >= 3,
        "want 3 distinct platforms: {platforms:?}"
    );

    let at = |threads| {
        test_context()
            .with_kernel_parallelism(budget(threads))
            .execute_plan(&exec)
            .unwrap()
    };
    let (parallel, sequential) = (at(4), at(1));

    // Fewer waves than atoms: the independent branch atoms overlapped.
    assert!(
        parallel.stats.waves < exec.atoms.len(),
        "waves {} !< atoms {}",
        parallel.stats.waves,
        exec.atoms.len()
    );
    // Wave accounting is budget-consistent: a budget of 1 walks the same
    // waves, one atom at a time.
    assert_eq!(sequential.stats.waves, parallel.stats.waves);
    // The java atom (source + reduce branch) is wave 0; the two atoms
    // that consume the source across a boundary run together in wave 1 —
    // at both budgets.
    for run in [&parallel, &sequential] {
        let wave_of: std::collections::HashMap<usize, usize> = run
            .stats
            .atoms
            .iter()
            .map(|a| (a.atom_id, a.wave))
            .collect();
        for atom in &exec.atoms {
            let expected = if atom.inputs.is_empty() { 0 } else { 1 };
            assert_eq!(wave_of[&atom.id], expected, "atom {}", atom.id);
        }
    }

    // Identical sink outputs at both budgets.
    assert_eq!(sorted_outputs(&parallel), sorted_outputs(&sequential));
}

#[test]
fn multi_failure_waves_report_the_lowest_id_failing_atom_at_both_budgets() {
    // Both branch atoms of wave 1 fail deterministically on every attempt
    // (both platforms down, no retries), so regardless of wave width the
    // executor must surface the *lowest-id* failing atom's error. This
    // pins the contract documented on `run_wave`.
    let exec = fanout_exec_plan();
    let failing: Vec<&rheem_core::TaskAtom> =
        exec.atoms.iter().filter(|a| a.platform != "java").collect();
    assert!(failing.len() >= 2, "want a multi-atom failing wave");
    let lowest = failing.iter().map(|a| a.id).min().unwrap();

    let run = |threads: usize| {
        let injector = Arc::new(FailureInjector::platform_down("sparklike"));
        injector.set_down("mapreduce");
        test_context()
            .with_kernel_parallelism(budget(threads))
            .with_max_retries(0)
            .with_failure_injector(injector)
            .execute_plan(&exec)
            .unwrap_err()
    };
    for threads in [1, 4] {
        let err = run(threads);
        match &err {
            RheemError::Execution { message, .. } => assert!(
                message.contains(&format!("atom {lowest}")),
                "budget {threads}: expected failure of atom {lowest}, got: {message}"
            ),
            other => panic!("budget {threads}: unexpected error {other}"),
        }
    }
}

#[test]
fn execution_stats_are_deterministic_under_concurrency() {
    let exec = fanout_exec_plan();
    let runs: Vec<_> = (0..5)
        .map(|_| {
            test_context()
                .with_kernel_parallelism(budget(4))
                .execute_plan(&exec)
                .unwrap()
                .stats
        })
        .collect();
    let reference: Vec<(usize, usize, String)> = runs[0]
        .atoms
        .iter()
        .map(|a| (a.atom_id, a.wave, a.platform.clone()))
        .collect();
    for stats in &runs {
        let got: Vec<(usize, usize, String)> = stats
            .atoms
            .iter()
            .map(|a| (a.atom_id, a.wave, a.platform.clone()))
            .collect();
        assert_eq!(got, reference);
        assert_eq!(stats.waves, runs[0].waves);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.total_movement_ms, runs[0].total_movement_ms);
        // The report renders the wave column.
        assert!(stats.explain().contains("wave"));
    }
}

#[test]
fn malformed_execution_plans_error_instead_of_panicking() {
    // A boundary edge pointing outside the physical plan used to panic in
    // the executor's input gathering (`assignments[edge.producer.0]`).
    let mut exec = fanout_exec_plan();
    let victim = exec
        .atoms
        .iter()
        .position(|a| !a.inputs.is_empty())
        .expect("fan-out plan has boundary edges");
    exec.atoms[victim].inputs[0].producer = NodeId(999);
    let err = test_context().execute_plan(&exec).unwrap_err();
    assert!(matches!(err, RheemError::InvalidPlan(_)), "{err}");

    // Same for an assignments vector that no longer covers the boundary
    // producers (node 0 is the only cross-atom producer here).
    let mut exec = fanout_exec_plan();
    exec.assignments.clear();
    let err = test_context().execute_plan(&exec).unwrap_err();
    assert!(matches!(err, RheemError::InvalidPlan(_)), "{err}");

    // A budget of 1 takes the same validation path.
    let mut exec = fanout_exec_plan();
    exec.assignments.clear();
    let err = test_context()
        .with_kernel_parallelism(budget(1))
        .execute_plan(&exec)
        .unwrap_err();
    assert!(matches!(err, RheemError::InvalidPlan(_)), "{err}");
}

#[test]
fn timeout_budget_bounds_retry_storms() {
    // Endless injected failures with a huge retry budget: the deadline is
    // checked inside the retry loop, so the job still terminates with
    // BudgetExceeded instead of burning through a billion retries.
    let injector = Arc::new(FailureInjector::platform_down("java"));
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_failure_injector(injector)
        .with_max_retries(usize::MAX - 1)
        .with_timeout(Duration::from_millis(50));
    let mut b = PlanBuilder::new();
    let src = b.collection("s", vec![rec![1i64]]);
    b.collect(src);
    let started = std::time::Instant::now();
    let err = ctx.execute(b.build().unwrap()).unwrap_err();
    assert!(matches!(err, RheemError::BudgetExceeded(_)), "{err}");
    assert!(started.elapsed() < Duration::from_secs(10));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 8,
        ..proptest::prelude::ProptestConfig::default()
    })]

    /// Parallel wave scheduling must be a pure performance change: for
    /// random multi-platform plans, the sink outputs are identical to the
    /// sequential executor's.
    #[test]
    fn parallel_and_sequential_schedules_agree(
        shape in 0u8..3,
        n in 1i64..200,
        modulus in 1i64..12,
    ) {
        let build = |sh: u8| -> rheem_core::PhysicalPlan {
            match sh {
                0 => {
                    // Shared source fanning out to two sinks.
                    let mut b = PlanBuilder::new();
                    let src = b.collection(
                        "s",
                        (0..n).map(|i| rec![i % modulus, i]).collect(),
                    );
                    let agg = b.reduce_by_key(
                        src,
                        KeyUdf::field(0).with_distinct_keys(modulus as f64),
                        ReduceUdf::new("sum", |a, x| {
                            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
                        }),
                    );
                    b.collect(agg);
                    let odd = b.filter(
                        src,
                        FilterUdf::new("odd", |r| r.int(1).unwrap() % 2 == 1),
                    );
                    b.collect(odd);
                    b.build().unwrap()
                }
                1 => mixed_plan(n.max(10)),
                _ => {
                    // Two sources joined on a shared key space.
                    let mut b = PlanBuilder::new();
                    let l = b.collection(
                        "l",
                        (0..n).map(|i| rec![i % modulus, i]).collect(),
                    );
                    let r = b.collection(
                        "r",
                        (0..n / 2 + 1).map(|i| rec![i % modulus, -i]).collect(),
                    );
                    let j = b.hash_join(l, r, KeyUdf::field(0), KeyUdf::field(0));
                    b.collect(j);
                    b.build().unwrap()
                }
            }
        };

        let mut ctx = test_context();
        ctx.optimizer_mut().movement = rheem_core::MovementCostModel::free();
        let exec = ctx.optimize(build(shape)).unwrap();

        let at = |threads| {
            test_context()
                .with_kernel_parallelism(budget(threads))
                .execute_plan(&exec)
                .unwrap()
        };
        let (parallel, sequential) = (at(4), at(1));

        proptest::prop_assert_eq!(sorted_outputs(&parallel), sorted_outputs(&sequential));
        proptest::prop_assert_eq!(parallel.stats.atoms.len(), sequential.stats.atoms.len());
        // Budget-consistent wave accounting: both budgets report the same
        // wave structure (a budget of 1 just runs one atom at a time).
        proptest::prop_assert_eq!(parallel.stats.waves, sequential.stats.waves);
        for (p, s) in parallel.stats.atoms.iter().zip(&sequential.stats.atoms) {
            proptest::prop_assert_eq!(p.atom_id, s.atom_id);
            proptest::prop_assert_eq!(p.wave, s.wave);
        }
    }
}
