//! Fault tolerance end to end (§4.2 duty iii, DESIGN.md §9): classified
//! retries with seeded backoff, per-platform circuit breakers, and
//! failover re-planning around injected platform outages.
//!
//! The headline contract: as long as at least one registered platform can
//! run every pending operator (the java platform supports everything), a
//! job survives any combination of injected outages with outputs
//! *identical* to a fault-free run — at thread budgets 1 and 4.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rheem::prelude::*;
use rheem::rec;
use rheem_core::optimizer::enumerate::split_into_atoms;
use rheem_core::{
    BackoffPolicy, BreakerPolicy, ExecutionPlan, FailureInjector, FaultPolicy, InjectedKind,
    JobResult, MetricsRegistry, NodeId, Observability, RheemError, VirtualSleeper,
};
use rheem_platforms::test_context;
use testkit::budget;

/// The test context under a thread budget of `threads`: that many atoms
/// of a wave at once (1 = one at a time, inline).
fn test_context_at(threads: usize) -> RheemContext {
    test_context().with_kernel_parallelism(budget(threads))
}

/// A shared source fanning out to three hand-pinned branches across three
/// platforms: the java atom (source + reduce branch) is wave 0, the
/// sparklike map branch and mapreduce filter branch form wave 1.
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

/// A one-atom plan on the java platform (atom id 0).
fn tiny_plan() -> rheem_core::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..8i64).map(|i| rec![i]).collect());
    b.collect(src);
    b.build().unwrap()
}

/// Outputs in canonical form: keyed by node id, records sorted within each
/// output. Grouping operators emit bags whose record order depends on the
/// platform's partitioning (sparklike hash-partitions by key, java keeps
/// first-appearance order), so a failover that moves a reduce across
/// platforms legitimately permutes — but never changes — the bag.
fn sorted_outputs(result: &JobResult) -> Vec<(NodeId, Vec<Record>)> {
    let mut out: Vec<(NodeId, Vec<Record>)> = result
        .outputs
        .iter()
        .map(|(n, d)| {
            let mut records = d.records().to_vec();
            records.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            (*n, records)
        })
        .collect();
    out.sort_by_key(|(n, _)| *n);
    out
}

/// The fault counters a job moves, read from `metrics`.
fn fault_counters(metrics: &MetricsRegistry) -> [u64; 4] {
    [
        "executor.atom_retries",
        "executor.atom_failures",
        "executor.retries_suppressed",
        "executor.failovers",
    ]
    .map(|name| metrics.counter_value(name))
}

// ---------------------------------------------------------------------------
// Failover re-planning
// ---------------------------------------------------------------------------

#[test]
fn downed_platform_fails_over_and_preserves_outputs_at_both_budgets() {
    let exec = fanout_exec_plan();
    let baseline = test_context().execute_plan(&exec).unwrap();

    for threads in [1, 4] {
        let injector = Arc::new(FailureInjector::platform_down("sparklike"));
        let observe = Arc::new(Observability::new());
        let ctx = test_context_at(threads)
            .with_max_retries(1)
            .with_fault_policy(FaultPolicy::instant())
            .with_failure_injector(injector)
            .with_observability(observe.clone());
        let result = ctx.execute_plan(&exec).unwrap();

        assert_eq!(result.stats.failovers.len(), 1, "budget {threads}");
        assert_eq!(
            sorted_outputs(&result),
            sorted_outputs(&baseline),
            "budget {threads}: failover must not change outputs"
        );
        // Committed atoms are never re-planned: every reported atom ran
        // exactly once, and nothing committed on the failed platform.
        let mut ids: Vec<usize> = result.stats.atoms.iter().map(|a| a.atom_id).collect();
        ids.sort_unstable();
        let mut deduped = ids.clone();
        deduped.dedup();
        assert_eq!(ids, deduped, "budget {threads}: an atom committed twice");
        assert!(result.stats.atoms.iter().all(|a| a.platform != "sparklike"));
        let wave0 = result.stats.atoms.iter().find(|a| a.atom_id == 0).unwrap();
        assert_eq!((wave0.wave, wave0.platform.as_str()), (0, "java"));

        let effective = result
            .effective_plan
            .expect("failover yields an effective plan");
        assert!(effective.atoms.iter().all(|a| a.platform != "sparklike"));

        let event = &result.stats.failovers[0];
        assert_eq!(event.failed_atom.platform, "sparklike");
        assert!(event.excluded.contains(&"sparklike".to_string()));
        assert!(event.new_atoms >= 1);

        // The abandoned platform's breaker is forced open.
        assert!(ctx.platform_health().unwrap().is_open("sparklike"));
        assert_eq!(observe.metrics().counter_value("executor.failovers"), 1);
        assert!(
            exec.explain_observed(&result.stats).contains("1 failovers"),
            "explain_observed must surface the failover"
        );
    }
}

/// The failed-over atom's retry is in the record, and the record and the
/// counters say the same: 1 retry, 2 failed attempts, 1 failover.
#[test]
fn a_failed_over_job_records_the_retries_of_the_atom_that_gave_up() {
    let exec = fanout_exec_plan();
    for threads in [1, 4] {
        let observe = Arc::new(Observability::new());
        let ctx = test_context_at(threads)
            .with_max_retries(1)
            .with_fault_policy(FaultPolicy::instant())
            .with_failure_injector(Arc::new(FailureInjector::platform_down("sparklike")))
            .with_observability(observe.clone());
        let result = ctx.execute_plan(&exec).unwrap();

        let stats = &result.stats;
        assert_eq!(stats.retries, 1, "budget {threads}");
        let failed = &stats.failovers[0].failed_atom;
        assert_eq!(
            (
                failed.platform.as_str(),
                failed.attempts,
                failed.suppressed_retries
            ),
            ("sparklike", 2, 0),
            "budget {threads}"
        );
        assert_eq!(
            fault_counters(observe.metrics()),
            [1, 2, 0, 1],
            "budget {threads}"
        );
        assert!(
            exec.explain_observed(stats)
                .contains("fault: 1 retries, 0 replans, 1 failovers"),
            "budget {threads}: {}",
            exec.explain_observed(stats)
        );
    }
}

#[test]
fn jobs_fail_cleanly_when_every_alternative_is_down() {
    // Both non-java platforms are down AND the java platform is down:
    // no surviving mapping for the pending suffix, so the job must fail
    // with the original execution error instead of looping.
    let injector = Arc::new(FailureInjector::platform_down("sparklike"));
    injector.set_down("mapreduce");
    injector.set_down("java");
    injector.set_down("relational");
    let ctx = test_context()
        .with_max_retries(1)
        .with_fault_policy(FaultPolicy::instant())
        .with_failure_injector(injector);
    let err = ctx.execute_plan(&fanout_exec_plan()).unwrap_err();
    assert!(matches!(err, RheemError::Execution { .. }), "{err}");
}

#[test]
fn expired_deadlines_are_not_failover_eligible() {
    let injector = Arc::new(FailureInjector::platform_down("sparklike"));
    let ctx = test_context()
        .with_timeout(Duration::ZERO)
        .with_fault_policy(FaultPolicy::instant())
        .with_failure_injector(injector);
    std::thread::sleep(Duration::from_millis(2));
    let err = ctx.execute_plan(&fanout_exec_plan()).unwrap_err();
    assert!(matches!(err, RheemError::BudgetExceeded(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Error taxonomy: permanent errors fail fast
// ---------------------------------------------------------------------------

#[test]
fn permanent_errors_fail_fast_with_exactly_one_attempt() {
    let injector = Arc::new(FailureInjector::none());
    injector.fail_atom_with(0, usize::MAX, InjectedKind::Permanent);
    let observe = Arc::new(Observability::new());
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_max_retries(5)
        .with_fault_policy(FaultPolicy::instant())
        .with_failure_injector(injector)
        .with_observability(observe.clone());
    let err = ctx.execute(tiny_plan()).unwrap_err();

    assert!(matches!(err, RheemError::InvalidPlan(_)), "{err}");
    assert!(!err.is_retryable());
    // One failed attempt, no retry burned, the whole unused budget
    // suppressed, and no failover: permanent errors are not eligible.
    assert_eq!(fault_counters(observe.metrics()), [0, 1, 5, 0]);
    assert_eq!(observe.metrics().counter_value("executor.jobs_failed"), 1);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

#[test]
fn breaker_opens_after_consecutive_failures_and_fails_fast_across_jobs() {
    let injector = Arc::new(FailureInjector::platform_down("java"));
    let observe = Arc::new(Observability::new());
    let policy = FaultPolicy {
        breaker: BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_secs(3600),
        },
        failover: false,
        ..FaultPolicy::instant()
    };
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_max_retries(10)
        .with_fault_policy(policy)
        .with_failure_injector(injector)
        .with_observability(observe.clone());

    let err = ctx.execute(tiny_plan()).unwrap_err();
    assert!(matches!(err, RheemError::Execution { .. }), "{err}");
    // The third consecutive failure opened the breaker and cut the retry
    // loop short: 2 transient retries spent, 3 failed attempts, the
    // remaining 8 retries suppressed.
    assert_eq!(fault_counters(observe.metrics()), [2, 3, 8, 0]);
    assert!(ctx.platform_health().unwrap().is_open("java"));

    // The next job is rejected at the gate without any attempt: the
    // rejection is its one failure, and its whole budget is suppressed.
    let err = ctx.execute(tiny_plan()).unwrap_err();
    assert!(
        matches!(err, RheemError::PlatformUnavailable { .. }),
        "{err}"
    );
    assert_eq!(err.platform(), Some("java"));
    assert_eq!(fault_counters(observe.metrics()), [2, 4, 18, 0]);
    assert_eq!(observe.metrics().counter_value("executor.jobs_failed"), 2);
}

#[test]
fn half_open_probe_recovers_a_restored_platform() {
    let injector = Arc::new(FailureInjector::platform_down("java"));
    let policy = FaultPolicy {
        breaker: BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        },
        failover: false,
        ..FaultPolicy::instant()
    };
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_max_retries(3)
        .with_fault_policy(policy)
        .with_failure_injector(injector.clone());

    let err = ctx.execute(tiny_plan()).unwrap_err();
    assert!(matches!(err, RheemError::Execution { .. }), "{err}");
    assert!(ctx.platform_health().unwrap().is_open("java"));

    // The platform comes back; zero cooldown admits the half-open probe
    // immediately, and its success closes the breaker.
    injector.restore("java");
    let result = ctx.execute(tiny_plan()).unwrap();
    assert!(!ctx.platform_health().unwrap().is_open("java"));
    assert_eq!(result.stats.atoms[0].attempts, 1);
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

#[test]
fn retry_backoff_is_seeded_exponential_on_the_virtual_clock() {
    let injector = Arc::new(FailureInjector::none());
    injector.fail_atom(0, 3);
    let sleeper = Arc::new(VirtualSleeper::new());
    let backoff = BackoffPolicy::default().with_seed(99);
    let policy = FaultPolicy {
        backoff,
        breaker: BreakerPolicy {
            failure_threshold: 100,
            cooldown: Duration::ZERO,
        },
        failover: false,
        ..FaultPolicy::instant()
    };
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_max_retries(5)
        .with_fault_policy(policy)
        .with_sleeper(sleeper.clone())
        .with_failure_injector(injector);
    let result = ctx.execute(tiny_plan()).unwrap();

    assert_eq!(result.stats.retries, 3);
    // The executor slept exactly the policy's deterministic delays — on
    // the virtual clock, so the test itself never blocks.
    let expected: Vec<Duration> = (1..=3).map(|k| backoff.delay(0, k)).collect();
    assert_eq!(sleeper.naps(), expected);
    assert!(expected.iter().all(|d| *d > Duration::ZERO));
}

// ---------------------------------------------------------------------------
// Schedule independence
// ---------------------------------------------------------------------------

#[test]
fn probabilistic_injection_yields_identical_runs_at_both_budgets() {
    let exec = fanout_exec_plan();
    let run = |threads: usize| {
        let injector = Arc::new(FailureInjector::none());
        injector.probabilistic("sparklike", 0.7, 11);
        injector.probabilistic("mapreduce", 0.7, 12);
        // No breaker interference, no failover: pure retry behavior,
        // which must be a function of (platform, atom id, attempt) only.
        let policy = FaultPolicy {
            breaker: BreakerPolicy {
                failure_threshold: 1000,
                cooldown: Duration::ZERO,
            },
            failover: false,
            ..FaultPolicy::instant()
        };
        test_context_at(threads)
            .with_max_retries(20)
            .with_fault_policy(policy)
            .with_failure_injector(injector)
            .execute_plan(&exec)
            .unwrap()
    };
    let seq = run(1);
    let par = run(4);

    assert_eq!(seq.stats.retries, par.stats.retries);
    assert!(
        seq.stats.retries > 0,
        "chaos at p=0.7 must hit at least once"
    );
    let attempts = |r: &JobResult| {
        let mut v: Vec<(usize, usize)> = r
            .stats
            .atoms
            .iter()
            .map(|a| (a.atom_id, a.attempts))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(attempts(&seq), attempts(&par));
    assert_eq!(sorted_outputs(&seq), sorted_outputs(&par));
}

// ---------------------------------------------------------------------------
// Property: random plans + random outages never change outputs
// ---------------------------------------------------------------------------

/// A random plan of one of three shapes. With `poison`, the filter of
/// shape 0 and the map of shape 2 panic on the record whose value is
/// `poison` (the join of shape 1 has no closure to poison).
fn prop_plan(shape: u8, n: i64, modulus: i64, poison: Option<i64>) -> rheem_core::PhysicalPlan {
    let check = move |v: i64| assert_ne!(Some(v), poison, "poisoned udf");
    match shape % 3 {
        0 => {
            // Shared source fanning out into an aggregate and a filter.
            let mut b = PlanBuilder::new();
            let src = b.collection("s", (0..n).map(|i| rec![i % modulus, i]).collect());
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
                FilterUdf::new("odd", move |r| {
                    check(r.int(1).unwrap());
                    r.int(1).unwrap() % 2 == 1
                }),
            );
            b.collect(odd);
            b.build().unwrap()
        }
        1 => {
            // Two sources joined on a shared key space.
            let mut b = PlanBuilder::new();
            let l = b.collection("l", (0..n).map(|i| rec![i % modulus, i]).collect());
            let r = b.collection("r", (0..n / 2 + 1).map(|i| rec![i % modulus, -i]).collect());
            let j = b.hash_join(l, r, KeyUdf::field(0), KeyUdf::field(0));
            b.collect(j);
            b.build().unwrap()
        }
        _ => {
            // A map → aggregate chain.
            let mut b = PlanBuilder::new();
            let src = b.collection("s", (0..n).map(|i| rec![i % modulus, i]).collect());
            let mapped = b.map(
                src,
                MapUdf::new("x2", move |r| {
                    check(r.int(1).unwrap());
                    rec![r.int(0).unwrap(), r.int(1).unwrap() * 2]
                }),
            );
            let agg = b.reduce_by_key(
                mapped,
                KeyUdf::field(0).with_distinct_keys(modulus as f64),
                ReduceUdf::new("max", |a, x| {
                    rec![a.int(0).unwrap(), a.int(1).unwrap().max(x.int(1).unwrap())]
                }),
            );
            b.collect(agg);
            b.build().unwrap()
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 6,
        ..proptest::prelude::ProptestConfig::default()
    })]

    /// Whenever at least one platform mapping per operator survives the
    /// injected outage (the java platform is never downed and supports
    /// every operator), a faulty run's outputs are identical to the
    /// fault-free run — at both thread budgets.
    #[test]
    fn injected_outages_never_change_outputs(
        shape in 0u8..3,
        n in 1i64..150,
        modulus in 1i64..10,
        downed_idx in 0usize..3,
        with_chaos in proptest::strategy::Just(true),
        seed in 0u64..1_000,
    ) {
        let plan = prop_plan(shape, n, modulus, None);
        let mut opt_ctx = test_context();
        opt_ctx.optimizer_mut().movement = rheem_core::cost::MovementCostModel::free();
        let exec = opt_ctx.optimize(plan).unwrap();
        let baseline = test_context().execute_plan(&exec).unwrap();

        // One non-java platform goes fully down; another (also non-java)
        // misbehaves probabilistically. Java always survives.
        let downed = ["sparklike", "mapreduce", "relational"][downed_idx];
        let chaotic = ["mapreduce", "relational", "sparklike"][downed_idx];

        for threads in [1, 4] {
            let injector = Arc::new(FailureInjector::platform_down(downed));
            if with_chaos {
                injector.probabilistic(chaotic, 0.3, seed);
            }
            let ctx = test_context_at(threads)
                .with_max_retries(2)
                .with_fault_policy(FaultPolicy {
                    max_failovers: 4,
                    ..FaultPolicy::instant()
                })
                .with_failure_injector(injector);
            let result = ctx.execute_plan(&exec);
            proptest::prop_assert!(
                result.is_ok(),
                "budget {} with {} down must fail over, got {:?}",
                threads,
                downed,
                result.err()
            );
            proptest::prop_assert_eq!(
                sorted_outputs(&result.unwrap()),
                sorted_outputs(&baseline)
            );
        }
    }
}

/// Every counter of `metrics` and the atom histogram's count.
fn counters(metrics: &MetricsRegistry) -> BTreeMap<String, u64> {
    let snapshot = metrics.snapshot();
    let atoms = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name == "executor.atom_simulated_us")
        .map(|(name, h)| (format!("{name}.count"), h.count));
    snapshot.counters.into_iter().chain(atoms).collect()
}

/// One job under `ctx`, checked against its record: on success the job,
/// atom, retry, re-plan and failover counts match it; on failure (whose partial
/// record only the hub sees) the job is counted failed, every failed
/// attempt but the retried ones is an atom that gave up — one per failover
/// plus the one that failed the job — and a panic is counted as such.
/// Returns the deltas that do not depend on the thread budget.
fn checked_job(
    ctx: &RheemContext,
    observe: &Observability,
    exec: &ExecutionPlan,
) -> std::result::Result<BTreeMap<String, u64>, proptest::test_runner::TestCaseError> {
    let before = counters(observe.metrics());
    let result = ctx.execute_plan(exec);
    let delta: BTreeMap<String, u64> = counters(observe.metrics())
        .into_iter()
        .map(|(name, v)| (name.clone(), v - before.get(&name).copied().unwrap_or(0)))
        .collect();
    let get = |name: &str| delta.get(name).copied().unwrap_or(0);
    match &result {
        Ok(result) => {
            let stats = &result.stats;
            let jobs = (
                get("executor.jobs_completed"),
                get("executor.jobs_failed"),
                get("executor.cancelled"),
            );
            proptest::prop_assert_eq!(jobs, (1, 0, 0));
            proptest::prop_assert_eq!(get("executor.atoms_completed"), stats.atoms.len() as u64);
            proptest::prop_assert_eq!(
                get("executor.atom_simulated_us.count"),
                stats.atoms.len() as u64
            );
            proptest::prop_assert_eq!(get("executor.atom_retries"), stats.retries as u64);
            proptest::prop_assert_eq!(get("executor.failovers"), stats.failovers.len() as u64);
            proptest::prop_assert_eq!(get("optimizer.replans"), stats.replans.len() as u64);
            // A job that succeeded gave up on an atom only to fail over.
            proptest::prop_assert_eq!(
                get("executor.atom_failures") - get("executor.atom_retries"),
                stats.failovers.len() as u64
            );
        }
        Err(err) => {
            proptest::prop_assert!(
                (get("executor.jobs_failed"), get("executor.jobs_completed")) == (1, 0),
                "{}",
                err
            );
            proptest::prop_assert!(
                get("executor.atom_failures") - get("executor.atom_retries")
                    == get("executor.failovers") + 1,
                "{}: {:?}",
                err,
                delta
            );
            proptest::prop_assert_eq!(
                get("executor.retries_transient"),
                get("executor.atom_retries")
            );
            proptest::prop_assert_eq!(
                get("executor.panics_caught"),
                matches!(err, RheemError::Panic { .. }) as u64
            );
        }
    }
    // Kernel morsel counts follow the thread budget; nothing else may.
    Ok(delta
        .into_iter()
        .filter(|(name, _)| !name.starts_with("kernel.parallel."))
        .collect())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 6,
        ..proptest::prelude::ProptestConfig::default()
    })]

    /// Random plans under one injected fault each — a transient outage of
    /// one atom (recovered by retries, or past them by failover) plus
    /// transient chaos on a non-java platform, a permanent error, or a
    /// panicking UDF — run twice per context: the counters a job moves
    /// agree with that job's record, and are the same at thread budgets 1
    /// and 4.
    #[test]
    fn counters_are_folded_from_the_job_record(
        shape in 0u8..3,
        n in 1i64..120,
        modulus in 1i64..10,
        fault in 0u8..3,
        target in 0usize..4,
        failed_attempts in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let poison = (fault == 2).then_some(seed as i64 % n);
        let plan = prop_plan(shape, n, modulus, poison);
        let exec = test_context().optimize(plan).unwrap();
        let target = exec.atoms[target % exec.atoms.len()].id;

        let mut per_budget = Vec::new();
        for threads in [1, 4] {
            let injector = Arc::new(FailureInjector::none());
            match fault {
                0 => {
                    injector.fail_atom(target, failed_attempts);
                    injector.probabilistic(["sparklike", "mapreduce"][target % 2], 0.3, seed);
                }
                1 => injector.fail_atom_with(target, usize::MAX, InjectedKind::Permanent),
                _ => {}
            }
            let observe = Arc::new(Observability::new());
            // No breaker opens on its own count, so which platforms a
            // failover excludes never depends on the order atoms failed.
            let ctx = test_context_at(threads)
                .with_max_retries(2)
                .with_fault_policy(FaultPolicy {
                    breaker: BreakerPolicy {
                        failure_threshold: 1_000,
                        cooldown: Duration::ZERO,
                    },
                    max_failovers: 4,
                    ..FaultPolicy::instant()
                })
                .with_failure_injector(injector)
                .with_observability(observe.clone());
            let jobs = [
                checked_job(&ctx, &observe, &exec)?,
                checked_job(&ctx, &observe, &exec)?,
            ];
            per_budget.push(jobs);
        }
        proptest::prop_assert_eq!(&per_budget[0], &per_budget[1]);
    }
}

// ---------------------------------------------------------------------------
// Golden snapshot of a failover re-plan
// ---------------------------------------------------------------------------

/// Compare `actual` against `tests/golden/<name>`; rewrite the file
/// instead when the `BLESS` environment variable is set.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS=1 cargo test --test fault_tolerance",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{} drifted; if the change is intentional, regenerate with \
         BLESS=1 cargo test --test fault_tolerance",
        path.display()
    );
}

#[test]
fn golden_failover_explain() {
    // A budget of 1 keeps the commit order fully deterministic, so the
    // failover event and the effective plan can be pinned byte-for-byte.
    let exec = fanout_exec_plan();
    let injector = Arc::new(FailureInjector::platform_down("sparklike"));
    let ctx = test_context_at(1)
        .with_max_retries(1)
        .with_fault_policy(FaultPolicy::instant())
        .with_failure_injector(injector);
    let result = ctx.execute_plan(&exec).unwrap();
    assert_eq!(result.stats.failovers.len(), 1);

    let mut snapshot = String::new();
    for (index, ev) in result.stats.failovers.iter().enumerate() {
        snapshot.push_str(&format!(
            "failover {}: atom {} on {} excluded [{}] replaced {} pending atoms with {}\n",
            index,
            ev.failed_atom.atom_id,
            ev.failed_atom.platform,
            ev.excluded.join(", "),
            ev.replaced_atoms,
            ev.new_atoms,
        ));
    }
    snapshot.push('\n');
    let effective = result
        .effective_plan
        .expect("failover yields an effective plan");
    snapshot.push_str(&effective.explain());
    assert_golden("explain_failover.txt", &snapshot);
}

// ---------------------------------------------------------------------------
// Cancellation at the final-wave boundary
// ---------------------------------------------------------------------------

/// A cancel that fires in the gap *after* the final wave — e.g. a
/// tenant-wide cancel racing job completion, after every earlier
/// checkpoint has already passed — must surface as `Cancelled`, not be
/// committed as a successful result (REVIEW: the executor re-checks the
/// token one last time before constructing the `JobResult`).
#[test]
fn cancel_after_the_final_wave_is_not_committed_as_success() {
    use rheem_core::{CancelReason, CancelToken, WaveGate};

    struct CancelAfterWave(CancelToken);
    impl WaveGate for CancelAfterWave {
        fn before_wave(&self, _wave_index: usize, _atoms: usize) {}
        fn after_wave(&self, _wave_index: usize) {
            self.0.cancel(CancelReason::Explicit);
        }
    }

    let token = CancelToken::new();
    let ctx = test_context()
        .with_cancel_token(token.clone())
        .with_wave_gate(Arc::new(CancelAfterWave(token)));
    let err = ctx.execute(tiny_plan()).unwrap_err();
    assert!(matches!(err, RheemError::Cancelled { .. }), "{err:?}");
}
