//! Adaptive mid-job re-optimization, end to end (§4.2's "monitoring the
//! progress of plan execution" taken to its conclusion: acting on what the
//! monitor sees).
//!
//! The contract under test: enabling a [`ReplanPolicy`] never changes a
//! job's *outputs* — it may only change which platforms run the unexecuted
//! suffix — and every re-plan is observable (a `ReplanEvent` in the job's
//! `replans` record, the `optimizer.replans` counter) and bounded (by
//! `max_replans` and by the job deadline).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem::rec;
use rheem_core::optimizer::enumerate::split_into_atoms;
use rheem_core::plan::NodeId;
use rheem_core::{ExecutionPlan, JobResult, NodeEstimate, Observability, ReplanPolicy};
use rheem_platforms::test_context;
use testkit::work;

/// A two-atom plan whose estimates claim the source yields `declared`
/// records while it actually yields `actual` — the mis-estimation that
/// should trip the drift detector at the wave boundary. The source atom is
/// hand-pinned to `src_platform`, the suffix (map + sink) to
/// `suffix_platform`.
fn misestimated_exec_plan(
    actual: i64,
    declared: f64,
    src_platform: &str,
    suffix_platform: &str,
) -> ExecutionPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..actual).map(|i| rec![i % 7, i]).collect());
    let mapped = b.map(
        src,
        MapUdf::new("x2", |r| rec![r.int(0).unwrap(), r.int(1).unwrap() * 2]),
    );
    b.collect(mapped);
    let physical = b.build().unwrap();
    let assignments: Vec<String> = vec![
        src_platform.into(),
        suffix_platform.into(),
        suffix_platform.into(),
    ];
    let atoms = split_into_atoms(&physical, &assignments);
    assert_eq!(atoms.len(), 2, "want a boundary between source and suffix");
    let estimates = (0..physical.len())
        .map(|_| NodeEstimate {
            cost_ms: declared * 1e-4,
            card: declared,
        })
        .collect();
    ExecutionPlan {
        physical: Arc::new(physical),
        assignments,
        atoms,
        estimated_cost: 0.0,
        estimates,
        enumeration: Default::default(),
    }
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

/// Java plus a sparklike engine whose 25 ms job startup makes it a poor
/// home for a hundred records.
fn java_and_a_costly_cluster() -> RheemContext {
    RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(4).with_overheads(
            OverheadConfig::accounted_only(Duration::from_millis(25), Duration::from_millis(2)),
        )))
}

#[test]
fn drift_triggers_a_replan_that_flips_the_suffix_platform() {
    // Estimates claim 1M records; the source actually yields 100. At 1M
    // the hand-pinned sparklike suffix looks reasonable; at 100 the
    // re-enumeration must bring the suffix home to java (no cluster
    // startup overhead) — without changing the output.
    let exec = misestimated_exec_plan(100, 1e6, "java", "sparklike");
    let ctx = java_and_a_costly_cluster;

    let baseline = ctx().execute_plan(&exec).unwrap();
    assert!(baseline.stats.replans.is_empty());
    assert!(baseline.effective_plan.is_none());
    assert_eq!(baseline.stats.platforms_used(), vec!["java", "sparklike"]);

    let adaptive = ctx()
        .with_replan_policy(ReplanPolicy::default())
        .execute_plan(&exec)
        .unwrap();

    assert_eq!(sorted_outputs(&adaptive), sorted_outputs(&baseline));
    assert_eq!(adaptive.stats.replans.len(), 1);
    assert_eq!(
        adaptive.stats.platforms_used(),
        vec!["java"],
        "the suffix should have flipped off the mis-chosen cluster"
    );

    // The effective plan records what actually ran.
    let effective = adaptive.effective_plan.as_ref().expect("replan happened");
    assert_eq!(effective.assignments, vec!["java"; 3]);
    assert_eq!(effective.atoms.len(), adaptive.stats.atoms.len());
    // True cardinality was folded back into the boundary estimate.
    assert_eq!(effective.estimates[0].card, 100.0);

    // The record names the drifted boundary.
    let ev = &adaptive.stats.replans[0];
    assert_eq!(ev.trigger_node, NodeId(0));
    assert_eq!(ev.observed_card, 100);
    assert!(ev.drift > 1_000.0, "drift {}", ev.drift);
    assert_eq!((ev.replaced_atoms, ev.new_atoms), (1, 1));
}

#[test]
fn replans_are_observable_as_counter_and_event() {
    let exec = misestimated_exec_plan(100, 1e6, "java", "sparklike");
    let observe = Arc::new(Observability::new());
    let result = test_context()
        .with_observability(observe.clone())
        .with_replan_policy(ReplanPolicy::default())
        .execute_plan(&exec)
        .unwrap();
    assert_eq!(result.stats.replans.len(), 1);
    assert_eq!(result.stats.replans[0].observed_card, 100);
    assert_eq!(observe.metrics().counter_value("optimizer.replans"), 1);
}

#[test]
fn recorded_work_is_identical_when_assignments_survive() {
    // The suffix is already pinned where re-enumeration lands for 64
    // records (java), so the re-plan fires (the drift at the sparklike
    // source boundary is real) but re-picks the same assignments: the
    // executed atoms are identical and the work the job records must match
    // the non-adaptive run's exactly.
    let exec = misestimated_exec_plan(64, 1e6, "sparklike", "java");
    let run = |policy: Option<ReplanPolicy>| {
        let mut ctx = test_context();
        if let Some(p) = policy {
            ctx = ctx.with_replan_policy(p);
        }
        ctx.execute_plan(&exec).unwrap()
    };
    let plain = run(None);
    let adaptive = run(Some(ReplanPolicy {
        threshold: 2.0,
        max_replans: 2,
    }));
    assert_eq!(adaptive.stats.replans.len(), 1);
    assert_eq!(sorted_outputs(&adaptive), sorted_outputs(&plain));
    assert_eq!(work(&adaptive.stats), work(&plain.stats));
}

#[test]
fn max_replans_zero_disables_replanning_despite_drift() {
    let exec = misestimated_exec_plan(100, 1e6, "java", "sparklike");
    let baseline = test_context().execute_plan(&exec).unwrap();
    let result = test_context()
        .with_replan_policy(ReplanPolicy {
            threshold: 2.0,
            max_replans: 0,
        })
        .execute_plan(&exec)
        .unwrap();
    assert!(result.stats.replans.is_empty());
    assert!(result.effective_plan.is_none());
    assert_eq!(sorted_outputs(&result), sorted_outputs(&baseline));
}

#[test]
fn a_single_drift_replans_once_even_with_budget_to_spare() {
    // After the re-plan the boundary estimate equals the observed
    // cardinality, so the drift detector must not fire again.
    let exec = misestimated_exec_plan(100, 1e6, "java", "sparklike");
    let result = test_context()
        .with_replan_policy(ReplanPolicy {
            threshold: 2.0,
            max_replans: 5,
        })
        .execute_plan(&exec)
        .unwrap();
    assert_eq!(result.stats.replans.len(), 1);
}

#[test]
fn an_effective_plan_with_fresh_atom_ids_is_refused_as_input() {
    // Source and sink on java, the map between them on the cluster: three
    // atoms. The re-plan brings the map home, and map and sink become one
    // atom under a fresh id, so the effective plan's ids are not dense: it
    // records what ran and is not a plan to run again.
    let mut exec = misestimated_exec_plan(100, 1e6, "java", "sparklike");
    exec.assignments[2] = "java".into();
    exec.atoms = split_into_atoms(&exec.physical, &exec.assignments);
    assert_eq!(exec.atoms.len(), 3);
    let ctx = java_and_a_costly_cluster().with_replan_policy(ReplanPolicy::default());
    let effective = ctx
        .execute_plan(&exec)
        .unwrap()
        .effective_plan
        .expect("replan happened");
    let ids: Vec<usize> = effective.atoms.iter().map(|a| a.id).collect();
    assert!(
        ids.iter().enumerate().any(|(i, id)| *id != i),
        "ids {ids:?}"
    );
    let err = ctx.execute_plan(&effective).unwrap_err();
    assert!(matches!(err, RheemError::InvalidPlan(_)), "{err}");
}

/// A java clone that sleeps before every atom — long enough that a small
/// job deadline has certainly expired by the first wave boundary.
struct SluggishJava {
    inner: JavaPlatform,
    delay: Duration,
}
impl Platform for SluggishJava {
    fn name(&self) -> &str {
        "java"
    }
    fn profile(&self) -> rheem_core::ProcessingProfile {
        self.inner.profile()
    }
    fn supports(&self, op: &rheem_core::PhysicalOp) -> bool {
        self.inner.supports(op)
    }
    fn cost_model(&self) -> Arc<dyn rheem_core::cost::PlatformCostModel> {
        self.inner.cost_model()
    }
    fn execute_atom(
        &self,
        plan: &rheem_core::PhysicalPlan,
        atom: &rheem_core::TaskAtom,
        inputs: &rheem_core::AtomInputs,
        ctx: &rheem_core::ExecutionContext,
    ) -> rheem_core::Result<rheem_core::AtomResult> {
        std::thread::sleep(self.delay);
        self.inner.execute_atom(plan, atom, inputs, ctx)
    }
}

#[test]
fn replans_respect_the_job_deadline() {
    // Wave 0 alone overruns the deadline. The drift detector would fire
    // at the boundary, but a re-plan is part of the job: the deadline
    // check must refuse it (and then fail the job) rather than spend
    // optimizer time a timed-out job no longer has.
    let exec = misestimated_exec_plan(100, 1e6, "java", "sparklike");
    let observe = Arc::new(Observability::new());
    let err = RheemContext::new()
        .with_platform(Arc::new(SluggishJava {
            inner: JavaPlatform::new(),
            delay: Duration::from_millis(50),
        }))
        .with_platform(Arc::new(SparkLikePlatform::new(4)))
        .with_timeout(Duration::from_millis(10))
        .with_replan_policy(ReplanPolicy::default())
        .with_observability(observe.clone())
        .execute_plan(&exec)
        .unwrap_err();
    assert!(matches!(err, RheemError::BudgetExceeded(_)), "{err}");
    // The failed job's record was still reported, and holds no re-plan.
    let m = observe.metrics();
    assert_eq!(m.counter_value("executor.jobs_failed"), 1);
    assert_eq!(
        m.counter_value("optimizer.replans"),
        0,
        "no replan may start after the deadline"
    );
}

// ---------------------------------------------------------------------------
// Property: a replan policy never changes outputs
// ---------------------------------------------------------------------------

/// Unary pipeline steps whose output is deterministic as a sorted bag.
/// `FanoutLie` deliberately mis-declares its fanout hint so the optimizer's
/// cardinality estimates drift far from reality, making real re-plans
/// common in the generated corpus.
#[derive(Clone, Debug)]
enum Step {
    MapAdd(i64),
    FilterMod(i64),
    ReduceSum,
    FanoutLie,
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
        // Claims 64× expansion, actually duplicates each record once.
        Step::FanoutLie => b.flat_map(
            input,
            FlatMapUdf::new("dup", |r| vec![r.clone(), r.clone()]).with_fanout(64.0),
        ),
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-100i64..100).prop_map(Step::MapAdd),
        (1i64..9).prop_map(Step::FilterMod),
        Just(Step::ReduceSum),
        Just(Step::FanoutLie),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, ..ProptestConfig::default()
    })]

    /// For random (often badly mis-estimated) plans, executing with an
    /// aggressive replan policy yields exactly the outputs of the plain
    /// run, at thread budgets 1 and 4; when nothing was re-planned the
    /// recorded work also matches.
    #[test]
    fn prop_replanning_preserves_outputs(
        seed in 0u64..500,
        len in 1usize..300,
        branches in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..4), 1..4),
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
        let exec = test_context().optimize(b.build().unwrap()).unwrap();

        for threads in [1, 4] {
            let run = |policy: Option<ReplanPolicy>| {
                let mut ctx = test_context().with_kernel_parallelism(testkit::budget(threads));
                if let Some(p) = policy {
                    ctx = ctx.with_replan_policy(p);
                }
                ctx.execute_plan(&exec).unwrap()
            };
            let plain = run(None);
            let adaptive = run(Some(ReplanPolicy {
                threshold: 1.5,
                max_replans: 3,
            }));
            prop_assert!(adaptive.stats.replans.len() <= 3);
            prop_assert_eq!(sorted_outputs(&adaptive), sorted_outputs(&plain));
            if adaptive.stats.replans.is_empty() {
                prop_assert_eq!(work(&adaptive.stats), work(&plain.stats));
            }
        }
    }
}
