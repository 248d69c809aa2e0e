//! The enumerator (`optimizer::enumerate`) verified against an exhaustive
//! oracle, plus its configuration interplay: forced/excluded platforms,
//! free movement, calibration tables, budget exhaustion (deterministic
//! fallback to the per-node DP), and stranded operators surfacing as
//! `NoPlatformFor`.

use proptest::prelude::*;
use rheem::prelude::*;
use rheem::rec;
use rheem_core::{
    assignment_cost, enumerate_exhaustive, EnumerationConfig, EnumerationPath, ExecutionPlan,
    NodeId,
};
use rheem_platforms::test_context;

/// Rewrites off, so the enumerated plan shape matches what the oracle sees.
fn v2_context() -> RheemContext {
    let mut ctx = test_context();
    let optimizer = std::mem::take(ctx.optimizer_mut());
    *ctx.optimizer_mut() = optimizer.without_rewrites();
    ctx
}

/// The same context with the lattice budget set to `max_expansions`.
fn budget_context(max_expansions: usize) -> RheemContext {
    let mut ctx = v2_context();
    ctx.optimizer_mut().config.enumeration.max_expansions = max_expansions;
    ctx
}

/// The default budget, and one the first lattice state already exceeds —
/// every configuration error must read the same on both paths.
fn both_budgets() -> [usize; 2] {
    [EnumerationConfig::default().max_expansions, 0]
}

/// Every sink's rows, each sorted, as a sorted list of bags.
fn bags(outputs: std::collections::HashMap<NodeId, Dataset>) -> Vec<Vec<Record>> {
    let mut bags: Vec<Vec<Record>> = outputs
        .into_values()
        .map(|d| {
            let mut rows = d.records().to_vec();
            rows.sort();
            rows
        })
        .collect();
    bags.sort();
    bags
}

/// Run the exhaustive oracle with the context's own models.
fn oracle_cost(ctx: &RheemContext, plan: &rheem_core::PhysicalPlan) -> (Vec<String>, f64) {
    let opt = ctx.optimizer();
    enumerate_exhaustive(
        plan,
        ctx.platforms(),
        &opt.estimator,
        &opt.movement,
        &opt.config.enumeration,
        &opt.calibration,
        ctx.kernel_parallelism(),
    )
    .expect("oracle enumerates")
}

fn canonical_assignment_cost(ctx: &RheemContext, exec: &ExecutionPlan) -> f64 {
    let opt = ctx.optimizer();
    assignment_cost(
        &exec.physical,
        &exec.assignments,
        ctx.platforms(),
        &opt.estimator,
        &opt.movement,
        &opt.calibration,
        ctx.kernel_parallelism(),
    )
    .expect("assignment prices")
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

// ---------------------------------------------------------- plan generator

/// Ops of the random generator; plans stay ≤ 9 nodes so the oracle's
/// exponential sweep stays cheap (4 platforms ⇒ ≤ 4⁹ assignments).
#[derive(Clone, Debug)]
enum GenOp {
    Source(u8),
    MapInc,
    FilterHalf,
    GroupCount,
    Union(u8),
    Join(u8),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (0u8..3).prop_map(GenOp::Source),
        Just(GenOp::MapInc),
        Just(GenOp::FilterHalf),
        Just(GenOp::GroupCount),
        any::<u8>().prop_map(GenOp::Union),
        any::<u8>().prop_map(GenOp::Join),
    ]
}

/// Build a small valid plan: seed source + ops + one sink (≤ 8 nodes for
/// op scripts of length ≤ 6).
fn build_plan(ops: &[GenOp]) -> rheem_core::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut stack: Vec<NodeId> =
        vec![b.collection("seed", (0..40i64).map(|i| rec![i % 7, 1i64]).collect())];
    for op in ops {
        let top = *stack.last().expect("non-empty");
        match op {
            GenOp::Source(k) => {
                let n = 10 + (*k as i64) * 8;
                stack.push(b.collection(
                    format!("src{k}"),
                    (0..n).map(|i| rec![i % 5, 1i64]).collect(),
                ));
            }
            GenOp::MapInc => stack.push(b.map(
                top,
                MapUdf::new("inc", |r| {
                    rec![r.int(0).unwrap().wrapping_add(1), r.int(1).unwrap_or(1)]
                }),
            )),
            GenOp::FilterHalf => {
                stack.push(b.filter(top, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0)))
            }
            GenOp::GroupCount => stack.push(b.group_by(
                top,
                KeyUdf::field(0),
                GroupMapUdf::new("count", |k, members| {
                    vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
                }),
            )),
            GenOp::Union(pick) => {
                let other = stack[*pick as usize % stack.len()];
                stack.push(b.union(top, other));
            }
            GenOp::Join(pick) => {
                let other = stack[*pick as usize % stack.len()];
                stack.push(b.hash_join(top, other, KeyUdf::field(0), KeyUdf::field(0)));
            }
        }
    }
    let top = *stack.last().expect("non-empty");
    b.collect(top);
    b.build().expect("generated plan is valid")
}

/// Rate-table injections: (kernel, µs per work unit), applied to every
/// node of that kernel. Kernels that match nothing in a particular plan
/// simply have no effect.
fn gen_calibration() -> impl Strategy<Value = Vec<(&'static str, f64)>> {
    let kernel = prop_oneof![
        Just("Map"),
        Just("Filter"),
        Just("HashGroupBy"),
        Just("HashJoin"),
        Just("Union"),
        Just("CollectSink"),
    ];
    proptest::collection::vec((kernel, 0.001f64..1.0), 0..4)
}

/// EnumerationConfig variations the oracle comparison sweeps over.
fn gen_config() -> impl Strategy<Value = (bool, Option<&'static str>, Vec<&'static str>)> {
    (
        any::<bool>(), // priced movement, or `MovementCostModel::free()`
        prop_oneof![Just(None), Just(Some("java")), Just(Some("sparklike"))],
        prop_oneof![
            Just(Vec::new()),
            Just(vec!["mapreduce"]),
            Just(vec!["mapreduce", "relational"]),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole guarantee: over random plans, calibration tables, and
    /// config variations, v2 chooses a plan of exactly the oracle's
    /// optimal cost, and its reported cost is the canonical
    /// assignment-cost of its own assignment (no double counting).
    #[test]
    fn prop_v2_matches_exhaustive_oracle(
        ops in proptest::collection::vec(gen_op(), 0..6),
        calib in gen_calibration(),
        cfg in gen_config(),
    ) {
        let (movement_on, forced, excluded) = cfg;
        // A forced platform that is also excluded is the empty-search
        // error case, covered separately below — drop the force here.
        let forced = forced.filter(|f| !excluded.contains(f));
        let plan = build_plan(&ops);

        let mut ctx = v2_context();
        for (kernel, us_per_unit) in &calib {
            // One observation at one size: the rate becomes `us_per_unit`.
            for node in plan.nodes().iter().filter(|n| n.op.kernel() == *kernel) {
                let key = rheem_core::KernelKey::of(&node.op);
                ctx.optimizer().calibration.observe(key, 1_000.0, *us_per_unit);
            }
        }
        if !movement_on {
            ctx.optimizer_mut().movement = rheem_core::MovementCostModel::free();
        }
        {
            let e = &mut ctx.optimizer_mut().config.enumeration;
            e.forced_platform = forced.map(String::from);
            e.excluded_platforms = excluded.iter().map(|s| s.to_string()).collect();
        }

        let exec = ctx.optimize(plan.clone()).expect("v2 optimizes");
        prop_assert_eq!(exec.enumeration.path, EnumerationPath::LatticeV2);
        let (_, oracle) = oracle_cost(&ctx, &plan);
        assert_close(exec.estimated_cost, oracle, "v2 vs oracle");
        assert_close(
            canonical_assignment_cost(&ctx, &exec),
            exec.estimated_cost,
            "v2 reported vs canonical",
        );
    }

    /// v2-optimized plans execute to the same bag of records as the
    /// reference interpreter — channel annotations and contracted atoms
    /// change accounting, never results.
    #[test]
    fn prop_v2_plans_execute_correctly(
        ops in proptest::collection::vec(gen_op(), 0..6),
    ) {
        let plan = build_plan(&ops);
        let ctx = v2_context();
        let exec = ctx.optimize(plan.clone()).expect("optimizes");
        let result = ctx.execute_plan(&exec).expect("executes");
        prop_assert_eq!(result.stats.enumeration_path, EnumerationPath::LatticeV2);
        let reference = rheem_core::run_plan(
            &plan,
            &rheem_core::ExecutionContext::new(),
        ).expect("reference runs");
        prop_assert_eq!(bags(result.outputs), bags(reference));
    }
}

// ------------------------------------------------------------ fixed cases

/// A plan mixing a long chain with a diamond and a join — exercises chain
/// contraction, the frontier over open nodes, and channel conversions.
fn mixed_plan() -> rheem_core::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..200i64).map(|i| rec![i % 11, 1i64]).collect());
    let m1 = b.map(
        src,
        MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1, 1i64]),
    );
    let f1 = b.filter(m1, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0));
    let g = b.group_by(
        f1,
        KeyUdf::field(0),
        GroupMapUdf::new("count", |k, members| {
            vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
        }),
    );
    let u = b.union(g, f1); // diamond: f1 feeds both g and u
    b.collect(u);
    b.build().unwrap()
}

#[test]
fn v2_matches_oracle_on_fixed_plan() {
    let ctx = v2_context();
    let plan = mixed_plan();
    let exec = ctx.optimize(plan.clone()).unwrap();
    assert_eq!(exec.enumeration.path, EnumerationPath::LatticeV2);
    let (oracle_assign, oracle) = oracle_cost(&ctx, &plan);
    assert_close(exec.estimated_cost, oracle, "fixed plan v2 vs oracle");
    // The oracle's own assignment prices to its reported optimum too.
    let opt = ctx.optimizer();
    let oracle_priced = assignment_cost(
        &plan,
        &oracle_assign,
        ctx.platforms(),
        &opt.estimator,
        &opt.movement,
        &opt.calibration,
        ctx.kernel_parallelism(),
    )
    .unwrap();
    assert_close(oracle_priced, oracle, "oracle self-consistency");
}

#[test]
fn v2_contracts_chains_and_records_conversions() {
    let ctx = v2_context();
    let exec = ctx.optimize(mixed_plan()).unwrap();
    // src→inc→even is a maximal linear chain (f1 has two consumers, so the
    // chain stops there).
    assert!(
        exec.enumeration
            .groups
            .iter()
            .any(|g| g.len() >= 3 && g[0] == NodeId(0)),
        "expected the head chain to contract: {:?}",
        exec.enumeration.groups
    );
    // Every cross-platform boundary in the chosen plan is recorded with
    // its conversion route.
    for atom in &exec.atoms {
        for input in &atom.inputs {
            let from = &exec.assignments[input.producer.0];
            if from != &atom.platform {
                exec.enumeration
                    .conversions
                    .iter()
                    .find(|c| c.producer == input.producer && c.consumer == input.consumer)
                    .unwrap_or_else(|| panic!("missing conversion for {:?}", input));
            }
        }
    }
}

#[test]
fn budget_exhaustion_degrades_to_greedy_deterministically() {
    let ctx = budget_context(1);
    let fallback = ctx.optimize(mixed_plan()).unwrap();
    assert_eq!(fallback.enumeration.path, EnumerationPath::GreedyFallback);
    assert!(fallback.enumeration.groups.is_empty());
    // A second run under the same budget is identical (determinism).
    let again = budget_context(1).optimize(mixed_plan()).unwrap();
    assert_eq!(again.enumeration.path, EnumerationPath::GreedyFallback);
    assert_eq!(again.assignments, fallback.assignments);
    assert_eq!(again.atoms.len(), fallback.atoms.len());
    for (a, b) in again.atoms.iter().zip(&fallback.atoms) {
        assert_eq!((a.id, &a.platform, &a.nodes), (b.id, &b.platform, &b.nodes));
    }
    assert_eq!(again.estimated_cost, fallback.estimated_cost);

    // The fallback reports the same objective the lattice minimizes, so it
    // can only tie or lose — and it runs to the same rows.
    let lattice_ctx = v2_context();
    let lattice = lattice_ctx.optimize(mixed_plan()).unwrap();
    assert_eq!(lattice.enumeration.path, EnumerationPath::LatticeV2);
    assert_close(
        canonical_assignment_cost(&ctx, &fallback),
        fallback.estimated_cost,
        "fallback reported vs canonical",
    );
    assert!(
        fallback.estimated_cost >= lattice.estimated_cost - 1e-9,
        "fallback {} beat the lattice {}",
        fallback.estimated_cost,
        lattice.estimated_cost
    );
    assert_eq!(
        bags(ctx.execute_plan(&fallback).unwrap().outputs),
        bags(lattice_ctx.execute_plan(&lattice).unwrap().outputs)
    );
}

#[test]
fn fallback_path_reaches_execution_stats() {
    let ctx = budget_context(1);
    let exec = ctx.optimize(mixed_plan()).unwrap();
    let result = ctx.execute_plan(&exec).unwrap();
    assert_eq!(
        result.stats.enumeration_path,
        EnumerationPath::GreedyFallback
    );
    assert!(
        result
            .stats
            .explain()
            .contains("enumeration: greedy-fallback"),
        "{}",
        result.stats.explain()
    );
}

#[test]
fn excluding_every_platform_is_a_clean_error() {
    for budget in both_budgets() {
        let mut ctx = budget_context(budget);
        ctx.optimizer_mut().config.enumeration.excluded_platforms =
            ["java", "sparklike", "mapreduce", "relational"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let err = ctx.optimize(mixed_plan()).unwrap_err();
        assert!(
            matches!(err, RheemError::Optimizer(ref m) if m.contains("excluded")),
            "budget {budget}: {err}"
        );
    }
}

#[test]
fn forcing_an_excluded_platform_is_a_clean_error() {
    for budget in both_budgets() {
        let mut ctx = budget_context(budget);
        {
            let e = &mut ctx.optimizer_mut().config.enumeration;
            e.forced_platform = Some("java".into());
            e.excluded_platforms = vec!["java".into()];
        }
        let err = ctx.optimize(mixed_plan()).unwrap_err();
        assert!(
            matches!(err, RheemError::Optimizer(_)),
            "budget {budget}: {err}"
        );
    }
}

#[test]
fn stranded_operator_surfaces_no_platform_for() {
    // A loop is unsupported on the relational platform; excluding all
    // others strands it. Within budget or past it, that must surface
    // NoPlatformFor — not panic, not silently drop the node.
    let mut body = PlanBuilder::new();
    let li = body.loop_input();
    body.map(li, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
    let body = body.build_fragment().unwrap();
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..10i64).map(|i| rec![i]).collect());
    let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(3), 3);
    b.collect(l);
    let plan = b.build().unwrap();

    for budget in both_budgets() {
        let mut ctx = budget_context(budget);
        ctx.optimizer_mut().config.enumeration.excluded_platforms =
            ["java", "sparklike", "mapreduce"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let err = ctx.optimize(plan.clone()).unwrap_err();
        assert!(
            matches!(err, RheemError::NoPlatformFor { .. }),
            "budget {budget}: {err}"
        );
    }
}

#[test]
fn wide_plan_enumerates_within_default_budget() {
    // 120+ operators: 10 branches of source → 10-op chain, pairwise
    // unioned into one sink. Chain contraction keeps the lattice tiny.
    let mut b = PlanBuilder::new();
    let mut branches = Vec::new();
    for br in 0..10 {
        let mut cur = b.collection(format!("s{br}"), (0..20i64).map(|i| rec![i % 5]).collect());
        for _ in 0..10 {
            cur = b.map(cur, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        }
        branches.push(cur);
    }
    while branches.len() > 1 {
        let a = branches.remove(0);
        let c = branches.remove(0);
        branches.push(b.union(a, c));
    }
    b.collect(branches[0]);
    let plan = b.build().unwrap();
    assert!(plan.len() >= 120, "plan has {} nodes", plan.len());

    let ctx = v2_context();
    let exec = ctx.optimize(plan).unwrap();
    assert_eq!(exec.enumeration.path, EnumerationPath::LatticeV2);
    assert!(
        exec.enumeration.expansions <= ctx.optimizer().config.enumeration.max_expansions,
        "{} expansions",
        exec.enumeration.expansions
    );
    assert!(exec.enumeration.groups.len() >= 10, "chains contracted");
    assert!(exec.estimated_cost.is_finite());
}

#[test]
fn explain_enumeration_renders_groups_and_channels() {
    let ctx = v2_context();
    let exec = ctx.optimize(mixed_plan()).unwrap();
    let view = exec.explain_enumeration();
    assert!(view.contains("enumeration: lattice-v2"), "{view}");
    assert!(view.contains("group 0"), "{view}");
    for conv in &exec.enumeration.conversions {
        assert!(
            view.contains(&format!("channel {} -> {}", conv.producer, conv.consumer)),
            "{view}"
        );
    }
}

#[test]
fn oracle_rejects_oversized_plans() {
    let mut b = PlanBuilder::new();
    let mut cur = b.collection("s", vec![rec![1i64]]);
    for _ in 0..12 {
        cur = b.map(cur, MapUdf::new("id", |r| r.clone()));
    }
    b.collect(cur);
    let plan = b.build().unwrap();
    let ctx = v2_context();
    let opt = ctx.optimizer();
    let err = enumerate_exhaustive(
        &plan,
        ctx.platforms(),
        &opt.estimator,
        &opt.movement,
        &EnumerationConfig::default(),
        &opt.calibration,
        ctx.kernel_parallelism(),
    )
    .unwrap_err();
    assert!(matches!(err, RheemError::Optimizer(_)), "{err}");
}
