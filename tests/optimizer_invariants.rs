//! Property-based invariants of the multi-platform optimizer: for random
//! DAG-shaped plans, the execution plan must (a) assign every node a
//! registered platform that supports its operator, (b) partition the nodes
//! into task atoms exactly, (c) schedule atoms in a dependency-respecting
//! order with same-platform nodes per atom, and (d) execute to the same
//! bag of records as the reference interpreter.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rheem::prelude::*;
use rheem::rec;
use rheem_core::{ExecutionPlan, NodeId, PhysicalPlan};
use rheem_platforms::test_context;

/// Operations of the random plan generator. Unary ops apply to the newest
/// node; binary ops combine the newest node with an older one picked by
/// `pick % stack.len()`.
#[derive(Clone, Debug)]
enum GenOp {
    Source(u8),
    MapInc,
    FilterHalf,
    GroupCount,
    Sort,
    Union(u8),
    Join(u8),
    Cross(u8),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (0u8..4).prop_map(GenOp::Source),
        Just(GenOp::MapInc),
        Just(GenOp::FilterHalf),
        Just(GenOp::GroupCount),
        Just(GenOp::Sort),
        any::<u8>().prop_map(GenOp::Union),
        any::<u8>().prop_map(GenOp::Join),
        any::<u8>().prop_map(GenOp::Cross),
    ]
}

/// Build a valid plan from the op script; always produces ≥1 sink.
fn build_plan(ops: &[GenOp]) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut stack: Vec<NodeId> =
        vec![b.collection("seed", (0..30i64).map(|i| rec![i % 7, 1i64]).collect())];
    for op in ops {
        let top = *stack.last().expect("non-empty");
        match op {
            GenOp::Source(k) => {
                let n = 10 + (*k as i64) * 5;
                stack.push(b.collection(
                    format!("src{k}"),
                    (0..n).map(|i| rec![i % 5, 1i64]).collect(),
                ));
            }
            GenOp::MapInc => {
                let node = b.map(
                    top,
                    MapUdf::new("inc", |r| {
                        rec![r.int(0).unwrap().wrapping_add(1), r.int(1).unwrap_or(1)]
                    }),
                );
                stack.push(node);
            }
            GenOp::FilterHalf => {
                let node = b.filter(top, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0));
                stack.push(node);
            }
            GenOp::GroupCount => {
                let node = b.group_by(
                    top,
                    KeyUdf::field(0),
                    GroupMapUdf::new("count", |k, members| {
                        vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
                    }),
                );
                stack.push(node);
            }
            GenOp::Sort => {
                let node = b.sort(top, KeyUdf::field(0), false);
                stack.push(node);
            }
            GenOp::Union(pick) => {
                let other = stack[*pick as usize % stack.len()];
                let node = b.union(top, other);
                stack.push(node);
            }
            GenOp::Join(pick) => {
                let other = stack[*pick as usize % stack.len()];
                let node = b.hash_join(top, other, KeyUdf::field(0), KeyUdf::field(0));
                stack.push(node);
            }
            GenOp::Cross(pick) => {
                let other = stack[*pick as usize % stack.len()];
                // Keep the cross product tiny: limit both sides first —
                // sorted first, because a prefix of an *unordered* bag is
                // not platform-independent.
                let ls = b.sort(top, KeyUdf::field(0), false);
                let l = b.limit(ls, 8);
                let rs = b.sort(other, KeyUdf::field(0), false);
                let r = b.limit(rs, 8);
                let node = b.cross_product(l, r);
                stack.push(node);
            }
        }
    }
    // Sink the top of the stack plus one random-ish earlier node.
    let top = *stack.last().expect("non-empty");
    b.collect(top);
    if stack.len() > 2 {
        b.collect(stack[stack.len() / 2]);
    }
    b.build().expect("generated plan is structurally valid")
}

fn check_invariants(exec: &ExecutionPlan, ctx: &RheemContext) {
    let plan = &exec.physical;

    // (a) Every node has a registered, supporting platform.
    assert_eq!(exec.assignments.len(), plan.len());
    for node in plan.nodes() {
        let name = &exec.assignments[node.id.0];
        let platform = ctx
            .platforms()
            .all()
            .iter()
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("assignment to unregistered platform {name}"));
        assert!(
            platform.supports(&node.op),
            "platform {name} does not support {}",
            node.op.name()
        );
    }

    // (b) Atoms partition the node set exactly.
    let mut seen: HashSet<NodeId> = HashSet::new();
    for atom in &exec.atoms {
        for &n in &atom.nodes {
            assert!(seen.insert(n), "node {n} appears in two atoms");
        }
    }
    assert_eq!(seen.len(), plan.len(), "atoms must cover every node");

    // (c) Same platform within an atom; schedule order respects deps.
    let atom_of: HashMap<NodeId, usize> = exec
        .atoms
        .iter()
        .flat_map(|a| a.nodes.iter().map(move |&n| (n, a.id)))
        .collect();
    for atom in &exec.atoms {
        for &n in &atom.nodes {
            assert_eq!(exec.assignments[n.0], atom.platform);
        }
        for input in &atom.inputs {
            let producer_atom = atom_of[&input.producer];
            assert!(
                producer_atom < atom.id,
                "atom {} consumes node {} from a later atom {}",
                atom.id,
                input.producer,
                producer_atom
            );
        }
    }

    // (d) Cost is a sane number.
    assert!(exec.estimated_cost.is_finite() && exec.estimated_cost >= 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn prop_execution_plans_are_well_formed_and_correct(
        ops in proptest::collection::vec(gen_op(), 0..10),
    ) {
        let plan = build_plan(&ops);
        // Rewrites off so the reference runs the *same* plan shape.
        let mut ctx = test_context();
        let optimizer = std::mem::take(ctx.optimizer_mut());
        *ctx.optimizer_mut() = optimizer.without_rewrites();

        let exec = ctx.optimize(plan.clone()).expect("optimizes");
        check_invariants(&exec, &ctx);

        // Execution agrees with the reference interpreter (bag semantics).
        let reference = rheem_core::run_plan(
            &plan,
            &rheem_core::ExecutionContext::new(),
        )
        .expect("reference runs");
        let result = ctx.execute_plan(&exec).expect("executes");
        let norm = |outs: HashMap<NodeId, Dataset>| {
            let mut bags: Vec<Vec<Record>> = outs
                .into_values()
                .map(|d| {
                    let mut v = d.records().to_vec();
                    v.sort();
                    v
                })
                .collect();
            bags.sort();
            bags
        };
        prop_assert_eq!(norm(result.outputs), norm(reference));
    }

    #[test]
    fn prop_forced_platforms_agree_with_free_choice(
        ops in proptest::collection::vec(gen_op(), 0..8),
    ) {
        let plan = build_plan(&ops);
        let free = test_context();
        let free_result = free.execute(plan.clone()).expect("free choice runs");
        let forced = test_context().force_platform("sparklike");
        let forced_result = forced.execute(plan).expect("forced runs");
        let norm = |outs: HashMap<NodeId, Dataset>| {
            let mut bags: Vec<Vec<Record>> = outs
                .into_values()
                .map(|d| {
                    let mut v = d.records().to_vec();
                    v.sort();
                    v
                })
                .collect();
            bags.sort();
            bags
        };
        prop_assert_eq!(norm(free_result.outputs), norm(forced_result.outputs));
    }
}

// ------------------------------------------------- cost-accounting gates

use rheem_core::{assignment_cost, EnumerationPath};

/// Canonical cost of an execution plan's own assignment, priced with the
/// movement model `optimize` uses.
fn canonical_cost(ctx: &RheemContext, exec: &ExecutionPlan) -> f64 {
    let opt = ctx.optimizer();
    assignment_cost(
        &exec.physical,
        &exec.assignments,
        ctx.platforms(),
        &opt.estimator,
        &opt.movement,
        &opt.calibration,
    )
    .expect("assignment prices")
}

fn no_rewrite_context() -> RheemContext {
    let mut ctx = test_context();
    let optimizer = std::mem::take(ctx.optimizer_mut());
    *ctx.optimizer_mut() = optimizer.without_rewrites();
    ctx
}

/// A diamond: the filter output is consumed by both the group-by and the
/// union, so its whole upstream prefix is a shared sub-DAG.
fn diamond_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..120i64).map(|i| rec![i % 9, 1i64]).collect());
    let m = b.map(
        src,
        MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1, 1i64]),
    );
    let f = b.filter(m, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0));
    let g = b.group_by(
        f,
        KeyUdf::field(0),
        GroupMapUdf::new("count", |k, members| {
            vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
        }),
    );
    let u = b.union(g, f);
    b.collect(u);
    b.build().unwrap()
}

/// The plan the lattice search finds and the plan the budget fallback
/// finds (`max_expansions = 0`: the first lattice state is already over
/// budget) — after checking that each reports the one definition of
/// `estimated_cost`: the canonical [`assignment_cost`] of the assignment
/// it carries, every node and every edge priced once.
fn both_paths(plan: &PhysicalPlan) -> (ExecutionPlan, ExecutionPlan) {
    let lattice_ctx = no_rewrite_context();
    let lattice = lattice_ctx.optimize(plan.clone()).expect("optimizes");
    let mut fallback_ctx = no_rewrite_context();
    fallback_ctx
        .optimizer_mut()
        .config
        .enumeration
        .max_expansions = 0;
    let fallback = fallback_ctx
        .optimize(plan.clone())
        .expect("optimizes past the budget");
    assert_eq!(fallback.enumeration.path, EnumerationPath::GreedyFallback);
    for (ctx, exec) in [(&lattice_ctx, &lattice), (&fallback_ctx, &fallback)] {
        let canonical = canonical_cost(ctx, exec);
        assert!(
            close(exec.estimated_cost, canonical),
            "{} reports {} for an assignment that prices to {}",
            exec.enumeration.path,
            exec.estimated_cost,
            canonical
        );
    }
    (lattice, fallback)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The shared prefix of a diamond is priced once on either path, and the
/// lattice — exact on DAGs — can only tie or beat the per-node DP.
#[test]
fn a_shared_subdag_is_priced_once_on_either_path() {
    let (lattice, fallback) = both_paths(&diamond_plan());
    assert_eq!(lattice.enumeration.path, EnumerationPath::LatticeV2);
    assert!(
        lattice.estimated_cost <= fallback.estimated_cost + 1e-9,
        "lattice ({}) must not lose to its fallback ({})",
        lattice.estimated_cost,
        fallback.estimated_cost
    );
}

/// Chain-only op scripts: every node has exactly one consumer, so the
/// fallback's per-node DP is exact.
fn gen_chain_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        Just(GenOp::MapInc),
        Just(GenOp::FilterHalf),
        Just(GenOp::GroupCount),
        Just(GenOp::Sort),
    ]
}

/// A true chain: single source, unary ops, ONE sink. [`build_plan`] adds a
/// second sink on longer scripts, which introduces a shared sub-DAG.
fn build_chain(ops: &[GenOp]) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut top = b.collection("seed", (0..30i64).map(|i| rec![i % 7, 1i64]).collect());
    for op in ops {
        top = match op {
            GenOp::MapInc => b.map(
                top,
                MapUdf::new("inc", |r| {
                    rec![r.int(0).unwrap().wrapping_add(1), r.int(1).unwrap_or(1)]
                }),
            ),
            GenOp::FilterHalf => {
                b.filter(top, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0))
            }
            GenOp::GroupCount => b.group_by(
                top,
                KeyUdf::field(0),
                GroupMapUdf::new("count", |k, members| {
                    vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
                }),
            ),
            GenOp::Sort => b.sort(top, KeyUdf::field(0), false),
            other => unreachable!("non-unary op {other:?} in a chain script"),
        };
    }
    b.collect(top);
    b.build().expect("chain is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// On trees (here: chains) the per-node DP is exact, so a plan
    /// enumerated past the budget costs what the lattice's plan costs.
    #[test]
    fn prop_fallback_matches_the_lattice_on_chains(
        ops in proptest::collection::vec(gen_chain_op(), 0..8),
    ) {
        let (lattice, fallback) = both_paths(&build_chain(&ops));
        prop_assert!(close(lattice.estimated_cost, fallback.estimated_cost),
            "lattice {} vs fallback {}", lattice.estimated_cost, fallback.estimated_cost);
    }

    /// On generated DAGs with shared sub-DAGs (every [`build_plan`] script
    /// long enough to get its second sink has one) both paths still report
    /// the canonical cost, and the lattice never loses.
    #[test]
    fn prop_estimated_cost_is_canonical_on_shared_subdags(
        ops in proptest::collection::vec(gen_op(), 0..10),
    ) {
        let (lattice, fallback) = both_paths(&build_plan(&ops));
        if lattice.enumeration.path == EnumerationPath::LatticeV2 {
            prop_assert!(lattice.estimated_cost <= fallback.estimated_cost + 1e-9,
                "lattice {} vs fallback {}", lattice.estimated_cost, fallback.estimated_cost);
        }
    }
}
