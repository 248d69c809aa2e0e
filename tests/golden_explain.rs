//! Golden snapshot tests for the plan `explain()` rendering and its
//! `--observed` companion ([`ExecutionPlan::explain_observed`]).
//!
//! Both views are built purely from simulated, deterministic quantities
//! (cost-model estimates and simulated execution accounting — never wall
//! clock), so their exact text is stable across machines and schedule
//! modes and can be pinned byte-for-byte.
//!
//! Regenerating after an intentional format change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_explain
//! ```
//!
//! then review the diff under `tests/golden/` like any other code change.

use rheem::prelude::*;
use rheem::rec;
use rheem_platforms::test_context;

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
            "missing golden file {} ({e}); regenerate with BLESS=1 cargo test --test golden_explain"
        , path.display())
    });
    assert_eq!(
        actual,
        expected,
        "{} drifted; if the change is intentional, regenerate with \
         BLESS=1 cargo test --test golden_explain",
        path.display()
    );
}

/// The pinned workload: a shared source fanning out into a map branch and
/// an aggregation branch, sized so the optimizer splits platforms.
fn golden_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection("s", (0..500i64).map(|i| rec![i % 25, i]).collect());
    let mapped = b.map(
        src,
        MapUdf::new("x3", |r| rec![r.int(0).unwrap(), r.int(1).unwrap() * 3]),
    );
    b.collect(mapped);
    let summed = b.reduce_by_key(
        src,
        KeyUdf::field(0).with_distinct_keys(25.0),
        ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    b.collect(summed);
    b.build().unwrap()
}

#[test]
fn golden_explain() {
    let ctx = test_context();
    let exec = ctx.optimize(golden_plan()).unwrap();
    assert_golden("explain_plan.txt", &exec.explain());
}

#[test]
fn golden_explain_observed() {
    use rheem_core::executor::{AtomStats, ExecutionStats};
    use std::time::Duration;

    let ctx = test_context();
    let exec = ctx.optimize(golden_plan()).unwrap();
    // Real java-engine runtimes are wall-derived, so the observed column is
    // pinned with hand-built stats (shape-checked against the real plan:
    // one atom per plan atom, true cardinalities from the workload).
    let stats = ExecutionStats {
        atoms: exec
            .atoms
            .iter()
            .map(|atom| AtomStats {
                atom_id: atom.id,
                platform: atom.platform.clone(),
                wave: atom.id,
                attempts: 1,
                wall: Duration::from_millis(1),
                records_in: 0,
                records_out: 1550,
                simulated_overhead_ms: 0.1,
                simulated_elapsed_ms: 0.51,
                movement_cost_ms: 0.0,
                node_observations: vec![],
            })
            .collect(),
        waves: exec.atoms.len(),
        total_wall: Duration::from_millis(1),
        total_movement_ms: 0.0,
        ..ExecutionStats::default()
    };
    assert_golden("explain_observed.txt", &exec.explain_observed(&stats));
}

#[test]
fn explain_observed_without_estimates_says_so() {
    use rheem_core::optimizer::enumerate::split_into_atoms;
    use std::sync::Arc;

    let physical = golden_plan();
    let assignments = vec!["java".to_string(); physical.len()];
    let atoms = split_into_atoms(&physical, &assignments);
    let exec = rheem_core::ExecutionPlan {
        physical: Arc::new(physical),
        assignments,
        atoms,
        estimated_cost: 0.0,
        estimates: vec![],
        enumeration: Default::default(),
    };
    let ctx = test_context();
    let result = ctx.execute_plan(&exec).unwrap();
    let view = exec.explain_observed(&result.stats);
    assert!(view.contains("no optimizer estimates"), "{view}");
}

/// A ~100-operator plan for the enumeration view: four 24-node linear
/// branches (source → 22 maps → group-by) merged by a union tree into one
/// sink. Large enough that only a contracted enumeration can handle it,
/// regular enough that the rendering stays reviewable.
fn wide_golden_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut branches = Vec::new();
    for br in 0..4 {
        let mut cur = b.collection(
            format!("s{br}"),
            (0..2000i64).map(|i| rec![i % 13, 1i64]).collect(),
        );
        for _ in 0..22 {
            cur = b.map(
                cur,
                MapUdf::new("inc", |r| {
                    rec![r.int(0).unwrap() + 1, r.int(1).unwrap_or(1)]
                }),
            );
        }
        cur = b.group_by(
            cur,
            KeyUdf::field(0),
            GroupMapUdf::new("tally", |k, members| {
                vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
            }),
        );
        branches.push(cur);
    }
    let u1 = b.union(branches[0], branches[1]);
    let u2 = b.union(branches[2], branches[3]);
    let u3 = b.union(u1, u2);
    b.collect(u3);
    b.build().unwrap()
}

#[test]
fn golden_explain_enumeration() {
    use rheem_core::plan::EnumerationPath;

    let mut ctx = test_context();
    let optimizer = std::mem::take(ctx.optimizer_mut());
    *ctx.optimizer_mut() = optimizer.without_rewrites();
    // Deterministic calibration pressure: make the group-by ruinous on
    // every platform except mapreduce (relational, whose group-by is too
    // cheap for the clamped factor to deter, is excluded outright), so the
    // chosen plan crosses into mapreduce's File channels and the view
    // shows real conversion routes — serialize on the way in, deserialize
    // on the way out — not just free memory-to-memory hops.
    let group_op = "HashGroupBy(key=field#0, group=tally)";
    for platform in ["java", "sparklike"] {
        ctx.optimizer()
            .calibration
            .observe(group_op, platform, 1.0, 1.0e6, 1.0, 1.0);
    }
    // …and keep the map chains OFF mapreduce, so the crossing happens at
    // the group boundary instead of the whole branch migrating.
    ctx.optimizer()
        .calibration
        .observe("Map(inc)", "mapreduce", 1.0, 1.0e6, 1.0, 1.0);
    ctx.optimizer_mut()
        .config
        .enumeration
        .excluded_platforms
        .push("relational".into());

    let plan = wide_golden_plan();
    assert!(plan.len() >= 100, "plan has {} nodes", plan.len());
    let exec = ctx.optimize(plan).unwrap();
    assert_eq!(exec.enumeration.path, EnumerationPath::LatticeV2);
    assert!(
        !exec.enumeration.conversions.is_empty(),
        "expected cross-platform edges with conversion routes"
    );
    assert_golden("explain_enumeration.txt", &exec.explain_enumeration());
}
