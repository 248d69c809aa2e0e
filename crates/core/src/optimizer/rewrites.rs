//! Traditional plan rewrites, restricted to what is *sound* in a UDF-only
//! algebra (§4.2, fifth aspect: "apply traditional physical optimizations,
//! whenever possible ... general in order to be efficient on any processing
//! platform").
//!
//! Because operator logic is opaque UDFs, classic rewrites that need
//! predicate introspection (e.g. pushing a filter through a join) are not
//! available. The rules here rely only on algebraic identities of the
//! operator *shapes*:
//!
//! * **Map fusion** — `Map(g) ∘ Map(f) = Map(g ∘ f)` when the intermediate
//!   result has a single consumer;
//! * **Filter fusion** — consecutive filters become one conjunctive filter;
//! * **Filter–union push-down** — `σ(A ∪ B) = σ(A) ∪ σ(B)`;
//! * **Cross-product elimination** — `σ_p(A × B)` becomes a theta join
//!   evaluating `p` pairwise, sparing the materialized cross product. This
//!   is the physical analogue of the paper's §4.1 enhancer example (avoiding
//!   "a costly cross product over the entire input dataset").

use std::sync::Arc;

use crate::data::Record;
use crate::error::Result;
use crate::physical::PhysicalOp;
use crate::plan::{NodeId, PhysicalNode, PhysicalPlan};
use crate::udf::{FilterUdf, MapUdf};

/// Apply all rewrite rules to a fixpoint (bounded by plan size).
///
/// Rewrites renumber nodes but never add, drop or reorder sinks, so the
/// rewritten plan reports each sink's output under the id that sink had in
/// the incoming plan ([`PhysicalPlan::output_ids`]).
pub fn apply_rewrites(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let reported = plan.output_ids().into_iter().map(|(_, id)| id).collect();
    let mut plan = shared_scans(plan)?;
    // Each pass strictly reduces node count or leaves the plan unchanged,
    // so plan.len() passes suffice for a fixpoint.
    for _ in 0..plan.len().max(1) {
        let before = plan.len();
        plan = fuse_maps(plan)?;
        plan = fuse_filters(plan)?;
        plan = push_filter_through_union(plan)?;
        plan = cross_filter_to_theta(plan)?;
        // Compile adjacent expression-bearing operators into chunk
        // pipelines last, so the algebraic rules above see the plain
        // operator shapes first.
        plan = super::fuse::fuse_pipelines(plan)?;
        if plan.len() == before {
            break;
        }
    }
    Ok(plan.reporting_sinks_as(reported))
}

/// **Shared scans** (§4.2's "traditional physical optimizations. Examples
/// are shared scans"): duplicate source nodes collapse into one, so a
/// dataset referenced several times in a plan is read once.
///
/// Two sources are *provably* identical when they are `StorageSource`s of
/// the same dataset id, or `CollectionSource`s sharing the same underlying
/// `Arc` allocation (pointer equality — contents are opaque UDF-world data,
/// so structural comparison would be both costly and fragile).
fn shared_scans(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    use std::collections::HashMap;
    // Map each source node to its canonical representative.
    let mut canon: HashMap<NodeId, NodeId> = HashMap::new();
    let mut storage_seen: HashMap<String, NodeId> = HashMap::new();
    let mut collection_seen: Vec<(&crate::data::Dataset, NodeId)> = Vec::new();
    for n in plan.nodes() {
        match &n.op {
            PhysicalOp::StorageSource { dataset_id } => match storage_seen.get(dataset_id) {
                Some(&rep) => {
                    canon.insert(n.id, rep);
                }
                None => {
                    storage_seen.insert(dataset_id.clone(), n.id);
                }
            },
            PhysicalOp::CollectionSource { data, .. } => {
                match collection_seen.iter().find(|(seen, _)| seen.ptr_eq(data)) {
                    Some((_, rep)) => {
                        canon.insert(n.id, *rep);
                    }
                    None => collection_seen.push((data, n.id)),
                }
            }
            _ => {}
        }
    }
    if canon.is_empty() {
        return Ok(plan);
    }
    rebuild(
        &plan,
        |id| !canon.contains_key(&id),
        |_| None,
        |id| canon.get(&id).copied().unwrap_or(id),
    )
}

/// Number of consumers per node.
pub(super) fn consumer_counts(plan: &PhysicalPlan) -> Vec<usize> {
    let mut counts = vec![0usize; plan.len()];
    for n in plan.nodes() {
        for &i in &n.inputs {
            counts[i.0] += 1;
        }
    }
    counts
}

/// Rebuild a plan, replacing each node's op/inputs via `transform` and
/// dropping nodes for which `transform` returns `None` (their consumers must
/// have been redirected first). `redirect` maps old producer ids to their
/// replacement.
pub(super) fn rebuild(
    plan: &PhysicalPlan,
    mut keep: impl FnMut(NodeId) -> bool,
    mut replace_op: impl FnMut(NodeId) -> Option<PhysicalOp>,
    redirect: impl Fn(NodeId) -> NodeId,
) -> Result<PhysicalPlan> {
    let mut new_ids: Vec<Option<NodeId>> = vec![None; plan.len()];
    let mut nodes: Vec<PhysicalNode> = Vec::with_capacity(plan.len());
    for n in plan.nodes() {
        if !keep(n.id) {
            continue;
        }
        let id = NodeId(nodes.len());
        let inputs: Vec<NodeId> = n
            .inputs
            .iter()
            .map(|&i| {
                let target = redirect(i);
                new_ids[target.0].expect("redirect target must be kept and earlier")
            })
            .collect();
        let op = replace_op(n.id).unwrap_or_else(|| n.op.clone());
        new_ids[n.id.0] = Some(id);
        nodes.push(PhysicalNode { id, op, inputs });
    }
    let plan = PhysicalPlan::from_nodes(nodes);
    plan.validate()?;
    Ok(plan)
}

/// Fuse `Map(g)` over `Map(f)` into `Map(g ∘ f)` (single-consumer f only).
fn fuse_maps(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let counts = consumer_counts(&plan);
    // Find one fusable pair per pass; the fixpoint loop does the rest.
    for n in plan.nodes() {
        if let PhysicalOp::Map(g) = &n.op {
            let producer = plan.node(n.inputs[0]);
            if counts[producer.id.0] != 1 {
                continue;
            }
            if let PhysicalOp::Map(f) = &producer.op {
                let name = format!("{}∘{}", g.name, f.name);
                // When both maps are transparent, compose declaratively so
                // the fused map stays fusable into chunk pipelines.
                let fused = match (&f.exprs, &g.exprs) {
                    (Some(fe), Some(ge)) => {
                        MapUdf::from_exprs(name, ge.iter().map(|e| e.substitute(fe)).collect())
                    }
                    _ => {
                        let f = f.clone();
                        let g = g.clone();
                        MapUdf {
                            name,
                            f: Arc::new(move |r: &Record| (g.f)(&(f.f)(r))),
                            exprs: None,
                        }
                    }
                };
                let (dead, fused_at) = (producer.id, n.id);
                let dead_input = producer.inputs[0];
                return rebuild(
                    &plan,
                    |id| id != dead,
                    |id| (id == fused_at).then(|| PhysicalOp::Map(fused.clone())),
                    |id| if id == dead { dead_input } else { id },
                );
            }
        }
    }
    Ok(plan)
}

/// Fuse consecutive filters into a conjunction.
fn fuse_filters(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let counts = consumer_counts(&plan);
    for n in plan.nodes() {
        if let PhysicalOp::Filter(q) = &n.op {
            let producer = plan.node(n.inputs[0]);
            if counts[producer.id.0] != 1 {
                continue;
            }
            if let PhysicalOp::Filter(p) = &producer.op {
                let name = format!("{}&{}", p.name, q.name);
                let selectivity = (p.selectivity * q.selectivity).clamp(0.0, 1.0);
                // A record passes an expression filter iff it evaluates to
                // Bool(true), so the Kleene conjunction of two transparent
                // predicates keeps exactly the records both filters keep.
                let fused = match (&p.expr, &q.expr) {
                    (Some(pe), Some(qe)) => {
                        FilterUdf::from_expr(name, pe.as_ref().clone().and(qe.as_ref().clone()))
                            .with_selectivity(selectivity)
                    }
                    _ => {
                        let p = p.clone();
                        let q = q.clone();
                        FilterUdf {
                            name,
                            selectivity,
                            f: Arc::new(move |r: &Record| (p.f)(r) && (q.f)(r)),
                            expr: None,
                        }
                    }
                };
                let (dead, fused_at) = (producer.id, n.id);
                let dead_input = producer.inputs[0];
                return rebuild(
                    &plan,
                    |id| id != dead,
                    |id| (id == fused_at).then(|| PhysicalOp::Filter(fused.clone())),
                    |id| if id == dead { dead_input } else { id },
                );
            }
        }
    }
    Ok(plan)
}

/// `σ(A ∪ B)` → `σ(A) ∪ σ(B)`.
///
/// This does not shrink the node count, so to keep the fixpoint bounded it
/// only fires when the union result feeds exactly one consumer (the filter),
/// and it rewrites in place: the union node becomes the final operator.
fn push_filter_through_union(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let counts = consumer_counts(&plan);
    for n in plan.nodes() {
        if let PhysicalOp::Filter(p) = &n.op {
            let producer = plan.node(n.inputs[0]);
            if counts[producer.id.0] != 1 || !matches!(producer.op, PhysicalOp::Union) {
                continue;
            }
            // New shape: filter each union input, then union replaces the
            // old filter node position. We rebuild manually because two new
            // nodes are inserted.
            let union_id = producer.id;
            let filter_id = n.id;
            let (left, right) = (producer.inputs[0], producer.inputs[1]);
            let p = p.clone();

            let mut new_ids: Vec<Option<NodeId>> = vec![None; plan.len()];
            let mut nodes: Vec<PhysicalNode> = Vec::new();
            for m in plan.nodes() {
                if m.id == union_id {
                    continue; // re-inserted at the filter position
                }
                if m.id == filter_id {
                    // Insert σ(A), σ(B), then A∪B at the filter's slot.
                    let l = new_ids[left.0].expect("left exists");
                    let r = new_ids[right.0].expect("right exists");
                    let fl = NodeId(nodes.len());
                    nodes.push(PhysicalNode {
                        id: fl,
                        op: PhysicalOp::Filter(p.clone()),
                        inputs: vec![l],
                    });
                    let fr = NodeId(nodes.len());
                    nodes.push(PhysicalNode {
                        id: fr,
                        op: PhysicalOp::Filter(p.clone()),
                        inputs: vec![r],
                    });
                    let u = NodeId(nodes.len());
                    nodes.push(PhysicalNode {
                        id: u,
                        op: PhysicalOp::Union,
                        inputs: vec![fl, fr],
                    });
                    new_ids[m.id.0] = Some(u);
                    continue;
                }
                let id = NodeId(nodes.len());
                let inputs = m
                    .inputs
                    .iter()
                    .map(|&i| new_ids[i.0].expect("producer kept"))
                    .collect();
                new_ids[m.id.0] = Some(id);
                nodes.push(PhysicalNode {
                    id,
                    op: m.op.clone(),
                    inputs,
                });
            }
            let plan = PhysicalPlan::from_nodes(nodes);
            plan.validate()?;
            return Ok(plan);
        }
    }
    Ok(plan)
}

/// `σ_p(A × B)` → `A ⋈_p B` (nested-loop theta join evaluating `p` on the
/// concatenated pair), when the cross product has a single consumer.
fn cross_filter_to_theta(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let counts = consumer_counts(&plan);
    for n in plan.nodes() {
        if let PhysicalOp::Filter(p) = &n.op {
            let producer = plan.node(n.inputs[0]);
            if counts[producer.id.0] != 1 || !matches!(producer.op, PhysicalOp::CrossProduct) {
                continue;
            }
            let theta = {
                let p = p.clone();
                PhysicalOp::NestedLoopJoin {
                    name: format!("θ({})", p.name),
                    selectivity: p.selectivity,
                    predicate: Arc::new(move |l: &Record, r: &Record| (p.f)(&l.concat(r))),
                }
            };
            let (dead, theta_at) = (producer.id, n.id);
            let (left, right) = (producer.inputs[0], producer.inputs[1]);
            // The filter node becomes the theta join, consuming the cross
            // product's former inputs.
            let mut new_ids: Vec<Option<NodeId>> = vec![None; plan.len()];
            let mut nodes: Vec<PhysicalNode> = Vec::new();
            for m in plan.nodes() {
                if m.id == dead {
                    continue;
                }
                let id = NodeId(nodes.len());
                let inputs: Vec<NodeId> = if m.id == theta_at {
                    vec![
                        new_ids[left.0].expect("left exists"),
                        new_ids[right.0].expect("right exists"),
                    ]
                } else {
                    m.inputs
                        .iter()
                        .map(|&i| new_ids[i.0].expect("producer kept"))
                        .collect()
                };
                let op = if m.id == theta_at {
                    theta.clone()
                } else {
                    m.op.clone()
                };
                new_ids[m.id.0] = Some(id);
                nodes.push(PhysicalNode { id, op, inputs });
            }
            let plan = PhysicalPlan::from_nodes(nodes);
            plan.validate()?;
            return Ok(plan);
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::run_plan;
    use crate::plan::PlanBuilder;
    use crate::platform::ExecutionContext;
    use crate::rec;

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn maps_fuse_and_preserve_semantics() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(5));
        let m1 = b.map(src, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let m2 = b.map(m1, MapUdf::new("dbl", |r| rec![r.int(0).unwrap() * 2]));
        let sink = b.collect(m2);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();

        let rewritten = apply_rewrites(plan).unwrap();
        assert_eq!(rewritten.len(), 3); // src, fused map, sink
        let node = &rewritten.nodes()[1];
        assert!(node.op.name().contains("dbl∘inc"));
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        // Sink ids shift after rewriting; compare the single output values.
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
        assert_eq!(after.len(), 1);
        let _ = sink;
    }

    #[test]
    fn shared_map_is_not_fused() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(5));
        let m1 = b.map(src, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let m2 = b.map(m1, MapUdf::new("dbl", |r| rec![r.int(0).unwrap() * 2]));
        b.collect(m2);
        b.collect(m1); // second consumer of m1
        let plan = b.build().unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        assert_eq!(rewritten.len(), 5); // nothing fused
    }

    #[test]
    fn filters_fuse_with_multiplied_selectivity() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(100));
        let f1 = b.filter(
            src,
            FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0).with_selectivity(0.5),
        );
        let f2 = b.filter(
            f1,
            FilterUdf::new("small", |r| r.int(0).unwrap() < 10).with_selectivity(0.1),
        );
        b.collect(f2);
        let plan = b.build().unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        assert_eq!(rewritten.len(), 3);
        if let PhysicalOp::Filter(f) = &rewritten.nodes()[1].op {
            assert!((f.selectivity - 0.05).abs() < 1e-9);
        } else {
            panic!("expected fused filter");
        }
        let out = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(out.values().next().unwrap().len(), 5); // 0,2,4,6,8
    }

    #[test]
    fn filter_pushes_through_union() {
        let mut b = PlanBuilder::new();
        let a = b.collection("a", nums(4));
        let c = b.collection("c", nums(4));
        let u = b.union(a, c);
        let f = b.filter(u, FilterUdf::new("odd", |r| r.int(0).unwrap() % 2 == 1));
        b.collect(f);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        // Expect: a, c, σ(a), σ(c), union, sink = 6 nodes; union is last
        // non-sink op.
        assert_eq!(rewritten.len(), 6);
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
    }

    #[test]
    fn cross_filter_becomes_theta_join() {
        let mut b = PlanBuilder::new();
        let l = b.collection("l", nums(10));
        let r = b.collection("r", nums(10));
        let cp = b.cross_product(l, r);
        let f = b.filter(
            cp,
            FilterUdf::new("lt", |row| row.int(0).unwrap() < row.int(1).unwrap())
                .with_selectivity(0.45),
        );
        b.collect(f);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        assert_eq!(rewritten.len(), 4);
        assert!(rewritten
            .nodes()
            .iter()
            .any(|n| matches!(n.op, PhysicalOp::NestedLoopJoin { .. })));
        assert!(!rewritten
            .nodes()
            .iter()
            .any(|n| matches!(n.op, PhysicalOp::CrossProduct)));
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
    }

    #[test]
    fn duplicate_storage_scans_are_shared() {
        let mut b = PlanBuilder::new();
        let s1 = b.storage_source("events");
        let s2 = b.storage_source("events");
        let other = b.storage_source("users");
        let u = b.union(s1, s2);
        let j = b.cross_product(u, other);
        b.collect(j);
        let plan = b.build().unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        let scans = rewritten
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, PhysicalOp::StorageSource { .. }))
            .count();
        assert_eq!(
            scans,
            2,
            "events scan shared, users scan kept:\n{}",
            rewritten.explain()
        );
        // The union now reads the same node twice.
        let union = rewritten
            .nodes()
            .iter()
            .find(|n| matches!(n.op, PhysicalOp::Union))
            .unwrap();
        assert_eq!(union.inputs[0], union.inputs[1]);
    }

    #[test]
    fn identical_collection_sources_share_only_when_same_allocation() {
        use crate::data::Dataset;
        let shared = Dataset::new(nums(5));
        let mut b = PlanBuilder::new();
        let s1 = b.dataset("a", shared.clone());
        let s2 = b.dataset("b", shared); // same Arc
        let s3 = b.collection("c", nums(5)); // equal contents, new allocation
        let u1 = b.union(s1, s2);
        let u2 = b.union(u1, s3);
        b.collect(u2);
        let plan = b.build().unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        let scans = rewritten
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, PhysicalOp::CollectionSource { .. }))
            .count();
        assert_eq!(scans, 2);
        // Semantics preserved: 15 records either way.
        let out = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(out.values().next().unwrap().len(), 15);
    }

    #[test]
    fn chains_of_rules_reach_fixpoint() {
        // map; map; filter; filter over a cross product — several rules fire.
        let mut b = PlanBuilder::new();
        let l = b.collection("l", nums(5));
        let r = b.collection("r", nums(5));
        let cp = b.cross_product(l, r);
        let f1 = b.filter(cp, FilterUdf::new("p1", |row| row.int(0).unwrap() > 0));
        let f2 = b.filter(f1, FilterUdf::new("p2", |row| row.int(1).unwrap() > 0));
        let m1 = b.map(
            f2,
            MapUdf::new("a", |row| rec![row.int(0).unwrap() + row.int(1).unwrap()]),
        );
        let m2 = b.map(m1, MapUdf::new("b", |row| rec![row.int(0).unwrap() * 10]));
        b.collect(m2);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        // l, r, θ-join, fused map, sink.
        assert_eq!(rewritten.len(), 5);
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
    }
}
