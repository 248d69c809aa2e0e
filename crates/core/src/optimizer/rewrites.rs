//! Traditional plan rewrites, restricted to what is *sound* in a UDF-only
//! algebra (§4.2, fifth aspect: "apply traditional physical optimizations,
//! whenever possible ... general in order to be efficient on any processing
//! platform").
//!
//! Because operator logic may be an opaque UDF, classic rewrites that need
//! predicate introspection (e.g. pushing a filter through a join) are not
//! available. The rules here rely only on algebraic identities of the
//! operator *shapes*:
//!
//! * **Shared scans** — duplicate sources of the same dataset are read once;
//! * **Filter–union push-down** — `σ(A ∪ B) = σ(A) ∪ σ(B)`;
//! * **Cross-product elimination** — `σ_p(A × B)` becomes a theta join
//!   evaluating `p` pairwise, sparing the materialized cross product. This
//!   is the physical analogue of the paper's §4.1 enhancer example (avoiding
//!   "a costly cross product over the entire input dataset").
//!
//! Operator fusion is not here: the one fusion pass is
//! [`super::fuse::fuse_pipelines`], which compiles runs of *transparent*
//! filter/map/project operators into chunk pipelines. Two adjacent opaque
//! closures stay two operators — composing them would only make a darker
//! box.

use std::sync::Arc;

use crate::data::Record;
use crate::error::Result;
use crate::physical::PhysicalOp;
use crate::plan::{NodeId, PhysicalNode, PhysicalPlan, PlanBuilder};
use crate::udf::FilterUdf;

/// Apply all rewrite rules: shared scans, then the two filter rules to a
/// fixpoint, then pipeline fusion over the shapes they leave.
///
/// Rewrites renumber nodes but never add, drop or reorder sinks, so the
/// rewritten plan reports each sink's output under the id that sink had in
/// the incoming plan ([`PhysicalPlan::output_ids`]).
pub fn apply_rewrites(plan: PhysicalPlan) -> Result<PhysicalPlan> {
    let reported = plan.output_ids().into_iter().map(|(_, id)| id).collect();
    let mut plan = shared_scans(plan)?;
    // Terminates: a push-down replaces a filter by two strictly closer to
    // the sources, a theta rewrite removes a filter and a node.
    loop {
        if let Some(pushed) = push_filter_through_union(&plan)? {
            plan = pushed;
        } else if let Some(joined) = cross_filter_to_theta(&plan)? {
            plan = joined;
        } else {
            break;
        }
    }
    let plan = super::fuse::fuse_pipelines(plan)?;
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

/// Where a node of a [`splice`] reads from.
enum Feed {
    /// A node of the plan being rewritten.
    Old(NodeId),
    /// An earlier node of the same splice, by position.
    New(usize),
}

/// Rebuild `plan` without `dead`, with the `spliced` run of nodes where `at`
/// was; the run's last node answers to `at`'s consumers.
fn splice(
    plan: &PhysicalPlan,
    dead: NodeId,
    at: NodeId,
    spliced: Vec<(PhysicalOp, Vec<Feed>)>,
) -> Result<PhysicalPlan> {
    let mut new_ids: Vec<Option<NodeId>> = vec![None; plan.len()];
    let mut rebuilt = PlanBuilder::new();
    for m in plan.nodes().iter().filter(|m| m.id != dead) {
        let kept = |i: &NodeId| new_ids[i.0].expect("producer kept and earlier");
        let placed = if m.id == at {
            let mut run: Vec<NodeId> = Vec::with_capacity(spliced.len());
            for (op, feeds) in &spliced {
                let inputs = feeds
                    .iter()
                    .map(|feed| match feed {
                        Feed::Old(i) => kept(i),
                        Feed::New(k) => run[*k],
                    })
                    .collect();
                run.push(rebuilt.add(op.clone(), inputs));
            }
            run.last().copied()
        } else {
            Some(rebuilt.add(m.op.clone(), m.inputs.iter().map(kept).collect()))
        };
        new_ids[m.id.0] = placed;
    }
    rebuilt.build_fragment()
}

/// A filter whose producer is a `wanted` operator with no other consumer:
/// the filter's id and UDF, and the producer.
fn filter_over(
    plan: &PhysicalPlan,
    wanted: fn(&PhysicalOp) -> bool,
) -> Option<(NodeId, &FilterUdf, &PhysicalNode)> {
    let counts = consumer_counts(plan);
    plan.nodes().iter().find_map(|n| {
        let PhysicalOp::Filter(p) = &n.op else {
            return None;
        };
        let producer = plan.node(n.inputs[0]);
        (counts[producer.id.0] == 1 && wanted(&producer.op)).then_some((n.id, p, producer))
    })
}

/// `σ(A ∪ B)` → `σ(A) ∪ σ(B)`.
///
/// Fires only when the union result feeds exactly one consumer (the filter),
/// and rewrites in place: the union takes the filter's place. `None` when no
/// filter sits on such a union.
fn push_filter_through_union(plan: &PhysicalPlan) -> Result<Option<PhysicalPlan>> {
    let Some((filter, p, union)) = filter_over(plan, |op| matches!(op, PhysicalOp::Union)) else {
        return Ok(None);
    };
    let side = |i: usize| {
        (
            PhysicalOp::Filter(p.clone()),
            vec![Feed::Old(union.inputs[i])],
        )
    };
    let pushed = vec![
        side(0),
        side(1),
        (PhysicalOp::Union, vec![Feed::New(0), Feed::New(1)]),
    ];
    splice(plan, union.id, filter, pushed).map(Some)
}

/// `σ_p(A × B)` → `A ⋈_p B` (nested-loop theta join evaluating `p` on the
/// concatenated pair), when the cross product has a single consumer. `None`
/// when no filter sits on such a cross product.
fn cross_filter_to_theta(plan: &PhysicalPlan) -> Result<Option<PhysicalPlan>> {
    let Some((filter, p, cross)) = filter_over(plan, |op| matches!(op, PhysicalOp::CrossProduct))
    else {
        return Ok(None);
    };
    let theta = {
        let p = p.clone();
        PhysicalOp::NestedLoopJoin {
            name: format!("θ({})", p.name),
            selectivity: p.selectivity,
            predicate: Arc::new(move |l: &Record, r: &Record| (p.f)(&l.concat(r))),
        }
    };
    // The filter node becomes the theta join, consuming the cross product's
    // former inputs.
    let sides = cross.inputs.iter().map(|&i| Feed::Old(i)).collect();
    splice(plan, cross.id, filter, vec![(theta, sides)]).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::run_plan;
    use crate::platform::ExecutionContext;
    use crate::rec;

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
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
        // A filter over nested unions next to a filter over a cross product:
        // the first round pushes once (+1 node) and eliminates the cross
        // product (−1 node), and the inner union still has a filter to take.
        let mut b = PlanBuilder::new();
        let a = b.collection("a", nums(4));
        let c = b.collection("c", nums(5));
        let d = b.collection("d", nums(6));
        let inner = b.union(a, c);
        let outer = b.union(inner, d);
        let odd = b.filter(outer, FilterUdf::new("odd", |r| r.int(0).unwrap() % 2 == 1));
        let r = b.collection("r", nums(3));
        let cp = b.cross_product(odd, r);
        let lt = b.filter(
            cp,
            FilterUdf::new("lt", |row| row.int(0).unwrap() < row.int(1).unwrap()),
        );
        b.collect(lt);
        let plan = b.build().unwrap();
        let before = run_plan(&plan, &ExecutionContext::new()).unwrap();
        let rewritten = apply_rewrites(plan).unwrap();
        // a, c, d, r, σ(a), σ(c), σ(d), two unions, θ-join, sink.
        assert_eq!(rewritten.len(), 11, "{}", rewritten.explain());
        for n in rewritten.nodes() {
            assert!(!matches!(n.op, PhysicalOp::CrossProduct));
            if matches!(n.op, PhysicalOp::Filter(_)) {
                let producer = &rewritten.node(n.inputs[0]).op;
                assert!(matches!(producer, PhysicalOp::CollectionSource { .. }));
            }
        }
        let after = run_plan(&rewritten, &ExecutionContext::new()).unwrap();
        assert_eq!(
            before.values().next().unwrap(),
            after.values().next().unwrap()
        );
    }
}
