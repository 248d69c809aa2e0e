//! Triangle counting via two equi-joins — a non-iterative graph workload
//! that stresses the join operators and the optimizer's join costing.
//!
//! Edges are undirected; each triangle `{u, v, w}` is counted exactly once
//! by orienting edges canonically (`u < v`) and joining
//! `(u,v) ⋈ (v,w) ⋈ (u,w)`.

use rheem_core::udf::{KeyUdf, MapUdf};
use rheem_core::{
    read_count, rec, JobResult, NodeId, PhysicalPlan, PlanBuilder, Record, Result, RheemContext,
    Value,
};

/// Pack a node pair into one scalar key (node ids must fit in 31 bits).
fn pair_key(u: i64, v: i64) -> Value {
    Value::Int((u << 31) | v)
}

/// Build the triangle-counting plan; returns `(plan, count-sink)`.
pub fn build_plan(edges: Vec<Record>) -> Result<(PhysicalPlan, NodeId)> {
    // Canonicalize to u < v and deduplicate (host-side preprocessing).
    let mut canon: Vec<Record> = edges
        .iter()
        .filter_map(|e| {
            let (s, d) = (e.int(0).ok()?, e.int(1).ok()?);
            match s.cmp(&d) {
                std::cmp::Ordering::Less => Some(rec![s, d]),
                std::cmp::Ordering::Greater => Some(rec![d, s]),
                std::cmp::Ordering::Equal => None,
            }
        })
        .collect();
    canon.sort();
    canon.dedup();

    let mut b = PlanBuilder::new();
    let e1 = b.collection("edges", canon);
    // Wedges: (u,v) ⋈_{v = v'} (v',w) with u < v < w.
    let wedges_raw = b.hash_join(e1, e1, KeyUdf::field(1), KeyUdf::field(0));
    // [u, v, v, w] -> [u, w] keyed for the closing edge; v<w holds by
    // canonical orientation, u<v likewise, so u<v<w is automatic.
    let closing = b.map(
        wedges_raw,
        MapUdf::new("wedge-endpoints", |r: &Record| {
            let (u, w) = (r.int(0).expect("u"), r.int(3).expect("w"));
            Record::new(vec![pair_key(u, w)])
        }),
    );
    let edge_keys = b.map(
        e1,
        MapUdf::new("edge-key", |r: &Record| {
            Record::new(vec![pair_key(r.int(0).expect("u"), r.int(1).expect("v"))])
        }),
    );
    let triangles = b.hash_join(closing, edge_keys, KeyUdf::field(0), KeyUdf::field(0));
    let sink = b.count(triangles);
    Ok((b.build()?, sink))
}

/// Count triangles of an undirected edge list.
pub fn triangle_count(ctx: &RheemContext, edges: Vec<Record>) -> Result<(u64, JobResult)> {
    let (plan, sink) = build_plan(edges)?;
    let result = ctx.execute(plan)?;
    let n = read_count(&result.outputs[&sink])? as u64;
    Ok((n, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_platforms::JavaPlatform;
    use std::sync::Arc;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    #[test]
    fn single_triangle() {
        let edges = vec![rec![0i64, 1i64], rec![1i64, 2i64], rec![2i64, 0i64]];
        let (n, _) = triangle_count(&ctx(), edges).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn complete_graph_k5_has_ten_triangles() {
        let mut edges = Vec::new();
        for u in 0..5i64 {
            for v in 0..5i64 {
                if u != v {
                    edges.push(rec![u, v]); // duplicates + both directions
                }
            }
        }
        let (n, _) = triangle_count(&ctx(), edges).unwrap();
        assert_eq!(n, 10); // C(5,3)
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        // A path and a star are triangle-free.
        let path: Vec<Record> = (0..10i64).map(|v| rec![v, v + 1]).collect();
        assert_eq!(triangle_count(&ctx(), path).unwrap().0, 0);
        let star: Vec<Record> = (1..10i64).map(|v| rec![0i64, v]).collect();
        assert_eq!(triangle_count(&ctx(), star).unwrap().0, 0);
    }

    #[test]
    fn self_loops_are_ignored() {
        let edges = vec![
            rec![0i64, 0i64],
            rec![0i64, 1i64],
            rec![1i64, 2i64],
            rec![2i64, 0i64],
        ];
        assert_eq!(triangle_count(&ctx(), edges).unwrap().0, 1);
    }
}
