//! PageRank as a RHEEM loop plan.
//!
//! The graph application is the third application the paper announces in
//! §5 ("we are currently developing ... a graph processing application").
//! PageRank exercises the iterative dataflow shape that, like the ML
//! loops, is exactly where platform choice matters.
//!
//! Layouts: edges `[src(Int), dst(Int)]`; ranks (the loop state)
//! `[node(Int), rank(Float)]`.

use rheem_core::udf::{KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
use rheem_core::{
    kernels, rec, Dataset, JobResult, NodeId, PhysicalPlan, PlanBuilder, Record, Result,
    RheemContext,
};

/// PageRank configuration.
#[derive(Clone, Debug)]
pub struct PageRank {
    /// Damping factor (0.85 is standard).
    pub damping: f64,
    /// Number of power iterations.
    pub iterations: u64,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            iterations: 20,
        }
    }
}

/// Distinct node ids of an edge list.
pub(crate) fn nodes_of(edges: &[Record]) -> Vec<i64> {
    let mut nodes: Vec<i64> = edges
        .iter()
        .flat_map(|e| [e.int(0).expect("src"), e.int(1).expect("dst")])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

impl PageRank {
    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Build the plan; returns `(plan, sink)`.
    ///
    /// Application-side preprocessing computes each source's out-degree so
    /// the loop body can scale contributions — host code preparing static
    /// inputs, as any RHEEM application would.
    pub(crate) fn build_plan(&self, edges: Vec<Record>) -> Result<(PhysicalPlan, NodeId)> {
        let nodes = nodes_of(&edges);
        let n = nodes.len().max(1) as f64;
        let base = (1.0 - self.damping) / n;
        let damping = self.damping;

        // Out-degree per source node (host-side, static).
        let degrees = kernels::hash_group(&edges, &KeyUdf::field(0));
        let mut degree_of = std::collections::HashMap::new();
        for (k, members) in &degrees {
            degree_of.insert(k.as_int()?, members.len() as i64);
        }
        let edges_with_deg: Vec<Record> = edges
            .iter()
            .map(|e| {
                let src = e.int(0).expect("src");
                rec![src, e.int(1).expect("dst"), degree_of[&src]]
            })
            .collect();

        // ----- loop body ---------------------------------------------------
        let mut body = PlanBuilder::new();
        let ranks = body.loop_input();
        let edge_src = body.collection("edges+deg", edges_with_deg);
        // Join contributions: edge.src = rank.node.
        let joined = body.hash_join(edge_src, ranks, KeyUdf::field(0), KeyUdf::field(0));
        // [src, dst, deg, node, rank] -> [dst, rank/deg].
        let contribs = body.map(
            joined,
            MapUdf::new("contribution", |r: &Record| {
                rec![
                    r.int(1).expect("dst"),
                    r.float(4).expect("rank") / r.int(2).expect("deg") as f64
                ]
            }),
        );
        // Keep every node alive with a zero contribution.
        let zero_base = body.collection(
            "zero-contributions",
            nodes.iter().map(|&v| rec![v, 0.0f64]).collect(),
        );
        let all = body.union(contribs, zero_base);
        let summed = body.reduce_by_key(
            all,
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a: Record, b: &Record| {
                rec![
                    a.int(0).expect("node"),
                    a.float(1).expect("rank") + b.float(1).expect("rank")
                ]
            }),
        );
        body.map(
            summed,
            MapUdf::new("damp", move |r: &Record| {
                rec![
                    r.int(0).expect("node"),
                    base + damping * r.float(1).expect("sum")
                ]
            }),
        );
        let body = body.build_fragment()?;

        // ----- outer plan --------------------------------------------------
        let mut b = PlanBuilder::new();
        let init = b.collection(
            "initial-ranks",
            nodes.iter().map(|&v| rec![v, 1.0 / n]).collect(),
        );
        let looped = b.repeat(
            init,
            body,
            LoopCondUdf::fixed_iterations(self.iterations),
            self.iterations,
        );
        let sink = b.collect(looped);
        Ok((b.build()?, sink))
    }

    /// Run PageRank; returns `(node, rank)` pairs sorted by rank descending.
    pub fn run(
        &self,
        ctx: &RheemContext,
        edges: Vec<Record>,
    ) -> Result<(Vec<(i64, f64)>, JobResult)> {
        let (plan, sink) = self.build_plan(edges)?;
        let result = ctx.execute(plan)?;
        let ranks = decode_ranks(&result.outputs[&sink])?;
        Ok((ranks, result))
    }
}

/// Decode `[node, rank]` records, sorted by rank descending.
pub(crate) fn decode_ranks(d: &Dataset) -> Result<Vec<(i64, f64)>> {
    let mut out: Vec<(i64, f64)> = d
        .iter()
        .map(|r| Ok((r.int(0)?, r.float(1)?)))
        .collect::<Result<_>>()?;
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_platforms::JavaPlatform;
    use std::sync::Arc;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    /// A star graph: everyone links to node 0.
    fn star(n: i64) -> Vec<Record> {
        (1..=n).map(|v| rec![v, 0i64]).collect()
    }

    #[test]
    fn hub_of_a_star_has_the_top_rank() {
        let (ranks, _) = PageRank::default()
            .with_iterations(15)
            .run(&ctx(), star(10))
            .unwrap();
        assert_eq!(ranks[0].0, 0, "hub should rank first");
        assert!(ranks[0].1 > 5.0 * ranks[1].1);
        // All ranks positive; spokes tie.
        for (_, r) in &ranks {
            assert!(*r > 0.0);
        }
        let spoke_ranks: Vec<f64> = ranks[1..].iter().map(|(_, r)| *r).collect();
        for w in spoke_ranks.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_cycle_gives_uniform_ranks() {
        // 0 -> 1 -> 2 -> 0: perfect symmetry.
        let edges = vec![rec![0i64, 1i64], rec![1i64, 2i64], rec![2i64, 0i64]];
        let (ranks, _) = PageRank::default()
            .with_iterations(30)
            .run(&ctx(), edges)
            .unwrap();
        for (_, r) in &ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-9, "rank {r}");
        }
    }

    #[test]
    fn rank_mass_is_conserved_without_dangling_nodes() {
        // Cycle plus chords: every node has out-degree ≥ 1.
        let mut edges = vec![];
        for v in 0..6i64 {
            edges.push(rec![v, (v + 1) % 6]);
        }
        edges.push(rec![0i64, 3i64]);
        let (ranks, _) = PageRank::default()
            .with_iterations(25)
            .run(&ctx(), edges)
            .unwrap();
        let total: f64 = ranks.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn preferential_attachment_hubs_rank_high() {
        let edges = rheem_datagen::preferential_attachment(120, 2, 9);
        let (ranks, _) = PageRank::default()
            .with_iterations(15)
            .run(&ctx(), edges)
            .unwrap();
        // The early nodes (0 or 1) are the classic hubs.
        assert!(
            ranks[0].0 <= 2,
            "top node {} should be an early hub",
            ranks[0].0
        );
    }
}
