//! Connected components by label propagation, as a RHEEM loop plan.
//!
//! Labels (the loop state) are `[node(Int), label(Int)]`, initialized to
//! `label = node`; every iteration each node adopts the minimum label among
//! itself and its in-neighbours. Edges are treated as undirected by
//! symmetrizing the edge list up front.

use rheem_core::udf::{KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
use rheem_core::{
    rec, Dataset, JobResult, NodeId, PhysicalPlan, PlanBuilder, Record, Result, RheemContext,
};

use crate::pagerank::nodes_of;

/// Connected-components configuration.
#[derive(Clone, Debug)]
pub struct ConnectedComponents {
    /// Label-propagation rounds (≥ graph diameter for exactness).
    pub iterations: u64,
}

impl Default for ConnectedComponents {
    fn default() -> Self {
        ConnectedComponents { iterations: 30 }
    }
}

impl ConnectedComponents {
    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Build the plan; returns `(plan, sink)`.
    pub(crate) fn build_plan(&self, edges: Vec<Record>) -> Result<(PhysicalPlan, NodeId)> {
        let nodes = nodes_of(&edges);
        // Symmetrize: label flows both ways across an edge.
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for e in &edges {
            let (s, d) = (e.int(0)?, e.int(1)?);
            sym.push(rec![s, d]);
            sym.push(rec![d, s]);
        }

        let mut body = PlanBuilder::new();
        let labels = body.loop_input();
        let edge_src = body.collection("sym-edges", sym);
        // edge.src = label.node → propagate the label to dst.
        let joined = body.hash_join(edge_src, labels, KeyUdf::field(0), KeyUdf::field(0));
        // [src, dst, node, label] -> [dst, label].
        let propagated = body.map(
            joined,
            MapUdf::new("propagate", |r: &Record| {
                rec![r.int(1).expect("dst"), r.int(3).expect("label")]
            }),
        );
        let kept = body.union(propagated, labels);
        body.reduce_by_key(
            kept,
            KeyUdf::field(0),
            ReduceUdf::new("min-label", |a: Record, b: &Record| {
                if b.int(1).expect("label") < a.int(1).expect("label") {
                    b.clone()
                } else {
                    a
                }
            }),
        );
        let body = body.build_fragment()?;

        let mut b = PlanBuilder::new();
        let init = b.collection(
            "initial-labels",
            nodes.iter().map(|&v| rec![v, v]).collect(),
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

    /// Run; returns `(node, component-label)` pairs sorted by node.
    pub fn run(
        &self,
        ctx: &RheemContext,
        edges: Vec<Record>,
    ) -> Result<(Vec<(i64, i64)>, JobResult)> {
        let (plan, sink) = self.build_plan(edges)?;
        let result = ctx.execute(plan)?;
        let labels = decode_labels(&result.outputs[&sink])?;
        Ok((labels, result))
    }
}

/// Decode `[node, label]` records, sorted by node.
pub(crate) fn decode_labels(d: &Dataset) -> Result<Vec<(i64, i64)>> {
    let mut out: Vec<(i64, i64)> = d
        .iter()
        .map(|r| Ok((r.int(0)?, r.int(1)?)))
        .collect::<Result<_>>()?;
    out.sort_unstable();
    Ok(out)
}

/// Number of distinct components in a labelling.
pub fn component_count(labels: &[(i64, i64)]) -> usize {
    let mut set: Vec<i64> = labels.iter().map(|(_, l)| *l).collect();
    set.sort_unstable();
    set.dedup();
    set.len()
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
    fn disjoint_cycles_yield_one_component_each() {
        let edges = rheem_datagen::disjoint_cycles(4, 5);
        let (labels, _) = ConnectedComponents::default()
            .with_iterations(10)
            .run(&ctx(), edges)
            .unwrap();
        assert_eq!(labels.len(), 20);
        assert_eq!(component_count(&labels), 4);
        // Each cycle's label is its minimum node id.
        for (node, label) in &labels {
            assert_eq!(*label, (node / 5) * 5);
        }
    }

    #[test]
    fn chain_collapses_to_single_component() {
        // 0-1-2-...-9 as a directed path; symmetrization makes it one CC.
        let edges: Vec<Record> = (0..9i64).map(|v| rec![v, v + 1]).collect();
        let (labels, _) = ConnectedComponents::default()
            .with_iterations(12)
            .run(&ctx(), edges)
            .unwrap();
        assert_eq!(component_count(&labels), 1);
        assert!(labels.iter().all(|(_, l)| *l == 0));
    }

    #[test]
    fn insufficient_iterations_leave_the_chain_unfinished() {
        // Propagation moves one hop per round: 3 rounds cannot finish a
        // 10-node chain (label 0 must travel 9 hops).
        let edges: Vec<Record> = (0..9i64).map(|v| rec![v, v + 1]).collect();
        let (labels, _) = ConnectedComponents::default()
            .with_iterations(3)
            .run(&ctx(), edges)
            .unwrap();
        assert!(component_count(&labels) > 1);
    }
}
