//! Graph analytics on RHEEM (the third application announced in paper §5):
//! PageRank, connected components, and triangle counting over a synthetic
//! web-like graph — all expressed as ordinary RHEEM plans.
//!
//! Run with: `cargo run --example graph_analytics --release`

use std::sync::Arc;

use rheem::prelude::*;
use rheem_datagen::{disjoint_cycles, preferential_attachment};
use rheem_graph::{component_count, ConnectedComponents, PageRank};

fn main() -> Result<(), RheemError> {
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(8)));

    // A scale-free graph: preferential attachment grows hubs.
    let edges = preferential_attachment(2_000, 2, 11);
    println!(
        "graph: 2000 nodes, {} edges (preferential attachment)\n",
        edges.len()
    );

    // PageRank.
    let (ranks, result) = PageRank::default()
        .with_iterations(15)
        .run(&ctx, edges.clone())?;
    println!(
        "PageRank (15 iterations, {:.1} simulated ms on {:?}); top 5:",
        result.stats.total_simulated_ms(),
        result.stats.platforms_used()
    );
    for (node, rank) in ranks.iter().take(5) {
        println!("  node {node:>4}  rank {rank:.5}");
    }

    // Connected components on a graph with known structure.
    let cc_edges = disjoint_cycles(5, 40);
    let (labels, _) = ConnectedComponents::default()
        .with_iterations(25)
        .run(&ctx, cc_edges)?;
    println!(
        "\nconnected components: found {} components across {} nodes (expected 5)",
        component_count(&labels),
        labels.len()
    );

    // Triangle counting.
    let (triangles, result) = rheem_graph::triangle_count(&ctx, edges)?;
    println!(
        "\ntriangles: {triangles} (counted in {:.1} simulated ms)",
        result.stats.total_simulated_ms()
    );
    Ok(())
}
