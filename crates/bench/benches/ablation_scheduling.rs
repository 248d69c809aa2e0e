//! Ablation (criterion): a thread budget of 1 (one atom at a time) vs. one
//! wide enough for every branch of a wave to run at once, on a fan-out plan
//! whose branches are pinned to distinct platforms and are mutually
//! independent — the workload shape the wave scheduler exists for.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_core::udf::{KeyUdf, MapUdf, ReduceUdf};
use rheem_core::{rec, split_into_atoms, ExecutionPlan, KernelParallelism, PlanBuilder};
use rheem_platforms::test_context;

const PLATFORMS: [&str; 3] = ["sparklike", "mapreduce", "java"];

/// One shared source on java fanning out to `branches` independent
/// aggregation branches, each pinned to a platform round-robin.
fn fanout_plan(n: i64, branches: usize) -> ExecutionPlan {
    let mut b = PlanBuilder::new();
    let mut assignments = vec!["java".to_string()];
    let src = b.collection("s", (0..n).map(|i| rec![i % 64, i]).collect());
    for branch in 0..branches {
        let platform = PLATFORMS[branch % PLATFORMS.len()];
        let shift = branch as i64;
        let m = b.map(
            src,
            MapUdf::new("shift", move |r| {
                rec![r.int(0).unwrap(), r.int(1).unwrap() + shift]
            }),
        );
        let agg = b.reduce_by_key(
            m,
            KeyUdf::field(0).with_distinct_keys(64.0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        b.collect(agg);
        assignments.extend([
            platform.to_string(),
            platform.to_string(),
            platform.to_string(),
        ]);
    }
    let physical = b.build().unwrap();
    let atoms = split_into_atoms(&physical, &assignments);
    ExecutionPlan {
        physical: Arc::new(physical),
        assignments,
        atoms,
        estimated_cost: 0.0,
        estimates: vec![],
        enumeration: Default::default(),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scheduling");
    group.sample_size(10);
    for branches in [3usize, 6] {
        let exec = fanout_plan(20_000, branches);
        let at = |threads| {
            test_context()
                .with_kernel_parallelism(KernelParallelism::sequential().with_threads(threads))
        };
        let (sequential, parallel) = (at(1), at(branches));
        let stats = parallel.execute_plan(&exec).unwrap().stats;
        eprintln!(
            "branches {branches}: {} atoms in {} waves (threads = {branches})",
            stats.atoms.len(),
            stats.waves
        );
        group.bench_with_input(BenchmarkId::new("threads_1", branches), &exec, |b, exec| {
            b.iter(|| sequential.execute_plan(exec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("threads_n", branches), &exec, |b, exec| {
            b.iter(|| parallel.execute_plan(exec).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
