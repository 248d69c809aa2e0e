//! Ablation B (criterion): executing the plans chosen by the
//! movement-aware vs. movement-oblivious optimizer.

use criterion::{criterion_group, criterion_main, Criterion};
use rheem_bench::ablations::{mixed_pipeline_plan, movement_context};
use rheem_core::cost::MovementCostModel;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_movement_cost");
    group.sample_size(10);
    let ctx = movement_context(20_000);
    let plan = mixed_pipeline_plan();
    let aware = ctx.optimize(plan.clone()).unwrap();
    let oblivious_ctx = {
        let mut c2 = movement_context(20_000);
        c2.optimizer_mut().movement = MovementCostModel::free();
        c2
    };
    let oblivious = oblivious_ctx.optimize(plan).unwrap();
    group.bench_function("aware_plan", |b| {
        b.iter(|| ctx.execute_plan(&aware).unwrap())
    });
    group.bench_function("oblivious_plan", |b| {
        b.iter(|| ctx.execute_plan(&oblivious).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
