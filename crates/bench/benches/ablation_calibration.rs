//! Ablation (criterion): does the fitted kernel rate pay for itself?
//!
//! Runs the convergence series (the map priced from its seed, then from
//! the rate fitted to each observed job), prints it, then benchmarks the
//! workload under the cold plan and under the plan the optimizer chooses
//! once one observed job has fitted the map's rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_bench::{flip_context, flip_plan, render_convergence, run_calibration_flip};

fn bench(c: &mut Criterion) {
    let n = 20_000;
    let steps = run_calibration_flip(n, 4);
    eprintln!("{}", render_convergence(n, &steps));
    assert_ne!(
        steps[0].platform, steps[1].platform,
        "one observed job must change the plan"
    );

    let mut group = c.benchmark_group("ablation_calibration");
    group.sample_size(10);

    // Cold: the plan priced from the seed.
    group.bench_with_input(BenchmarkId::new("seeded", n), &n, |b, &n| {
        let (ctx, _observe) = flip_context();
        let exec = ctx.optimize(flip_plan(n)).unwrap();
        b.iter(|| ctx.execute_plan(&exec).unwrap())
    });

    // Fitted: one observed job, then the plan priced from the fit.
    group.bench_with_input(BenchmarkId::new("fitted", n), &n, |b, &n| {
        let (ctx, _observe) = flip_context();
        let warmup = ctx.optimize(flip_plan(n)).unwrap();
        ctx.execute_plan(&warmup).unwrap();
        let exec = ctx.optimize(flip_plan(n)).unwrap();
        b.iter(|| ctx.execute_plan(&exec).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
