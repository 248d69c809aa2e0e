//! Ablation (criterion): does one calibrated run pay for itself?
//!
//! Benchmarks the same aggregation workload executed on the uncalibrated
//! plan (picked by a lying cost model) vs. the plan the optimizer chooses
//! after a single observed run folded real runtimes into the calibration
//! table. Prints the estimated-vs-observed `explain` views so the flip and
//! the per-atom error ratios are visible in the run log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_bench::{flip_context, flip_plan, run_calibration_flip};

fn bench(c: &mut Criterion) {
    let n = 20_000;
    let report = run_calibration_flip(n);
    eprintln!(
        "uncalibrated plan: {:?} ({:.3} ms observed)",
        report.first_assignments, report.first_observed_ms
    );
    eprintln!("{}", report.first_explain_observed);
    eprintln!(
        "calibrated plan:   {:?} ({:.3} ms observed)",
        report.second_assignments, report.second_observed_ms
    );
    eprintln!("{}", report.second_explain_observed);
    assert_ne!(
        report.first_assignments, report.second_assignments,
        "calibration must change the plan"
    );

    let mut group = c.benchmark_group("ablation_calibration");
    group.sample_size(10);

    // Uncalibrated: a fresh context per iteration batch, first plan only.
    group.bench_with_input(BenchmarkId::new("uncalibrated", n), &n, |b, &n| {
        let (ctx, _observe) = flip_context();
        let exec = ctx.optimize(flip_plan(n)).unwrap();
        b.iter(|| ctx.execute_plan(&exec).unwrap())
    });

    // Calibrated: one observed run, then benchmark the corrected plan.
    group.bench_with_input(BenchmarkId::new("calibrated", n), &n, |b, &n| {
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
