//! Ablation (criterion): static execution of a mis-estimated plan vs. the
//! same plan with adaptive mid-job re-optimization enabled. The adaptive
//! run flips the remaining atoms off the cluster engine at the first wave
//! boundary once the observed cardinality exposes the fanout lie.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_bench::{misestimated_plan, replanning_context, run_replanning_ablation};
use rheem_core::ReplanPolicy;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_replanning");
    group.sample_size(10);
    for n in [2_000i64, 8_000] {
        let report = run_replanning_ablation(n);
        eprintln!(
            "n {n}: static {:.2} ms → adaptive {:.2} ms ({} replan(s), outputs identical: {}), \
             {:?} → {:?}",
            report.static_simulated_ms,
            report.adaptive_simulated_ms,
            report.replans,
            report.outputs_identical,
            report.initial_assignments,
            report.effective_assignments,
        );

        let exec = replanning_context().optimize(misestimated_plan(n)).unwrap();
        let static_ctx = replanning_context();
        let adaptive_ctx = replanning_context().with_replan_policy(ReplanPolicy {
            threshold: 2.0,
            max_replans: 2,
        });
        group.bench_with_input(BenchmarkId::new("static", n), &exec, |b, exec| {
            b.iter(|| static_ctx.execute_plan(exec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("adaptive", n), &exec, |b, exec| {
            b.iter(|| adaptive_ctx.execute_plan(exec).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
