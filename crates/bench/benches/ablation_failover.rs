//! Ablation (criterion): a job whose expensive suffix is routed to a
//! cluster engine that turns out to be down. The failover-enabled
//! configuration commits the java prefix, re-plans the suffix around the
//! outage, and finishes with fault-free outputs; the rigid configuration
//! errors. The bench tracks the latency of the surviving run (outage +
//! re-plan + fallback execution) at thread budgets 1 and 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_bench::failover::run_failover_ablation;
use rheem_bench::replanning::{misestimated_plan, replanning_context};
use rheem_core::{FailureInjector, FaultPolicy, KernelParallelism};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_failover");
    group.sample_size(10);
    for threads in [1usize, 4] {
        for n in [2_000i64, 8_000] {
            let report = run_failover_ablation(n, threads);
            eprintln!(
                "threads {threads} n {n}: rigid failed: {}, failovers: {}, recommitted: {}, \
                 outputs identical: {}, {:?} → {:?}",
                report.rigid_run_failed,
                report.failovers,
                report.recommitted_atoms,
                report.outputs_identical,
                report.initial_assignments,
                report.effective_assignments,
            );

            let exec = replanning_context().optimize(misestimated_plan(n)).unwrap();
            let ctx = replanning_context()
                .with_kernel_parallelism(KernelParallelism::sequential().with_threads(threads))
                .with_max_retries(1)
                .with_fault_policy(FaultPolicy::instant())
                .with_failure_injector(Arc::new(FailureInjector::platform_down("cluster")));
            let id = BenchmarkId::new(format!("failover_threads_{threads}"), n);
            group.bench_with_input(id, &exec, |b, exec| {
                b.iter(|| ctx.execute_plan(exec).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
