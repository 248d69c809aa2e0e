//! Ablation A (criterion): optimizer free choice vs forced platforms on a
//! keyed aggregation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_bench::aggregation_plan;
use rheem_platforms::test_context;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_platform_choice");
    group.sample_size(10);
    for &n in &[1_000usize, 200_000] {
        let plan = aggregation_plan(n, 64);
        let free = test_context();
        group.bench_with_input(BenchmarkId::new("optimizer", n), &plan, |b, p| {
            b.iter(|| free.execute(p.clone()).unwrap())
        });
        for platform in ["java", "sparklike"] {
            let forced = test_context().force_platform(platform);
            group.bench_with_input(BenchmarkId::new(platform, n), &plan, |b, p| {
                b.iter(|| forced.execute(p.clone()).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
