//! Ablation C (criterion): IEJoin vs brute-force pair scan, algorithm-only
//! (no plan machinery), across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rheem_cleaning::ie_self_join_canonical;

fn brute_force(tuples: &[(i64, f64, f64)]) -> usize {
    let mut n = 0;
    for s in tuples {
        for t in tuples {
            if s.0 != t.0 && s.1 > t.1 && s.2 < t.2 {
                n += 1;
            }
        }
    }
    n
}

fn data(n: usize) -> Vec<(i64, f64, f64)> {
    // Monotone b in a (few violations), with ~10 outliers.
    (0..n)
        .map(|i| {
            let a = (i as f64 * 17.0) % 1000.0;
            let b = if i % (n / 10).max(1) == 0 {
                0.0
            } else {
                a / 10.0 + 1.0
            };
            (i as i64, a, b)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_iejoin");
    group.sample_size(10);
    for &n in &[1_000usize, 8_000, 32_000] {
        let tuples = data(n);
        group.bench_with_input(BenchmarkId::new("iejoin", n), &tuples, |b, t| {
            b.iter(|| ie_self_join_canonical(t).len())
        });
        if n <= 8_000 {
            group.bench_with_input(BenchmarkId::new("brute_force", n), &tuples, |b, t| {
                b.iter(|| brute_force(t))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
