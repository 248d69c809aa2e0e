//! Ablation E (criterion): hot-buffer hits vs. cold simulated-HDFS reads,
//! and Cartilage-prepared layouts vs. raw re-parsing.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rheem_core::{rec, Dataset, StorageService};
use rheem_storage::{SimHdfsConfig, SimHdfsStore, StorageLayer, TransformStep, TransformationPlan};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_storage");
    group.sample_size(10);
    let data = Dataset::new(rheem_datagen::sensor_readings(20_000, 8, 0.02, 5));

    let hdfs = || {
        Arc::new(SimHdfsStore::new(
            "hdfs",
            SimHdfsConfig {
                block_records: 1_000,
                sleep: false, // criterion measures the decode work itself
                ..SimHdfsConfig::default()
            },
        ))
    };
    let hot = StorageLayer::new(hdfs()).with_hot_buffer(1_000_000);
    let cold = StorageLayer::new(hdfs());
    StorageService::write(&hot, "d", &data).unwrap();
    StorageService::write(&cold, "d", &data).unwrap();
    StorageService::read(&hot, "d").unwrap(); // warm the buffer
    group.bench_function("read_hot", |b| {
        b.iter(|| StorageService::read(&hot, "d").unwrap().len())
    });
    group.bench_function("read_cold", |b| {
        b.iter(|| StorageService::read(&cold, "d").unwrap().len())
    });

    let raw: Vec<_> = data
        .iter()
        .map(|r| {
            rec![format!(
                "{},{},{}",
                r.int(0).unwrap(),
                r.int(1).unwrap(),
                r.float(2).unwrap()
            )]
        })
        .collect();
    let plan = TransformationPlan::named("ingest").then(TransformStep::ParseCsv);
    let prepared = plan.apply(Dataset::new(raw.clone())).unwrap();
    group.bench_function("query_prepared", |b| {
        b.iter(|| {
            prepared
                .iter()
                .filter(|r| r.float(2).map(|p| p > 100.0).unwrap_or(false))
                .count()
        })
    });
    group.bench_function("query_reparsing", |b| {
        b.iter(|| {
            plan.apply(Dataset::new(raw.clone()))
                .unwrap()
                .iter()
                .filter(|r| r.float(2).map(|p| p > 100.0).unwrap_or(false))
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
