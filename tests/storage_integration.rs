//! Processing ↔ storage integration (paper §6): plans read through the
//! storage abstraction and results are written back by id, the placement
//! catalog decides which store serves an id, Cartilage plans shape layouts,
//! and hot buffers absorb repeated access — all through the same
//! `StorageSource` operator and `StorageService::write` regardless of
//! which store holds the data.

use std::sync::Arc;

use rheem::prelude::*;
use rheem::rec;
use rheem_core::StorageService;
use rheem_storage::{MemStore, SimHdfsConfig, SimHdfsStore, TransformStep, TransformationPlan};

fn layer() -> Arc<StorageLayer> {
    Arc::new(
        StorageLayer::new(Arc::new(MemStore::new("mem")))
            .with_store(Arc::new(SimHdfsStore::new(
                "hdfs",
                SimHdfsConfig::default(),
            )))
            .with_hot_buffer(100_000),
    )
}

fn ctx_with(storage: Arc<StorageLayer>) -> RheemContext {
    RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(
            SparkLikePlatform::new(4).with_overheads(OverheadConfig::none()),
        ))
        .with_storage(storage)
}

fn count_of(ctx: &RheemContext, dataset_id: &str) -> usize {
    let mut b = PlanBuilder::new();
    let src = b.storage_source(dataset_id);
    let sink = b.collect(src);
    let result = ctx.execute(b.build().unwrap()).unwrap();
    result.outputs[&sink].len()
}

#[test]
fn plans_read_and_write_across_stores() {
    let storage = layer();
    let ctx = ctx_with(storage.clone());

    // Seed input on the simulated HDFS.
    let input: Vec<Record> = (0..500i64).map(|i| rec![i, i * 3]).collect();
    storage.place("input", "hdfs");
    storage
        .store("hdfs")
        .unwrap()
        .write("input", &Dataset::new(input))
        .unwrap();

    // Process it and write the result back through the l-store; the
    // derived dataset lands on the default store (mem) because it is not
    // placed.
    let mut b = PlanBuilder::new();
    let src = b.storage_source("input");
    let f = b.filter(src, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0));
    let sink = b.collect(f);
    let result = ctx.execute(b.build().unwrap()).unwrap();
    StorageService::write(storage.as_ref(), "derived", &result.outputs[&sink]).unwrap();

    assert_eq!(storage.placement("derived"), "mem");
    assert_eq!(
        storage.store("mem").unwrap().cardinality("derived"),
        Some(250)
    );
    // The result is readable by another plan.
    assert_eq!(count_of(&ctx, "derived"), 250);
}

#[test]
fn placement_is_transparent_to_plans() {
    let storage = layer();
    let ctx = ctx_with(storage.clone());
    let data = Dataset::new((0..100i64).map(|i| rec![i]).collect());
    StorageService::write(storage.as_ref(), "d", &data).unwrap();
    assert_eq!(storage.placement("d"), "mem");
    assert_eq!(count_of(&ctx, "d"), 100);

    // The same id now lives on the simulated HDFS, with different contents
    // so the plan cannot be answered from the old copy.
    let moved = Dataset::new((0..40i64).map(|i| rec![i]).collect());
    storage.store("hdfs").unwrap().write("d", &moved).unwrap();
    storage.place("d", "hdfs");
    assert_eq!(storage.placement("d"), "hdfs");
    assert_eq!(count_of(&ctx, "d"), 40, "same plan, new store");
}

#[test]
fn writes_go_where_the_id_is_placed() {
    let storage = layer();
    storage.place("d", "hdfs");
    let v1 = Dataset::new((0..3i64).map(|i| rec![i]).collect());
    let v2 = Dataset::new((0..5i64).map(|i| rec![i * 10]).collect());
    StorageService::write(storage.as_ref(), "d", &v1).unwrap();
    StorageService::write(storage.as_ref(), "d", &v2).unwrap();

    assert_eq!(storage.placement("d"), "hdfs");
    assert_eq!(storage.store("hdfs").unwrap().read("d").unwrap(), v2);
    assert!(storage.store("mem").unwrap().read("d").is_err());
    assert_eq!(StorageService::read(storage.as_ref(), "d").unwrap(), v2);
}

#[test]
fn cartilage_transformation_feeds_processing() {
    let storage = layer();
    let ctx = ctx_with(storage.clone());

    // Raw CSV lines arrive; a transformation plan parses + filters + sorts
    // them on ingestion, so plans see a clean layout.
    let raw: Vec<Record> = vec![
        rec!["5,charlie"],
        rec!["1,alice"],
        rec!["oops"],
        rec!["3,bob"],
    ];
    let ingest = TransformationPlan::named("ingest")
        .then(TransformStep::ParseCsv)
        .then(TransformStep::FilterRows(FilterUdf::new("valid", |r| {
            r.width() == 2 && r.int(0).is_ok()
        })))
        .then(TransformStep::SortBy {
            column: 0,
            descending: false,
        });
    let people = ingest.apply(Dataset::new(raw)).unwrap();
    StorageService::write(storage.as_ref(), "people", &people).unwrap();

    let mut b = PlanBuilder::new();
    let src = b.storage_source("people");
    let sink = b.collect(src);
    let result = ctx.execute(b.build().unwrap()).unwrap();
    let people = &result.outputs[&sink];
    assert_eq!(people.len(), 3);
    assert_eq!(people.records()[0].str(1).unwrap(), "alice");
    assert_eq!(people.records()[2].str(1).unwrap(), "charlie");
}

#[test]
fn repeated_plan_runs_hit_the_hot_buffer() {
    let storage = layer();
    let ctx = ctx_with(storage.clone());
    let data: Vec<Record> = (0..2_000i64).map(|i| rec![i]).collect();
    StorageService::write(storage.as_ref(), "hot", &Dataset::new(data)).unwrap();

    for _ in 0..5 {
        let mut b = PlanBuilder::new();
        let src = b.storage_source("hot");
        b.collect(src);
        ctx.execute(b.build().unwrap()).unwrap();
    }
    let stats = storage.hot_stats().unwrap();
    assert!(stats.hits >= 4, "expected buffer hits, got {stats:?}");
}

#[test]
fn missing_dataset_surfaces_as_clean_error() {
    let storage = layer();
    let ctx = ctx_with(storage);
    let mut b = PlanBuilder::new();
    let src = b.storage_source("nope");
    b.collect(src);
    let err = ctx.execute(b.build().unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            RheemError::DatasetNotFound(_) | RheemError::Execution { .. }
        ),
        "{err}"
    );
}
