//! Plan-cache correctness under reuse and calibration drift.
//!
//! Property: for random declarative plans, executing through a warm plan
//! cache (second optimization of an equal plan is a hit that skips
//! enumeration) produces outputs *byte-identical* to a cold enumeration in
//! a cache-less context — compared on a canonical byte encoding, not just
//! `==`. And when the shared [`CostCalibration`] drifts past the cache's
//! threshold, the next lookup flips from hit to miss (forced
//! re-enumeration), observable through the cache's own counters
//! ([`PlanCache::stats`]).

use std::sync::Arc;

use proptest::prelude::*;
use rheem_core::udf::{FilterUdf, MapUdf};
use rheem_core::{
    Expr, JobResult, KernelKey, KernelParallelism, Observability, PhysicalPlan, PlanBuilder,
    PlanCache, PlanCacheConfig, Record, Value,
};
use rheem_platforms::test_context;

/// Canonical byte encoding of job outputs: sink ids ascending, then per
/// record a width-prefixed list of tagged values (floats by IEEE bits).
fn encode_outputs(job: &JobResult) -> Vec<u8> {
    let mut sinks: Vec<_> = job.outputs.iter().collect();
    sinks.sort_by_key(|(id, _)| id.0);
    let mut buf = Vec::new();
    for (id, dataset) in sinks {
        buf.extend_from_slice(&(id.0 as u64).to_be_bytes());
        buf.extend_from_slice(&(dataset.records().len() as u64).to_be_bytes());
        for record in dataset.records() {
            buf.extend_from_slice(&(record.width() as u64).to_be_bytes());
            for value in record.fields() {
                match value {
                    Value::Null => buf.push(0),
                    Value::Bool(b) => {
                        buf.push(1);
                        buf.push(u8::from(*b));
                    }
                    Value::Int(i) => {
                        buf.push(2);
                        buf.extend_from_slice(&i.to_be_bytes());
                    }
                    Value::Float(x) => {
                        buf.push(3);
                        buf.extend_from_slice(&x.to_bits().to_be_bytes());
                    }
                    Value::Str(s) => {
                        buf.push(4);
                        buf.extend_from_slice(&(s.len() as u64).to_be_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                }
            }
        }
    }
    buf
}

/// A declarative (expression-only, transparently fingerprintable) plan:
/// source → filter(field0 > threshold) → map(field0 + addend, field1) →
/// collect. Each call builds a structurally identical fresh plan.
fn declarative_plan(rows: &[(i64, i64)], threshold: i64, addend: i64) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.collection(
        "t",
        rows.iter()
            .map(|&(a, c)| Record::new(vec![Value::Int(a), Value::Int(c)]))
            .collect(),
    );
    let filtered = b.filter(
        src,
        FilterUdf::from_expr("keep", Expr::field(0).gt(Expr::lit(threshold))),
    );
    let mapped = b.map(
        filtered,
        MapUdf::from_exprs(
            "shift",
            vec![Expr::field(0).add(Expr::lit(addend)), Expr::field(1)],
        ),
    );
    b.collect(mapped);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm-cache execution is byte-identical to cold enumeration.
    #[test]
    fn cache_hit_outputs_are_byte_identical_to_cold_enumeration(
        rows in proptest::collection::vec((-50i64..50, -5i64..5), 1..40),
        threshold in -40i64..40,
        addend in -5i64..5,
    ) {
        // Cold: no cache attached, every optimization enumerates.
        let cold_ctx = test_context();
        let cold_exec = cold_ctx.optimize(declarative_plan(&rows, threshold, addend)).unwrap();
        let cold_job = cold_ctx.execute_plan(&cold_exec).unwrap();

        // Warm: first optimization populates the cache, the second must hit.
        let cache = Arc::new(PlanCache::new(PlanCacheConfig {
            capacity: 8,
            ..PlanCacheConfig::default()
        }));
        let warm_ctx = test_context().with_plan_cache(cache.clone());
        let first = warm_ctx.optimize(declarative_plan(&rows, threshold, addend)).unwrap();
        let _ = warm_ctx.execute_plan(&first).unwrap();
        let before = cache.stats();
        let second = warm_ctx.optimize(declarative_plan(&rows, threshold, addend)).unwrap();
        let after = cache.stats();
        prop_assert_eq!(after.hits, before.hits + 1);
        let warm_job = warm_ctx.execute_plan(&second).unwrap();

        prop_assert_eq!(encode_outputs(&cold_job), encode_outputs(&warm_job));
        // The hit reused the enumeration verbatim.
        prop_assert_eq!(cold_exec.assignments.clone(), second.assignments.clone());
    }
}

/// Calibration drift past the threshold forces re-enumeration: the cache's
/// counters show the hit→miss flip and the invalidation.
#[test]
fn drift_past_threshold_flips_hit_to_miss_via_metrics() {
    let rows: Vec<(i64, i64)> = (0..30).map(|i| (i, 1)).collect();
    let observe = Arc::new(Observability::new());
    let cache = Arc::new(PlanCache::new(PlanCacheConfig {
        capacity: 8,
        drift_threshold: 0.5,
    }));
    let ctx = test_context()
        .with_observability(observe.clone())
        .with_plan_cache(cache.clone());
    let counts = || {
        let stats = cache.stats();
        (stats.hits, stats.misses, stats.invalidations)
    };

    // Cold: miss, enumerate, insert.
    ctx.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    assert_eq!(counts(), (0, 1, 0));

    // Stable calibration: hit.
    ctx.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    assert_eq!(counts(), (1, 1, 0));

    // Drift the fused pipeline's kernel rate by 100× — far past the 0.5
    // threshold.
    let pipeline = KernelKey::new("ChunkPipeline", true);
    let seeded_us = observe.calibration().rate(pipeline).us(1_000.0);
    observe
        .calibration()
        .observe(pipeline, 1_000.0, seeded_us * 100.0 / 1e3);

    // Past-threshold drift: the entry is invalidated, the lookup is a
    // miss, and the plan is re-enumerated and re-inserted.
    ctx.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    assert_eq!(counts(), (1, 2, 1));

    // The re-inserted entry pins the drifted rates: stable again → hit.
    ctx.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    assert_eq!(counts(), (2, 2, 1));
    // The optimizer still counts its runs into the attached registry.
    assert_eq!(observe.metrics().counter_value("optimizer.runs"), 4);
}

/// Opaque (closure-identity) fingerprints are confined to their cache
/// scope: two contexts with different scopes never share entries for
/// closure-built plans, while declarative plans share through scope 0.
#[test]
fn opaque_entries_are_scope_isolated_but_declarative_entries_are_shared() {
    let rows: Vec<(i64, i64)> = (0..20).map(|i| (i, 1)).collect();
    let cache = Arc::new(PlanCache::new(PlanCacheConfig {
        capacity: 16,
        ..PlanCacheConfig::default()
    }));
    let session_a = test_context()
        .with_plan_cache(cache.clone())
        .with_cache_scope(1);
    let session_b = test_context()
        .with_plan_cache(cache.clone())
        .with_cache_scope(2);

    // Closure-built plan: opaque fingerprint. The UDF Arcs are shared so
    // both sessions see the *same* fingerprint — but different scopes.
    let filter = FilterUdf::new("keep", |r: &Record| r.int(0).unwrap() > 3);
    let closure_plan = || {
        let mut b = PlanBuilder::new();
        let src = b.collection(
            "t",
            rows.iter()
                .map(|&(a, c)| Record::new(vec![Value::Int(a), Value::Int(c)]))
                .collect(),
        );
        let f = b.filter(src, filter.clone());
        b.collect(f);
        b.build().unwrap()
    };
    session_a.optimize(closure_plan()).unwrap();
    let stats = cache.stats();
    session_b.optimize(closure_plan()).unwrap();
    let after = cache.stats();
    assert_eq!(after.hits, stats.hits, "opaque entry leaked across scopes");
    assert_eq!(after.misses, stats.misses + 1);

    // Declarative plan: transparent fingerprint, shared across sessions.
    session_a.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    let stats = cache.stats();
    session_b.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    let after = cache.stats();
    assert_eq!(
        after.hits,
        stats.hits + 1,
        "declarative entry did not share"
    );

    // ...but not across thread budgets: an in-process price divides by the
    // budget's morsel speedup.
    let threads = session_a.kernel_parallelism().threads + 1;
    let session_c = test_context()
        .with_plan_cache(cache.clone())
        .with_kernel_parallelism(KernelParallelism::sequential().with_threads(threads));
    let stats = cache.stats();
    session_c.optimize(declarative_plan(&rows, 3, 1)).unwrap();
    let after = cache.stats();
    assert_eq!(after.hits, stats.hits, "an entry leaked across budgets");
    assert_eq!(after.misses, stats.misses + 1);
}
