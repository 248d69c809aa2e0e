//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! * **A — platform selection** (§2's core promise): the optimizer's free
//!   choice vs. every forced platform, at both ends of the size spectrum.
//! * **B — movement-cost awareness** (§4.2, third aspect): optimizing with
//!   vs. without the inter-platform movement model on a mixed pipeline.
//! * **C — IEJoin vs. cross product** (§5.1): scaling of the extension
//!   operator against the naive pair join.
//! * **D — SortGroupBy vs. HashGroupBy** (§3.1 Example 2): the algorithmic
//!   alternative the mapping hints switch between.
//! * **E — storage**: hot-buffer on/off (§6 "embracing hot data") and
//!   Cartilage transformation plans vs. raw re-parsing.

use std::sync::Arc;
use std::time::Instant;

use rheem_cleaning::DetectionStrategy;
use rheem_core::udf::{FilterUdf, GroupMapUdf, KeyUdf, MapUdf, ReduceUdf};
use rheem_core::{
    rec, Dataset, MovementCostModel, PhysicalPlan, PlanBuilder, Record, RheemContext,
    StorageService,
};
use rheem_datagen::tax::{generate, TaxConfig};
use rheem_platforms::test_context;
use rheem_storage::{
    MemStore, SimHdfsConfig, SimHdfsStore, StorageLayer, TransformStep, TransformationPlan,
};

/// Ablation A: the aggregation task used for platform selection.
///
/// `group by key, sum values` over `[key(Int), value(Int)]` records.
pub fn aggregation_plan(n: usize, keys: usize) -> PhysicalPlan {
    let data: Vec<Record> = (0..n as i64)
        .map(|i| rec![i % keys.max(1) as i64, i])
        .collect();
    let mut b = PlanBuilder::new();
    let src = b.collection("pairs", data);
    let red = b.reduce_by_key(
        src,
        KeyUdf::field(0).with_distinct_keys(keys as f64),
        ReduceUdf::new("sum", |a, x: &Record| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        }),
    );
    b.collect(red);
    b.build().expect("valid plan")
}

/// One measurement of ablation A.
#[derive(Clone, Debug)]
pub struct PlatformChoiceRow {
    /// Input size.
    pub rows: usize,
    /// Platform the free optimizer picked.
    pub chosen: String,
    /// Wall-clock (ms) per configuration: (label, ms).
    pub timings: Vec<(String, f64)>,
}

/// Run ablation A: free choice vs. each forced platform.
pub fn run_platform_choice(sizes: &[usize]) -> Vec<PlatformChoiceRow> {
    sizes
        .iter()
        .map(|&n| {
            let plan = aggregation_plan(n, 64);
            let free = test_context();
            let exec = free.optimize(plan.clone()).expect("optimizes");
            let chosen = exec.assignments[1].clone(); // the reduce node
            let mut timings = Vec::new();
            let run = free.execute_plan(&exec).expect("runs");
            timings.push(("optimizer".to_string(), run.stats.total_simulated_ms()));
            for platform in ["java", "sparklike", "mapreduce", "relational"] {
                let ctx = test_context().force_platform(platform);
                let run = ctx.execute(plan.clone()).expect("forced run succeeds");
                timings.push((platform.to_string(), run.stats.total_simulated_ms()));
            }
            PlatformChoiceRow {
                rows: n,
                chosen,
                timings,
            }
        })
        .collect()
}

/// Ablation B: a mixed pipeline whose data starts in simulated HDFS, gets a
/// UDF transformation, then a relational-friendly aggregation.
pub fn mixed_pipeline_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let src = b.storage_source("readings");
    let clean = b.filter(
        src,
        FilterUdf::new("plausible", |r: &Record| {
            rheem_datagen::plausible_pressure(r.float(2).unwrap_or(-1.0))
        })
        .with_selectivity(0.9),
    );
    let feat = b.map(
        clean,
        MapUdf::new("normalize", |r: &Record| {
            rec![
                r.int(1).expect("sensor"),
                (r.float(2).expect("pressure") - 100.0) / 20.0
            ]
        }),
    );
    let agg = b.group_by(
        feat,
        KeyUdf::field(0).with_distinct_keys(16.0),
        GroupMapUdf::new("mean", |k, members| {
            let mean =
                members.iter().map(|r| r.float(1).unwrap()).sum::<f64>() / members.len() as f64;
            vec![Record::new(vec![k.clone(), mean.into()])]
        }),
    );
    b.collect(agg);
    b.build().expect("valid plan")
}

/// Ablation B result.
#[derive(Clone, Debug)]
pub struct MovementCostRow {
    /// Estimated cost and executed movement with the movement model on.
    pub aware: (f64, f64),
    /// Same, with movement priced at zero during optimization.
    pub oblivious: (f64, f64),
    /// Platform switches per plan (aware, oblivious).
    pub switches: (usize, usize),
}

/// Build a context whose storage holds the sensor readings.
pub fn movement_context(n: usize) -> RheemContext {
    let storage = Arc::new(
        StorageLayer::new(Arc::new(SimHdfsStore::new(
            "hdfs",
            SimHdfsConfig::default(),
        )))
        .with_store(Arc::new(MemStore::new("mem"))),
    );
    let readings = rheem_datagen::sensor_readings(n, 16, 0.05, 11);
    StorageService::write(storage.as_ref(), "readings", &Dataset::new(readings))
        .expect("seed storage");
    let mut ctx = test_context().with_storage(storage);
    ctx.optimizer_mut().estimator.hint("readings", n as f64);
    // Make cross-platform movement expensive enough to matter.
    ctx.optimizer_mut().movement = MovementCostModel::new(5.0, 5e-3);
    ctx
}

/// Run ablation B.
pub fn run_movement_cost(n: usize) -> MovementCostRow {
    let plan = mixed_pipeline_plan();

    let aware_ctx = movement_context(n);
    let aware_exec = aware_ctx.optimize(plan.clone()).expect("optimizes");
    let aware_run = aware_ctx.execute_plan(&aware_exec).expect("runs");

    let mut oblivious_ctx = movement_context(n);
    oblivious_ctx.optimizer_mut().movement = MovementCostModel::free();
    let obl_exec = oblivious_ctx.optimize(plan).expect("optimizes");
    // Execute with the *true* movement model to see what obliviousness costs.
    let obl_run = aware_ctx.execute_plan(&obl_exec).expect("runs");

    MovementCostRow {
        aware: (aware_exec.estimated_cost, aware_run.stats.total_movement_ms),
        oblivious: (obl_exec.estimated_cost, obl_run.stats.total_movement_ms),
        switches: (aware_exec.platform_switches(), obl_exec.platform_switches()),
    }
}

/// Ablation C: IEJoin vs cross-product detection wall-clock at one size.
pub fn run_iejoin_scaling(sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    let ctx = crate::fig3::detection_context(4);
    let rule = crate::fig3::inequality_rule();
    sizes
        .iter()
        .map(|&n| {
            let ineq_rate = (10.0 / n as f64).min(0.05);
            let (data, _) = generate(
                &TaxConfig::new(n)
                    .with_seed(3)
                    .with_error_rates(0.0, ineq_rate),
            );
            let (_, rj) =
                rheem_cleaning::detect(&ctx, data.clone(), &rule, DetectionStrategy::IeJoin)
                    .expect("iejoin");
            let ie_ms = rj.stats.total_simulated_ms();
            let (_, rc) =
                rheem_cleaning::detect(&ctx, data, &rule, DetectionStrategy::CrossProduct)
                    .expect("cross");
            let cross_ms = rc.stats.total_simulated_ms();
            (n, ie_ms, cross_ms)
        })
        .collect()
}

/// Ablation D: sort- vs hash-based grouping on skew-free integer keys.
pub fn run_groupby(n: usize, keys: usize) -> (f64, f64) {
    let data: Vec<Record> = (0..n as i64)
        .map(|i| rec![i % keys.max(1) as i64, i])
        .collect();
    let run = |sort_based: bool| {
        let mut b = PlanBuilder::new();
        let src = b.collection("g", data.clone());
        let group = GroupMapUdf::new("count", |k, members| {
            vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
        });
        let g = if sort_based {
            b.sort_group_by(src, KeyUdf::field(0), group)
        } else {
            b.group_by(src, KeyUdf::field(0), group)
        };
        b.collect(g);
        let ctx = crate::fig2::java_only();
        let t = Instant::now();
        ctx.execute(b.build().expect("valid plan")).expect("runs");
        t.elapsed().as_secs_f64() * 1e3
    };
    (run(true), run(false)) // (sort_ms, hash_ms)
}

/// Ablation E result.
#[derive(Clone, Debug)]
pub struct StorageRow {
    /// Repeated-read wall-clock with the hot buffer (ms).
    pub hot_ms: f64,
    /// Repeated-read wall-clock without it (ms).
    pub cold_ms: f64,
    /// Query over a Cartilage-prepared (parsed once) dataset (ms).
    pub transformed_ms: f64,
    /// Same query re-parsing raw CSV lines every time (ms).
    pub raw_ms: f64,
}

/// Run ablation E.
pub fn run_storage(n: usize, reads: usize) -> StorageRow {
    let hdfs = || {
        Arc::new(SimHdfsStore::new(
            "hdfs",
            SimHdfsConfig {
                block_records: 1_000,
                replication: 3,
                block_latency: std::time::Duration::from_micros(400),
                sleep: true,
            },
        ))
    };
    let data = Dataset::new(rheem_datagen::sensor_readings(n, 8, 0.02, 5));

    // Hot buffer on/off.
    let timed_reads = |layer: &StorageLayer| {
        StorageService::write(layer, "d", &data).expect("write");
        let t = Instant::now();
        for _ in 0..reads {
            StorageService::read(layer, "d").expect("read");
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    let hot_layer = StorageLayer::new(hdfs()).with_hot_buffer(10 * n);
    let cold_layer = StorageLayer::new(hdfs());
    let hot_ms = timed_reads(&hot_layer);
    let cold_ms = timed_reads(&cold_layer);

    // Cartilage: parse CSV once at load vs. on every access.
    let raw_lines: Vec<Record> = data
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
    let parse_plan = TransformationPlan::named("ingest").then(TransformStep::ParseCsv);
    let prepared = parse_plan
        .apply(Dataset::new(raw_lines.clone()))
        .expect("parses");
    let query = |d: &Dataset| {
        d.iter()
            .filter(|r| r.float(2).map(|p| p > 100.0).unwrap_or(false))
            .count()
    };
    let t = Instant::now();
    let mut acc = 0usize;
    for _ in 0..reads {
        acc += query(&prepared);
    }
    let transformed_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for _ in 0..reads {
        let parsed = parse_plan
            .apply(Dataset::new(raw_lines.clone()))
            .expect("parses");
        acc += query(&parsed);
    }
    let raw_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(acc > 0, "queries should match rows");

    StorageRow {
        hot_ms,
        cold_ms,
        transformed_ms,
        raw_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_choice_prefers_java_for_small_inputs() {
        let rows = run_platform_choice(&[500]);
        assert_eq!(rows[0].chosen, "java");
        // The free choice should be at least as fast as the worst forced one.
        let free = rows[0].timings[0].1;
        let worst = rows[0]
            .timings
            .iter()
            .map(|(_, ms)| *ms)
            .fold(0.0f64, f64::max);
        assert!(free <= worst);
    }

    #[test]
    fn movement_aware_plan_estimates_no_higher_than_oblivious_execution() {
        let row = run_movement_cost(20_000);
        // The aware optimizer can never move *more* data than the oblivious
        // one when both run under the true movement model.
        assert!(
            row.aware.1 <= row.oblivious.1 + 1e-9,
            "aware moved {} ms worth, oblivious {}",
            row.aware.1,
            row.oblivious.1
        );
    }

    #[test]
    fn iejoin_scales_better_than_cross() {
        let rows = run_iejoin_scaling(&[3_000]);
        let (_, ie, cross) = rows[0];
        assert!(
            cross > ie * 2.0,
            "cross {cross:.1} ms should dwarf iejoin {ie:.1} ms"
        );
    }

    #[test]
    fn groupby_variants_both_run() {
        let (sort_ms, hash_ms) = run_groupby(20_000, 100);
        assert!(sort_ms > 0.0 && hash_ms > 0.0);
    }

    #[test]
    fn hot_buffer_and_cartilage_pay_off() {
        let row = run_storage(5_000, 8);
        assert!(
            row.cold_ms > row.hot_ms,
            "cold {:.1} ms should exceed hot {:.1} ms",
            row.cold_ms,
            row.hot_ms
        );
        assert!(
            row.raw_ms > row.transformed_ms * 2.0,
            "re-parsing {:.1} ms should dwarf prepared {:.1} ms",
            row.raw_ms,
            row.transformed_ms
        );
    }
}
