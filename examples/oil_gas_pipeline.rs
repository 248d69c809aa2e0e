//! The paper's §1 motivating scenario: an Oil & Gas analytic pipeline that
//! no single platform serves well.
//!
//! "An application supporting such a complex analytic pipeline has to
//! access several sources for historical data ..., remove the noise from
//! the streaming data coming from the sensors, and run both traditional
//! (such as SQL) and statistical analytics (such as ML algorithms) over
//! different processing platforms."
//!
//! This example wires all of it together:
//! 1. raw downhole sensor readings live in the simulated HDFS;
//! 2. well metadata lives in a second, in-memory store (`db`);
//! 3. the plan cleans the readings (UDF filter), joins them with well
//!    metadata (relational-friendly equi-join), aggregates per well, and
//!    hands per-well features to a regression model trained with an
//!    iterative loop;
//! 4. the multi-platform optimizer decides where every operator runs —
//!    printing the mixed execution plan.
//!
//! Run with: `cargo run --example oil_gas_pipeline --release`

use std::sync::Arc;

use rheem::prelude::*;
use rheem::rec;
use rheem_core::platform::StorageService;
use rheem_datagen::relational::{plausible_pressure, sensor_readings};
use rheem_ml::LinRegTrainer;
use rheem_storage::{MemStore, SimHdfsConfig, SimHdfsStore};

fn main() -> Result<(), RheemError> {
    // ---------------------------------------------------------- storage side
    let storage = Arc::new(
        StorageLayer::new(Arc::new(SimHdfsStore::new(
            "hdfs",
            SimHdfsConfig::default(),
        )))
        .with_store(Arc::new(MemStore::new("db")))
        .with_hot_buffer(1_000_000),
    );

    // Sensor readings land on the distributed FS (400k readings, 24 wells).
    let readings = Dataset::new(sensor_readings(400_000, 24, 0.05, 42));
    storage.place("sensor-readings", "hdfs");
    storage.write("sensor-readings", &readings)?;

    // Well metadata sits in the `db` store: [well_id, depth_km].
    let wells: Vec<Record> = (0..24i64)
        .map(|w| rec![w, 1.0 + (w % 7) as f64 * 0.35])
        .collect();
    storage
        .store("db")
        .expect("registered")
        .write("wells", &Dataset::new(wells.clone()))?;
    storage.place("wells", "db");

    // -------------------------------------------------------- processing side
    let mut ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(8)))
        .with_platform(Arc::new(MapReduceLikePlatform::new(8)))
        .with_platform(Arc::new(RelationalPlatform::new()))
        .with_storage(storage.clone());
    ctx.optimizer_mut()
        .estimator
        .hint("sensor-readings", 400_000.0);
    ctx.optimizer_mut().estimator.hint("wells", 24.0);
    // This deployment's engines share a fast interconnect: cheap movement
    // makes genuinely mixed plans attractive.
    ctx.optimizer_mut().movement = rheem_core::cost::MovementCostModel::new(0.2, 2e-5);

    // The analytic task, written once against the abstraction.
    let mut b = PlanBuilder::new();
    let raw = b.storage_source("sensor-readings");
    // Clean: drop implausible readings (transmission glitches).
    let clean = b.filter(
        raw,
        FilterUdf::new("plausible", |r| {
            plausible_pressure(r.float(2).unwrap_or(-1.0))
        })
        .with_selectivity(0.95),
    );
    // Aggregate mean pressure per well.
    let per_well = b.group_by(
        clean,
        KeyUdf::field(1).with_distinct_keys(24.0),
        GroupMapUdf::new("mean-pressure", |well, members| {
            let mean = members
                .iter()
                .map(|r| r.float(2).expect("pressure"))
                .sum::<f64>()
                / members.len().max(1) as f64;
            vec![Record::new(vec![well.clone(), mean.into()])]
        }),
    );
    // Join with well metadata (classic relational work).
    let wells_src = b.storage_source("wells");
    let joined = b.hash_join(per_well, wells_src, KeyUdf::field(0), KeyUdf::field(0));
    // [well, mean_pressure, well, depth] -> regression row [target=pressure, depth].
    let features = b.map(
        joined,
        MapUdf::new("featurize", |r| {
            rec![r.float(1).expect("pressure"), r.float(3).expect("depth")]
        }),
    );
    let sink = b.collect(features);
    let plan = b.build()?;

    let exec = ctx.optimize(plan)?;
    println!("mixed execution plan (note the per-operator platforms):\n");
    println!("{}", exec.explain());
    let result = ctx.execute_plan(&exec)?;
    println!(
        "pipeline ran on platforms {:?}; simulated {:.1} ms (movement {:.1} ms)\n",
        result.stats.platforms_used(),
        result.stats.total_simulated_ms(),
        result.stats.total_movement_ms,
    );

    // ------------------------------------------------- downstream ML training
    // "geologists formulate hypotheses and verify them with ML methods,
    // such as regression" — pressure as a function of well depth.
    let rows = result.outputs[&sink].records().to_vec();
    let (model, train_result) = LinRegTrainer::new(1)
        .with_iterations(200)
        .train(&ctx, rows.clone())?;
    println!(
        "trained pressure ~ depth regression on {:?}: pressure ≈ {:.2} + {:.2}·depth (mse {:.3})",
        train_result.stats.platforms_used(),
        model.bias,
        model.weights[0],
        model.mse(&rows)?,
    );

    if let Some(hot) = storage.hot_stats() {
        println!("hot-data buffer: {} hits / {} misses", hot.hits, hot.misses);
    }
    Ok(())
}
