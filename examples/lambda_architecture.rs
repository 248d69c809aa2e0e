//! A lambda architecture on RHEEM (paper §2: "many companies are already
//! adopting a lambda architecture, which combines both batch and stream
//! processing").
//!
//! * **Batch layer** — the full historical sensor archive is aggregated on
//!   the heavyweight engines (the optimizer picks; at this size it favours
//!   the relational/partitioned engines).
//! * **Speed layer** — fresh readings arrive as micro-batches; each batch
//!   runs the *same* aggregation template, landing on the single-process
//!   engine because batches are tiny (Figure 2's small-data side, applied).
//! * **Serving layer** — batch and speed views merge into one answer.
//!
//! Run with: `cargo run --example lambda_architecture --release`

use std::collections::HashMap;
use std::sync::Arc;

use rheem::prelude::*;
use rheem::rec;
use rheem_datagen::relational::sensor_readings;

/// The shared aggregation template: per-sensor (count, sum of pressure).
fn aggregate(b: &mut PlanBuilder, src: rheem_core::NodeId) -> rheem_core::NodeId {
    let keyed = b.map(
        src,
        MapUdf::new("keyed", |r| {
            rec![
                r.int(1).expect("sensor"),
                1i64,
                r.float(2).expect("pressure")
            ]
        }),
    );
    b.reduce_by_key(
        keyed,
        KeyUdf::field(0).with_distinct_keys(16.0),
        ReduceUdf::new("count+sum", |a, x| {
            rec![
                a.int(0).unwrap(),
                a.int(1).unwrap() + x.int(1).unwrap(),
                a.float(2).unwrap() + x.float(2).unwrap()
            ]
        }),
    )
}

/// Merge a view's records into the serving state.
fn absorb(state: &mut HashMap<i64, (i64, f64)>, view: &Dataset) -> Result<(), RheemError> {
    for r in view.iter() {
        let e = state.entry(r.int(0)?).or_insert((0, 0.0));
        e.0 += r.int(1)?;
        e.1 += r.float(2)?;
    }
    Ok(())
}

fn main() -> Result<(), RheemError> {
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(8)))
        .with_platform(Arc::new(RelationalPlatform::new()));

    // 1M historical readings; 2k "live" readings in batches of 100.
    let history = sensor_readings(1_000_000, 16, 0.0, 1);
    let live = sensor_readings(2_000, 16, 0.0, 2);

    // ---- batch layer ------------------------------------------------------
    let mut b = PlanBuilder::new();
    let src = b.collection("history", history);
    let agg = aggregate(&mut b, src);
    let sink = b.collect(agg);
    let exec = ctx.optimize(b.build()?)?;
    let batch_platform = exec.assignments[1].clone();
    let batch_result = ctx.execute_plan(&exec)?;
    let mut serving: HashMap<i64, (i64, f64)> = HashMap::new();
    absorb(&mut serving, &batch_result.outputs[&sink])?;
    println!(
        "batch layer: 1000000 readings aggregated on `{batch_platform}` \
         in {:.1} simulated ms",
        batch_result.stats.total_simulated_ms()
    );

    // ---- speed layer ------------------------------------------------------
    let mut speed_platforms: Vec<String> = Vec::new();
    for (i, batch) in live.chunks(100).enumerate() {
        let mut b = PlanBuilder::new();
        let src = b.collection(format!("batch-{i}"), batch.to_vec());
        let agg = aggregate(&mut b, src);
        let sink = b.collect(agg);
        let result = ctx.execute(b.build()?)?;
        speed_platforms.extend(result.stats.platforms_used().iter().map(|s| s.to_string()));
        absorb(&mut serving, &result.outputs[&sink])?;
    }
    speed_platforms.sort();
    speed_platforms.dedup();
    println!("speed layer: 20 micro-batches of 100 readings each, all on {speed_platforms:?}");

    // ---- serving layer ----------------------------------------------------
    println!("\nserving view (per-sensor mean pressure over batch + speed):");
    let mut sensors: Vec<_> = serving.iter().collect();
    sensors.sort_by_key(|(id, _)| **id);
    for (sensor, (count, sum)) in sensors.into_iter().take(5) {
        println!(
            "  sensor {sensor:>2}: {} readings, mean {:.1}",
            count,
            sum / *count as f64
        );
    }
    let total: i64 = serving.values().map(|(c, _)| c).sum();
    println!(
        "  ... {} sensors, {total} readings total (expected 1002000)",
        serving.len()
    );
    assert_eq!(total, 1_002_000);
    Ok(())
}
