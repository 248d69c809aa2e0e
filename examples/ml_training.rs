//! Platform-independent machine learning (paper §3.1 Example 1 and
//! Figure 2): the same SVM training plan runs unchanged on the
//! single-process engine and the Spark-like engine; K-means is built from
//! `GetCentroid`/`SetCentroids` logical operators and lowered to physical
//! operators.
//!
//! Run with: `cargo run --example ml_training --release`

use std::sync::Arc;

use rheem::prelude::*;
use rheem::rec;
use rheem_datagen::libsvm::{generate, LibsvmConfig};
use rheem_ml::{KMeansTrainer, SvmTrainer};

fn main() -> Result<(), RheemError> {
    // ------------------------------------------------------------------ SVM
    let dims = 10;
    let trainer = SvmTrainer::new(dims).with_iterations(100);

    println!("SVM, 100 iterations (the paper's Figure 2 setting):");
    for rows in [1_000usize, 50_000] {
        let data = generate(&LibsvmConfig::new(rows, dims));
        let java = RheemContext::new().with_platform(Arc::new(JavaPlatform::new()));
        let spark = RheemContext::new().with_platform(Arc::new(SparkLikePlatform::new(8)));
        let (m1, r1) = trainer.train(&java, data.clone())?;
        let (m2, r2) = trainer.train(&spark, data.clone())?;
        println!(
            "  {rows:>6} rows: java {:>9.1} ms  spark-like {:>9.1} ms  (accuracy {:.3} / {:.3})",
            r1.stats.total_simulated_ms(),
            r2.stats.total_simulated_ms(),
            m1.accuracy(&data)?,
            m2.accuracy(&data)?,
        );
    }

    // With platform *selection* the user never chooses: register both and
    // let the optimizer pick per input size.
    let both = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(8)));
    for rows in [1_000usize, 50_000] {
        let data = generate(&LibsvmConfig::new(rows, dims));
        let (plan, _) = trainer.build_plan(data)?;
        let exec = both.optimize(plan)?;
        println!(
            "  optimizer picks {:?} for {rows} rows (estimated {:.0} ms)",
            exec.assignments.last().expect("nodes"),
            exec.estimated_cost
        );
    }

    // --------------------------------------------------------------- K-means
    println!("\nK-means via logical operators (paper §3.2 example):");
    let mut points = Vec::new();
    for (cx, cy) in [(0.0, 0.0), (8.0, 8.0), (-8.0, 6.0)] {
        for i in 0..200 {
            let jitter = (i as f64 * 0.618).fract() - 0.5;
            points.push(rec![cx + jitter, cy - jitter]);
        }
    }
    let kmeans = KMeansTrainer::new(3, 2).with_iterations(15);
    let (clustering, result) = kmeans.train(&both, &points)?;
    for (cid, c) in &clustering.centroids {
        println!("  centroid {cid}: ({:+.2}, {:+.2})", c[0], c[1]);
    }
    println!(
        "  trained on {:?} in {:.1} simulated ms",
        result.stats.platforms_used(),
        result.stats.total_simulated_ms()
    );
    Ok(())
}
