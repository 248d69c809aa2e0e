//! Platform-independent machine learning (paper §3.1 Example 1 and
//! Figure 2): the same SVM training plan runs unchanged on the
//! single-process engine and the Spark-like engine, and with both
//! registered the optimizer picks one per input size.
//!
//! Run with: `cargo run --example ml_training --release`

use std::sync::Arc;

use rheem::prelude::*;
use rheem_datagen::libsvm::{generate, LibsvmConfig};
use rheem_ml::SvmTrainer;

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

    Ok(())
}
