//! Figure 2 reproduction: SVM (100 iterations) as a "Spark job" vs. a
//! "plain Java program", across dataset sizes.
//!
//! Paper claim: "for small datasets, executing SVM as a plain Java program
//! is up to one order of magnitude faster than executing it on Spark ...
//! Using Spark pays off for big datasets only", and the gap grows with the
//! iteration count.

use std::sync::Arc;
use std::time::Duration;

use rheem_core::RheemContext;
use rheem_datagen::libsvm::{generate, LibsvmConfig};
use rheem_ml::SvmTrainer;
use rheem_platforms::{JavaPlatform, OverheadConfig, SparkLikePlatform};

/// One row of the Figure 2 series. Times are *simulated elapsed*
/// milliseconds (deterministic, host-independent; see DESIGN.md).
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Dataset size (rows).
    pub rows: usize,
    /// Simulated milliseconds as a plain single-process program.
    pub java_ms: f64,
    /// Simulated milliseconds as a Spark-like job.
    pub spark_ms: f64,
}

impl Fig2Row {
    /// `java_ms / spark_ms` — above 1.0 means the Spark-like engine wins.
    pub fn spark_speedup(&self) -> f64 {
        self.java_ms / self.spark_ms
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig2Config {
    /// Dataset sizes to sweep.
    pub sizes: Vec<usize>,
    /// Feature dimensionality.
    pub dims: usize,
    /// Training iterations (the paper uses 100).
    pub iterations: u64,
    /// Spark-like worker threads.
    pub workers: usize,
    /// Spark-like job-submission overhead.
    pub job_startup: Duration,
    /// Spark-like per-stage overhead (paid per iteration).
    pub stage_overhead: Duration,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            sizes: vec![100, 1_000, 10_000, 50_000, 200_000],
            dims: 10,
            iterations: 100,
            workers: rheem_platforms::num_workers(),
            job_startup: Duration::from_millis(25),
            stage_overhead: Duration::from_millis(2),
        }
    }
}

/// A context pinned to the single-process platform.
pub(crate) fn java_only() -> RheemContext {
    RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
}

/// A context pinned to the Spark-like platform with the given overheads.
pub(crate) fn spark_only(config: &Fig2Config) -> RheemContext {
    RheemContext::new().with_platform(Arc::new(
        SparkLikePlatform::new(config.workers).with_overheads(OverheadConfig::accounted_only(
            config.job_startup,
            config.stage_overhead,
        )),
    ))
}

/// Run the sweep, reporting simulated elapsed time per platform.
pub fn run(config: &Fig2Config) -> Vec<Fig2Row> {
    let java = java_only();
    let spark = spark_only(config);
    let mut rows = Vec::with_capacity(config.sizes.len());
    for &n in &config.sizes {
        let data = generate(&LibsvmConfig::new(n, config.dims).with_seed(n as u64));
        let trainer = SvmTrainer::new(config.dims).with_iterations(config.iterations);
        let (_, jr) = trainer
            .train(&java, data.clone())
            .expect("java training succeeds");
        let (_, sr) = trainer
            .train(&spark, data)
            .expect("spark-like training succeeds");
        rows.push(Fig2Row {
            rows: n,
            java_ms: jr.stats.total_simulated_ms(),
            spark_ms: sr.stats.total_simulated_ms(),
        });
    }
    rows
}

/// One row of the iteration sweep: same dataset, growing iteration count.
#[derive(Clone, Debug)]
pub struct Fig2IterRow {
    /// Training iterations.
    pub iterations: u64,
    /// Simulated ms, single-process.
    pub java_ms: f64,
    /// Simulated ms, Spark-like.
    pub spark_ms: f64,
}

/// The paper's secondary Figure 2 claim: "this performance gap gets bigger
/// with the number of iterations" on small data. Sweep the iteration count
/// on a fixed small dataset.
pub fn run_iteration_sweep(rows: usize, iteration_counts: &[u64]) -> Vec<Fig2IterRow> {
    let config = Fig2Config::default();
    let java = java_only();
    let spark = spark_only(&config);
    let data = generate(&LibsvmConfig::new(rows, config.dims));
    iteration_counts
        .iter()
        .map(|&iterations| {
            let trainer = SvmTrainer::new(config.dims).with_iterations(iterations);
            let (_, jr) = trainer.train(&java, data.clone()).expect("java trains");
            let (_, sr) = trainer.train(&spark, data.clone()).expect("spark trains");
            Fig2IterRow {
                iterations,
                java_ms: jr.stats.total_simulated_ms(),
                spark_ms: sr.stats.total_simulated_ms(),
            }
        })
        .collect()
}

/// Render the iteration sweep.
pub fn render_iteration_sweep(rows: usize, series: &[Fig2IterRow]) -> String {
    let mut s = format!(
        "Figure 2 (iteration effect) — SVM on {rows} rows: absolute gap grows with iterations
         iterations  java_ms     spark_ms    gap_ms
"
    );
    for r in series {
        s.push_str(&format!(
            "{:<10}  {:>10.1}  {:>10.1}  {:>8.1}
",
            r.iterations,
            r.java_ms,
            r.spark_ms,
            r.spark_ms - r.java_ms
        ));
    }
    s
}

/// Render the series like the paper's figure (one row per dataset).
pub fn render(rows: &[Fig2Row]) -> String {
    let mut s = String::from(
        "Figure 2 — SVM (100 iterations): Spark-like vs plain single-process\n\
         rows        java_ms     spark_ms    spark_speedup  winner\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<10}  {:>10.1}  {:>10.1}  {:>12.2}x  {}\n",
            r.rows,
            r.java_ms,
            r.spark_ms,
            r.spark_speedup(),
            if r.spark_speedup() > 1.0 {
                "spark-like"
            } else {
                "java"
            },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline shape of Figure 2 on a scaled-down sweep: the
    /// single-process engine wins clearly on the small end, and the gap
    /// narrows (or flips) by the large end.
    #[test]
    fn shape_java_wins_small_and_gap_narrows() {
        let config = Fig2Config {
            sizes: vec![100, 50_000],
            dims: 8,
            iterations: 30,
            workers: 4,
            job_startup: Duration::from_millis(10),
            stage_overhead: Duration::from_millis(2),
        };
        let rows = run(&config);
        assert!(
            rows[0].spark_speedup() < 0.5,
            "java should win small inputs by >2x, got {:.2}x",
            rows[0].spark_speedup()
        );
        assert!(
            rows[1].spark_speedup() > 1.0,
            "spark-like should win the large input: {:.3}x",
            rows[1].spark_speedup()
        );
    }

    /// "This performance gap gets bigger with the number of iterations":
    /// on small data, the Spark-like absolute disadvantage grows with the
    /// iteration count (each iteration re-pays the stage overhead).
    #[test]
    fn small_data_gap_grows_with_iterations() {
        let series = run_iteration_sweep(500, &[5, 20, 80]);
        let gap: Vec<f64> = series.iter().map(|r| r.spark_ms - r.java_ms).collect();
        assert!(
            gap[0] > 0.0 && gap[1] > gap[0] && gap[2] > gap[1] && gap[2] > gap[0] * 2.0,
            "gap should grow with iterations: {gap:?}"
        );
    }
}
