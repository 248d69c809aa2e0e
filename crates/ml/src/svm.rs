//! Linear SVM trained by full-batch subgradient descent on the hinge loss —
//! the algorithm behind the paper's Figure 2.

use std::sync::Arc;

use rheem_core::{JobResult, NodeId, PhysicalPlan, Record, Result, RheemContext};

use crate::gd::{build_training_plan, train, ExampleGradient, GdConfig};
use crate::model::LinearModel;

/// Hinge-loss subgradient: for `y(w·x+b) < 1`, contribute `(-y·x, -y)`.
fn hinge_gradient() -> ExampleGradient {
    Arc::new(|x: &[f64], y: f64, model: &LinearModel| {
        let margin = y * model.score(x);
        if margin < 1.0 {
            (x.iter().map(|xi| -y * xi).collect(), -y)
        } else {
            (vec![0.0; x.len()], 0.0)
        }
    })
}

/// SVM trainer configuration and entry points.
#[derive(Clone, Debug)]
pub struct SvmTrainer {
    /// Gradient-descent hyper-parameters.
    pub config: GdConfig,
}

impl SvmTrainer {
    /// A trainer for `dims`-dimensional data, 100 iterations (as in the
    /// paper's Figure 2).
    pub fn new(dims: usize) -> Self {
        SvmTrainer {
            config: GdConfig::new(dims),
        }
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.config = self.config.with_iterations(iterations);
        self
    }

    /// Build the training plan without running it (for plan inspection and
    /// the benchmark harness).
    pub fn build_plan(&self, data: Vec<Record>) -> Result<(PhysicalPlan, NodeId)> {
        build_training_plan(data, &self.config, "svm", hinge_gradient())
    }

    /// Train on the given context; returns the model and the job result
    /// (with its execution statistics — platform choice, wall time).
    pub fn train(&self, ctx: &RheemContext, data: Vec<Record>) -> Result<(LinearModel, JobResult)> {
        train(ctx, data, &self.config, "svm", hinge_gradient())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_datagen::libsvm::{generate, LibsvmConfig};
    use rheem_platforms::{JavaPlatform, OverheadConfig, SparkLikePlatform};

    fn java_ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    fn spark_ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(
            SparkLikePlatform::new(4).with_overheads(OverheadConfig::none()),
        ))
    }

    #[test]
    fn svm_learns_separable_data() {
        let data = generate(&LibsvmConfig {
            label_noise: 0.0,
            ..LibsvmConfig::new(400, 6)
        });
        let trainer = SvmTrainer::new(6).with_iterations(60);
        let (model, _) = trainer.train(&java_ctx(), data.clone()).unwrap();
        let acc = model.accuracy(&data).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn svm_is_platform_independent() {
        // Same plan, same data → numerically identical model on the
        // single-process and the partitioned platform (full-batch gradients
        // are order-insensitive up to float summation order; partition
        // sums can differ in the last ulps, so compare with tolerance).
        let data = generate(&LibsvmConfig::new(200, 4));
        let trainer = SvmTrainer::new(4).with_iterations(20);
        let (m1, r1) = trainer.train(&java_ctx(), data.clone()).unwrap();
        let (m2, r2) = trainer.train(&spark_ctx(), data).unwrap();
        assert_eq!(r1.stats.platforms_used(), vec!["java"]);
        assert_eq!(r2.stats.platforms_used(), vec!["sparklike"]);
        for (a, b) in m1.weights.iter().zip(&m2.weights) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!((m1.bias - m2.bias).abs() < 1e-9);
    }

    #[test]
    fn more_iterations_do_not_hurt_training_accuracy_much() {
        let data = generate(&LibsvmConfig {
            label_noise: 0.0,
            ..LibsvmConfig::new(300, 5)
        });
        let short = SvmTrainer::new(5).with_iterations(5);
        let long = SvmTrainer::new(5).with_iterations(80);
        let (m_short, _) = short.train(&java_ctx(), data.clone()).unwrap();
        let (m_long, _) = long.train(&java_ctx(), data.clone()).unwrap();
        let (a_short, a_long) = (
            m_short.accuracy(&data).unwrap(),
            m_long.accuracy(&data).unwrap(),
        );
        assert!(
            a_long >= a_short - 0.05,
            "long {a_long} much worse than short {a_short}"
        );
        assert!(a_long > 0.9);
    }
}
