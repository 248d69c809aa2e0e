//! Linear regression (least squares) on the gradient-descent template.
//!
//! Data layout is the same LIBSVM-style `[target, x_1, ..., x_d]`, with a
//! real-valued target instead of a ±1 label.

use std::sync::Arc;

use rheem_core::{JobResult, Record, Result, RheemContext};

use crate::gd::{train, ExampleGradient, GdConfig};
use crate::model::LinearModel;

/// Squared-error gradient: `2(w·x + b − y) · (x, 1)`.
fn squared_error_gradient() -> ExampleGradient {
    Arc::new(|x: &[f64], y: f64, model: &LinearModel| {
        let err = model.score(x) - y;
        ((x.iter().map(|xi| 2.0 * err * xi).collect()), 2.0 * err)
    })
}

/// Linear-regression trainer.
#[derive(Clone, Debug)]
pub struct LinRegTrainer {
    /// Gradient-descent hyper-parameters.
    pub config: GdConfig,
}

impl LinRegTrainer {
    /// A trainer for `dims`-dimensional data.
    pub fn new(dims: usize) -> Self {
        let mut config = GdConfig::new(dims).with_learning_rate(0.1);
        config.l2 = 0.0;
        LinRegTrainer { config }
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.config = self.config.with_iterations(iterations);
        self
    }

    /// Train on the given context.
    pub fn train(&self, ctx: &RheemContext, data: Vec<Record>) -> Result<(LinearModel, JobResult)> {
        train(ctx, data, &self.config, "linreg", squared_error_gradient())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rheem_core::rec;
    use rheem_platforms::JavaPlatform;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    fn synthetic_regression(n: usize, w: &[f64], b: f64, noise: f64, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x: Vec<f64> = (0..w.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y = w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum::<f64>()
                    + b
                    + rng.gen_range(-noise..=noise);
                let mut fields = vec![rheem_core::Value::Float(y)];
                fields.extend(x.into_iter().map(rheem_core::Value::Float));
                Record::new(fields)
            })
            .collect()
    }

    #[test]
    fn recovers_the_generating_model() {
        let true_w = [1.5, -2.0, 0.5];
        let data = synthetic_regression(400, &true_w, 0.7, 0.0, 11);
        let (model, _) = LinRegTrainer::new(3)
            .with_iterations(300)
            .train(&ctx(), data.clone())
            .unwrap();
        for (est, truth) in model.weights.iter().zip(&true_w) {
            assert!((est - truth).abs() < 0.05, "{est} vs {truth}");
        }
        assert!((model.bias - 0.7).abs() < 0.05);
        assert!(model.mse(&data).unwrap() < 1e-3);
    }

    #[test]
    fn noisy_data_still_fits_reasonably() {
        let data = synthetic_regression(400, &[2.0], -1.0, 0.1, 13);
        let (model, _) = LinRegTrainer::new(1)
            .with_iterations(200)
            .train(&ctx(), data.clone())
            .unwrap();
        assert!(model.mse(&data).unwrap() < 0.02);
    }

    #[test]
    fn trivial_constant_target() {
        let data = vec![rec![3.0f64, 0.0f64], rec![3.0f64, 0.0f64]];
        let (model, _) = LinRegTrainer::new(1)
            .with_iterations(100)
            .train(&ctx(), data)
            .unwrap();
        assert!((model.bias - 3.0).abs() < 1e-3);
    }
}
