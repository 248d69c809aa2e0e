//! The shared gradient-descent training skeleton, expressed as a RHEEM
//! plan — the paper's Example 1 made concrete.
//!
//! The paper's developer "can define three basic operators: (i) Initialize,
//! for initializing algorithm-specific parameters, (ii) Process, for the
//! computations required by the ML algorithm, (iii) Loop, for specifying
//! the stopping condition. Users implement algorithms such as SVM, K-means,
//! and linear/logistic regression with them." [`build_training_plan`] is
//! that template for linear models: SVM and linear regression instantiate
//! it with nothing but a per-example gradient UDF.
//!
//! The loop body (executed once per iteration, on whichever platform the
//! optimizer picked for the whole loop):
//!
//! ```text
//! state [w...,b] ──┐
//!                  ├─ CrossProduct ─ Map(per-example gradient) ─ GlobalReduce(sum)
//! data ────────────┘                                                   │
//! state ───────────── CrossProduct ──────────── Map(apply update) ◄────┘
//! ```

use std::sync::Arc;

use rheem_core::udf::{LoopCondUdf, MapUdf, ReduceUdf};
use rheem_core::{
    JobResult, NodeId, PhysicalPlan, PlanBuilder, Record, Result, RheemContext, Value,
};

use crate::model::LinearModel;

/// Per-example gradient: given the feature slice `x`, the label, and the
/// current model, return the gradient contribution `(g ∈ R^d, g_bias)`.
pub type ExampleGradient = Arc<dyn Fn(&[f64], f64, &LinearModel) -> (Vec<f64>, f64) + Send + Sync>;

/// Hyper-parameters of the gradient-descent template.
#[derive(Clone, Debug)]
pub struct GdConfig {
    /// Feature dimensionality.
    pub dims: usize,
    /// Number of full-batch iterations (the paper's Figure 2 uses 100).
    pub iterations: u64,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl GdConfig {
    /// Defaults matching the paper's experiment: 100 iterations.
    pub(crate) fn new(dims: usize) -> Self {
        GdConfig {
            dims,
            iterations: 100,
            learning_rate: 0.5,
            l2: 1e-4,
        }
    }

    /// Override the iteration count.
    pub(crate) fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Override the learning rate.
    pub(crate) fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }
}

/// Build the full training plan: `init state → Loop(body) → CollectSink`.
///
/// `data` must be LIBSVM-layout records `[label, x_1, ..., x_d]`. Returns
/// the plan and the sink node carrying the trained model record.
pub(crate) fn build_training_plan(
    data: Vec<Record>,
    config: &GdConfig,
    algorithm: &str,
    gradient: ExampleGradient,
) -> Result<(PhysicalPlan, NodeId)> {
    let n = data.len().max(1) as f64;
    let dims = config.dims;
    let (lr, l2) = (config.learning_rate, config.l2);

    // ----- loop body ------------------------------------------------------
    let mut body = PlanBuilder::new();
    let state = body.loop_input();
    let examples = body.collection(format!("{algorithm}-train-data"), data);
    // Pair every example with the (single-record) model state.
    let paired = body.cross_product(examples, state);
    let grad_udf = {
        let gradient = gradient.clone();
        MapUdf::new(format!("{algorithm}-gradient"), move |r: &Record| {
            // Layout: [label, x_1..x_d, w_0..w_{d-1}, b].
            let take = |i: usize| r.float(i).expect("training record layout");
            let label = take(0);
            let x: Vec<f64> = (1..=dims).map(take).collect();
            let model = LinearModel {
                weights: (dims + 1..=2 * dims).map(take).collect(),
                bias: take(2 * dims + 1),
            };
            let (g, gb) = gradient(&x, label, &model);
            let mut fields: Vec<Value> = g.into_iter().map(Value::Float).collect();
            fields.push(Value::Float(gb));
            Record::new(fields)
        })
    };
    let grads = body.map(paired, grad_udf);
    let summed = body.global_reduce(
        grads,
        ReduceUdf::new("sum-gradients", move |acc: Record, r: &Record| {
            let fields: Vec<Value> = acc
                .fields()
                .iter()
                .zip(r.fields())
                .map(|(a, b)| {
                    Value::Float(
                        a.as_float().expect("gradient floats")
                            + b.as_float().expect("gradient floats"),
                    )
                })
                .collect();
            Record::new(fields)
        }),
    );
    // Combine old state with the summed gradient and step.
    let update_in = body.cross_product(state, summed);
    let update_udf = MapUdf::new(format!("{algorithm}-update"), move |r: &Record| {
        // Layout: [w_0..w_{d-1}, b, g_0..g_{d-1}, g_b].
        let take = |i: usize| r.float(i).expect("update record layout");
        let mut fields = Vec::with_capacity(dims + 1);
        for i in 0..dims {
            let (w, g) = (take(i), take(dims + 1 + i));
            fields.push(Value::Float(w - lr * (l2 * w + g / n)));
        }
        let (b, gb) = (take(dims), take(2 * dims + 1));
        fields.push(Value::Float(b - lr * (gb / n)));
        Record::new(fields)
    });
    body.map(update_in, update_udf);
    let body = body.build_fragment()?;

    // ----- outer plan -----------------------------------------------------
    let mut b = PlanBuilder::new();
    let init = b.collection(
        format!("{algorithm}-init"),
        vec![LinearModel::zeros(dims).to_record()],
    );
    let trained = b.repeat(
        init,
        body,
        LoopCondUdf::fixed_iterations(config.iterations),
        config.iterations,
    );
    let sink = b.collect(trained);
    Ok((b.build()?, sink))
}

/// Run a training plan on a context and decode the model.
pub fn train(
    ctx: &RheemContext,
    data: Vec<Record>,
    config: &GdConfig,
    algorithm: &str,
    gradient: ExampleGradient,
) -> Result<(LinearModel, JobResult)> {
    let (plan, sink) = build_training_plan(data, config, algorithm, gradient)?;
    let result = ctx.execute(plan)?;
    let model = LinearModel::from_dataset(&result.outputs[&sink])?;
    Ok((model, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;
    use rheem_platforms::JavaPlatform;

    fn java_ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    /// Identity-gradient: the model never moves.
    #[test]
    fn zero_gradient_keeps_zero_model() {
        let data = vec![rec![1.0f64, 2.0f64], rec![-1.0f64, 3.0f64]];
        let cfg = GdConfig::new(1).with_iterations(5);
        let grad: ExampleGradient = Arc::new(|_, _, _| (vec![0.0], 0.0));
        let (model, result) = train(&java_ctx(), data, &cfg, "null", grad).unwrap();
        assert_eq!(model, LinearModel::zeros(1));
        assert_eq!(result.stats.platforms_used(), vec!["java"]);
    }

    /// A constant gradient moves the model linearly: after k iterations,
    /// w = -k · lr · g / n (modulo the tiny L2 term, which we zero out).
    #[test]
    fn constant_gradient_steps_linearly() {
        let data = vec![rec![1.0f64, 0.0f64]];
        let mut cfg = GdConfig::new(1).with_iterations(4).with_learning_rate(0.1);
        cfg.l2 = 0.0;
        let grad: ExampleGradient = Arc::new(|_, _, _| (vec![2.0], -1.0));
        let (model, _) = train(&java_ctx(), data, &cfg, "const", grad).unwrap();
        assert!((model.weights[0] - (-0.8)).abs() < 1e-12);
        assert!((model.bias - 0.4).abs() < 1e-12);
    }

    /// The gradient closure sees the evolving model state.
    #[test]
    fn gradient_sees_current_model() {
        let data = vec![rec![1.0f64, 1.0f64]];
        let mut cfg = GdConfig::new(1).with_iterations(3).with_learning_rate(1.0);
        cfg.l2 = 0.0;
        // Gradient = -w - 1 → w' = w + (w + 1) = 2w + 1: 0 → 1 → 3 → 7.
        let grad: ExampleGradient = Arc::new(|_, _, m| (vec![-m.weights[0] - 1.0], 0.0));
        let (model, _) = train(&java_ctx(), data, &cfg, "rec", grad).unwrap();
        assert!((model.weights[0] - 7.0).abs() < 1e-9);
    }
}
