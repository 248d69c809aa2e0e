//! Ablation F — the kernel-rate table converges (the observability
//! feedback loop).
//!
//! The optimizer prices a plan as each platform's clock applied to the
//! kernel time its rate table estimates, and the table starts from
//! constants measured on simple kernels. This experiment runs a map whose
//! closure costs about 100× the seeded rate of a row map: cold, the
//! optimizer believes the map is cheap and keeps it in process; one
//! observed job later the in-process rate matches what the kernel really
//! does, and the next plan moves to the partitioned engine, where the work
//! is spread over the workers. A partitioned engine's rate is fitted apart
//! (its tasks run sequentially on partitions), so that job is still priced
//! from the seed, and the one after it from its own fit.

use std::sync::Arc;
use std::time::Duration;

use rheem_core::udf::MapUdf;
use rheem_core::{rec, KernelKey, Observability, PhysicalPlan, PlanBuilder, Record, RheemContext};
use rheem_platforms::{JavaPlatform, OverheadConfig, SparkLikePlatform};

/// One job of the convergence run.
#[derive(Clone, Debug)]
pub struct ConvergenceStep {
    /// The platform the optimizer put the map on.
    pub platform: String,
    /// µs per work unit the table priced the map at before the job, on
    /// the kind of engine it was placed on.
    pub priced_us_per_unit: f64,
    /// µs per work unit the job's map kernel actually did.
    pub observed_us_per_unit: f64,
    /// Simulated ms of the whole job.
    pub simulated_ms: f64,
}

impl ConvergenceStep {
    /// `max(priced / observed, observed / priced)`: 1.0 is a perfect price.
    pub fn error(&self) -> f64 {
        let r = self.priced_us_per_unit / self.observed_us_per_unit;
        r.max(1.0 / r)
    }
}

/// The workload: `n` rows through a map whose closure spins, so its kernel
/// costs far more per row than the simple map the seed was measured on.
fn flip_plan(n: usize) -> PhysicalPlan {
    let data: Vec<Record> = (0..n as i64).map(|i| rec![i]).collect();
    let mut b = PlanBuilder::new();
    let src = b.collection("rows", data);
    let spun = b.map(
        src,
        MapUdf::new("spin", |r| {
            let mut acc = r.int(0).unwrap_or(0);
            for i in 0..10_000 {
                acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
            }
            rec![acc]
        }),
    );
    b.collect(spun);
    b.build().unwrap()
}

/// The single-process engine and an 8-worker Spark-like engine with its
/// default overheads (accounted, not slept), and a fresh rate table.
fn flip_context() -> (RheemContext, Arc<Observability>) {
    let observe = Arc::new(Observability::new());
    let spark = SparkLikePlatform::new(8).with_overheads(OverheadConfig::accounted_only(
        Duration::from_millis(25),
        Duration::from_millis(2),
    ));
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(spark))
        .with_observability(observe.clone());
    (ctx, observe)
}

/// Optimize and execute the workload `jobs` times on one `flip_context()`,
/// reporting how the map was priced and placed before each job and what
/// its kernel really did.
pub fn run_calibration_flip(n: usize, jobs: usize) -> Vec<ConvergenceStep> {
    let (ctx, observe) = flip_context();
    (0..jobs)
        .map(|_| {
            let plan = ctx.optimize(flip_plan(n)).unwrap();
            let map = plan
                .physical
                .nodes()
                .iter()
                .position(|node| node.op.kernel() == "Map")
                .expect("the plan maps");
            let platform = &plan.assignments[map];
            let clock = ctx
                .platforms()
                .all()
                .iter()
                .find(|p| p.name() == platform)
                .expect("a registered platform")
                .clock();
            let key = KernelKey::of(&plan.physical.nodes()[map].op, clock.partitioned());
            let priced = observe.calibration().rate(key);
            let run = ctx.execute_plan(&plan).unwrap();
            let obs = run
                .stats
                .atoms
                .iter()
                .flat_map(|a| &a.node_observations)
                .find(|o| o.node.0 == map)
                .expect("the map was observed");
            let units = 2.0 * n as f64;
            ConvergenceStep {
                platform: platform.clone(),
                priced_us_per_unit: priced.us(units) / units,
                observed_us_per_unit: obs.work_ms * 1e3 / units,
                simulated_ms: run.stats.total_simulated_ms(),
            }
        })
        .collect()
}

/// Render a convergence run.
pub fn render_convergence(n: usize, steps: &[ConvergenceStep]) -> String {
    let mut s = format!(
        "Ablation F — kernel-rate convergence ({n} rows through a spinning map)\n\
         job  platform    priced_us/unit  observed_us/unit  error  simulated_ms\n"
    );
    for (i, st) in steps.iter().enumerate() {
        s.push_str(&format!(
            "{:<3}  {:<10}  {:>14.4}  {:>16.4}  {:>4.2}x  {:>12.1}\n",
            i + 1,
            st.platform,
            st.priced_us_per_unit,
            st.observed_us_per_unit,
            st.error(),
            st.simulated_ms
        ));
    }
    s
}
