//! [`RheemContext`]: the user-facing entry point tying the three layers
//! together.
//!
//! A context owns the platform registry, the multi-platform optimizer, every
//! job setting (the executor reads them here, see [`crate::executor`]), and
//! the (optional) storage service. Typical use:
//!
//! ```ignore
//! let ctx = RheemContext::new()
//!     .with_platform(Arc::new(JavaPlatform::new()))
//!     .with_platform(Arc::new(SparkLikePlatform::new(8)));
//! let result = ctx.execute(plan)?;           // optimize + run
//! println!("{}", result.stats.total_wall.as_millis());
//! ```

use std::sync::Arc;
use std::time::Duration;

use crate::error::Result;
use crate::executor::{self, JobResult, WaveGate};
use crate::fault::{CancelToken, FaultPolicy, PlatformHealth, Sleeper};
use crate::kernels::parallel::KernelParallelism;
use crate::logical::LogicalPlan;
use crate::observe::Observability;
use crate::optimizer::{MultiPlatformOptimizer, OptimizerMetrics, PlanCache, ReplanPolicy};
use crate::plan::{ExecutionPlan, PhysicalPlan};
use crate::platform::{
    ExecutionContext, FailureInjector, Platform, PlatformRegistry, StorageService,
};

/// The top-level RHEEM handle.
#[derive(Clone)]
pub struct RheemContext {
    pub(crate) platforms: PlatformRegistry,
    pub(crate) optimizer: MultiPlatformOptimizer,
    /// Retry budget per task atom.
    pub(crate) max_retries: usize,
    /// Wall-clock budget for a whole job (the paper's baselines were
    /// "stopped after 22 hours"; benchmarks use this to reproduce that).
    /// Enforced as a deadline checked before every attempt of every atom,
    /// so a retry storm cannot outlive the budget.
    pub(crate) timeout: Option<Duration>,
    /// What platforms see of a job: storage, failure injection, the thread
    /// budget, and the cancel token (its only holder).
    pub(crate) execution: ExecutionContext,
    pub(crate) observability: Option<Arc<Observability>>,
    pub(crate) replan_policy: Option<ReplanPolicy>,
    pub(crate) fault_policy: Option<FaultPolicy>,
    pub(crate) platform_health: Option<Arc<PlatformHealth>>,
    pub(crate) sleeper: Option<Arc<dyn Sleeper>>,
    pub(crate) wave_gate: Option<Arc<dyn WaveGate>>,
}

impl Default for RheemContext {
    fn default() -> Self {
        RheemContext {
            platforms: PlatformRegistry::default(),
            optimizer: MultiPlatformOptimizer::default(),
            max_retries: 2,
            timeout: None,
            execution: ExecutionContext::default(),
            observability: None,
            replan_policy: None,
            fault_policy: None,
            platform_health: None,
            sleeper: None,
            wave_gate: None,
        }
    }
}

impl RheemContext {
    /// An empty context; register at least one platform before executing.
    pub fn new() -> Self {
        RheemContext::default()
    }

    /// Register a processing platform.
    pub fn with_platform(mut self, platform: Arc<dyn Platform>) -> Self {
        self.platforms.register(platform);
        self
    }

    /// Attach a storage service (enables `StorageSource`/`StorageSink`).
    pub fn with_storage(mut self, storage: Arc<dyn StorageService>) -> Self {
        self.execution.storage = Some(storage);
        self
    }

    /// Replace the optimizer (cost models, mappings, config).
    pub fn with_optimizer(mut self, optimizer: MultiPlatformOptimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Pin all operators to one platform.
    pub fn force_platform(mut self, platform: impl Into<String>) -> Self {
        self.optimizer = self.optimizer.force_platform(platform);
        self
    }

    /// Set a wall-clock budget for executed jobs.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Set the retry budget per task atom.
    pub fn with_max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Set a job's thread budget (defaults to the host's available
    /// parallelism). A wave runs `min(threads, atoms in the wave)` atoms
    /// at once and each atom's morsel-driven kernels (`DESIGN.md` §10) get
    /// `threads / width`, so the two never multiply; `threads = 1` runs one
    /// atom at a time on the sequential kernels. Outputs and the work stats
    /// record are identical at any setting.
    pub fn with_kernel_parallelism(mut self, parallelism: KernelParallelism) -> Self {
        self.execution.kernel_parallelism = parallelism;
        self
    }

    /// Enable adaptive mid-job re-optimization: after each committed
    /// wave the executor compares observed boundary cardinalities with
    /// the plan's estimates and, past `policy.threshold`, re-enumerates
    /// the unexecuted suffix (at most `policy.max_replans` times per
    /// job). Outputs are unaffected; only platform choices may change.
    pub fn with_replan_policy(mut self, policy: ReplanPolicy) -> Self {
        self.replan_policy = Some(policy);
        self
    }

    /// Install fault tolerance (see `DESIGN.md` §9): backoff between
    /// retry attempts, per-platform circuit breakers shared across this
    /// context's jobs, and — when `policy.failover` is set — failover
    /// re-planning that re-routes the unexecuted suffix of a job around
    /// a failed platform instead of failing the job.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.platform_health = Some(Arc::new(PlatformHealth::new(policy.breaker)));
        self.fault_policy = Some(policy);
        self
    }

    /// Replace how retry backoff delays are slept. Tests install a
    /// [`crate::fault::VirtualSleeper`] to observe intended delays
    /// without paying wall-clock for them.
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Sleeper>) -> Self {
        self.sleeper = Some(sleeper);
        self
    }

    /// The per-platform circuit breakers, when a fault policy is
    /// installed. Shared across every job this context runs (and across
    /// clones of the context), so a platform marked down by one job is
    /// avoided by the next.
    pub fn platform_health(&self) -> Option<&Arc<PlatformHealth>> {
        self.platform_health.as_ref()
    }

    /// Install a failure injector (tests / chaos experiments).
    pub fn with_failure_injector(mut self, injector: Arc<FailureInjector>) -> Self {
        self.execution.failure_injector = Some(injector);
        self
    }

    /// Attach an [`Observability`] hub: every job this context runs is
    /// reported to it once, when it ends, and it derives its counters from
    /// the job's record. Observed per-operator runtimes and cardinalities
    /// of each successful job are folded into the optimizer's
    /// [`crate::observe::CostCalibration`] table (the calibration feedback
    /// loop), correcting cost estimates on the next optimization pass.
    pub fn with_observability(mut self, observe: Arc<Observability>) -> Self {
        self.optimizer.metrics = Some(OptimizerMetrics::resolve(observe.metrics()));
        self.optimizer.calibration = observe.calibration().clone();
        self.observability = Some(observe);
        self
    }

    /// The attached observability hub, if any.
    pub fn observability(&self) -> Option<&Arc<Observability>> {
        self.observability.as_ref()
    }

    /// Attach a plan cache: jobs whose plans share a canonical fingerprint
    /// reuse each other's enumeration results (see
    /// [`crate::optimizer::cache`]). Share the same `Arc` across context
    /// clones to share the cache — the server does this for all sessions
    /// of one service.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.optimizer.plan_cache = Some(cache);
        self
    }

    /// The attached plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.optimizer.plan_cache.as_ref()
    }

    /// Confine this context's opaque (closure-identity) plan fingerprints
    /// to `scope`. The server allocates one scope per session, which is
    /// what keeps opaque cache entries from ever being shared across
    /// sessions; `0` (the default) is the embedded single-tenant scope.
    pub fn with_cache_scope(mut self, scope: u64) -> Self {
        self.optimizer.cache_scope = scope;
        self
    }

    /// Install a [`WaveGate`] bracketing every scheduling wave of every
    /// job this context runs (external fair-share scheduling).
    pub fn with_wave_gate(mut self, gate: Arc<dyn WaveGate>) -> Self {
        self.wave_gate = Some(gate);
        self
    }

    /// Install a cooperative [`CancelToken`] observed by every job this
    /// context runs: checked at wave boundaries, between retry attempts,
    /// between interpreted operators, and at morsel granularity inside
    /// parallel kernels (see `DESIGN.md` §14). Cancelling the token makes
    /// in-flight jobs fail with [`crate::RheemError::Cancelled`].
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.execution.cancel = Some(cancel);
        self
    }

    /// The installed cancel token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.execution.cancel.as_ref()
    }

    /// The registered platforms.
    pub fn platforms(&self) -> &PlatformRegistry {
        &self.platforms
    }

    /// The optimizer in use.
    pub fn optimizer(&self) -> &MultiPlatformOptimizer {
        &self.optimizer
    }

    /// Mutable access to the optimizer (to hint cardinalities, tweak
    /// movement prices, or set enumeration knobs).
    pub fn optimizer_mut(&mut self) -> &mut MultiPlatformOptimizer {
        &mut self.optimizer
    }

    /// The ambient execution context handed to platforms.
    pub fn execution_context(&self) -> &ExecutionContext {
        &self.execution
    }

    /// Optimize a physical plan without running it.
    pub fn optimize(&self, plan: PhysicalPlan) -> Result<ExecutionPlan> {
        self.optimizer.optimize(plan, &self.platforms)
    }

    /// Optimize a logical plan without running it.
    pub fn optimize_logical(&self, plan: &LogicalPlan) -> Result<ExecutionPlan> {
        self.optimizer.optimize_logical(plan, &self.platforms)
    }

    /// Run an already-optimized execution plan.
    pub fn execute_plan(&self, plan: &ExecutionPlan) -> Result<JobResult> {
        executor::execute(self, plan)
    }

    /// Optimize and run a physical plan.
    pub fn execute(&self, plan: PhysicalPlan) -> Result<JobResult> {
        let exec = self.optimize(plan)?;
        self.execute_plan(&exec)
    }

    /// Lower, optimize, and run a logical plan.
    pub fn execute_logical(&self, plan: &LogicalPlan) -> Result<JobResult> {
        let exec = self.optimize_logical(plan)?;
        self.execute_plan(&exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Record;
    use crate::plan::PlanBuilder;
    use crate::platform::{AtomInputs, AtomResult, ProcessingProfile};
    use crate::rec;

    /// A minimal interpreter-backed platform for core-only tests.
    struct MockPlatform(&'static str);
    impl Platform for MockPlatform {
        fn name(&self) -> &str {
            self.0
        }
        fn profile(&self) -> ProcessingProfile {
            ProcessingProfile::SingleProcess
        }
        fn supports(&self, _op: &crate::PhysicalOp) -> bool {
            true
        }
        fn cost_model(&self) -> Arc<dyn crate::cost::PlatformCostModel> {
            Arc::new(crate::cost::LinearCostModel::single_threaded(1e-4))
        }
        fn execute_atom(
            &self,
            plan: &crate::PhysicalPlan,
            atom: &crate::TaskAtom,
            inputs: &AtomInputs,
            ctx: &ExecutionContext,
        ) -> Result<AtomResult> {
            let run = crate::interpreter::run_fragment(plan, &atom.nodes, inputs, ctx, None)?;
            Ok(AtomResult {
                outputs: atom
                    .outputs
                    .iter()
                    .filter_map(|n| run.outputs.get(n).map(|d| (*n, d.clone())))
                    .collect(),
                records_processed: run.records_processed,
                simulated_overhead_ms: 0.0,
                simulated_elapsed_ms: 0.0,
                node_observations: run.observations,
            })
        }
    }

    fn tiny_plan() -> crate::PhysicalPlan {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64], rec![2i64]]);
        b.collect(src);
        b.build().unwrap()
    }

    #[test]
    fn context_without_platforms_cannot_optimize() {
        let ctx = RheemContext::new();
        assert!(ctx.optimize(tiny_plan()).is_err());
    }

    #[test]
    fn reregistering_a_platform_name_replaces_it() {
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .with_platform(Arc::new(MockPlatform("m")));
        assert_eq!(ctx.platforms().all().len(), 1);
        assert_eq!(ctx.platforms().names(), vec!["m"]);
    }

    #[test]
    fn end_to_end_on_a_mock_platform() {
        let ctx = RheemContext::new().with_platform(Arc::new(MockPlatform("m")));
        let result = ctx.execute(tiny_plan()).unwrap();
        assert_eq!(result.single().unwrap().len(), 2);
        assert_eq!(result.stats.platforms_used(), vec!["m"]);
        // Stats explain renders without panicking and mentions the platform.
        assert!(result.stats.explain().contains('m'));
    }

    #[test]
    fn forced_platform_must_exist() {
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .force_platform("nope");
        assert!(matches!(
            ctx.execute(tiny_plan()),
            Err(crate::RheemError::UnknownPlatform(_))
        ));
    }

    #[test]
    fn execution_context_carries_storage_and_injector() {
        use crate::platform::{FailureInjector, MemoryStorageService};
        let ctx = RheemContext::new()
            .with_storage(Arc::new(MemoryStorageService::new()))
            .with_failure_injector(Arc::new(FailureInjector::none()));
        let ec = ctx.execution_context();
        assert!(ec.storage.is_some());
        assert!(ec.failure_injector.is_some());
    }

    #[test]
    fn single_on_multi_sink_job_is_an_error() {
        let ctx = RheemContext::new().with_platform(Arc::new(MockPlatform("m")));
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        b.collect(src);
        b.collect(src);
        let result = ctx.execute(b.build().unwrap()).unwrap();
        assert_eq!(result.outputs.len(), 2);
        assert!(result.single().is_err());
    }

    #[test]
    fn max_retries_zero_fails_on_first_injected_failure() {
        use crate::platform::FailureInjector;
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .with_failure_injector(Arc::new(FailureInjector::platform_down("m")))
            .with_max_retries(0);
        assert!(ctx.execute(tiny_plan()).is_err());
    }

    #[test]
    fn a_pre_cancelled_token_aborts_before_any_work() {
        use crate::error::CancelReason;
        use crate::fault::CancelToken;
        let token = CancelToken::new();
        token.cancel(CancelReason::Explicit);
        let obs = Arc::new(crate::observe::Observability::new());
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .with_observability(obs.clone())
            .with_cancel_token(token);
        let err = ctx.execute(tiny_plan()).unwrap_err();
        assert!(matches!(
            err,
            crate::RheemError::Cancelled {
                reason: CancelReason::Explicit
            }
        ));
        assert_eq!(err.classify(), crate::ErrorKind::Cancelled);
        assert_eq!(obs.metrics().counter_value("executor.cancelled"), 1);
    }

    #[test]
    fn an_expired_deadline_trips_the_cancel_token() {
        use crate::error::CancelReason;
        use crate::fault::CancelToken;
        let token = CancelToken::new();
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .with_cancel_token(token.clone())
            .with_timeout(Duration::ZERO);
        let err = ctx.execute(tiny_plan()).unwrap_err();
        assert!(matches!(err, crate::RheemError::BudgetExceeded(_)));
        // The deadline gate also trips the token, so morsel loops of any
        // in-flight sibling atoms would stop promptly.
        assert_eq!(token.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn a_panicking_udf_fails_cleanly_and_the_context_survives() {
        use crate::udf::MapUdf;
        let obs = Arc::new(crate::observe::Observability::new());
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .with_observability(obs.clone());
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64], rec![2i64]]);
        let m = b.map(
            src,
            MapUdf::new("boom", |r| {
                if r.int(0).unwrap() == 2 {
                    panic!("poisoned udf");
                }
                r.clone()
            }),
        );
        b.collect(m);
        let err = ctx.execute(b.build().unwrap()).unwrap_err();
        match &err {
            crate::RheemError::Panic { platform, message } => {
                assert_eq!(platform, "m");
                assert!(message.contains("poisoned udf"), "{message}");
            }
            other => panic!("expected Panic, got {other}"),
        }
        assert_eq!(err.classify(), crate::ErrorKind::Permanent { panic: true });
        assert_eq!(obs.metrics().counter_value("executor.panics_caught"), 1);
        // The caught panic never unwound through the scheduler: the same
        // context immediately runs the next job.
        let ok = ctx.execute(tiny_plan()).unwrap();
        assert_eq!(ok.single().unwrap().len(), 2);
    }

    #[test]
    fn backoff_naps_clamp_to_the_remaining_deadline() {
        use crate::fault::{BackoffPolicy, FaultPolicy, VirtualSleeper};
        use crate::platform::FailureInjector;
        let sleeper = Arc::new(VirtualSleeper::new());
        let injector = FailureInjector::none();
        injector.fail_atom(0, 1);
        let mut policy = FaultPolicy::instant();
        // A fixed 10 s backoff against a 50 ms deadline: unclamped, the
        // single retry nap alone would overshoot the budget 200-fold.
        policy.backoff = BackoffPolicy {
            base: Duration::from_secs(10),
            multiplier: 1.0,
            max: Duration::from_secs(10),
            jitter: 0.0,
            seed: 0,
        };
        let ctx = RheemContext::new()
            .with_platform(Arc::new(MockPlatform("m")))
            .with_failure_injector(Arc::new(injector))
            .with_fault_policy(policy)
            .with_sleeper(sleeper.clone())
            .with_timeout(Duration::from_millis(50));
        ctx.execute(tiny_plan()).unwrap();
        let naps = sleeper.naps();
        assert_eq!(naps.len(), 1);
        assert!(naps[0] <= Duration::from_millis(50), "{:?}", naps[0]);
    }

    #[test]
    fn records_are_preserved_through_mock_execution() {
        let ctx = RheemContext::new().with_platform(Arc::new(MockPlatform("m")));
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64, "a"], rec![2i64, "b"]]);
        let sink = b.collect(src);
        let result = ctx.execute(b.build().unwrap()).unwrap();
        let out: &Record = &result.outputs[&sink].records()[1];
        assert_eq!(out.str(1).unwrap(), "b");
    }
}
