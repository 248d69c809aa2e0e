//! Multi-layer optimization (§4).
//!
//! * [`LogicalPlan::lower`] — logical → physical translation (§4.1);
//! * [`rewrites`] — sound UDF-algebra rewrites (§4.1/§4.2 "traditional
//!   physical optimizations");
//! * [`enumerate`](mod@enumerate) — platform assignment over a subplan
//!   lattice, pricing each operator by its platform's clock over the
//!   learned kernel rates plus channel-aware inter-platform movement
//!   costs, and task-atom splitting (§4.2);
//! * [`replan`] — adaptive mid-job re-optimization:
//!   `RheemContext::replan` re-enumerates the unexecuted suffix
//!   of a running job with the optimizer's own models when observed
//!   cardinalities drift from the estimates or a platform fails.
//!
//! [`MultiPlatformOptimizer`] wires them together: it is the component in
//! the middle of the paper's Figure 1.

mod cache;
mod enumerate;
mod fuse;
mod replan;
mod rewrites;

use std::sync::Arc;

use crate::cost::{CardinalityEstimator, MovementCostModel};
use crate::error::Result;
use crate::logical::LogicalPlan;
use crate::observe::{CostCalibration, Counter, Gauge, MetricsRegistry};
use crate::plan::{ExecutionPlan, PhysicalPlan};
use crate::platform::PlatformRegistry;

pub use cache::{PlanCache, PlanCacheConfig, PlanCacheStats};
pub use enumerate::{
    assignment_cost, enumerate, enumerate_exhaustive, split_into_atoms, EnumerationConfig,
};
pub(crate) use replan::worst_drift;
pub use replan::ReplanPolicy;
pub use rewrites::apply_rewrites;

/// The multi-platform task optimizer (core layer, §4.2).
#[derive(Clone, Default)]
pub struct MultiPlatformOptimizer {
    /// Cardinality estimation used for costing.
    pub estimator: CardinalityEstimator,
    /// Inter-platform data movement prices.
    pub movement: MovementCostModel,
    /// Enumeration knobs.
    pub config: OptimizerConfig,
    /// The kernel-rate table every enumeration pass prices with, fitted by
    /// [`crate::RheemContext`] to each observed job. Shared via `Arc` so
    /// cloning the optimizer keeps one table.
    pub calibration: Arc<CostCalibration>,
    /// Counter handles the optimizer reports into, resolved once when an
    /// observability hub is attached ([`OptimizerMetrics::resolve`]).
    pub(crate) metrics: Option<OptimizerMetrics>,
    /// Optional plan cache: reuse enumeration results for plans with equal
    /// canonical fingerprints (see [`PlanCache`] for keying and
    /// invalidation).
    pub plan_cache: Option<Arc<PlanCache>>,
}

/// The optimizer's instruments, resolved from a registry once so an
/// optimization touches only atomics. Plan-cache hits, misses and
/// invalidations are counted by the cache itself ([`PlanCache::stats`]).
#[derive(Clone, Debug)]
pub(crate) struct OptimizerMetrics {
    runs: Arc<Counter>,
    nodes_assigned: Arc<Counter>,
    calibration_pairs: Arc<Gauge>,
}

impl OptimizerMetrics {
    /// Resolve `optimizer.runs`, `optimizer.nodes_assigned` and
    /// `optimizer.calibration_pairs` in `registry`.
    pub(crate) fn resolve(registry: &MetricsRegistry) -> Self {
        OptimizerMetrics {
            runs: registry.counter("optimizer.runs"),
            nodes_assigned: registry.counter("optimizer.nodes_assigned"),
            calibration_pairs: registry.gauge("optimizer.calibration_pairs"),
        }
    }
}

/// Configuration of the whole optimization pipeline.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Apply the algebraic rewrite rules before enumeration.
    pub apply_rewrites: bool,
    /// Platform enumeration knobs.
    pub enumeration: EnumerationConfig,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            apply_rewrites: true,
            enumeration: EnumerationConfig::default(),
        }
    }
}

impl MultiPlatformOptimizer {
    /// Pin every operator to one platform (disables platform selection).
    pub(crate) fn force_platform(mut self, platform: impl Into<String>) -> Self {
        self.config.enumeration.forced_platform = Some(platform.into());
        self
    }

    /// Disable algebraic rewrites.
    pub fn without_rewrites(mut self) -> Self {
        self.config.apply_rewrites = false;
        self
    }

    /// Optimize a physical plan into an execution plan.
    ///
    /// When a [`PlanCache`] is attached, the incoming plan is fingerprinted
    /// *before* rewrites (rewrites mint fresh closure `Arc`s, so post-
    /// rewrite fingerprints of equal plans would not be stable), probed
    /// against the cache, and on a validated hit the cached assignments,
    /// atoms, and estimates are re-targeted at the freshly rewritten plan —
    /// skipping enumeration entirely. Misses enumerate as usual and
    /// populate the cache.
    pub fn optimize(
        &self,
        plan: PhysicalPlan,
        platforms: &PlatformRegistry,
    ) -> Result<ExecutionPlan> {
        plan.validate()?;
        let probe = self.plan_cache.as_ref().map(|cache| {
            let key = crate::fault::splitmix64(
                plan.fingerprint().hash ^ cache::config_fingerprint(&self.config, platforms),
            );
            (cache, key)
        });
        let plan = if self.config.apply_rewrites {
            rewrites::apply_rewrites(plan)?
        } else {
            plan
        };
        let mut rewritten_hash = 0u64;
        if let Some((cache, key)) = &probe {
            rewritten_hash = plan.fingerprint().hash;
            let hit = cache.lookup(*key, &self.calibration);
            // Structural guards: a hash collision (or a rewrite divergence)
            // is demoted to a plain miss rather than executing a
            // mis-targeted schedule.
            match hit.filter(|parts| {
                parts.rewritten_hash == rewritten_hash && parts.assignments.len() == plan.len()
            }) {
                Some(parts) => {
                    cache.record_hit();
                    let exec = ExecutionPlan {
                        physical: Arc::new(plan),
                        assignments: parts.assignments,
                        atoms: parts.atoms,
                        estimated_cost: parts.estimated_cost,
                        estimates: parts.estimates,
                        enumeration: parts.enumeration,
                    };
                    self.report_metrics(&exec);
                    return Ok(exec);
                }
                None => cache.record_miss(),
            }
        }
        let result = enumerate(
            Arc::new(plan),
            platforms,
            &self.estimator,
            &self.movement,
            &self.config.enumeration,
            &self.calibration,
        );
        if let Ok(exec) = &result {
            if let Some((cache, key)) = &probe {
                cache.insert(*key, rewritten_hash, exec, &self.calibration);
            }
            self.report_metrics(exec);
        }
        result
    }

    /// Count one optimization into the attached handles.
    fn report_metrics(&self, exec: &ExecutionPlan) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        metrics.runs.inc();
        metrics.nodes_assigned.add(exec.assignments.len() as u64);
        metrics.calibration_pairs.set(self.calibration.len() as u64);
    }

    /// Lower a logical plan and optimize it in one step.
    pub(crate) fn optimize_logical(
        &self,
        plan: &LogicalPlan,
        platforms: &PlatformRegistry,
    ) -> Result<ExecutionPlan> {
        self.optimize(plan.lower()?, platforms)
    }
}
