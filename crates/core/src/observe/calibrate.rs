//! Cost-model calibration: fold observed runtimes and cardinalities back
//! into the optimizer's estimates.
//!
//! The optimizer's cost models are static guesses; after a job runs we
//! know, per operator and platform, how long the kernel actually took and
//! how many records it actually produced. [`CostCalibration`] keeps an
//! exponential moving average of the *ratio* observed/estimated per
//! `(operator, platform)` pair. `cost.rs` multiplies its static estimate
//! by that factor on the next optimization pass, so a platform whose cost
//! model flattered it loses work to its honest competitors.
//!
//! The EMA decay constant is [`DEFAULT_ALPHA`] = 0.5: the newest job
//! contributes half of the factor, the entire history the other half. The
//! first sample seeds the factor directly (no pull toward the prior 1.0),
//! so a single calibrated run is enough to correct a grossly wrong model —
//! the property the `ablation_calibration` bench demonstrates.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::executor::ExecutionStats;
use crate::plan::ExecutionPlan;

/// Default EMA decay constant: weight of the newest observation.
pub const DEFAULT_ALPHA: f64 = 0.5;

/// Ratios are clamped to this range before entering the EMA so a single
/// absurd measurement (clock glitch, near-zero estimate) cannot poison the
/// table beyond recovery.
pub const RATIO_CLAMP: (f64, f64) = (1e-4, 1e4);

/// Calibration state for one `(operator, platform)` pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationEntry {
    /// EMA of observed/estimated cost (multiplies the static cost model).
    pub cost_factor: f64,
    /// EMA of observed/estimated output cardinality.
    pub card_factor: f64,
    /// Number of successful observations folded in.
    pub samples: u64,
}

impl Default for CalibrationEntry {
    fn default() -> Self {
        Self {
            cost_factor: 1.0,
            card_factor: 1.0,
            samples: 0,
        }
    }
}

/// EMA table of observed/estimated ratios per `(operator, platform)`.
///
/// Interior mutability (a `Mutex` around the map) lets the optimizer hold
/// the table in an `Arc` and fold observations in from `&self` contexts;
/// the table is only touched once per job plus once per candidate during
/// enumeration, never inside kernel hot loops.
///
/// Concurrency: `CostCalibration::absorb` holds the table lock for the
/// whole job it folds in, so two jobs finishing at the same time serialize
/// as whole jobs — the result is always one of the two serial orders, never
/// an interleaving that loses updates mid-EMA. The `CostCalibration::version`
/// counter advances once per mutating batch, giving the plan cache a cheap
/// "did anything change since I last checked?" probe.
#[derive(Debug)]
pub struct CostCalibration {
    alpha: f64,
    entries: Mutex<HashMap<(String, String), CalibrationEntry>>,
    version: AtomicU64,
}

impl Default for CostCalibration {
    fn default() -> Self {
        Self::new()
    }
}

impl CostCalibration {
    /// Create an empty table with `DEFAULT_ALPHA`.
    pub(crate) fn new() -> Self {
        Self::with_alpha(DEFAULT_ALPHA)
    }

    /// Create an empty table with a custom decay constant in `(0, 1]`.
    ///
    /// Non-finite alphas fall back to [`DEFAULT_ALPHA`]: `f64::clamp`
    /// propagates NaN, so without the explicit guard a NaN alpha would
    /// poison every subsequent EMA update.
    pub(crate) fn with_alpha(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(f64::EPSILON, 1.0)
        } else {
            DEFAULT_ALPHA
        };
        Self {
            alpha,
            entries: Mutex::new(HashMap::new()),
            version: AtomicU64::new(0),
        }
    }

    /// Fold one successful observation into the table.
    ///
    /// Non-finite or non-positive estimates/observations are discarded:
    /// a ratio cannot be formed from them, and failed attempts (which are
    /// the usual source of garbage) must not pollute the table.
    pub fn observe(
        &self,
        op: &str,
        platform: &str,
        estimated_cost_ms: f64,
        observed_cost_ms: f64,
        estimated_card: f64,
        observed_card: f64,
    ) {
        let mut entries = self.entries.lock();
        if Self::fold_one(
            self.alpha,
            &mut entries,
            op,
            platform,
            estimated_cost_ms,
            observed_cost_ms,
            estimated_card,
            observed_card,
        ) {
            self.version.fetch_add(1, Ordering::Release);
        }
    }

    /// Fold one observation into an already-locked table; returns whether
    /// anything changed. Shared by [`Self::observe`] (one lock per call)
    /// and [`Self::absorb`] (one lock per *job*).
    #[allow(clippy::too_many_arguments)]
    fn fold_one(
        alpha: f64,
        entries: &mut HashMap<(String, String), CalibrationEntry>,
        op: &str,
        platform: &str,
        estimated_cost_ms: f64,
        observed_cost_ms: f64,
        estimated_card: f64,
        observed_card: f64,
    ) -> bool {
        let cost_ratio = safe_ratio(observed_cost_ms, estimated_cost_ms);
        let card_ratio = safe_ratio(observed_card, estimated_card);
        if cost_ratio.is_none() && card_ratio.is_none() {
            return false;
        }
        let entry = entries
            .entry((op.to_string(), platform.to_string()))
            .or_default();
        let first = entry.samples == 0;
        if let Some(r) = cost_ratio {
            entry.cost_factor = if first {
                r
            } else {
                alpha * r + (1.0 - alpha) * entry.cost_factor
            };
        }
        if let Some(r) = card_ratio {
            entry.card_factor = if first {
                r
            } else {
                alpha * r + (1.0 - alpha) * entry.card_factor
            };
        }
        entry.samples = entry.samples.saturating_add(1);
        true
    }

    /// Monotone mutation counter: advances once per mutating [`Self::observe`]
    /// call and once per [`Self::absorb`] that folded anything in. The plan
    /// cache compares versions to skip drift recomputation when the table
    /// has not moved since an entry was last validated.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Multiplier for the static cost of `op` on `platform` (1.0 when the
    /// pair was never observed).
    pub(crate) fn cost_factor(&self, op: &str, platform: &str) -> f64 {
        self.entries
            .lock()
            .get(&(op.to_string(), platform.to_string()))
            .map_or(1.0, |e| e.cost_factor)
    }

    /// Number of `(operator, platform)` pairs observed so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no observation has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Sorted copy of the table for reporting.
    pub fn snapshot(&self) -> Vec<((String, String), CalibrationEntry)> {
        let mut rows: Vec<_> = self
            .entries
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Fold every per-kernel observation of a finished job into the table.
    ///
    /// Requires the plan to carry optimizer estimates (plans hand-built in
    /// tests have none — those are skipped). Only observations attached to
    /// committed atom stats reach this point: a failed attempt's outputs
    /// are discarded by the executor's retry loop, so failures can never
    /// pollute the table.
    ///
    /// The whole job is folded under one table lock, so absorption is
    /// merge-safe: when two jobs finish concurrently the table always ends
    /// up in one of the two serial orders (job A then B, or B then A) —
    /// per-observation interleavings that read a half-updated EMA cannot
    /// happen.
    pub(crate) fn absorb(&self, plan: &ExecutionPlan, stats: &ExecutionStats) {
        if plan.estimates.len() != plan.physical.len() {
            return;
        }
        let mut entries = self.entries.lock();
        let mut changed = false;
        for atom in &stats.atoms {
            for obs in &atom.node_observations {
                let Some(est) = plan.estimates.get(obs.node.0) else {
                    continue;
                };
                let Some(platform) = plan.assignments.get(obs.node.0) else {
                    continue;
                };
                changed |= Self::fold_one(
                    self.alpha,
                    &mut entries,
                    &obs.op,
                    platform,
                    est.cost_ms,
                    obs.elapsed_ms,
                    est.card,
                    obs.records_out as f64,
                );
            }
        }
        if changed {
            self.version.fetch_add(1, Ordering::Release);
        }
    }
}

/// `observed / estimated`, clamped, or `None` when either side is unusable.
fn safe_ratio(observed: f64, estimated: f64) -> Option<f64> {
    if !observed.is_finite() || !estimated.is_finite() || observed <= 0.0 || estimated <= 0.0 {
        return None;
    }
    Some((observed / estimated).clamp(RATIO_CLAMP.0, RATIO_CLAMP.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostCalibration {
        /// Full entry for a pair, if any observation was folded in.
        pub(crate) fn entry(&self, op: &str, platform: &str) -> Option<CalibrationEntry> {
            self.entries
                .lock()
                .get(&(op.to_string(), platform.to_string()))
                .copied()
        }
    }

    #[test]
    fn first_sample_seeds_then_ema_decays() {
        let cal = CostCalibration::with_alpha(0.5);
        assert_eq!(cal.cost_factor("Map(f)", "java"), 1.0);
        cal.observe("Map(f)", "java", 10.0, 40.0, 100.0, 100.0);
        // First sample seeds directly: 40/10 = 4.
        assert!((cal.cost_factor("Map(f)", "java") - 4.0).abs() < 1e-9);
        cal.observe("Map(f)", "java", 10.0, 20.0, 100.0, 100.0);
        // EMA: 0.5*2 + 0.5*4 = 3.
        assert!((cal.cost_factor("Map(f)", "java") - 3.0).abs() < 1e-9);
        assert_eq!(cal.entry("Map(f)", "java").unwrap().samples, 2);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn garbage_observations_are_discarded() {
        let cal = CostCalibration::new();
        cal.observe("Map(f)", "java", 0.0, 5.0, 0.0, 5.0);
        cal.observe("Map(f)", "java", f64::NAN, 5.0, -1.0, 5.0);
        cal.observe("Map(f)", "java", 10.0, f64::INFINITY, 10.0, -3.0);
        assert!(cal.is_empty());
        // A usable cost ratio with garbage cardinality still lands, but
        // leaves the cardinality factor untouched.
        cal.observe("Map(f)", "java", 10.0, 30.0, f64::NAN, 5.0);
        let e = cal.entry("Map(f)", "java").unwrap();
        assert!((e.cost_factor - 3.0).abs() < 1e-9);
        assert!((e.card_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_are_clamped() {
        let cal = CostCalibration::new();
        cal.observe("Map(f)", "java", 1e-12, 1e12, 1.0, 1.0);
        assert!((cal.cost_factor("Map(f)", "java") - RATIO_CLAMP.1).abs() < 1e-9);
        cal.observe("Filter(g)", "java", 1e12, 1e-12, 1.0, 1.0);
        assert!((cal.cost_factor("Filter(g)", "java") - RATIO_CLAMP.0).abs() < 1e-12);
    }

    #[test]
    fn with_alpha_rejects_non_finite_alpha() {
        // Regression: NaN propagates through `f64::clamp`, so a NaN alpha
        // used to survive the `(EPSILON, 1.0)` guard and turn every EMA
        // update into NaN.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cal = CostCalibration::with_alpha(bad);
            assert_eq!(cal.alpha, DEFAULT_ALPHA, "alpha {bad} not rejected");
            cal.observe("Map(f)", "java", 10.0, 40.0, 100.0, 100.0);
            cal.observe("Map(f)", "java", 10.0, 20.0, 100.0, 100.0);
            let e = cal.entry("Map(f)", "java").unwrap();
            assert!(e.cost_factor.is_finite());
            // Seed 4.0, then EMA with DEFAULT_ALPHA: 0.5*2 + 0.5*4 = 3.
            assert!((e.cost_factor - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn version_advances_only_on_mutation() {
        let cal = CostCalibration::new();
        assert_eq!(cal.version(), 0);
        cal.observe("Map(f)", "java", 0.0, 0.0, 0.0, 0.0); // garbage: discarded
        assert_eq!(cal.version(), 0);
        cal.observe("Map(f)", "java", 10.0, 20.0, 100.0, 100.0);
        assert_eq!(cal.version(), 1);
    }

    /// A one-job (plan, stats) pair whose absorption folds `observed_ms`
    /// ratios into `Map(f)@java`, in order.
    fn absorb_job(observed_ms: &[f64]) -> (ExecutionPlan, ExecutionStats) {
        use crate::observe::NodeObservation;
        use crate::plan::{EnumerationInfo, NodeEstimate, NodeId, PlanBuilder};
        use crate::rec;
        use crate::udf::MapUdf;
        use std::sync::Arc;
        use std::time::Duration;

        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, MapUdf::new("f", |r| r.clone()));
        b.collect(m);
        let physical = Arc::new(b.build().unwrap());
        let n = physical.len();
        let plan = ExecutionPlan {
            physical,
            assignments: vec!["java".into(); n],
            atoms: vec![],
            estimated_cost: 0.0,
            estimates: vec![
                NodeEstimate {
                    cost_ms: 10.0,
                    card: 100.0
                };
                n
            ],
            enumeration: EnumerationInfo::default(),
        };
        let mut stats = ExecutionStats::default();
        stats.atoms.push(crate::executor::AtomStats {
            atom_id: 0,
            platform: "java".into(),
            wave: 0,
            attempts: 1,
            wall: Duration::from_millis(1),
            records_in: 1,
            records_out: 1,
            simulated_overhead_ms: 0.0,
            simulated_elapsed_ms: 0.0,
            movement_cost_ms: 0.0,
            node_observations: observed_ms
                .iter()
                .map(|ms| NodeObservation {
                    node: NodeId(1),
                    op: "Map(f)".into(),
                    records_out: 100,
                    elapsed_ms: *ms,
                    morsels: 1,
                    columnar: false,
                })
                .collect(),
        });
        (plan, stats)
    }

    #[test]
    fn concurrent_absorption_is_merge_safe() {
        // Regression: `absorb` used to take the table lock once per
        // observation, so two jobs finishing concurrently could interleave
        // mid-EMA and land on a state reachable by no serial order. With
        // the whole-job critical section, the result is always exactly
        // serial(A;B) or serial(B;A).
        let (plan_a, stats_a) = absorb_job(&[20.0, 40.0, 80.0]);
        let (plan_b, stats_b) = absorb_job(&[30.0, 50.0, 90.0]);

        let serial = |first: (&ExecutionPlan, &ExecutionStats),
                      second: (&ExecutionPlan, &ExecutionStats)| {
            let cal = CostCalibration::new();
            cal.absorb(first.0, first.1);
            cal.absorb(second.0, second.1);
            cal.entry("Map(f)", "java").unwrap()
        };
        let ab = serial((&plan_a, &stats_a), (&plan_b, &stats_b));
        let ba = serial((&plan_b, &stats_b), (&plan_a, &stats_a));
        assert_ne!(
            ab.cost_factor, ba.cost_factor,
            "orders must be distinguishable"
        );

        for _ in 0..100 {
            let cal = CostCalibration::new();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    barrier.wait();
                    cal.absorb(&plan_a, &stats_a);
                });
                s.spawn(|| {
                    barrier.wait();
                    cal.absorb(&plan_b, &stats_b);
                });
            });
            let got = cal.entry("Map(f)", "java").unwrap();
            assert!(
                got == ab || got == ba,
                "concurrent absorb produced a non-serializable state: {got:?} \
                 (expected {ab:?} or {ba:?})"
            );
            assert_eq!(got.samples, 6);
        }
    }
}
