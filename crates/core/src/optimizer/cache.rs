//! Plan cache: reuse enumeration results across jobs that submit the same
//! plan (RHEEMix-style; see `DESIGN.md` §13).
//!
//! With the lattice enumerator, producing an [`ExecutionPlan`] is expensive
//! but the result is a reusable artifact: the assignments, atoms, and
//! estimates depend only on the plan's canonical shape
//! ([`crate::plan::PlanFingerprint`]), the platform set, the enumeration
//! configuration, and the calibration table. The cache keys on the first
//! three and *validates* against the fourth: an entry remembers the
//! calibration cost factors it was enumerated under, and is invalidated
//! when any factor has since drifted past
//! [`PlanCacheConfig::drift_threshold`] — the cached platform choices were
//! made under cost assumptions that no longer hold, so the plan must be
//! re-enumerated.
//!
//! A cache hit never reuses the cached *physical plan* (it embeds the old
//! job's source data and closures); only the scheduling artifacts are
//! reused, re-targeted at the freshly rewritten incoming plan. Entries
//! whose fingerprint is opaque (closure identity) are additionally confined
//! to one cache scope — the server gives every session its own scope, so
//! opaque fingerprints are never shared across sessions.
//!
//! Sharing caveat: the key does not cover the optimizer's cost models
//! (estimator, movement prices). One cache must only be shared by
//! optimizers with identical models — which is the intended deployment: a
//! server's sessions all clone one base context.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::fault::{fnv1a, splitmix64};
use crate::observe::CostCalibration;
use crate::plan::{EnumerationInfo, ExecutionPlan, NodeEstimate, TaskAtom};
use crate::platform::PlatformRegistry;

use super::OptimizerConfig;

/// Tuning knobs for a [`PlanCache`].
#[derive(Clone, Copy, Debug)]
pub struct PlanCacheConfig {
    /// Maximum number of cached plans; least-recently-used entries are
    /// evicted past this.
    pub capacity: usize,
    /// Maximum relative change of any calibration cost factor (missing
    /// factors count as 1.0) before a cached entry is invalidated. E.g.
    /// `0.5` invalidates when some factor grew or shrank by more than 50%.
    pub drift_threshold: f64,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            capacity: 256,
            drift_threshold: 0.5,
        }
    }
}

/// Monotonic counters describing a cache's lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that reused a cached enumeration.
    pub hits: u64,
    /// Lookups that fell through to a fresh enumeration.
    pub misses: u64,
    /// Entries dropped because calibration drifted past the threshold.
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Full cache key: canonical plan hash mixed with the optimizer/platform
/// configuration hash, plus the session scope for opaque fingerprints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    hash: u64,
    scope: u64,
}

/// The reusable part of an [`ExecutionPlan`] (everything except the
/// physical plan itself, which embeds job-specific data).
#[derive(Clone)]
pub(crate) struct CachedPlanParts {
    pub(crate) assignments: Vec<String>,
    pub(crate) atoms: Vec<TaskAtom>,
    pub(crate) estimated_cost: f64,
    pub(crate) estimates: Vec<NodeEstimate>,
    pub(crate) enumeration: EnumerationInfo,
    /// Fingerprint hash of the *rewritten* plan the entry was built from;
    /// the optimizer double-checks it against the rewritten incoming plan
    /// before re-targeting, demoting hash collisions to plain misses.
    pub(crate) rewritten_hash: u64,
}

struct CachedEntry {
    parts: CachedPlanParts,
    /// [`CostCalibration::version`] at the last drift validation — when
    /// unchanged, the drift check is skipped entirely.
    calib_version: u64,
    /// Cost factors the entry was enumerated under (full-table snapshot).
    calib_costs: Vec<((String, String), f64)>,
    /// LRU tick of the last hit (or the insert).
    last_used: u64,
}

/// A concurrent cache of enumeration results keyed by canonical plan
/// fingerprints. See the module docs for the invalidation rules.
pub struct PlanCache {
    config: PlanCacheConfig,
    entries: Mutex<HashMap<CacheKey, CachedEntry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(PlanCacheConfig::default())
    }
}

impl PlanCache {
    /// An empty cache under `config`.
    pub fn new(config: PlanCacheConfig) -> Self {
        PlanCache {
            config: PlanCacheConfig {
                capacity: config.capacity.max(1),
                drift_threshold: if config.drift_threshold.is_finite() {
                    config.drift_threshold.max(0.0)
                } else {
                    PlanCacheConfig::default().drift_threshold
                },
            },
            entries: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The cache's configuration (after sanitization).
    pub fn config(&self) -> PlanCacheConfig {
        self.config
    }

    /// Lifetime counters and current size.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.entries.lock().len(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drop every cached plan (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Record that a probe ended in a (guard-confirmed) hit.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that a probe ended in a miss (including demoted hits).
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Probe for `key`, validating calibration drift. Does not touch the
    /// hit/miss counters — the optimizer records the outcome after its
    /// structural guards, so a demoted hit counts as a miss.
    pub(crate) fn lookup(
        &self,
        hash: u64,
        scope: u64,
        calibration: &CostCalibration,
    ) -> Option<CachedPlanParts> {
        let key = CacheKey { hash, scope };
        let mut entries = self.entries.lock();
        let entry = entries.get_mut(&key)?;
        let version = calibration.version();
        if entry.calib_version != version {
            let drift = max_cost_drift(&entry.calib_costs, calibration);
            if drift > self.config.drift_threshold {
                entries.remove(&key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // Within tolerance: remember the version so the drift scan is
            // skipped until the table moves again. The reference factors
            // stay pinned at enumeration time — drift accumulates against
            // what the cached plan was actually costed with.
            entry.calib_version = version;
        }
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        Some(entry.parts.clone())
    }

    /// Insert the reusable parts of a freshly enumerated plan.
    pub(crate) fn insert(
        &self,
        hash: u64,
        scope: u64,
        rewritten_hash: u64,
        exec: &ExecutionPlan,
        calibration: &CostCalibration,
    ) {
        let parts = CachedPlanParts {
            assignments: exec.assignments.clone(),
            atoms: exec.atoms.clone(),
            estimated_cost: exec.estimated_cost,
            estimates: exec.estimates.clone(),
            enumeration: exec.enumeration.clone(),
            rewritten_hash,
        };
        let entry = CachedEntry {
            parts,
            calib_version: calibration.version(),
            calib_costs: calibration
                .snapshot()
                .into_iter()
                .map(|(k, e)| (k, e.cost_factor))
                .collect(),
            last_used: self.tick.fetch_add(1, Ordering::Relaxed),
        };
        let mut entries = self.entries.lock();
        if entries.len() >= self.config.capacity && !entries.contains_key(&CacheKey { hash, scope })
        {
            // Evict the least-recently-used entry.
            if let Some(victim) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                entries.remove(&victim);
            }
        }
        entries.insert(CacheKey { hash, scope }, entry);
    }
}

/// Largest relative change between the cost factors an entry was
/// enumerated under and the current table (factors missing on either side
/// count as the neutral 1.0).
fn max_cost_drift(reference: &[((String, String), f64)], calibration: &CostCalibration) -> f64 {
    let current = calibration.snapshot();
    let mut max_drift = 0.0f64;
    let mut seen: HashMap<&(String, String), f64> = HashMap::new();
    for (k, old) in reference {
        seen.insert(k, *old);
    }
    for (k, entry) in &current {
        let old = seen.remove(k).unwrap_or(1.0);
        max_drift = max_drift.max(relative_change(old, entry.cost_factor));
    }
    for old in seen.into_values() {
        // Pairs that vanished (e.g. a `clear()`): drift back toward 1.0.
        max_drift = max_drift.max(relative_change(old, 1.0));
    }
    max_drift
}

/// `max(new/old, old/new) - 1`, i.e. 0.0 for no change, 0.5 for a 50%
/// grow *or* shrink; saturates for non-positive or non-finite factors.
fn relative_change(old: f64, new: f64) -> f64 {
    if !(old.is_finite() && new.is_finite()) || old <= 0.0 || new <= 0.0 {
        return f64::INFINITY;
    }
    (new / old).max(old / new) - 1.0
}

/// Hash of everything besides the plan that determines an enumeration
/// result: the registered platform set, the enumeration configuration, and
/// whether rewrites run. Mixed into the plan fingerprint to form the cache
/// key, so e.g. adding a platform or excluding one can never serve stale
/// assignments.
pub(crate) fn config_fingerprint(config: &OptimizerConfig, platforms: &PlatformRegistry) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut names: Vec<&str> = platforms.names();
    names.sort_unstable();
    for n in names {
        h = splitmix64(h ^ fnv1a(n));
    }
    h = splitmix64(h ^ config.apply_rewrites as u64);
    let e = &config.enumeration;
    if let Some(p) = &e.forced_platform {
        h = splitmix64(h ^ fnv1a(p));
    }
    let mut excluded: Vec<&str> = e.excluded_platforms.iter().map(|s| s.as_str()).collect();
    excluded.sort_unstable();
    for x in excluded {
        h = splitmix64(h ^ fnv1a(x).wrapping_add(1));
    }
    h = splitmix64(h ^ e.max_expansions as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::EnumerationInfo;
    use std::sync::Arc;

    fn dummy_exec(cost: f64) -> ExecutionPlan {
        ExecutionPlan {
            physical: Arc::new(crate::plan::PhysicalPlan::default()),
            assignments: vec!["java".into()],
            atoms: vec![],
            estimated_cost: cost,
            estimates: vec![],
            enumeration: EnumerationInfo::default(),
        }
    }

    #[test]
    fn hit_after_insert_and_scope_isolation() {
        let cache = PlanCache::default();
        let cal = CostCalibration::new();
        cache.insert(7, 1, 99, &dummy_exec(5.0), &cal);
        assert!(cache.lookup(7, 1, &cal).is_some());
        // Same hash in another scope is invisible.
        assert!(cache.lookup(7, 2, &cal).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn drift_past_threshold_invalidates() {
        let cache = PlanCache::new(PlanCacheConfig {
            capacity: 8,
            drift_threshold: 0.5,
        });
        let cal = CostCalibration::with_alpha(1.0);
        cal.observe("Map(f)", "java", 10.0, 10.0, 1.0, 1.0); // factor 1.0
        cache.insert(7, 0, 99, &dummy_exec(5.0), &cal);
        // Small drift: 1.0 -> 1.2 (20% < 50%), still a hit.
        cal.observe("Map(f)", "java", 10.0, 12.0, 1.0, 1.0);
        assert!(cache.lookup(7, 0, &cal).is_some());
        // Large drift: 1.2 -> 4.0 vs reference 1.0 => 300% > 50%.
        cal.observe("Map(f)", "java", 10.0, 40.0, 1.0, 1.0);
        assert!(cache.lookup(7, 0, &cal).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn drift_counts_pairs_unknown_at_insert() {
        let cache = PlanCache::new(PlanCacheConfig {
            capacity: 8,
            drift_threshold: 0.5,
        });
        let cal = CostCalibration::with_alpha(1.0);
        cache.insert(7, 0, 99, &dummy_exec(5.0), &cal);
        // A pair first observed after the insert drifts from the implicit 1.0.
        cal.observe("Map(f)", "java", 10.0, 40.0, 1.0, 1.0);
        assert!(cache.lookup(7, 0, &cal).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let cache = PlanCache::new(PlanCacheConfig {
            capacity: 2,
            drift_threshold: 0.5,
        });
        let cal = CostCalibration::new();
        cache.insert(1, 0, 0, &dummy_exec(1.0), &cal);
        cache.insert(2, 0, 0, &dummy_exec(2.0), &cal);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1, 0, &cal).is_some());
        cache.insert(3, 0, 0, &dummy_exec(3.0), &cal);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, 0, &cal).is_some());
        assert!(cache.lookup(2, 0, &cal).is_none());
        assert!(cache.lookup(3, 0, &cal).is_some());
    }
}
