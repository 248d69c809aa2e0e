//! The kernel-rate table: what an operator's kernel costs, learned from
//! every job.
//!
//! A platform's price for an operator has two halves: the platform's
//! [`Clock`](crate::cost::Clock), which says how the engine spreads a
//! kernel's work — over the morsels the job's thread budget runs at once,
//! or over its tasks — and the kernel's sequential work, which depends on
//! the operator alone, never on the platform or the kind of engine.
//! [`CostCalibration`] estimates the work: one [`Rate`] per [`KernelKey`],
//! a fixed µs plus µs per work unit ([`crate::cost::op_work_units`]). Each
//! rate starts at a constant from `BENCH_kernels.json`'s full run, then is
//! a least-squares fit over every observation folded in — each node's
//! sequential kernel work ([`NodeObservation::work_ms`]), whichever engine
//! ran it, and each spill a disk-phased engine made — with no decay, and no
//! observation farther than [`RATIO_CLAMP`] from its seed. What one engine
//! learns prices every other.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::cost::op_work_units;
use crate::executor::ExecutionStats;
use crate::physical::PhysicalOp;
use crate::plan::ExecutionPlan;

#[cfg(doc)]
use super::NodeObservation;

/// No observation enters a fit farther than this factor above or below its
/// key's seed: one timing outlier moves a rate a bounded way.
pub const RATIO_CLAMP: f64 = 1e4;

/// What the rate table is keyed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelKey {
    /// The operator's kernel, e.g. `"HashJoin"`.
    pub kernel: &'static str,
    /// True for the chunk kernel, false for the row kernel.
    pub columnar: bool,
    /// On the row path, a hash of the operator's name (its UDFs: one
    /// closure's cost says nothing of another's); 0 otherwise.
    pub udf: u64,
}

impl KernelKey {
    /// One row's round trip through a disk-phased engine's spill file.
    pub const SPILL: KernelKey = KernelKey::new("Spill", false);

    /// The key of `kernel` on a path, for no UDF.
    pub const fn new(kernel: &'static str, columnar: bool) -> KernelKey {
        KernelKey {
            kernel,
            columnar,
            udf: 0,
        }
    }

    /// The key `op` is priced under.
    pub fn of(op: &PhysicalOp) -> KernelKey {
        let columnar = op.runs_columnar();
        let mut udf = DefaultHasher::new();
        if !columnar {
            op.name().hash(&mut udf);
        }
        KernelKey {
            udf: if columnar { 0 } else { udf.finish() },
            ..KernelKey::new(op.kernel(), columnar)
        }
    }
}

/// One kernel's cost: `fixed_us + per_unit_us · work units`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rate {
    /// Cost of running the kernel at all, in µs.
    pub fixed_us: f64,
    /// Cost per work unit, in µs.
    pub per_unit_us: f64,
    /// Observations the rate is fitted to (0: the seed).
    pub samples: u64,
    /// Mean work units of those observations (0 for the seed).
    pub mean_units: f64,
}

impl Rate {
    /// Estimated kernel µs over `units` work units.
    pub fn us(&self, units: f64) -> f64 {
        self.fixed_us + self.per_unit_us * units
    }
}

/// The seed of `key`, in µs per work unit: `BENCH_kernels.json`'s full
/// `ablation_kernels` run of the sequential kernel at 10^6 rows (the served
/// join at 200 000) over the kernel's work units there, on its 2-CPU host —
/// the served shapes where timed (`filter_selective`, the two
/// `hash_aggregate_*_key`, `hash_join_dense_key`, `sort_served`). Sources,
/// sinks and a limit start free; a cross product, which concatenates one
/// record per output as a join does, at the row join's rate; any other
/// untimed kernel at its path's filter rate. A spill round trip was timed
/// on a 200 000-row, four-field table.
pub(crate) fn seed(key: KernelKey) -> Rate {
    let per_unit_us = match (key.kernel, key.columnar) {
        ("CollectionSource" | "StorageSource" | "LoopInput" | "Limit" | "CollectSink", _) => 0.0,
        ("Spill", _) => 0.84,
        ("Map", true) => 0.00086,
        ("Project", true) => 0.0,
        ("ChunkPipeline", true) => 0.00593,
        ("HashGroupBy" | "SortGroupBy", true) => 0.0119,
        ("HashJoin", true) => 0.0019,
        ("Sort", true) => 0.000355,
        (_, true) => 0.00529,
        ("Map" | "FlatMap", false) => 0.0573,
        ("Project", false) => 0.0337,
        ("ChunkPipeline", false) => 0.0831,
        ("HashGroupBy" | "SortGroupBy", false) => 0.376,
        ("ReduceByKey" | "GlobalReduce", false) => 0.0884,
        ("HashJoin" | "CrossProduct", false) => 0.0846,
        ("Sort", false) => 0.00625,
        (_, false) => 0.0406,
    };
    Rate {
        per_unit_us,
        ..Rate::default()
    }
}

/// A rate's running least-squares fit (Welford's update: no precision lost
/// at large work counts).
#[derive(Clone, Copy, Debug, Default)]
struct Fit {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    /// Σ (x − mean_x)².
    m2x: f64,
    /// Σ (x − mean_x)(y − mean_y).
    cxy: f64,
    /// The rate the observations so far fit to.
    rate: Rate,
}

impl Fit {
    /// Fold in `y` µs over `x` work units and refit.
    fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        self.mean_y += (y - self.mean_y) / n;
        self.m2x += dx * (x - self.mean_x);
        self.cxy += dx * (y - self.mean_y);
        let (fixed_us, per_unit_us) = self.solve();
        self.rate = Rate {
            fixed_us,
            per_unit_us,
            samples: self.n,
            mean_units: self.mean_x,
        };
    }

    /// Intercept and slope. A line through one work size, or one that
    /// would price some size below zero, becomes a line through the origin
    /// — the seeds' shape.
    fn solve(&self) -> (f64, f64) {
        let (n, mx, my) = (self.n as f64, self.mean_x, self.mean_y);
        if self.m2x > 1e-9 * n * mx * mx {
            let slope = self.cxy / self.m2x;
            let intercept = my - slope * mx;
            if slope >= 0.0 && intercept >= 0.0 {
                return (intercept, slope);
            }
        }
        if mx > 0.0 {
            (0.0, (self.cxy + n * mx * my) / (self.m2x + n * mx * mx))
        } else {
            (my, 0.0)
        }
    }
}

/// The kernel-rate table (see the module docs), shared in an `Arc`: read
/// per plan node during enumeration, written once per job under one lock,
/// so two jobs finishing together serialize as whole jobs. `version`
/// advances once per mutating batch: the plan cache's "did anything
/// change?" probe.
#[derive(Debug, Default)]
pub struct CostCalibration {
    entries: Mutex<HashMap<KernelKey, Fit>>,
    version: AtomicU64,
}

impl CostCalibration {
    /// A table holding only the seeds.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation: `key`'s kernel did `work_ms` of work over
    /// `units` work units. Non-finite or negative values are discarded.
    pub fn observe(&self, key: KernelKey, units: f64, work_ms: f64) {
        if Self::fold(&mut self.entries.lock(), key, units, work_ms) {
            self.version.fetch_add(1, Ordering::Release);
        }
    }

    fn fold(entries: &mut HashMap<KernelKey, Fit>, key: KernelKey, x: f64, ms: f64) -> bool {
        if !(x.is_finite() && ms.is_finite() && x >= 0.0 && ms >= 0.0) {
            return false;
        }
        // A free seed is bounded as if it cost 1 µs.
        let seeded = seed(key).us(x).max(1.0);
        let us = (ms * 1e3).clamp(seeded / RATIO_CLAMP, seeded * RATIO_CLAMP);
        entries.entry(key).or_default().add(x, us);
        true
    }

    /// Monotone mutation counter: advances once per mutating
    /// [`Self::observe`] and once per [`Self::absorb`] that folded anything
    /// in. The plan cache compares versions to skip its drift check when
    /// the table has not moved since an entry was last validated.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The current rate of `key`: fitted, or the seed if never observed.
    pub fn rate(&self, key: KernelKey) -> Rate {
        self.entries
            .lock()
            .get(&key)
            .map_or_else(|| seed(key), |f| f.rate)
    }

    /// Number of keys observed so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no observation has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// The observed keys and their rates, sorted by key.
    pub fn snapshot(&self) -> Vec<(KernelKey, Rate)> {
        let mut rows: Vec<_> = self
            .entries
            .lock()
            .iter()
            .map(|(k, f)| (*k, f.rate))
            .collect();
        rows.sort_by_key(|(k, _)| *k);
        rows
    }

    /// Fold every node observation of a finished job into the table.
    ///
    /// A node's work units are counted on what it actually saw: its
    /// producers' observed output (else the plan's estimate) and its own.
    /// A loop is priced through its body, and an operator seeded free only
    /// hands a dataset along: neither kernel is fitted. Every node's spills
    /// are, under [`KernelKey::SPILL`]. A failed attempt's observations
    /// never reach this point.
    pub(crate) fn absorb(&self, plan: &ExecutionPlan, stats: &ExecutionStats) {
        let observations = || stats.atoms.iter().flat_map(|a| &a.node_observations);
        let observed: HashMap<_, f64> = observations()
            .map(|o| (o.node, o.records_out as f64))
            .collect();
        let nodes = plan.physical.nodes();
        let mut entries = self.entries.lock();
        let mut changed = false;
        for obs in observations() {
            let Some(node) = nodes.get(obs.node.0) else {
                continue;
            };
            if obs.spilled_rows > 0 {
                let rows = obs.spilled_rows as f64;
                changed |= Self::fold(&mut entries, KernelKey::SPILL, rows, obs.spill_ms);
            }
            let key = KernelKey {
                columnar: obs.columnar,
                ..KernelKey::of(&node.op)
            };
            if matches!(node.op, PhysicalOp::Loop { .. }) || seed(key) == Rate::default() {
                continue;
            }
            let ins: Vec<f64> = node
                .inputs
                .iter()
                .map(|i| {
                    observed
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| plan.estimates.get(i.0).map_or(0.0, |e| e.card))
                })
                .collect();
            let units = op_work_units(&node.op, &ins, obs.records_out as f64);
            changed |= Self::fold(&mut entries, key, units, obs.work_ms);
        }
        if changed {
            self.version.fetch_add(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAP_ROWS: KernelKey = KernelKey::new("Map", false);

    #[test]
    fn the_seed_prices_until_an_observation_and_one_size_fits_a_slope() {
        let cal = CostCalibration::new();
        let seeded = cal.rate(MAP_ROWS);
        assert_eq!(seeded.samples, 0);
        assert!(seeded.per_unit_us > 0.0);
        // One observation at one size: a line through the origin.
        cal.observe(MAP_ROWS, 1_000.0, 1.0);
        let rate = cal.rate(MAP_ROWS);
        assert_eq!(rate.samples, 1);
        assert!((rate.us(1_000.0) - 1_000.0).abs() < 1e-6);
        assert!((rate.us(2_000.0) - 2_000.0).abs() < 1e-6);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn two_sizes_fit_a_fixed_cost_and_a_slope() {
        let cal = CostCalibration::new();
        // 50 µs + 0.1 µs per unit, observed alternately at two sizes.
        for _ in 0..3 {
            cal.observe(MAP_ROWS, 1_000.0, 0.15);
            cal.observe(MAP_ROWS, 100_000.0, 10.05);
        }
        let rate = cal.rate(MAP_ROWS);
        assert!((rate.fixed_us - 50.0).abs() < 1e-6, "{rate:?}");
        assert!((rate.per_unit_us - 0.1).abs() < 1e-9, "{rate:?}");
        assert_eq!(rate.samples, 6);
        assert!((rate.mean_units - 50_500.0).abs() < 1e-6);
        // A negative intercept or slope is refitted through the origin
        // (Σxy / Σxx): no rate ever prices a size below zero.
        for (first_ms, second_ms, slope) in [(0.01, 0.2, 0.82), (0.2, 0.1, 0.8)] {
            let cal = CostCalibration::new();
            cal.observe(MAP_ROWS, 100.0, first_ms);
            cal.observe(MAP_ROWS, 200.0, second_ms);
            let r = cal.rate(MAP_ROWS);
            assert_eq!(r.fixed_us, 0.0);
            assert!((r.per_unit_us - slope).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn garbage_observations_are_discarded_and_leave_the_version() {
        let cal = CostCalibration::new();
        cal.observe(MAP_ROWS, f64::NAN, 5.0);
        cal.observe(MAP_ROWS, 10.0, f64::INFINITY);
        cal.observe(MAP_ROWS, -1.0, 5.0);
        cal.observe(MAP_ROWS, 10.0, -3.0);
        assert!(cal.is_empty());
        assert_eq!(cal.version(), 0);
        cal.observe(MAP_ROWS, 10.0, 0.02);
        assert_eq!(cal.version(), 1);
    }

    #[test]
    fn keys_follow_the_operator_table() {
        use crate::expr::Expr;
        use crate::udf::{FilterUdf, MapUdf};
        let opaque = PhysicalOp::Map(MapUdf::new("f", |r| r.clone()));
        let other = PhysicalOp::Map(MapUdf::new("g", |r| r.clone()));
        let key = KernelKey::of(&opaque);
        assert_eq!((key.kernel, key.columnar), ("Map", false));
        // A row kernel is keyed by its operator: two closures, two rates.
        assert_ne!(key, KernelKey::of(&other));
        assert_eq!(key, KernelKey::of(&opaque));
        let declarative = PhysicalOp::Filter(FilterUdf::from_expr(
            "p",
            Expr::field(0).ge(Expr::lit(1i64)),
        ));
        assert_eq!(KernelKey::of(&declarative), KernelKey::new("Filter", true));
        // A chunk kernel is priced below its row twin, and an unobserved
        // operator at its kernel's seed.
        let cal = CostCalibration::new();
        let map_chunk = KernelKey::new("Map", true);
        assert!(cal.rate(map_chunk).us(1e6) < cal.rate(MAP_ROWS).us(1e6));
        assert_eq!(cal.rate(KernelKey::of(&opaque)), seed(MAP_ROWS));
    }

    #[test]
    fn one_observation_moves_its_rate_a_bounded_way() {
        let cal = CostCalibration::new();
        let seeded = cal.rate(MAP_ROWS).us(1_000.0);
        // A page-fault storm: a billion times the seed.
        cal.observe(MAP_ROWS, 1_000.0, seeded * 1e9 / 1e3);
        let bound = seeded * RATIO_CLAMP;
        assert!((cal.rate(MAP_ROWS).us(1_000.0) - bound).abs() < 1e-6 * bound);
        // …and a kernel that took no time at all.
        let cal = CostCalibration::new();
        cal.observe(MAP_ROWS, 1_000.0, 0.0);
        assert!(cal.rate(MAP_ROWS).us(1_000.0) > 0.0);
    }

    /// The key `Map(f)` is fitted under.
    fn map_f() -> KernelKey {
        KernelKey::of(&PhysicalOp::Map(crate::udf::MapUdf::new("f", |r| {
            r.clone()
        })))
    }

    /// A one-job (plan, stats) pair whose absorption folds `observed_ms`
    /// into the row `Map(f)` rate, in order, over 100 → 100 rows.
    fn absorb_job(observed_ms: &[f64]) -> (ExecutionPlan, ExecutionStats) {
        use crate::observe::NodeObservation;
        use crate::plan::{EnumerationInfo, NodeId, PlanBuilder};
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
            estimates: vec![],
            enumeration: EnumerationInfo::default(),
        };
        let observation = |node: usize, op: &str, ms: f64| NodeObservation {
            node: NodeId(node),
            op: op.into(),
            records_out: 100,
            elapsed_ms: ms,
            work_ms: ms,
            morsels: 1,
            columnar: false,
            spilled_rows: 0,
            spill_ms: 0.0,
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
            node_observations: std::iter::once(observation(0, "source", 0.0))
                .chain(observed_ms.iter().map(|ms| observation(1, "Map(f)", *ms)))
                .collect(),
        });
        (plan, stats)
    }

    #[test]
    fn absorption_counts_work_on_what_each_node_saw() {
        let (plan, stats) = absorb_job(&[0.2, 0.4]);
        let cal = CostCalibration::new();
        cal.absorb(&plan, &stats);
        assert_eq!(cal.version(), 1, "one job, one version step");
        // 100 rows in (the source's observed output) + 100 out = 200 units.
        let rate = cal.rate(map_f());
        assert_eq!(rate.samples, 2);
        assert!((rate.mean_units - 200.0).abs() < 1e-9);
        assert!((rate.us(200.0) - 300.0).abs() < 1e-6, "{rate:?}");
    }

    #[test]
    fn concurrent_absorption_is_merge_safe() {
        // `absorb` takes the table lock once per job, so two jobs finishing
        // concurrently land on the state of one of the two serial orders.
        let (plan_a, stats_a) = absorb_job(&[20.0, 40.0, 80.0]);
        let (plan_b, stats_b) = absorb_job(&[30.0, 50.0, 90.0]);
        let serial = |first: (&ExecutionPlan, &ExecutionStats),
                      second: (&ExecutionPlan, &ExecutionStats)| {
            let cal = CostCalibration::new();
            cal.absorb(first.0, first.1);
            cal.absorb(second.0, second.1);
            cal.rate(map_f())
        };
        let ab = serial((&plan_a, &stats_a), (&plan_b, &stats_b));
        let ba = serial((&plan_b, &stats_b), (&plan_a, &stats_a));
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
            let got = cal.rate(map_f());
            assert!(
                got == ab || got == ba,
                "concurrent absorb produced a non-serializable state: {got:?} \
                 (expected {ab:?} or {ba:?})"
            );
            assert_eq!(got.samples, 6);
        }
    }
}
