//! The platform layer contract.
//!
//! "At this layer, execution operators define how a task is executed on the
//! underlying processing platform" (§3.1). A [`Platform`] is an engine that
//! can run task atoms; its execution operators are the engine's internal
//! implementations of the physical operators it [`Platform::supports`].
//! A platform states itself once, as its [`Clock`] — its "data processing
//! profile" (§8 challenge 2): what its engine charges on top of kernel time
//! and which data channels it reads and writes at atom boundaries — so the
//! multi-platform optimizer prices operators and platform switches the way
//! the engines will charge them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cost::Clock;
use crate::data::Dataset;
use crate::error::{Result, RheemError};
use crate::physical::PhysicalOp;
use crate::plan::{NodeId, PhysicalPlan, TaskAtom};

/// Boundary inputs of an atom: dataset per `(consumer node, input slot)`.
pub type AtomInputs = HashMap<(NodeId, usize), Dataset>;

/// What a platform returns after executing an atom.
#[derive(Clone, Debug, Default)]
pub struct AtomResult {
    /// Output datasets for the atom's boundary-output nodes.
    pub outputs: HashMap<NodeId, Dataset>,
    /// Total records produced by operators inside the atom.
    pub records_processed: u64,
    /// Deterministic simulated overhead the platform charged (job startup,
    /// stage scheduling, disk phases). Used by tests and reported in stats;
    /// real wall-clock is measured by the executor separately.
    pub simulated_overhead_ms: f64,
    /// Simulated elapsed time of the atom in milliseconds: charged
    /// overheads plus the *critical path* of the work — for partitioned
    /// platforms, the per-stage maximum across partitions, as if every
    /// partition had its own core. This is what makes the paper's
    /// parallel-vs-single-process comparisons reproducible on any host,
    /// including single-core CI machines (see DESIGN.md).
    pub simulated_elapsed_ms: f64,
    /// Per-operator-kernel observations (runtime and true output
    /// cardinality) for the atom's top-level nodes. Feeds the job's
    /// `ExecutionStats` and the cost-calibration loop; platforms that cannot
    /// attribute work per node may leave this empty.
    pub node_observations: Vec<crate::observe::NodeObservation>,
}

/// A data processing platform (execution engine).
pub trait Platform: Send + Sync {
    /// Unique platform name (used in plans, mappings, and movement costs).
    fn name(&self) -> &str;

    /// Whether this platform has an execution operator for `op`.
    fn supports(&self, op: &PhysicalOp) -> bool;

    /// The platform's clock: how its engine turns kernel time into
    /// simulated time, and the channels it moves data over. The optimizer
    /// prices every operator and every platform switch by it.
    fn clock(&self) -> Clock;

    /// Execute one task atom: run `atom.nodes` (a topologically ordered
    /// fragment of `plan`) given boundary `inputs`, returning datasets for
    /// the atom's output nodes.
    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> Result<AtomResult>;
}

/// Registry of available platforms, in registration order.
#[derive(Clone, Default)]
pub struct PlatformRegistry {
    platforms: Vec<Arc<dyn Platform>>,
}

impl PlatformRegistry {
    /// Register a platform. Re-registering a name replaces the old entry.
    pub(crate) fn register(&mut self, platform: Arc<dyn Platform>) {
        self.platforms.retain(|p| p.name() != platform.name());
        self.platforms.push(platform);
    }

    /// Look up a platform by name.
    pub(crate) fn get(&self, name: &str) -> Result<Arc<dyn Platform>> {
        self.platforms
            .iter()
            .find(|p| p.name() == name)
            .cloned()
            .ok_or_else(|| RheemError::UnknownPlatform(name.to_string()))
    }

    /// All registered platforms, in registration order.
    pub fn all(&self) -> &[Arc<dyn Platform>] {
        &self.platforms
    }

    /// Names of all registered platforms.
    pub(crate) fn names(&self) -> Vec<&str> {
        self.platforms.iter().map(|p| p.name()).collect()
    }

    /// True iff no platform is registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.platforms.is_empty()
    }
}

/// Abstraction over the storage layer, implemented by `rheem-storage`.
///
/// Kept as a trait in the core so the processing side depends only on the
/// *abstraction* — the same inversion the paper applies between processing
/// platforms and storage platforms (§6).
pub trait StorageService: Send + Sync {
    /// Read a dataset by id.
    fn read(&self, dataset_id: &str) -> Result<Dataset>;

    /// Write (or overwrite) a dataset by id.
    fn write(&self, dataset_id: &str, data: &Dataset) -> Result<()>;

    /// Cardinality of a stored dataset, if known without reading it.
    fn cardinality(&self, dataset_id: &str) -> Option<u64>;
}

/// An in-memory [`StorageService`] for tests and storage-less deployments.
#[derive(Default)]
pub struct MemoryStorageService {
    datasets: Mutex<HashMap<String, Dataset>>,
}

impl MemoryStorageService {
    /// An empty in-memory storage service.
    pub fn new() -> Self {
        MemoryStorageService::default()
    }
}

impl StorageService for MemoryStorageService {
    fn read(&self, dataset_id: &str) -> Result<Dataset> {
        self.datasets
            .lock()
            .get(dataset_id)
            .cloned()
            .ok_or_else(|| RheemError::DatasetNotFound(dataset_id.to_string()))
    }

    fn write(&self, dataset_id: &str, data: &Dataset) -> Result<()> {
        self.datasets
            .lock()
            .insert(dataset_id.to_string(), data.clone());
        Ok(())
    }

    fn cardinality(&self, dataset_id: &str) -> Option<u64> {
        self.datasets.lock().get(dataset_id).map(|d| d.len() as u64)
    }
}

/// The kind of error a scripted injection raises (see
/// `RheemError::classify`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedKind {
    /// An engine hiccup: surfaces as [`RheemError::Execution`], which the
    /// executor may retry.
    Transient,
    /// A deterministic defect (a broken kernel): surfaces as
    /// [`RheemError::InvalidPlan`], which the executor must fail fast on.
    Permanent,
}

/// An atom-id-keyed injection rule: fail the first `attempts` attempts of
/// one specific atom.
#[derive(Clone, Copy, Debug)]
struct AtomRule {
    attempts: usize,
    kind: InjectedKind,
}

/// Deterministic failure injection for exercising the executor's fault
/// tolerance (§4.2: the executor must "cope with failures").
///
/// Three scripted modes, checked in order by `FailureInjector::inject`.
/// Each decision is a pure function of `(platform, atom id, attempt)`, so
/// it lands on the same atom however wide the waves run:
///
/// 1. **Atom-keyed** ([`fail_atom`](FailureInjector::fail_atom)): fail the
///    first `n` attempts of one specific atom id.
/// 2. **Platform down** ([`set_down`](FailureInjector::set_down)): every
///    attempt on the platform fails, modelling a hard outage that only
///    failover re-planning can route around.
/// 3. **Seeded probabilistic**
///    ([`probabilistic`](FailureInjector::probabilistic)): each
///    `(platform, atom, attempt)` fails with probability `p`, drawn
///    deterministically from a seed — chaos that replays identically
///    across runs and thread budgets.
#[derive(Debug, Default)]
pub struct FailureInjector {
    /// Platforms experiencing a hard outage.
    down: Mutex<HashSet<String>>,
    /// Atom-id-keyed rules.
    atoms: Mutex<HashMap<usize, AtomRule>>,
    /// Per-platform `(probability, seed)` of seeded random failures.
    chaos: Mutex<HashMap<String, (f64, u64)>>,
}

impl FailureInjector {
    /// No injected failures.
    pub fn none() -> Self {
        FailureInjector::default()
    }

    /// A platform that is down from the start (every attempt fails with a
    /// transient error until [`restore`](Self::restore)).
    pub fn platform_down(platform: impl Into<String>) -> Self {
        let inj = FailureInjector::default();
        inj.set_down(platform);
        inj
    }

    /// Mark `platform` as hard-down: every attempt on it fails.
    pub fn set_down(&self, platform: impl Into<String>) {
        self.down.lock().insert(platform.into());
    }

    /// Bring a downed platform back up.
    pub fn restore(&self, platform: &str) {
        self.down.lock().remove(platform);
    }

    /// Fail the first `attempts` attempts of atom `atom_id` with a
    /// transient error, regardless of platform.
    pub fn fail_atom(&self, atom_id: usize, attempts: usize) {
        self.fail_atom_with(atom_id, attempts, InjectedKind::Transient);
    }

    /// Like [`fail_atom`](Self::fail_atom) with an explicit error kind.
    pub fn fail_atom_with(&self, atom_id: usize, attempts: usize, kind: InjectedKind) {
        self.atoms
            .lock()
            .insert(atom_id, AtomRule { attempts, kind });
    }

    /// Fail each `(atom, attempt)` on `platform` independently with
    /// probability `p`, drawn deterministically from `seed`. The draw is a
    /// pure function of `(seed, platform, atom id, attempt)` — identical
    /// across thread budgets and reruns.
    pub fn probabilistic(&self, platform: impl Into<String>, p: f64, seed: u64) {
        self.chaos
            .lock()
            .insert(platform.into(), (p.clamp(0.0, 1.0), seed));
    }

    /// The executor's single entry point: should the `attempt`-th attempt
    /// (1-based) of atom `atom_id` on `platform` fail, and how?
    ///
    /// Checks atom-keyed rules, hard outages, and seeded chaos, in that
    /// order.
    pub(crate) fn inject(
        &self,
        platform: &str,
        atom_id: usize,
        attempt: usize,
    ) -> Option<InjectedKind> {
        if let Some(rule) = self.atoms.lock().get(&atom_id) {
            if attempt <= rule.attempts {
                return Some(rule.kind);
            }
        }
        if self.down.lock().contains(platform) {
            return Some(InjectedKind::Transient);
        }
        if let Some(&(p, seed)) = self.chaos.lock().get(platform) {
            let bits = crate::fault::splitmix64(
                seed ^ crate::fault::fnv1a(platform)
                    ^ (atom_id as u64).rotate_left(17)
                    ^ (attempt as u64).rotate_left(41),
            );
            if crate::fault::unit_f64(bits) < p {
                return Some(InjectedKind::Transient);
            }
        }
        None
    }

    /// The error a scripted injection raises, matching what a real engine
    /// failure of that kind would look like.
    pub(crate) fn error_for(kind: InjectedKind, platform: &str, atom_id: usize) -> RheemError {
        match kind {
            InjectedKind::Transient => RheemError::Execution {
                platform: platform.to_string(),
                message: format!("injected failure on atom {atom_id}"),
            },
            InjectedKind::Permanent => RheemError::InvalidPlan(format!(
                "injected permanent failure on atom {atom_id} ({platform})"
            )),
        }
    }
}

/// The one thread budget of a job: the wave width.
///
/// Lives on [`ExecutionContext`] next to the storage service. The wave
/// scheduler runs `min(threads, atoms in the wave)` atoms at once, each on
/// its own thread; an in-process kernel runs whole on its atom's thread,
/// and a partitioned engine's tasks are its own. `threads = 1` runs one
/// atom at a time. No price depends on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParallelism {
    /// Atoms of one wave the job may run at once.
    pub threads: usize,
}

impl Default for KernelParallelism {
    /// The host's available parallelism.
    fn default() -> Self {
        KernelParallelism::sequential().with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl KernelParallelism {
    /// A budget of one thread: one atom at a time.
    pub fn sequential() -> Self {
        KernelParallelism { threads: 1 }
    }

    /// Set the thread budget (min 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Ambient services available to platforms while executing atoms.
#[derive(Clone, Default)]
pub struct ExecutionContext {
    /// The storage layer, if deployed.
    pub storage: Option<Arc<dyn StorageService>>,
    /// Failure injection used by the executor (None in production).
    pub failure_injector: Option<Arc<FailureInjector>>,
    /// The job's thread budget: the wave width (see [`KernelParallelism`];
    /// defaults to the host's available parallelism).
    pub kernel_parallelism: KernelParallelism,
    /// Cooperative cancellation flag for the job this atom belongs to
    /// (None in embedded single-job use). Platforms and the interpreter
    /// check it between operators / partitions via
    /// [`check_cancelled`](ExecutionContext::check_cancelled); the
    /// executor additionally installs it as the ambient cancel scope a
    /// closure kernel checks before each row.
    pub cancel: Option<crate::fault::CancelToken>,
}

impl ExecutionContext {
    /// A context with no storage layer and no failure injection.
    pub fn new() -> Self {
        ExecutionContext::default()
    }

    /// Attach a storage service.
    pub fn with_storage(mut self, storage: Arc<dyn StorageService>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Set the thread budget.
    pub fn with_kernel_parallelism(mut self, parallelism: KernelParallelism) -> Self {
        self.kernel_parallelism = parallelism;
        self
    }

    /// Install a cooperative cancellation token.
    pub fn with_cancel_token(mut self, cancel: crate::fault::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Checkpoint: `Err(RheemError::Cancelled)` once the job's token has
    /// fired, `Ok(())` otherwise (including when no token is installed).
    pub fn check_cancelled(&self) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Resolve the storage service or error.
    pub(crate) fn storage(&self) -> Result<&Arc<dyn StorageService>> {
        self.storage
            .as_ref()
            .ok_or_else(|| RheemError::Storage("no storage service configured".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    #[test]
    fn memory_storage_round_trip() {
        let s = MemoryStorageService::new();
        assert!(s.read("x").is_err());
        assert_eq!(s.cardinality("x"), None);
        let d = Dataset::new(vec![rec![1i64], rec![2i64]]);
        s.write("x", &d).unwrap();
        assert_eq!(s.read("x").unwrap(), d);
        assert_eq!(s.cardinality("x"), Some(2));
    }

    #[test]
    fn atom_keyed_injection_is_schedule_independent() {
        let inj = FailureInjector::none();
        inj.fail_atom(3, 2);
        // Pure function of (atom, attempt): call order is irrelevant.
        assert_eq!(inj.inject("java", 3, 2), Some(InjectedKind::Transient));
        assert_eq!(inj.inject("spark", 3, 1), Some(InjectedKind::Transient));
        assert_eq!(inj.inject("java", 3, 3), None, "rule covers 2 attempts");
        assert_eq!(inj.inject("java", 4, 1), None, "other atoms untouched");
        assert_eq!(inj.inject("java", 3, 1), Some(InjectedKind::Transient));
    }

    #[test]
    fn permanent_injection_surfaces_as_invalid_plan() {
        let inj = FailureInjector::none();
        inj.fail_atom_with(0, usize::MAX, InjectedKind::Permanent);
        let kind = inj.inject("java", 0, 1).unwrap();
        assert_eq!(kind, InjectedKind::Permanent);
        let err = FailureInjector::error_for(kind, "java", 0);
        assert!(matches!(err, RheemError::InvalidPlan(_)), "{err}");
        assert!(!err.is_retryable());
        let err = FailureInjector::error_for(InjectedKind::Transient, "java", 7);
        assert!(err.is_retryable());
        assert!(err.to_string().contains("java"), "{err}");
        assert!(err.to_string().contains("atom 7"));
    }

    #[test]
    fn downed_platform_fails_every_attempt_until_restored() {
        let inj = FailureInjector::platform_down("spark");
        for attempt in 1..=5 {
            assert_eq!(
                inj.inject("spark", attempt, attempt),
                Some(InjectedKind::Transient)
            );
        }
        assert_eq!(inj.inject("java", 0, 1), None);
        inj.restore("spark");
        assert_eq!(inj.inject("spark", 0, 1), None);
    }

    #[test]
    fn probabilistic_injection_is_seeded_and_deterministic() {
        let inj = FailureInjector::none();
        inj.probabilistic("spark", 0.5, 42);
        let draw: Vec<bool> = (0..64)
            .map(|atom| inj.inject("spark", atom, 1).is_some())
            .collect();
        let replay: Vec<bool> = (0..64)
            .map(|atom| inj.inject("spark", atom, 1).is_some())
            .collect();
        assert_eq!(draw, replay, "same seed, same outcomes");
        let hits = draw.iter().filter(|b| **b).count();
        assert!((8..=56).contains(&hits), "p=0.5 should hit roughly half");
        let other = FailureInjector::none();
        other.probabilistic("spark", 0.5, 43);
        let reseeded: Vec<bool> = (0..64)
            .map(|atom| other.inject("spark", atom, 1).is_some())
            .collect();
        assert_ne!(draw, reseeded, "different seed, different outcomes");
        assert_eq!(inj.inject("java", 0, 1), None, "chaos is per-platform");
        // p = 0 never fires, p = 1 always fires.
        inj.probabilistic("java", 0.0, 1);
        assert_eq!(inj.inject("java", 0, 1), None);
        inj.probabilistic("java", 1.0, 1);
        assert!(inj.inject("java", 0, 1).is_some());
    }

    #[test]
    fn context_storage_resolution() {
        let ctx = ExecutionContext::new();
        assert!(ctx.storage().is_err());
        let ctx = ctx.with_storage(Arc::new(MemoryStorageService::new()));
        assert!(ctx.storage().is_ok());
    }
}
