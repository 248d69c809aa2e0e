//! The MapReduce-like platform: batch execution with disk-materialized
//! phase boundaries.
//!
//! Substitution for Hadoop MapReduce (see DESIGN.md). Its cost structure —
//! the reason Mahout-era iterative ML was slow enough that "all ML
//! algorithms initially implemented in Hadoop had to be re-implemented in
//! Spark" (§2) — comes from two real mechanisms reproduced here:
//!
//! * a large fixed **job setup** overhead per task atom;
//! * every *phase boundary* (each wide operator, and every loop iteration)
//!   **spills its input to local disk and reads it back**, doing real file
//!   I/O in the native codec.
//!
//! Narrow operators run as a wave of "mapper" tasks over the partitions the
//! data is in. Between phase boundaries a dataset stays in [`Dataset`]
//! partitions — chunks where columnar tasks produced them — and becomes
//! rows only to be spilled. The execution operators themselves are the
//! shared `crate::runner`'s; this file is the phase boundary.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rheem_core::{
    AtomInputs, AtomResult, Dataset, ExecutionContext, LinearCostModel, PhysicalOp, PhysicalPlan,
    Platform, PlatformCostModel, ProcessingProfile, Record, Result, TaskAtom,
};

use crate::config::OverheadConfig;
use crate::runner::{self, BoundaryCharge, Engine, Parts};

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Disk-phased batch execution engine.
pub struct MapReduceLikePlatform {
    workers: usize,
    overheads: OverheadConfig,
    spill_dir: PathBuf,
    cost: Arc<LinearCostModel>,
}

impl MapReduceLikePlatform {
    /// A platform with `workers` mapper threads, Hadoop-flavoured defaults
    /// (120 ms job setup, 8 ms per phase, both slept), spilling under the
    /// system temp directory.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        MapReduceLikePlatform {
            workers,
            overheads: OverheadConfig::slept(Duration::from_millis(120), Duration::from_millis(8)),
            spill_dir: std::env::temp_dir().join("rheem_mr_spills"),
            cost: Arc::new(LinearCostModel {
                per_unit: 3e-4,
                speedup: (workers as f64 / 2.0).max(1.0),
                startup: 1500.0,
                shuffle_surcharge: 2e-3, // disk write + read per record
            }),
        }
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }

    /// Override the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = dir.into();
        self
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: LinearCostModel) -> Self {
        self.cost = Arc::new(cost);
        self
    }

    /// Write one partition to a spill file and read it back (a real phase
    /// boundary): the only place this engine turns a partition into rows.
    fn spill_round_trip(&self, part: &Dataset) -> Result<Dataset> {
        let spill = SpillFile::write(&self.spill_dir, part.records())?;
        Ok(Dataset::new(spill.read_back()?))
    }
}

/// A spill file on disk; dropping it removes the file, on every exit from
/// the round trip — a failed read or decode included.
struct SpillFile(PathBuf);

impl SpillFile {
    fn write(dir: &Path, records: &[Record]) -> Result<SpillFile> {
        std::fs::create_dir_all(dir)?;
        let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let spill = SpillFile(dir.join(format!("spill_{}_{id}.rrec", std::process::id())));
        std::fs::write(&spill.0, rheem_storage::encode_batch(records))?;
        Ok(spill)
    }

    fn read_back(self) -> Result<Vec<Record>> {
        rheem_storage::decode_batch(&std::fs::read_to_string(&self.0)?)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

impl Platform for MapReduceLikePlatform {
    fn name(&self) -> &str {
        "mapreduce"
    }

    fn profile(&self) -> ProcessingProfile {
        ProcessingProfile::DiskBatch
    }

    fn supports(&self, _op: &PhysicalOp) -> bool {
        true
    }

    fn cost_model(&self) -> Arc<dyn PlatformCostModel> {
        self.cost.clone()
    }

    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> Result<AtomResult> {
        runner::run_atom(self, self.name(), &self.overheads, plan, atom, inputs, ctx)
    }
}

impl Engine for MapReduceLikePlatform {
    fn workers(&self) -> usize {
        self.workers
    }

    /// Every phase runs one task per worker.
    fn partitions_for(&self, _rows: usize) -> usize {
        self.workers
    }

    /// A phase boundary per input (each join side, each loop iteration's
    /// state): the phase overhead, and every partition round-trips through
    /// disk. Disk I/O is charged serially — HDFS-era clusters were
    /// I/O-bound at phase boundaries, which is exactly the profile this
    /// platform models.
    fn boundary(&self, inputs: &mut [Parts]) -> Result<BoundaryCharge> {
        let mut charge = BoundaryCharge::default();
        for parts in inputs {
            charge.overhead_ms += self.overheads.pay_stage();
            let t = Instant::now();
            for part in parts.iter_mut() {
                *part = self.spill_round_trip(part)?;
            }
            charge.io_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        Ok(charge)
    }

    /// The job tracker's plumbing is not spread over the workers.
    fn driver_ms(&self, wall_ms: f64) -> f64 {
        wall_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::udf::{GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
    use rheem_core::{rec, PlanBuilder, RheemContext};

    fn mr() -> MapReduceLikePlatform {
        MapReduceLikePlatform::new(4)
            .with_overheads(OverheadConfig::none())
            .with_spill_dir(
                std::env::temp_dir().join(format!("rheem_mr_test_{}", std::process::id())),
            )
    }

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(mr()))
    }

    fn sorted(mut v: Vec<Record>) -> Vec<Record> {
        v.sort();
        v
    }

    fn assert_matches_reference(plan: rheem_core::PhysicalPlan) {
        let reference = rheem_core::run_plan(&plan, &rheem_core::ExecutionContext::new()).unwrap();
        let result = ctx().execute(plan).unwrap();
        assert_eq!(result.outputs.len(), reference.len());
        for (sink, data) in &result.outputs {
            assert_eq!(
                sorted(data.records().to_vec()),
                sorted(reference[sink].records().to_vec()),
                "sink {sink} differs from reference"
            );
        }
    }

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn reduce_by_key_with_combiner_matches_reference() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..400i64).map(|i| rec![i % 11, 1i64]).collect());
        let red = b.reduce_by_key(
            src,
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        b.collect(red);
        assert_matches_reference(b.build().unwrap());
    }

    #[test]
    fn loop_spills_every_iteration() {
        let platform = MapReduceLikePlatform::new(2)
            .with_overheads(OverheadConfig::accounted_only(
                Duration::from_millis(100),
                Duration::from_millis(10),
            ))
            .with_spill_dir(
                std::env::temp_dir().join(format!("rheem_mr_loop_{}", std::process::id())),
            );
        let ctx = RheemContext::new().with_platform(Arc::new(platform));

        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.map(li, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", nums(10));
        let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(5), 5);
        let sink = b.collect(l);
        let result = ctx.execute(b.build().unwrap()).unwrap();
        // 100 startup + 5 iterations × 10 phase.
        assert_eq!(
            result
                .stats
                .atoms
                .iter()
                .map(|a| a.simulated_overhead_ms)
                .sum::<f64>(),
            150.0
        );
        assert_eq!(
            result.outputs[&sink].records(),
            (5..15i64).map(|i| rec![i]).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn float_payloads_survive_the_disk_round_trip() {
        let mut b = PlanBuilder::new();
        let src = b.collection(
            "s",
            vec![rec![1i64, 0.1f64], rec![1i64, 0.2f64], rec![2i64, f64::NAN]],
        );
        let g = b.group_by(src, KeyUdf::field(0), GroupMapUdf::identity());
        b.collect(g);
        assert_matches_reference(b.build().unwrap());
    }

    fn spill_files(dir: &Path) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(dir)
            .map(|entries| entries.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default()
    }

    /// The spill directory holds nothing once a round trip is over, however
    /// it ended: a finished job, a spill that cannot be decoded, a job
    /// cancelled between two phases.
    #[test]
    fn no_spill_file_outlives_its_round_trip() {
        use rheem_core::{CancelReason, CancelToken, RheemError};

        let dir = std::env::temp_dir().join(format!("rheem_mr_leak_{}", std::process::id()));
        let platform = || {
            MapReduceLikePlatform::new(3)
                .with_overheads(OverheadConfig::none())
                .with_spill_dir(&dir)
        };
        let looping_plan = |on_third_pass: Arc<dyn Fn() + Send + Sync>| {
            let mut body = PlanBuilder::new();
            let li = body.loop_input();
            body.map(
                li,
                MapUdf::new("inc", move |r| {
                    if r.int(0).unwrap() == 2 {
                        on_third_pass();
                    }
                    rec![r.int(0).unwrap() + 1]
                }),
            );
            let mut b = PlanBuilder::new();
            let src = b.collection("s", vec![rec![0i64]]);
            let body = body.build_fragment().unwrap();
            let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(6), 6);
            let sink = b.collect(l);
            (b.build().unwrap(), sink)
        };

        // A job that spills six times and finishes.
        let (plan, sink) = looping_plan(Arc::new(|| ()));
        let ctx = RheemContext::new().with_platform(Arc::new(platform()));
        let result = ctx.execute(plan).unwrap();
        assert_eq!(result.outputs[&sink].records(), &[rec![6i64]]);
        assert_eq!(spill_files(&dir), Vec::<std::ffi::OsString>::new());

        // A spill that reads back corrupt: the error surfaces and the file
        // is gone all the same.
        let spill = SpillFile::write(&dir, &nums(3)).unwrap();
        assert_eq!(spill_files(&dir).len(), 1);
        std::fs::write(&spill.0, "Zgarbage\n").unwrap();
        let err = spill.read_back().unwrap_err();
        assert!(matches!(err, RheemError::Storage(_)), "{err:?}");
        assert_eq!(spill_files(&dir), Vec::<std::ffi::OsString>::new());

        // A job cancelled in its third iteration, between two spills.
        let token = CancelToken::new();
        let trip = token.clone();
        let (plan, _) = looping_plan(Arc::new(move || {
            trip.cancel(CancelReason::Explicit);
        }));
        let atom = TaskAtom {
            id: 0,
            platform: "mapreduce".into(),
            nodes: plan.nodes().iter().map(|n| n.id).collect(),
            inputs: Vec::new(),
            outputs: plan.sinks(),
        };
        let cancelled = platform().execute_atom(
            &plan,
            &atom,
            &AtomInputs::new(),
            &ExecutionContext::new().with_cancel_token(token),
        );
        assert!(
            matches!(cancelled, Err(RheemError::Cancelled { .. })),
            "{:?}",
            cancelled.map(|r| r.records_processed)
        );
        assert_eq!(spill_files(&dir), Vec::<std::ffi::OsString>::new());
    }
}
