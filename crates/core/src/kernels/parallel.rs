//! Morsel-driven parallelism inside one atom, for narrow operators only.
//!
//! The wave scheduler parallelizes *across* task atoms; this module
//! parallelizes *inside* one: a narrow operator's input
//! ([`Layout::Narrow`]: map, flat-map, filter, a fused chunk pipeline) is
//! split into fixed-size **morsels** that run on scoped worker threads, and
//! the per-morsel results are concatenated in morsel order, which is input
//! order. So every kernel here produces **byte-identical output at any
//! thread count**:
//!
//! - `map` / `flat_map` / `filter` are the morsel twins of the sequential
//!   row kernels in [`super`] (the parent `kernels` module).
//! - `run_pipeline_chunk` runs a fused stage chain over a chunk: morsels
//!   yield the rows its filters keep, in morsel order, and the input is
//!   gathered once.
//!
//! Every other operator's kernel runs whole, on either path: a keyed or
//! gathered operator is one sequential kernel call in process, and a
//! partitioned engine runs it once per partition. Parallelism for those is
//! the platform's, not the kernel's.
//!
//! No `unsafe`: workers are `std::thread::scope` threads pulling morsel
//! indices off an atomic cursor and parking results in per-slot mutexed
//! cells — the same pattern the wave executor uses.
//!
//! `KernelParallelism::units` and `KernelParallelism::speedup` read one
//! statement of which operators split and how: what a kernel ran on, and
//! what the optimizer expects its split to save.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::data::{Chunk, Record, Value};
use crate::error::Result;
use crate::fault::CancelToken;
use crate::observe::{Timing, WorkClock};
use crate::physical::{Layout, PhysicalOp, PipelineStage};
use crate::udf::{FilterUdf, FlatMapUdf, KeyUdf, MapUdf};

use super::chunked;

thread_local! {
    /// The ambient morsel-loop cancellation scope. Kernels have no
    /// `ExecutionContext` parameter (and adding one would break every
    /// direct caller), so the executor installs the job's token here
    /// around each atom invocation; [`run_ranges`] picks it up at entry
    /// and checks it before every morsel pull.
    static CANCEL_SCOPE: RefCell<Option<CancelToken>> = const { RefCell::new(None) };

    /// The ambient work meter: milliseconds the worker threads of this
    /// thread's [`run_ranges`] calls worked beyond what this thread's clock
    /// read while it waited for them, while [`metered`] is measuring;
    /// `None` otherwise.
    static WORK_METER: Cell<Option<f64>> = const { Cell::new(None) };
}

/// Install `token` as the ambient morsel-cancellation scope while `f`
/// runs on this thread (see `DESIGN.md` §4). Nested scopes restore the
/// previous token on exit, panic included. Once `token` fires, every
/// parallel kernel invoked under the scope degenerates to empty-range
/// morsels — its (truncated) output must be discarded by a caller-level
/// `CancelToken::check`, which the interpreter performs per operator.
pub fn with_cancel_scope<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CANCEL_SCOPE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CANCEL_SCOPE.with(|c| c.borrow_mut().replace(token.clone())));
    f()
}

/// Run `f` on this thread's [`WorkClock`] with a work meter installed (as
/// [`with_cancel_scope`] installs its token), returning its result, its
/// wall time and its sequential work: this thread's work plus what the
/// worker threads of its parallel kernels worked beyond the time this
/// thread waited for them. A nested meter's extra work also counts toward
/// the enclosing one.
pub(crate) fn metered<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    struct Restore(Option<f64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORK_METER.with(|m| m.set(self.0));
        }
    }
    let clock = WorkClock::start();
    let restore = Restore(WORK_METER.with(|m| m.replace(Some(0.0))));
    let out = f();
    let extra = WORK_METER.with(Cell::get).unwrap_or(0.0);
    drop(restore);
    let mut took = clock.stop();
    took.work_ms += extra;
    add_work(extra);
    (out, took)
}

/// Add `ms` to this thread's work meter, if one is installed.
fn add_work(ms: f64) {
    WORK_METER.with(|m| m.set(m.get().map(|w| w + ms)));
}

/// The token installed by [`with_cancel_scope`] on this thread, if any.
fn ambient_cancel() -> Option<CancelToken> {
    CANCEL_SCOPE.with(|c| c.borrow().clone())
}

/// Checkpoint against the ambient scope: `Err(Cancelled)` once the
/// installed token has fired.
fn ambient_check() -> Result<()> {
    match ambient_cancel() {
        Some(token) => token.check(),
        None => Ok(()),
    }
}

/// The one thread budget of a job.
///
/// Lives on [`crate::platform::ExecutionContext`] next to the storage
/// service. The wave scheduler runs `min(threads, atoms in the wave)` atoms
/// at once and hands each atom's kernels `threads / width` of the budget
/// (see `KernelParallelism::share`), so `atoms × kernel-threads` never
/// oversubscribes the host; `threads = 1` runs one atom at a time on the
/// sequential kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParallelism {
    /// Worker threads the job may use: across the atoms of a wave, and
    /// inside one kernel invocation.
    pub threads: usize,
    /// Records per morsel for embarrassingly-parallel kernels.
    pub morsel_size: usize,
    /// Inputs smaller than this stay on the sequential kernels.
    pub min_rows: usize,
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
    /// Default morsel size (records per parallel work unit).
    pub const DEFAULT_MORSEL_SIZE: usize = 4096;
    /// Default sequential-fallback threshold.
    pub const DEFAULT_MIN_ROWS: usize = 4096;

    /// A budget of one thread: one atom at a time, sequential kernels.
    pub fn sequential() -> Self {
        KernelParallelism {
            threads: 1,
            morsel_size: Self::DEFAULT_MORSEL_SIZE,
            min_rows: Self::DEFAULT_MIN_ROWS,
        }
    }

    /// Set the thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the morsel size (min 1).
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size.max(1);
        self
    }

    /// Set the sequential-fallback threshold.
    pub fn with_min_rows(mut self, min_rows: usize) -> Self {
        self.min_rows = min_rows;
        self
    }

    /// Divide the thread budget among `workers` concurrently running
    /// atoms, so wave-parallel scheduling and intra-atom parallelism
    /// share one budget instead of multiplying.
    pub(crate) fn share(&self, workers: usize) -> Self {
        KernelParallelism {
            threads: (self.threads / workers.max(1)).max(1),
            ..*self
        }
    }

    /// Worker threads a kernel invocation over `len` records may use:
    /// 1 (sequential) below `min_rows`, otherwise capped by the number of
    /// morsels so tiny inputs never spawn idle threads.
    pub(crate) fn effective_threads(&self, len: usize) -> usize {
        if self.threads <= 1 || len < self.min_rows.max(1) {
            return 1;
        }
        self.threads.min(len.div_ceil(self.morsel_size.max(1)))
    }

    /// The one statement of which kernels run in parallel: the morsels the
    /// operator table ([`super::execute`]) splits `op` into over an input of
    /// `rows` rows, and the threads that run them. A narrow operator splits
    /// into morsels on either path; every other operator, and a narrow one
    /// below `min_rows`, runs whole, as no ranges on one thread.
    fn split(&self, op: &PhysicalOp, rows: usize) -> (Vec<Range<usize>>, usize) {
        match (op.layout(), self.effective_threads(rows)) {
            (Layout::Narrow, threads) if threads > 1 => (self.morsel_ranges(rows), threads),
            _ => (Vec::new(), 1),
        }
    }

    /// Morsels `op`'s kernel runs on over an input of `rows` rows: 1 for a
    /// kernel that runs whole.
    pub(crate) fn units(&self, op: &PhysicalOp, rows: usize) -> u64 {
        self.split(op, rows).0.len().max(1) as u64
    }

    /// How much faster than sequential the split lets `op`'s kernel run
    /// over an input of `rows` rows: the [`dealt_speedup`] of its morsels,
    /// so 5 000 rows in 4 096-row morsels on 2 threads speed up
    /// 5 000 / 4 096, not 2.
    pub(crate) fn speedup(&self, op: &PhysicalOp, rows: usize) -> f64 {
        let (ranges, threads) = self.split(op, rows);
        dealt_speedup(&ranges, threads)
    }

    /// Fixed-size morsel ranges covering `0..len`.
    fn morsel_ranges(&self, len: usize) -> Vec<Range<usize>> {
        let size = self.morsel_size.max(1);
        (0..len.div_ceil(size))
            .map(|i| i * size..((i + 1) * size).min(len))
            .collect()
    }
}

/// How much faster than one thread `threads` threads run `ranges` dealt
/// round them in order (worker `w` runs ranges `w`, `w + t`, …: the
/// cursor's order when every row takes as long): their rows over the rows
/// on the busiest worker.
fn dealt_speedup(ranges: &[Range<usize>], threads: usize) -> f64 {
    let workers = threads.clamp(1, ranges.len().max(1));
    let busiest = (0..workers)
        .map(|w| {
            ranges
                .iter()
                .skip(w)
                .step_by(workers)
                .map(Range::len)
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    let rows: usize = ranges.iter().map(Range::len).sum();
    if busiest == 0 {
        1.0
    } else {
        rows as f64 / busiest as f64
    }
}

/// Run `f` over each range on up to `threads` scoped worker threads,
/// returning results in range order. Ranges are handed out through an
/// atomic cursor; each result lands in its own mutexed slot, so output
/// order is independent of completion order.
///
/// The ambient cancel scope is checked before every range is processed:
/// once the token fires, remaining ranges collapse to their empty prefix
/// (`start..start`), so every slot is still filled with a type-correct
/// value at near-zero cost and the kernel returns within one morsel of
/// the cancel point. The truncated result is garbage by construction —
/// callers surface [`crate::RheemError::Cancelled`] before consuming it.
///
/// On worker threads, each worker's [`WorkClock`] is read once around all
/// the ranges it runs; what the workers worked, less what this thread's
/// clock read while it waited for them, goes to the ambient work meter
/// ([`metered`]).
fn run_ranges<T, F>(ranges: &[Range<usize>], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let n = ranges.len();
    let cancel = ambient_cancel();
    let pick = |r: &Range<usize>| {
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            r.start..r.start
        } else {
            r.clone()
        }
    };
    if threads <= 1 || n <= 1 {
        return ranges.iter().map(|r| f(pick(r))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let cells: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worked_ms = Mutex::new(0.0);
    let waited = WorkClock::start();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                let ((), took) = metered(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    *cells[i].lock() = Some(f(pick(&ranges[i])));
                });
                *worked_ms.lock() += took.work_ms;
            });
        }
    });
    add_work(worked_ms.into_inner() - waited.stop().work_ms);
    cells
        .into_iter()
        .map(|c| c.into_inner().expect("every morsel slot is filled"))
        .collect()
}

/// Concatenate per-morsel outputs in morsel order.
fn concat(parts: Vec<Vec<Record>>) -> Vec<Record> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

/// Morsel-parallel [`super::map`].
///
/// The sequential fast path is taken only when no cancel scope is
/// installed: under a scope even a one-thread invocation (thread-budget
/// sharing can drive `threads` to 1) runs morsel by morsel through
/// `run_ranges`, so a fired token still truncates within one morsel.
/// Morsel concatenation is byte-identical to the sequential kernel either
/// way. The same applies to the other UDF-bearing kernels below.
pub fn map(records: &[Record], udf: &MapUdf, p: &KernelParallelism) -> Vec<Record> {
    let t = p.effective_threads(records.len());
    if t <= 1 && ambient_cancel().is_none() {
        return super::map(records, udf);
    }
    concat(run_ranges(&p.morsel_ranges(records.len()), t, |r| {
        super::map(&records[r], udf)
    }))
}

/// Morsel-parallel [`super::flat_map`].
pub fn flat_map(records: &[Record], udf: &FlatMapUdf, p: &KernelParallelism) -> Vec<Record> {
    let t = p.effective_threads(records.len());
    if t <= 1 && ambient_cancel().is_none() {
        return super::flat_map(records, udf);
    }
    concat(run_ranges(&p.morsel_ranges(records.len()), t, |r| {
        super::flat_map(&records[r], udf)
    }))
}

/// Morsel-parallel [`super::filter`].
pub fn filter(records: &[Record], udf: &FilterUdf, p: &KernelParallelism) -> Vec<Record> {
    let t = p.effective_threads(records.len());
    if t <= 1 && ambient_cancel().is_none() {
        return super::filter(records, udf);
    }
    concat(run_ranges(&p.morsel_ranges(records.len()), t, |r| {
        super::filter(&records[r], udf)
    }))
}

/// Morsel-parallel fused-pipeline runner for
/// [`crate::physical::PhysicalOp::ChunkPipeline`], chunk in and chunk out.
///
/// Filters select, then the rest computes. Each morsel, a zero-copy
/// [`Chunk::slice`] view, yields the rows the chain's filters keep
/// (`chunked::stage_selection`). The selections join in morsel (= input)
/// order, the input is gathered at them once — not at all when every row
/// is kept — and the chain's maps and projections run over the result.
/// That equals running the chain, so the output is byte-identical to the
/// row-at-a-time reference ([`chunked::run_stages_rows`]) at any thread
/// count. One thread selects over the whole chunk in one go: stages
/// evaluate expressions, not user code, so the caller's per-operator
/// cancellation checkpoints bound the latency without morsel-sized steps.
/// A map ahead of a filter runs twice: for the selection, and over the
/// kept rows.
pub fn run_pipeline_chunk(
    chunk: &Chunk,
    stages: &[PipelineStage],
    p: &KernelParallelism,
) -> Result<Chunk> {
    ambient_check()?;
    let mut out = chunk.clone();
    if stages.iter().any(chunked::is_filter) {
        let t = p.effective_threads(chunk.rows());
        let ranges: Vec<Range<usize>> = if t <= 1 {
            std::iter::once(0..chunk.rows()).collect()
        } else {
            p.morsel_ranges(chunk.rows())
        };
        let selections = run_ranges(&ranges, t, |r| {
            chunked::stage_selection(chunk.slice(r.start, r.len()), stages)
                .map(|kept| (r.start, kept))
        });
        ambient_check()?;
        let mut selections = selections.into_iter().collect::<Result<Vec<_>>>()?;
        let kept = match selections.as_mut_slice() {
            // One selection over the whole chunk is already in its positions.
            [(_, whole)] => std::mem::take(whole),
            _ => {
                let total = selections.iter().map(|(_, rows)| rows.len()).sum();
                let mut kept = Vec::with_capacity(total);
                for (start, rows) in selections {
                    kept.extend(rows.into_iter().map(|i| start + i));
                }
                kept
            }
        };
        out = chunked::gather_kept(chunk, &kept);
    }
    for stage in stages.iter().filter(|s| !chunked::is_filter(s)) {
        out = chunked::apply_stage(out, &stage.kind)?;
    }
    Ok(out)
}

/// The sequential [`super::hash_group`]: a keyed kernel runs whole. Kept
/// only because the standalone `benchmark` package names it
/// (`benchmark/src/replay.rs`); ROADMAP item 4(b) deletes it together with
/// that file. Nothing else calls it.
pub fn hash_group(
    records: &[Record],
    key: &KeyUdf,
    _p: &KernelParallelism,
) -> Vec<(Value, Vec<Record>)> {
    super::hash_group(records, key)
}

/// The sequential [`super::hash_join`]: a keyed kernel runs whole. Kept
/// only because the standalone `benchmark` package names it
/// (`benchmark/src/replay.rs`); ROADMAP item 4(b) deletes it together with
/// that file. Nothing else calls it.
pub fn hash_join(
    left: &[Record],
    right: &[Record],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
    _p: &KernelParallelism,
) -> Vec<Record> {
    super::hash_join(left, right, left_key, right_key)
}

/// The sequential [`super::sort`]: a gathered kernel runs whole. Kept only
/// because the standalone `benchmark` package names it
/// (`benchmark/src/replay.rs`); ROADMAP item 4(b) deletes it together with
/// that file. Nothing else calls it.
pub fn sort(
    records: &[Record],
    key: &KeyUdf,
    descending: bool,
    _p: &KernelParallelism,
) -> Vec<Record> {
    super::sort(records, key, descending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    fn par(threads: usize, morsel: usize) -> KernelParallelism {
        KernelParallelism {
            threads,
            morsel_size: morsel,
            min_rows: 0,
        }
    }

    fn data(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i % 7, i]).collect()
    }

    #[test]
    fn small_inputs_stay_sequential() {
        let p = KernelParallelism {
            threads: 8,
            morsel_size: 4,
            min_rows: 100,
        };
        assert_eq!(p.effective_threads(99), 1);
        let map = PhysicalOp::Map(MapUdf::new("id", |r| r.clone()));
        assert_eq!(p.units(&map, 99), 1);
        assert_eq!(p.units(&map, 100), 25);
        assert!(p.effective_threads(100) > 1);
    }

    #[test]
    fn share_divides_the_thread_budget() {
        let p = par(8, 64);
        assert_eq!(p.share(4).threads, 2);
        assert_eq!(p.share(16).threads, 1);
        assert_eq!(p.share(0).threads, 8);
    }

    #[test]
    fn morsel_kernels_match_sequential() {
        let d = data(1000);
        let p = par(4, 37);
        let m = MapUdf::new("sq", |r| rec![r.int(1).unwrap() * r.int(1).unwrap()]);
        assert_eq!(map(&d, &m, &p), super::super::map(&d, &m));
        let f = FilterUdf::new("odd", |r| r.int(1).unwrap() % 2 == 1);
        assert_eq!(filter(&d, &f, &p), super::super::filter(&d, &f));
        let fm = FlatMapUdf::new("dup", |r| vec![r.clone(), r.clone()]);
        assert_eq!(flat_map(&d, &fm, &p), super::super::flat_map(&d, &fm));
    }

    /// The one rule, for every [`Layout`]: a narrow operator splits into
    /// morsels above `min_rows`, whether it runs on rows or on a chunk, and
    /// every other operator runs whole, at every budget.
    #[test]
    fn only_a_narrow_operator_splits_into_morsels() {
        use crate::data::Dataset;
        use crate::expr::Expr;
        use crate::physical::CustomPhysicalOp;
        use crate::plan::PlanBuilder;
        use crate::udf::{GroupMapUdf, LoopCondUdf, ReduceUdf};
        use std::sync::Arc;

        struct Whole;
        impl CustomPhysicalOp for Whole {
            fn name(&self) -> &str {
                "whole"
            }
            fn arity(&self) -> usize {
                1
            }
            fn execute(&self, inputs: &[Dataset]) -> Result<Dataset> {
                Ok(inputs[0].clone())
            }
        }
        let opaque = KeyUdf::new("k", |r| r.fields()[0].clone());
        let field = KeyUdf::field(0);
        let kept = Expr::field(0).gt(Expr::lit(0i64));
        let declarative_filter = PhysicalOp::Filter(FilterUdf::from_expr("pos", kept));
        let stages = declarative_filter
            .pipeline_stages()
            .expect("an expression filter");
        let sum = ReduceUdf::new("sum", |a, _| a);
        let mut body = PlanBuilder::new();
        let state = body.loop_input();
        body.map(state, MapUdf::new("id", |r| r.clone()));
        // Row-path and chunk-path operators of every layout.
        let ops = [
            PhysicalOp::CollectionSource {
                data: Dataset::new(Vec::new()),
                name: "s".into(),
            },
            PhysicalOp::LoopInput,
            PhysicalOp::Map(MapUdf::new("id", |r| r.clone())),
            PhysicalOp::FlatMap(FlatMapUdf::new("one", |r| vec![r.clone()])),
            PhysicalOp::Filter(FilterUdf::new("all", |_| true)),
            declarative_filter,
            PhysicalOp::Project { indices: vec![0] },
            PhysicalOp::ChunkPipeline {
                stages: stages.into(),
            },
            PhysicalOp::Limit { n: 10 },
            PhysicalOp::HashGroupBy {
                key: opaque.clone(),
                group: GroupMapUdf::identity(),
            },
            PhysicalOp::SortGroupBy {
                key: field.clone(),
                group: GroupMapUdf::from_aggs("first", vec![crate::udf::GroupOutput::First(0)]),
            },
            PhysicalOp::ReduceByKey {
                key: opaque.clone(),
                reduce: sum.clone(),
            },
            PhysicalOp::Sort {
                key: opaque.clone(),
                descending: false,
            },
            PhysicalOp::Sort {
                key: field.clone(),
                descending: true,
            },
            PhysicalOp::GlobalReduce { reduce: sum },
            PhysicalOp::HashJoin {
                left_key: opaque.clone(),
                right_key: opaque,
            },
            PhysicalOp::HashJoin {
                left_key: field.clone(),
                right_key: field,
            },
            PhysicalOp::CrossProduct,
            PhysicalOp::Union,
            PhysicalOp::Loop {
                body: Arc::new(body.build_fragment().unwrap()),
                condition: LoopCondUdf::fixed_iterations(2),
                max_iterations: 2,
                expected_iterations: 2.0,
            },
            PhysicalOp::Custom(Arc::new(Whole)),
            PhysicalOp::CollectSink,
        ];
        let mut layouts = std::collections::BTreeSet::new();
        for op in &ops {
            let (layout, narrow) = match op.layout() {
                Layout::Narrow => ("narrow", true),
                Layout::Source => ("source", false),
                Layout::LoopState => ("loop state", false),
                Layout::Prefix(_) => ("prefix", false),
                Layout::ByKey(_) => ("by key", false),
                Layout::CombineByKey(_) => ("combine by key", false),
                Layout::Gather => ("gather", false),
                Layout::CombineGather => ("combine gather", false),
                Layout::CoPartition(..) => ("co-partition", false),
                Layout::BroadcastRight => ("broadcast right", false),
                Layout::Concat => ("concat", false),
                Layout::Loop { .. } => ("loop", false),
                Layout::Custom { .. } => ("custom", false),
                Layout::Sink => ("sink", false),
            };
            layouts.insert(layout);
            for threads in [1, 2, 4] {
                let p = KernelParallelism::sequential().with_threads(threads);
                for rows in [p.min_rows - 1, 10 * p.morsel_size + 1] {
                    let morsels = if threads > 1 && rows >= p.min_rows {
                        rows.div_ceil(p.morsel_size) as u64
                    } else {
                        1
                    };
                    let expect = if narrow { morsels } else { 1 };
                    assert_eq!(
                        p.units(op, rows),
                        expect,
                        "{op:?}, {threads} threads, {rows} rows"
                    );
                }
            }
        }
        assert_eq!(layouts.len(), 14, "every layout is in the table");
    }

    #[test]
    fn cancel_scope_stops_morsel_work_within_one_morsel() {
        use crate::error::CancelReason;
        use std::sync::atomic::AtomicUsize;

        // A pre-cancelled token: every morsel collapses to its empty
        // prefix, so the UDF never sees a record.
        let d = data(1000);
        let token = CancelToken::new();
        token.cancel(CancelReason::Explicit);
        let touched = std::sync::Arc::new(AtomicUsize::new(0));
        let m = MapUdf::new("touch", {
            let touched = touched.clone();
            move |r| {
                touched.fetch_add(1, Ordering::SeqCst);
                r.clone()
            }
        });
        let out = with_cancel_scope(&token, || map(&d, &m, &par(4, 16)));
        assert!(out.is_empty(), "cancelled map produced {} rows", out.len());
        assert_eq!(touched.load(Ordering::SeqCst), 0);

        // Cancelling mid-run: a UDF that cancels at record 100 — every
        // later morsel is skipped, so well under the full input is mapped.
        let token = CancelToken::new();
        let seen = std::sync::Arc::new(AtomicUsize::new(0));
        let m = MapUdf::new("cancel-at-100", {
            let (token, seen) = (token.clone(), seen.clone());
            move |r| {
                if seen.fetch_add(1, Ordering::SeqCst) == 100 {
                    token.cancel(CancelReason::Explicit);
                }
                r.clone()
            }
        });
        let out = with_cancel_scope(&token, || map(&d, &m, &par(2, 16)));
        assert!(
            out.len() < d.len(),
            "cancellation did not truncate the morsel loop"
        );
        // Within one in-flight morsel per worker of the cancel point: the
        // two morsels running when the token fired finish, everything
        // after is empty (101 records seen + ≤ 2 × 16 completing).
        assert!(
            seen.load(Ordering::SeqCst) <= 160,
            "{}",
            seen.load(Ordering::SeqCst)
        );

        // Result-returning kernels surface the cancellation as an error.
        let token = CancelToken::new();
        token.cancel(CancelReason::DeadlineExceeded);
        let chunk = Chunk::from_records(&d).unwrap();
        let err =
            with_cancel_scope(&token, || run_pipeline_chunk(&chunk, &[], &par(4, 16))).unwrap_err();
        assert!(matches!(
            err,
            crate::RheemError::Cancelled {
                reason: CancelReason::DeadlineExceeded
            }
        ));

        // The scope restores the previous token on exit.
        assert!(ambient_cancel().is_none());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let p = par(8, 1);
        assert!(map(&[], &MapUdf::new("id", |r| r.clone()), &p).is_empty());
        assert!(filter(&[], &FilterUdf::new("all", |_| true), &p).is_empty());
        assert!(flat_map(&[], &FlatMapUdf::new("one", |r| vec![r.clone()]), &p).is_empty());
    }
}
