//! Morsel-driven intra-atom parallel kernels with deterministic merge.
//!
//! PR 1 parallelized *across* task atoms (wave scheduling); this module
//! parallelizes *inside* one atom: the input batch is split into fixed-size
//! **morsels** that run on scoped worker threads, and the per-morsel results
//! are merged back in a canonical order. Every kernel here is a drop-in
//! twin of a sequential kernel in [`super`] (the parent `kernels` module)
//! and produces **byte-identical output at any thread count**:
//!
//! - `map` / `flat_map` / `filter` are embarrassingly parallel:
//!   morsels are processed independently and concatenated in morsel order,
//!   which is input order.
//! - `hash_group` and `reduce_by_key` run on the vectorized hash engine
//!   (`super::hash`): the local phase per contiguous chunk hashes keys
//!   once, assigns dense slots through an open-addressing table, and emits
//!   its groups *scattered by radix bucket* (key-sorted within each
//!   bucket). The merge phase then folds **per radix bucket** across
//!   chunks — a key lives wholly in one bucket, so the 64 bucket folds are
//!   independent and run on worker threads, while each fold still walks
//!   chunks left-to-right so group members (and reduce application order)
//!   follow input order — exactly the sequential kernels' contract. A
//!   final key sort over the folded groups erases bucket order from the
//!   output. `reduce_by_key` merges chunk accumulators with the reduce UDF
//!   itself, relying on the associativity contract
//!   [`crate::udf::ReduceUdf`] already demands for partitioned platforms.
//! - `hash_join` uses the same engine for a radix-partitioned build
//!   (per-chunk group indexes scattered by bucket, folded per bucket in
//!   chunk order so each key's match list is in right-input order) and a
//!   morsel-parallel probe — each probe key hashed once, routed to its
//!   bucket's table — concatenated in left order.
//! - `sort_group` keeps the ordered two-phase merge (its local phase is a
//!   comparison sort, not a hash build).
//! - `sort` sorts contiguous chunks in parallel and
//!   merges them stably (ties resolve to the lower chunk, i.e. earlier
//!   input), reproducing the sequential stable sort byte for byte.
//! - `run_pipeline_chunk` runs a fused stage chain over a chunk: morsels
//!   yield the rows its filters keep, in morsel order, and the input is
//!   gathered once.
//!
//! No `unsafe`: workers are `std::thread::scope` threads pulling morsel
//! indices off an atomic cursor and parking results in per-slot mutexed
//! cells — the same pattern the wave executor uses.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::data::{Chunk, Record, Value};
use crate::error::Result;
use crate::fault::CancelToken;
use crate::physical::PipelineStage;
use crate::udf::{FilterUdf, FlatMapUdf, KeyUdf, MapUdf, ReduceUdf};

use super::{chunked, hash};

thread_local! {
    /// The ambient morsel-loop cancellation scope. Kernels have no
    /// `ExecutionContext` parameter (and adding one would break every
    /// direct caller), so the executor installs the job's token here
    /// around each atom invocation; [`run_ranges`] picks it up at entry
    /// and checks it before every morsel pull.
    static CANCEL_SCOPE: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Install `token` as the ambient morsel-cancellation scope while `f`
/// runs on this thread (see `DESIGN.md` §14). Nested scopes restore the
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

    /// Morsel count for an embarrassingly-parallel kernel over `len`
    /// records (1 when the sequential path runs).
    pub(crate) fn morsels(&self, len: usize) -> u64 {
        if self.effective_threads(len) <= 1 {
            1
        } else {
            len.div_ceil(self.morsel_size.max(1)) as u64
        }
    }

    /// Parallel work units for a two-phase (chunked) kernel over `len`
    /// records (1 when the sequential path runs).
    pub(crate) fn chunks(&self, len: usize) -> u64 {
        self.effective_threads(len) as u64
    }

    /// Fixed-size morsel ranges covering `0..len`.
    fn morsel_ranges(&self, len: usize) -> Vec<Range<usize>> {
        let size = self.morsel_size.max(1);
        (0..len.div_ceil(size))
            .map(|i| i * size..((i + 1) * size).min(len))
            .collect()
    }

    /// `parts` balanced contiguous ranges covering `0..len` (first
    /// `len % parts` ranges get one extra record, like partition chunking).
    fn chunk_ranges(&self, len: usize, parts: usize) -> Vec<Range<usize>> {
        let parts = parts.max(1).min(len.max(1));
        let base = len / parts;
        let extra = len % parts;
        let mut ranges = Vec::with_capacity(parts);
        let mut start = 0;
        for i in 0..parts {
            let size = base + usize::from(i < extra);
            ranges.push(start..start + size);
            start += size;
        }
        ranges
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
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = f(pick(&ranges[i]));
                *cells[i].lock() = Some(out);
            });
        }
    });
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

/// Merge two key-sorted group lists; equal keys concatenate members with
/// `a`'s first (chunk order = input order).
fn merge_groups(
    a: Vec<(Value, Vec<Record>)>,
    b: Vec<(Value, Vec<Record>)>,
) -> Vec<(Value, Vec<Record>)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut bi = b.into_iter().peekable();
    for (ka, mut va) in a {
        while bi.peek().is_some_and(|(kb, _)| *kb < ka) {
            out.push(bi.next().expect("peeked"));
        }
        if bi.peek().is_some_and(|(kb, _)| *kb == ka) {
            va.extend(bi.next().expect("peeked").1);
        }
        out.push((ka, va));
    }
    out.extend(bi);
    out
}

/// Two-phase parallel grouping: run `local` (a sequential grouping kernel
/// with the canonical key-sorted output contract) per contiguous chunk,
/// then merge the chunk results in order.
fn group_two_phase(
    records: &[Record],
    key: &KeyUdf,
    p: &KernelParallelism,
    t: usize,
    local: impl Fn(&[Record], &KeyUdf) -> Vec<(Value, Vec<Record>)> + Sync,
) -> Vec<(Value, Vec<Record>)> {
    let locals = run_ranges(&p.chunk_ranges(records.len(), t), t, |r| {
        local(&records[r], key)
    });
    locals.into_iter().reduce(merge_groups).unwrap_or_default()
}

/// One chunk's keys hashed through the engine into dense slots: the
/// materialized key column, its hash column (computed once), and the slot
/// assignment.
fn keyed_slots(records: &[Record], key: &KeyUdf) -> (Vec<Value>, Vec<u64>, hash::GroupIndex) {
    let keys: Vec<Value> = records.iter().map(|r| (key.f)(r)).collect();
    let hashes: Vec<u64> = keys.iter().map(hash::hash_value).collect();
    let index = hash::build_index(&hashes, |a, b| keys[a as usize] == keys[b as usize]);
    (keys, hashes, index)
}

/// Fold each radix bucket's chunk-ordered parts on up to `threads` worker
/// threads. A key lives wholly in one bucket (its bucket is a function of
/// its hash), so the [`hash::RADIX_BUCKETS`] folds are independent and
/// parallelize freely; each fold receives its bucket's parts in chunk
/// order, preserving the left-to-right merge contract. A fired cancel
/// token collapses a bucket to `U::default()` — type-correct garbage the
/// caller-level cancellation check discards.
fn fold_buckets<T, U>(
    by_bucket: Vec<Vec<T>>,
    threads: usize,
    fold: impl Fn(Vec<T>) -> U + Sync,
) -> Vec<U>
where
    T: Send,
    U: Send + Default,
{
    let cells: Vec<Mutex<Option<Vec<T>>>> = by_bucket
        .into_iter()
        .map(|parts| Mutex::new(Some(parts)))
        .collect();
    let ranges: Vec<Range<usize>> = (0..cells.len()).map(|b| b..b + 1).collect();
    run_ranges(&ranges, threads, |r| {
        if r.is_empty() {
            return U::default();
        }
        let parts = cells[r.start]
            .lock()
            .take()
            .expect("each bucket folds once");
        fold(parts)
    })
}

/// Transpose per-chunk bucket scatters into per-bucket chunk-ordered part
/// lists (empty parts dropped — they are no-op merges).
fn by_bucket<T>(locals: Vec<Vec<Vec<T>>>) -> Vec<Vec<Vec<T>>> {
    let mut out: Vec<Vec<Vec<T>>> = std::iter::repeat_with(Vec::new)
        .take(hash::RADIX_BUCKETS)
        .collect();
    for chunk in locals {
        for (b, part) in chunk.into_iter().enumerate() {
            if !part.is_empty() {
                out[b].push(part);
            }
        }
    }
    out
}

/// Local grouping phase: engine slots over one chunk, groups emitted
/// scattered by radix bucket and key-sorted within each bucket. Group
/// member `Vec`s are exactly pre-sized and filled in input order.
fn local_group_buckets(records: &[Record], key: &KeyUdf) -> Vec<Vec<(Value, Vec<Record>)>> {
    let (keys, hashes, index) = keyed_slots(records, key);
    let n = index.n_groups();
    let mut counts = vec![0usize; n];
    for &s in &index.slot_of_row {
        counts[s as usize] += 1;
    }
    let mut groups: Vec<(Value, Vec<Record>)> = index
        .first_row
        .iter()
        .zip(&counts)
        .map(|(&r, &c)| (keys[r as usize].clone(), Vec::with_capacity(c)))
        .collect();
    for (row, &s) in index.slot_of_row.iter().enumerate() {
        groups[s as usize].1.push(records[row].clone());
    }
    let mut buckets: Vec<Vec<(Value, Vec<Record>)>> = std::iter::repeat_with(Vec::new)
        .take(hash::RADIX_BUCKETS)
        .collect();
    for (s, g) in groups.into_iter().enumerate() {
        buckets[hash::radix_bucket(hashes[index.first_row[s] as usize])].push(g);
    }
    for b in &mut buckets {
        b.sort_by(|x, y| x.0.cmp(&y.0));
    }
    buckets
}

/// Morsel-parallel [`super::hash_group`]: engine-hashed local grouping per
/// chunk, per-radix-bucket merge folds, and a final key sort. Byte-
/// identical to the sequential kernel (and to [`sort_group`]: both share
/// one output contract — keys ascending, members in input order).
pub fn hash_group(
    records: &[Record],
    key: &KeyUdf,
    p: &KernelParallelism,
) -> Vec<(Value, Vec<Record>)> {
    let t = p.effective_threads(records.len());
    if t <= 1 {
        return super::hash_group(records, key);
    }
    let locals = run_ranges(&p.chunk_ranges(records.len(), t), t, |r| {
        local_group_buckets(&records[r], key)
    });
    let folded = fold_buckets(by_bucket(locals), t, |parts| {
        parts.into_iter().reduce(merge_groups).unwrap_or_default()
    });
    let mut out: Vec<(Value, Vec<Record>)> = folded.into_iter().flatten().collect();
    // Keys are distinct across buckets, so this sort fully determines the
    // output order regardless of bucket or thread scheduling.
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Morsel-parallel [`super::sort_group`]: per-chunk sort grouping + merge.
pub fn sort_group(
    records: &[Record],
    key: &KeyUdf,
    p: &KernelParallelism,
) -> Vec<(Value, Vec<Record>)> {
    let t = p.effective_threads(records.len());
    if t <= 1 {
        return super::sort_group(records, key);
    }
    group_two_phase(records, key, p, t, super::sort_group)
}

/// Local reduce phase: engine slots over one chunk, accumulators folded in
/// input order, emitted scattered by radix bucket and key-sorted within
/// each bucket.
fn local_reduce_buckets(
    records: &[Record],
    key: &KeyUdf,
    reduce: &ReduceUdf,
) -> Vec<Vec<(Value, Record)>> {
    let (keys, hashes, index) = keyed_slots(records, key);
    let mut accs: Vec<Option<Record>> = vec![None; index.n_groups()];
    for (row, &s) in index.slot_of_row.iter().enumerate() {
        match &mut accs[s as usize] {
            slot @ None => *slot = Some(records[row].clone()),
            Some(a) => *a = (reduce.f)(std::mem::take(a), &records[row]),
        }
    }
    let mut buckets: Vec<Vec<(Value, Record)>> = std::iter::repeat_with(Vec::new)
        .take(hash::RADIX_BUCKETS)
        .collect();
    for (s, acc) in accs.into_iter().enumerate() {
        let first = index.first_row[s] as usize;
        buckets[hash::radix_bucket(hashes[first])]
            .push((keys[first].clone(), acc.expect("every slot has rows")));
    }
    for b in &mut buckets {
        b.sort_by(|x, y| x.0.cmp(&y.0));
    }
    buckets
}

/// Merge two key-sorted accumulator lists, combining equal keys with the
/// reduce UDF (`a` is the earlier chunk, so it is the left operand).
fn merge_reduced(
    a: Vec<(Value, Record)>,
    b: Vec<(Value, Record)>,
    reduce: &ReduceUdf,
) -> Vec<(Value, Record)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut bi = b.into_iter().peekable();
    for (ka, mut va) in a {
        while bi.peek().is_some_and(|(kb, _)| *kb < ka) {
            out.push(bi.next().expect("peeked"));
        }
        if bi.peek().is_some_and(|(kb, _)| *kb == ka) {
            va = (reduce.f)(va, &bi.next().expect("peeked").1);
        }
        out.push((ka, va));
    }
    out.extend(bi);
    out
}

/// Two-phase parallel [`super::reduce_by_key`]: engine-slotted local
/// accumulation per chunk, then per-radix-bucket merge folds combining
/// chunk accumulators with the (associative, per the
/// [`crate::udf::ReduceUdf`] contract) reduce UDF, and a final key sort.
pub fn reduce_by_key(
    records: &[Record],
    key: &KeyUdf,
    reduce: &ReduceUdf,
    p: &KernelParallelism,
) -> Vec<Record> {
    let t = p.effective_threads(records.len());
    if t <= 1 {
        return super::reduce_by_key(records, key, reduce);
    }
    let locals = run_ranges(&p.chunk_ranges(records.len(), t), t, |r| {
        local_reduce_buckets(&records[r], key, reduce)
    });
    let folded = fold_buckets(by_bucket(locals), t, |parts| {
        parts
            .into_iter()
            .reduce(|a, b| merge_reduced(a, b, reduce))
            .unwrap_or_default()
    });
    let mut keyed: Vec<(Value, Record)> = folded.into_iter().flatten().collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// One radix bucket of a join build: an engine slot table over the
/// bucket's distinct keys plus, per key, its match list in right-input
/// order.
#[derive(Default)]
struct BuildBucket<'a> {
    table: hash::SlotTable,
    keys: Vec<Value>,
    matches: Vec<Vec<&'a Record>>,
}

/// Local join-build phase: engine slots over one right-side chunk, one
/// `(hash, key, members)` entry per distinct key, scattered by radix
/// bucket. Member lists are in input order (CSR scatter).
fn local_build_buckets<'a>(
    records: &'a [Record],
    key: &KeyUdf,
) -> Vec<Vec<(u64, Value, Vec<&'a Record>)>> {
    let (keys, hashes, index) = keyed_slots(records, key);
    let (offsets, rows) = hash::member_lists(&index.slot_of_row, index.n_groups());
    let mut buckets: Vec<Vec<(u64, Value, Vec<&Record>)>> = std::iter::repeat_with(Vec::new)
        .take(hash::RADIX_BUCKETS)
        .collect();
    for s in 0..index.n_groups() {
        let first = index.first_row[s] as usize;
        let members: Vec<&Record> = rows[offsets[s]..offsets[s + 1]]
            .iter()
            .map(|&r| &records[r as usize])
            .collect();
        buckets[hash::radix_bucket(hashes[first])].push((
            hashes[first],
            keys[first].clone(),
            members,
        ));
    }
    buckets
}

/// Radix-partitioned build + parallel hash-memoized probe
/// [`super::hash_join`].
///
/// Build: each chunk of the right input assigns engine slots and scatters
/// its per-key match lists by radix bucket; each bucket folds its chunks
/// in order into one pre-sized `BuildBucket`, so every key's match list
/// is in right-input order (the sequential build order) and the 64 folds
/// run on worker threads. Probe: the left input is probed per morsel —
/// each probe key hashed once, routed to its bucket's table — and
/// concatenated in left order.
pub fn hash_join(
    left: &[Record],
    right: &[Record],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
    p: &KernelParallelism,
) -> Vec<Record> {
    let t = p.effective_threads(left.len().max(right.len()));
    if t <= 1 {
        return super::hash_join(left, right, left_key, right_key);
    }
    let bt = p.effective_threads(right.len());
    let locals = run_ranges(&p.chunk_ranges(right.len(), bt), bt, |rng| {
        local_build_buckets(&right[rng], right_key)
    });
    let buckets: Vec<BuildBucket> = fold_buckets(by_bucket(locals), t, |parts| {
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut table = hash::SlotTable::with_capacity(total);
        let mut keys: Vec<Value> = Vec::with_capacity(total);
        let mut matches: Vec<Vec<&Record>> = Vec::with_capacity(total);
        for part in parts {
            for (h, k, members) in part {
                let (slot, inserted) =
                    table.find_or_insert(h, |s| keys[s as usize] == k, keys.len() as u32);
                if inserted {
                    keys.push(k);
                    matches.push(members);
                } else {
                    matches[slot as usize].extend(members);
                }
            }
        }
        BuildBucket {
            table,
            keys,
            matches,
        }
    });
    let pt = p.effective_threads(left.len()).max(1);
    concat(run_ranges(&p.morsel_ranges(left.len()), pt, |rng| {
        let mut out = Vec::new();
        for l in &left[rng] {
            let k = (left_key.f)(l);
            let h = hash::hash_value(&k);
            let b = &buckets[hash::radix_bucket(h)];
            if let Some(s) = b.table.find(h, |s| b.keys[s as usize] == k) {
                for r in &b.matches[s as usize] {
                    out.push(l.concat(r));
                }
            }
        }
        out
    }))
}

/// Stable merge of two key-sorted keyed slices under `cmp`; ties take from
/// `a` first (the earlier chunk), preserving input order like the
/// sequential stable sort.
fn merge_keyed<'a>(
    a: Vec<(Value, &'a Record)>,
    b: Vec<(Value, &'a Record)>,
    cmp: &(dyn Fn(&Value, &Value) -> std::cmp::Ordering + Sync),
) -> Vec<(Value, &'a Record)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some((ka, _)), Some((kb, _))) => {
                if cmp(ka, kb) == std::cmp::Ordering::Greater {
                    out.push(bi.next().expect("peeked"));
                } else {
                    out.push(ai.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// Parallel partition sort + k-way merge: extract keys, sort contiguous
/// chunks on worker threads, and fold-merge in chunk order (stable).
fn sorted_keyed<'a>(
    records: &'a [Record],
    key: &KeyUdf,
    p: &KernelParallelism,
    cmp: &(dyn Fn(&Value, &Value) -> std::cmp::Ordering + Sync),
) -> Vec<(Value, &'a Record)> {
    let t = p.effective_threads(records.len());
    let chunks = run_ranges(&p.chunk_ranges(records.len(), t), t, |rng| {
        let mut keyed: Vec<(Value, &Record)> =
            records[rng].iter().map(|r| ((key.f)(r), r)).collect();
        keyed.sort_by(|a, b| cmp(&a.0, &b.0));
        keyed
    });
    chunks
        .into_iter()
        .reduce(|a, b| merge_keyed(a, b, cmp))
        .unwrap_or_default()
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
        let ranges = if t <= 1 {
            p.chunk_ranges(chunk.rows(), 1)
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

/// Parallel [`super::sort`]: partition sort + stable k-way merge, then a
/// single materialization pass.
pub fn sort(
    records: &[Record],
    key: &KeyUdf,
    descending: bool,
    p: &KernelParallelism,
) -> Vec<Record> {
    let t = p.effective_threads(records.len());
    if t <= 1 {
        return super::sort(records, key, descending);
    }
    let cmp: &(dyn Fn(&Value, &Value) -> std::cmp::Ordering + Sync) = if descending {
        &|a, b| b.cmp(a)
    } else {
        &|a, b| a.cmp(b)
    };
    sorted_keyed(records, key, p, cmp)
        .into_iter()
        .map(|(_, r)| r.clone())
        .collect()
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
        assert_eq!(p.morsels(99), 1);
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

    #[test]
    fn group_and_reduce_match_sequential() {
        let d = data(1003);
        let p = par(7, 11);
        let k = KeyUdf::field(0);
        assert_eq!(sort_group(&d, &k, &p), super::super::sort_group(&d, &k));
        assert_eq!(hash_group(&d, &k, &p), super::super::hash_group(&d, &k));
        let sum = ReduceUdf::new("sum", |a, b| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + b.int(1).unwrap()]
        });
        assert_eq!(
            reduce_by_key(&d, &k, &sum, &p),
            super::super::reduce_by_key(&d, &k, &sum)
        );
    }

    #[test]
    fn joins_and_sort_match_sequential() {
        let l = data(500);
        let r = data(311);
        let p = par(3, 17);
        let k = KeyUdf::field(0);
        assert_eq!(
            hash_join(&l, &r, &k, &k, &p),
            super::super::hash_join(&l, &r, &k, &k)
        );
        assert_eq!(sort(&l, &k, false, &p), super::super::sort(&l, &k, false));
        assert_eq!(sort(&l, &k, true, &p), super::super::sort(&l, &k, true));
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
        let k = KeyUdf::field(0);
        assert!(hash_group(&[], &k, &p).is_empty());
        assert!(sort_group(&[], &k, &p).is_empty());
        assert!(hash_join(&[], &[], &k, &k, &p).is_empty());
    }
}
