//! Dev-only plumbing the integration tests share: a seeded RNG and the
//! dirty tables built on it, a counting global allocator with a high-water
//! mark, a peer that delivers a byte stream cut short, the benchmark's
//! statement list, the thread-budget shorthand and the replay projection of
//! a job's stats. A `[dev-dependencies]` entry only — no shipped crate
//! depends on this.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use rheem_core::{ExecutionStats, KernelParallelism, NodeId, Record, Value};

/// A job thread budget of `threads`, the wave width (see
/// `KernelParallelism`): suites run at 1 (one atom at a time) and at 4.
pub fn budget(threads: usize) -> KernelParallelism {
    KernelParallelism::sequential().with_threads(threads)
}

/// One atom's share of [`work`]: `(atom id, platform, records out,
/// [(node, operator, records out)])`, one entry per operator kernel.
pub type AtomWork = (usize, String, u64, Vec<(NodeId, String, u64)>);

/// What a job did, and not when or how wide: per atom, by ascending atom
/// id, where it ran and what it and each of its kernels produced. Waves
/// and timings are left out, so runs of one plan at any
/// thread budget — or with a re-plan that kept every assignment — must
/// give equal values: the replay oracle.
pub fn work(stats: &ExecutionStats) -> Vec<AtomWork> {
    let mut atoms: Vec<AtomWork> = Vec::with_capacity(stats.atoms.len());
    for a in &stats.atoms {
        let kernels = a.node_observations.iter();
        let kernels = kernels.map(|o| (o.node, o.op.clone(), o.records_out));
        let kernels = kernels.collect();
        atoms.push((a.atom_id, a.platform.clone(), a.records_out, kernels));
    }
    atoms.sort_unstable_by_key(|a| a.0);
    atoms
}

/// The statement lists of `benchmark/src/workload.rs`.
pub const STATEMENTS: [&str; 7] = [
    "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders \
     GROUP BY region ORDER BY region",
    "SELECT cust, SUM(price) AS spend FROM orders GROUP BY cust ORDER BY cust LIMIT 10",
    "SELECT AVG(price) AS avg_price, COUNT(*) AS n FROM orders WHERE price < 500",
    "SELECT seg, COUNT(*) AS n, SUM(amount) AS total FROM orders \
     JOIN customers ON orders.cust = customers.id GROUP BY seg ORDER BY seg",
    "SELECT region, amount, price FROM orders WHERE price > 900 ORDER BY amount LIMIT 25",
    "SELECT region, amount, price FROM orders WHERE price > -1",
    "SELECT amount, cust FROM orders",
];

/// splitmix64: everything a case generates derives from its one seed.
pub struct Rng(pub u64);

impl Rng {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    pub fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
    pub fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// One value of column kind `kind`: 0–3 are typed (and so get a typed lane
/// plus, with NULLs, a validity bitmap), 4 is `Int` with a stray `Float`
/// now and then (what a dirty source puts in an `Int` column), 5 is
/// anything, 6 is all NULL.
fn dirty_value(rng: &mut Rng, kind: usize, null_one_in: usize) -> Value {
    if kind == 6 || (null_one_in > 0 && rng.chance(null_one_in)) {
        return Value::Null;
    }
    match kind {
        0 => Value::Int([i64::MIN, -1, 0, 7, i64::MAX][rng.below(5)]),
        1 => Value::Float(match rng.below(7) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NEG_INFINITY,
            // Quiet, signalling and negative NaNs with distinct payloads.
            3 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.next() >> 13),
            4 => f64::from_bits(0x7ff0_0000_0000_0001),
            5 => f64::from_bits(0xfff8_0000_0000_0000 | rng.next() >> 13),
            _ => rng.below(1000) as f64 * 0.25,
        }),
        2 => Value::Bool(rng.chance(2)),
        3 => Value::str(["", "east", "żółć", "日本語", "a\0b", "east "][rng.below(6)]),
        4 if rng.chance(8) => Value::Float(2.5),
        4 => Value::Int(rng.below(100) as i64),
        _ => {
            let kind = rng.below(4);
            dirty_value(rng, kind, 4)
        }
    }
}

/// A rectangular dirty table of `rows` × `width`.
pub fn dirty_table(rng: &mut Rng, rows: usize, width: usize) -> Vec<Record> {
    let kinds: Vec<(usize, usize)> = (0..width)
        .map(|_| (rng.below(7), [0, 0, 2, 10][rng.below(4)]))
        .collect();
    (0..rows)
        .map(|_| {
            Record::new(
                kinds
                    .iter()
                    .map(|&(kind, nulls)| dirty_value(rng, kind, nulls))
                    .collect(),
            )
        })
        .collect()
}

/// Heap bytes currently allocated, by any thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Allocator calls and bytes requested by the watched thread.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the one thread being counted (const initialised, so reading
    /// it inside the allocator never allocates).
    static WATCHED: Cell<bool> = const { Cell::new(false) };
}

/// A global allocator that counts: install it in a test binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`,
/// then read [`live_bytes`] and [`peak_bytes`] (every thread) and
/// [`counted_during`] (one).
pub struct CountingAllocator;

impl CountingAllocator {
    fn count(grown_by: isize, requested: usize) {
        let live = LIVE.fetch_add(grown_by, Ordering::Relaxed) + grown_by;
        if grown_by > 0 {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        if requested > 0 && WATCHED.with(Cell::get) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            REQUESTED.fetch_add(requested, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as isize, layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as isize, layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count(-(layout.size() as isize), 0);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size as isize - layout.size() as isize, new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes currently allocated by the whole process.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The most heap bytes the whole process held at once since the last
/// [`reset_peak`] (a `realloc` counts as growing in place).
pub fn peak_bytes() -> isize {
    PEAK.load(Ordering::Relaxed)
}

/// Start a new high-water mark for [`peak_bytes`] at what is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// `(allocator calls, bytes requested)` by the calling thread while `f`
/// runs, and what `f` returned.
pub fn counted_during<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    let before = (
        CALLS.load(Ordering::Relaxed),
        REQUESTED.load(Ordering::Relaxed),
    );
    WATCHED.with(|w| w.set(true));
    let out = f();
    WATCHED.with(|w| w.set(false));
    let calls = CALLS.load(Ordering::Relaxed) - before.0;
    let bytes = REQUESTED.load(Ordering::Relaxed) - before.1;
    ((calls, bytes), out)
}

/// A peer that hands out the first `cut` bytes of `stream` in pieces of 1
/// to 9 bytes, answering some reads with a `WouldBlock` tick (what a socket
/// with a read timeout returns) instead, and after the cut ticks
/// `then_ticks` more times before EOF. Its choices come from `rng`.
pub struct CutReader<'a> {
    pub stream: &'a [u8],
    pub cut: usize,
    /// Bytes handed out so far.
    pub delivered: usize,
    pub then_ticks: usize,
    pub rng: Rng,
}

impl<'a> CutReader<'a> {
    /// A peer delivering `stream[..cut]`, seeded by `seed`, which also
    /// picks 0 to 2 ticks after the cut.
    pub fn new(stream: &'a [u8], cut: usize, seed: u64) -> Self {
        CutReader {
            stream,
            cut,
            delivered: 0,
            then_ticks: (seed % 3) as usize,
            rng: Rng(seed),
        }
    }
}

impl std::io::Read for CutReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.delivered == self.cut {
            if self.then_ticks == 0 {
                return Ok(0);
            }
            self.then_ticks -= 1;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.rng.chance(4) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let piece = 1 + self.rng.below(9);
        let n = piece.min(self.cut - self.delivered).min(buf.len());
        buf[..n].copy_from_slice(&self.stream[self.delivered..self.delivered + n]);
        self.delivered += n;
        Ok(n)
    }
}
