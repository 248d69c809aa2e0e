//! A wave grant must cost the same however many grants came before it.
//!
//! The grant log used to be a `Vec` that, once its 4 096 entries were
//! full, shifted every entry down on each grant (`Vec::remove(0)`) and
//! allocated the tenant's name as a fresh `String` twice — all under the
//! scheduler mutex, on every wave of every job. The log is now a
//! pre-allocated ring holding shared tenant handles, so an uncontended
//! grant allocates nothing, whether it is the 50th or the 5 000th.
//!
//! Cost is counted, not timed: a counting global allocator records every
//! allocation made by the test thread while one grant runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use rheem_core::WaveGate;
use rheem_server::FairShareScheduler;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the one thread whose allocations are being counted (const
    /// initialised, so reading it inside the allocator never allocates).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn the_5000th_grant_costs_what_the_50th_does() {
    let scheduler = FairShareScheduler::new(2);
    let gate = scheduler.gate("tenant-with-a-name-long-enough-to-need-the-heap");
    let grant = |wave: usize| {
        gate.before_wave(wave, 1);
        gate.after_wave(wave);
    };
    let mut cost = Vec::new();
    for wave in 1..=5_000 {
        if wave == 50 || wave == 5_000 {
            cost.push(allocations_during(|| grant(wave)));
        } else {
            grant(wave);
        }
    }
    assert_eq!(cost, [0, 0], "allocations per grant at grants 50 and 5000");

    // The log is a ring over the most recent grants, oldest first.
    let log = scheduler.grant_log();
    assert_eq!(scheduler.total_grants(), 5_000);
    assert_eq!(log.len(), 4_096);
    assert_eq!(log.first().map(|g| g.seq), Some(5_000 - 4_096));
    assert_eq!(
        log.last().map(|g| (g.seq, g.wave_index)),
        Some((4_999, 5_000))
    );
    assert!(log.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
}
