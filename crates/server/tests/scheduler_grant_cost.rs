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

use rheem_core::WaveGate;
use rheem_server::FairShareScheduler;
use testkit::{counted_during, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

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
            let ((calls, _bytes), ()) = counted_during(|| grant(wave));
            cost.push(calls);
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
