//! Fair-share scheduling of executor waves across concurrent jobs.
//!
//! The core executor runs each job as a sequence of *waves* (the levels of
//! the task-atom DAG); between waves it calls its [`WaveGate`], which is
//! the natural preemption point — no task atom is ever interrupted
//! mid-flight. [`FairShareScheduler`] implements that gate: it holds a
//! bounded number of wave slots and, when jobs contend, grants the next
//! free slot to the waiting tenant with the least service (fewest waves
//! granted) so far. A tenant running one long job cannot starve a tenant
//! running many short ones — their waves interleave.
//!
//! Every grant is appended to a bounded log ([`WaveGrant`]) so tests and
//! the load generator can verify the interleaving instead of trusting it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rheem_core::{CancelToken, WaveGate};

/// How often a cancellable waiter re-checks its token while blocked on a
/// wave slot. Bounds how long a cancelled job can sit in the wait queue.
const CANCEL_POLL: Duration = Duration::from_millis(25);

/// One wave-slot grant, in grant order.
#[derive(Clone, Debug)]
pub struct WaveGrant {
    /// Monotone grant sequence number (0-based).
    pub seq: u64,
    /// Tenant the slot was granted to.
    pub tenant: String,
    /// The session/job gate the grant went to.
    pub gate_id: u64,
    /// The job-local wave index that ran under this grant.
    pub wave_index: usize,
    /// Task atoms in the granted wave.
    pub atoms: usize,
}

struct Waiter {
    ticket: u64,
    tenant: Arc<str>,
}

/// A logged grant as the ring holds it: the tenant is a shared handle, so
/// logging a grant under the scheduler mutex allocates nothing.
struct LoggedGrant {
    seq: u64,
    tenant: Arc<str>,
    gate_id: u64,
    wave_index: usize,
    atoms: usize,
}

struct SchedState {
    /// Wave slots currently occupied.
    running: usize,
    /// FIFO tie-break ticket counter.
    next_ticket: u64,
    /// Gates currently blocked in `before_wave`.
    waiting: Vec<Waiter>,
    /// Total waves granted per tenant (the "service" fairness is over).
    granted: HashMap<Arc<str>, u64>,
    /// Grant log: a ring of the `LOG_CAP` most recent entries, allocated
    /// once, so a grant costs the same whether the log is empty or full.
    log: VecDeque<LoggedGrant>,
    /// Total grants ever (also the next grant's `seq`).
    grants: u64,
}

const LOG_CAP: usize = 4096;

/// Fair-share wave scheduler shared by every session of one server.
///
/// `slots` bounds how many waves execute concurrently across *all* jobs;
/// the intra-wave morsel parallelism of each wave still uses the worker
/// pool it always did. With `slots == 1` jobs strictly interleave at wave
/// granularity, which the deterministic scheduling tests exploit.
pub struct FairShareScheduler {
    slots: usize,
    state: Mutex<SchedState>,
    cv: Condvar,
    next_gate: std::sync::atomic::AtomicU64,
}

impl FairShareScheduler {
    /// A scheduler with `slots` concurrent wave slots (clamped to ≥ 1).
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(FairShareScheduler {
            slots: slots.max(1),
            state: Mutex::new(SchedState {
                running: 0,
                next_ticket: 0,
                waiting: Vec::new(),
                granted: HashMap::new(),
                log: VecDeque::with_capacity(LOG_CAP),
                grants: 0,
            }),
            cv: Condvar::new(),
            next_gate: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// A [`WaveGate`] for one session of `tenant`; install it on that
    /// session's context. All gates of one scheduler share its slots.
    pub fn gate(self: &Arc<Self>, tenant: impl Into<String>) -> Arc<JobGate> {
        let tenant: Arc<str> = tenant.into().into();
        let gate_id = self
            .next_gate
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Arc::new(JobGate {
            scheduler: self.clone(),
            tenant,
            gate_id,
            cancel: Mutex::new(None),
            engaged: AtomicBool::new(false),
        })
    }

    /// Waves granted so far, per tenant.
    pub fn granted_waves(&self) -> HashMap<String, u64> {
        let st = self.state.lock();
        st.granted
            .iter()
            .map(|(tenant, n)| (tenant.to_string(), *n))
            .collect()
    }

    /// The most recent grants, oldest first (capped at an internal limit).
    pub fn grant_log(&self) -> Vec<WaveGrant> {
        let st = self.state.lock();
        st.log
            .iter()
            .map(|g| WaveGrant {
                seq: g.seq,
                tenant: g.tenant.to_string(),
                gate_id: g.gate_id,
                wave_index: g.wave_index,
                atoms: g.atoms,
            })
            .collect()
    }

    /// Total wave grants ever issued.
    pub fn total_grants(&self) -> u64 {
        self.state.lock().grants
    }

    /// Jobs currently blocked waiting for a wave slot.
    pub fn waiting_jobs(&self) -> usize {
        self.state.lock().waiting.len()
    }

    /// Block until a wave slot is granted (returns `true`) or `cancel`
    /// trips while waiting (returns `false`, and the waiter has left the
    /// queue without consuming a slot).
    fn acquire(
        &self,
        tenant: &Arc<str>,
        gate_id: u64,
        wave_index: usize,
        atoms: usize,
        cancel: Option<&CancelToken>,
    ) -> bool {
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return false;
        }
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push(Waiter {
            ticket,
            tenant: tenant.clone(),
        });
        loop {
            if st.running < self.slots {
                // Least-service-first, FIFO ticket as the tie break. The
                // grant totals are read under the same lock, so two waiters
                // cannot both observe themselves as the minimum.
                let best = st
                    .waiting
                    .iter()
                    .min_by_key(|w| (st.granted.get(&w.tenant).copied().unwrap_or(0), w.ticket))
                    .expect("self is in the wait list")
                    .ticket;
                if best == ticket {
                    st.waiting.retain(|w| w.ticket != ticket);
                    st.running += 1;
                    *st.granted.entry(tenant.clone()).or_insert(0) += 1;
                    let seq = st.grants;
                    st.grants += 1;
                    if st.log.len() == LOG_CAP {
                        st.log.pop_front();
                    }
                    st.log.push_back(LoggedGrant {
                        seq,
                        tenant: tenant.clone(),
                        gate_id,
                        wave_index,
                        atoms,
                    });
                    // Another slot may still be free for a different waiter.
                    if st.running < self.slots && !st.waiting.is_empty() {
                        self.cv.notify_all();
                    }
                    return true;
                }
            }
            match cancel {
                Some(token) => {
                    // Poll the token: a cancelled job must leave the wait
                    // queue within one CANCEL_POLL, not whenever the next
                    // grant happens to wake it.
                    self.cv.wait_for(&mut st, CANCEL_POLL);
                    if token.is_cancelled() {
                        st.waiting.retain(|w| w.ticket != ticket);
                        drop(st);
                        // Our departure can change the least-service
                        // minimum, so re-run the grant decision.
                        self.cv.notify_all();
                        return false;
                    }
                }
                None => self.cv.wait(&mut st),
            }
        }
    }

    fn release(&self) {
        let mut st = self.state.lock();
        st.running = st.running.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }
}

/// Per-session [`WaveGate`] handle produced by
/// [`FairShareScheduler::gate`].
pub struct JobGate {
    scheduler: Arc<FairShareScheduler>,
    tenant: Arc<str>,
    gate_id: u64,
    /// Cancel token of the job currently running under this gate. A
    /// session runs its jobs serially, so one slot suffices.
    cancel: Mutex<Option<CancelToken>>,
    /// Whether `before_wave` actually acquired a slot (false when the
    /// job was cancelled while waiting) so `after_wave` releases exactly
    /// what was taken.
    engaged: AtomicBool,
}

impl JobGate {
    /// Install (or clear, with `None`) the cancel token of the job about
    /// to run under this gate, so a cancelled job stops waiting for wave
    /// slots instead of queueing dead waves behind live tenants.
    pub fn set_cancel(&self, token: Option<CancelToken>) {
        *self.cancel.lock() = token;
    }
}

impl WaveGate for JobGate {
    fn before_wave(&self, wave_index: usize, atoms: usize) {
        let token = self.cancel.lock().clone();
        let granted = self.scheduler.acquire(
            &self.tenant,
            self.gate_id,
            wave_index,
            atoms,
            token.as_ref(),
        );
        // When the grant was refused (cancelled mid-wait) the wave still
        // "runs", but every atom fails at its cancellation checkpoint
        // immediately — the executor surfaces Cancelled within that wave.
        self.engaged.store(granted, Ordering::SeqCst);
    }

    fn after_wave(&self, _wave_index: usize) {
        if self.engaged.swap(false, Ordering::SeqCst) {
            self.scheduler.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Deterministic two-job interleaving: with one slot, each holder only
    /// releases once the other job is provably enqueued (or finished), so
    /// every release happens under contention and the least-service policy
    /// must alternate the tenants strictly.
    #[test]
    fn single_slot_interleaves_two_tenants_fairly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const WAVES: usize = 10;
        let sched = FairShareScheduler::new(1);
        let done = [AtomicBool::new(false), AtomicBool::new(false)];
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for (i, tenant) in ["alpha", "beta"].into_iter().enumerate() {
                let gate = sched.gate(tenant);
                let (sched, done, barrier) = (&sched, &done, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for wave in 0..WAVES {
                        gate.before_wave(wave, 1);
                        // Hold the slot until the peer is waiting on it (or
                        // has finished all its waves).
                        while sched.waiting_jobs() == 0 && !done[1 - i].load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        gate.after_wave(wave);
                    }
                    done[i].store(true, Ordering::SeqCst);
                });
            }
        });
        let granted = sched.granted_waves();
        assert_eq!(granted["alpha"], WAVES as u64);
        assert_eq!(granted["beta"], WAVES as u64);
        let log = sched.grant_log();
        assert_eq!(log.len(), 2 * WAVES);
        for pair in log.windows(2) {
            assert_ne!(
                pair[0].tenant, pair[1].tenant,
                "grants did not alternate: {log:?}"
            );
        }
    }

    /// A tenant far behind on service is granted ahead of a tenant far
    /// ahead, regardless of arrival order.
    #[test]
    fn least_service_tenant_wins_contended_slot() {
        let sched = FairShareScheduler::new(1);
        let veteran = sched.gate("veteran");
        let newcomer = sched.gate("newcomer");
        // Veteran accumulates service while alone.
        for wave in 0..10 {
            veteran.before_wave(wave, 1);
            veteran.after_wave(wave);
        }
        // Occupy the slot, then line both up behind it; the newcomer asked
        // *after* the veteran but has less service, so it is granted first.
        let blocker = sched.gate("veteran");
        blocker.before_wave(0, 1);
        std::thread::scope(|s| {
            let sched_ref = &sched;
            let vet = s.spawn(|| {
                veteran.before_wave(10, 1);
                veteran.after_wave(10);
            });
            // Give the veteran time to enqueue first.
            while sched_ref.waiting_jobs() == 0 {
                std::thread::yield_now();
            }
            let newc = s.spawn(|| {
                newcomer.before_wave(0, 1);
                newcomer.after_wave(0);
            });
            while sched_ref.waiting_jobs() < 2 {
                std::thread::yield_now();
            }
            blocker.after_wave(0);
            newc.join().unwrap();
            vet.join().unwrap();
        });
        let log = sched.grant_log();
        let tail: Vec<&str> = log
            .iter()
            .rev()
            .take(2)
            .map(|g| g.tenant.as_str())
            .collect();
        // Last two grants: newcomer first (so it appears *before* the
        // veteran's final grant in the log tail, i.e. last entry is veteran).
        assert_eq!(tail, ["veteran", "newcomer"]);
    }

    /// A waiter whose job is cancelled leaves the wait queue promptly and
    /// never consumes a slot, so its `after_wave` releases nothing.
    #[test]
    fn a_cancelled_waiter_leaves_the_queue_without_taking_a_slot() {
        use rheem_core::{CancelReason, CancelToken};
        let sched = FairShareScheduler::new(1);
        let blocker = sched.gate("a");
        blocker.before_wave(0, 1); // occupy the only slot
        let victim = sched.gate("b");
        let token = CancelToken::new();
        victim.set_cancel(Some(token.clone()));
        std::thread::scope(|s| {
            let victim = &victim;
            let handle = s.spawn(move || {
                victim.before_wave(0, 1); // blocks: the slot is taken
                victim.after_wave(0); // must be a no-op (nothing acquired)
            });
            while sched.waiting_jobs() == 0 {
                std::thread::yield_now();
            }
            token.cancel(CancelReason::Explicit);
            handle.join().unwrap();
        });
        assert_eq!(sched.waiting_jobs(), 0);
        // The blocker still holds the single slot: release it and take it
        // again to prove the count never went negative or leaked.
        blocker.after_wave(0);
        blocker.before_wave(1, 1);
        blocker.after_wave(1);
        assert_eq!(sched.granted_waves().get("b"), None);
    }

    /// Slots bound concurrency: with 2 slots, never more than 2 waves run.
    #[test]
    fn slots_bound_concurrent_waves() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = FairShareScheduler::new(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..6 {
                let gate = sched.gate(format!("t{i}"));
                let (running, peak) = (&running, &peak);
                s.spawn(move || {
                    for wave in 0..5 {
                        gate.before_wave(wave, 1);
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                        gate.after_wave(wave);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(sched.total_grants(), 30);
    }
}
