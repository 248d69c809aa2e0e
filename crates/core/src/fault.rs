//! Fault tolerance: retry backoff, per-platform circuit breakers, and the
//! policy knobs behind the executor's failover re-planning (§4.2 duty iii,
//! `DESIGN.md` §9).
//!
//! Three cooperating pieces:
//!
//! - [`BackoffPolicy`] — deterministic seeded exponential backoff with
//!   jitter between retry attempts. Delays are a pure function of
//!   `(seed, atom id, attempt)`, so they are identical across thread
//!   budgets and replayable run-to-run; a pluggable [`Sleeper`] lets tests
//!   substitute a virtual clock and stay fast.
//! - [`PlatformHealth`] — a per-platform circuit breaker. Consecutive
//!   failures past [`BreakerPolicy::failure_threshold`] *open* the
//!   breaker; while open, atoms targeting the platform fail immediately
//!   with [`RheemError::PlatformUnavailable`] (no retry budget burned)
//!   and become failover candidates. After
//!   [`BreakerPolicy::cooldown`] the breaker *half-opens*: one probe
//!   attempt is admitted, and its outcome closes or re-opens the breaker.
//! - [`FaultPolicy`] — the bundle a [`crate::RheemContext`] installs via
//!   `with_fault_policy`: backoff, breaker, and the failover re-planning
//!   budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{CancelReason, Result, RheemError};

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used wherever the fault
/// machinery needs a deterministic pseudo-random value keyed on structural
/// identifiers (atom id, attempt number) rather than on call order — the
/// property that keeps injected failures and jittered delays identical
/// between sequential and parallel schedules.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map 64 random bits to a uniform `f64` in `[0, 1)`.
pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over a string: stable platform-name seed component.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A shared, cooperative cancellation flag threaded from the server edge
/// down to the morsel loop (see `DESIGN.md` §14).
///
/// Cloning shares the flag: the server keeps one clone per in-flight job,
/// the executor checks another at its checkpoints (wave boundaries, retry
/// loop, morsel pulls). The first [`cancel`](CancelToken::cancel) wins —
/// later calls keep the original reason, so the error the client sees
/// names whoever abandoned the job first. Cancellation also wakes any
/// [`wait_timeout`](CancelToken::wait_timeout) in progress, which is what
/// makes backoff naps interruptible.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Default)]
struct CancelInner {
    /// 0 = live; otherwise `CancelReason` discriminant + 1.
    state: AtomicU8,
    lock: Mutex<()>,
    wake: Condvar,
}

fn reason_code(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::ClientDisconnect => 1,
        CancelReason::DeadlineExceeded => 2,
        CancelReason::Shutdown => 3,
        CancelReason::Explicit => 4,
    }
}

fn code_reason(code: u8) -> Option<CancelReason> {
    match code {
        1 => Some(CancelReason::ClientDisconnect),
        2 => Some(CancelReason::DeadlineExceeded),
        3 => Some(CancelReason::Shutdown),
        4 => Some(CancelReason::Explicit),
        _ => None,
    }
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Cancel with `reason`, waking every pending
    /// [`CancelToken::wait_timeout`]. Returns `true` when this call was
    /// the first — later calls are no-ops that keep the original reason.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        let first = self
            .inner
            .state
            .compare_exchange(0, reason_code(reason), Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if first {
            let _guard = self.inner.lock.lock();
            self.inner.wake.notify_all();
        }
        first
    }

    /// Whether the token has been cancelled. The fast path for morsel
    /// loops: one relaxed-ish atomic load, no lock.
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != 0
    }

    /// The first cancellation reason, if cancelled.
    pub fn reason(&self) -> Option<CancelReason> {
        code_reason(self.inner.state.load(Ordering::Acquire))
    }

    /// The checkpoint primitive: `Ok(())` while live,
    /// [`RheemError::Cancelled`] once cancelled.
    pub fn check(&self) -> Result<()> {
        match self.reason() {
            None => Ok(()),
            Some(reason) => Err(RheemError::Cancelled { reason }),
        }
    }

    /// Block for up to `d` or until cancelled, whichever comes first.
    /// Returns the cancellation reason if the wait ended early (or the
    /// token was already cancelled).
    pub fn wait_timeout(&self, d: Duration) -> Option<CancelReason> {
        if let Some(reason) = self.reason() {
            return Some(reason);
        }
        // A duration too large for the clock is an unbounded wait.
        let deadline = Instant::now().checked_add(d);
        let mut guard = self.inner.lock.lock();
        loop {
            if let Some(reason) = self.reason() {
                return Some(reason);
            }
            match deadline {
                Some(until) => {
                    if self.inner.wake.wait_until(&mut guard, until).timed_out() {
                        return self.reason();
                    }
                }
                None => self.inner.wake.wait(&mut guard),
            }
        }
    }
}

/// Something that can pause the current thread. The executor sleeps
/// through retry backoff via this trait so tests can install a virtual
/// clock ([`VirtualSleeper`]) and observe the *intended* delays without
/// paying for them in wall time.
pub trait Sleeper: Send + Sync {
    /// Pause for (at least) `d`.
    fn sleep(&self, d: Duration);

    /// Pause for up to `d`, returning early when `cancel` fires. The
    /// default is a conservative fallback for sleepers that cannot wait
    /// on the token: skip the nap entirely if already cancelled, else
    /// sleep uninterruptibly. [`ThreadSleeper`] overrides this with a
    /// condvar wait that cancellation wakes mid-nap.
    fn sleep_cancellable(&self, d: Duration, cancel: &CancelToken) {
        if !cancel.is_cancelled() {
            self.sleep(d);
        }
    }
}

/// The production sleeper: `std::thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    fn sleep_cancellable(&self, d: Duration, cancel: &CancelToken) {
        if !d.is_zero() {
            cancel.wait_timeout(d);
        }
    }
}

/// A recording no-op sleeper: never blocks, remembers every requested
/// delay. Backoff tests assert on [`VirtualSleeper::naps`] instead of
/// wall time, keeping the suite fast and replayable.
#[derive(Debug, Default)]
pub struct VirtualSleeper {
    naps: Mutex<Vec<Duration>>,
}

impl VirtualSleeper {
    /// A fresh virtual sleeper with no recorded naps.
    pub fn new() -> Self {
        VirtualSleeper::default()
    }

    /// Every delay requested so far, in request order.
    pub fn naps(&self) -> Vec<Duration> {
        self.naps.lock().clone()
    }
}

impl Sleeper for VirtualSleeper {
    fn sleep(&self, d: Duration) {
        self.naps.lock().push(d);
    }
}

/// Deterministic seeded exponential backoff with jitter.
///
/// The delay before retry attempt `k` (1-based: the wait between the
/// `k`-th failure and the `k+1`-th attempt) is
///
/// ```text
/// min(max, base · multiplier^(k-1)) · (1 − jitter · u)
/// ```
///
/// where `u ∈ [0, 1)` is drawn deterministically from
/// `(seed, atom id, k)` — never from a shared mutable RNG — so the
/// schedule of delays is identical across thread budgets and reruns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry (attempt 2).
    pub base: Duration,
    /// Growth factor per additional failed attempt (≥ 1.0).
    pub multiplier: f64,
    /// Upper bound on any single delay (pre-jitter).
    pub max: Duration,
    /// Fraction of the delay randomized away, in `[0, 1]`: `0.0` is pure
    /// exponential backoff, `0.5` scales each delay into `[50%, 100%]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(5),
            multiplier: 2.0,
            max: Duration::from_millis(200),
            jitter: 0.5,
            seed: 0x5EED,
        }
    }
}

impl BackoffPolicy {
    /// No backoff at all: every delay is zero. What a context without a
    /// fault policy retries under.
    pub fn none() -> Self {
        BackoffPolicy {
            base: Duration::ZERO,
            multiplier: 1.0,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Re-seed the jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The delay to sleep after the `attempt`-th failed attempt of
    /// `atom_id` (1-based). Pure: same inputs, same delay.
    pub fn delay(&self, atom_id: usize, attempt: usize) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .multiplier
            .max(1.0)
            .powi(attempt.saturating_sub(1).min(63) as i32);
        let raw = self.base.as_secs_f64() * exp;
        let capped = raw.min(self.max.as_secs_f64().max(self.base.as_secs_f64()));
        let jitter = self.jitter.clamp(0.0, 1.0);
        let u = unit_f64(splitmix64(
            self.seed ^ (atom_id as u64).rotate_left(17) ^ (attempt as u64).rotate_left(41),
        ));
        Duration::from_secs_f64(capped * (1.0 - jitter * u))
    }
}

/// When a platform's circuit breaker opens and how it recovers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures on a platform that open its breaker.
    pub failure_threshold: usize,
    /// How long an open breaker rejects atoms before admitting a
    /// half-open probe. `Duration::ZERO` half-opens immediately (every
    /// admission is a probe) — handy for deterministic tests.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
        }
    }
}

/// Circuit-breaker state of one platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    /// Healthy; tracks the current run of consecutive failures.
    Closed { consecutive_failures: usize },
    /// Rejecting atoms until the cooldown elapses.
    Open { since: Instant },
    /// Cooldown elapsed; a probe is in flight. Success closes the
    /// breaker, any failure re-opens it.
    HalfOpen,
}

/// Per-platform circuit breakers shared across the jobs of a
/// [`crate::RheemContext`].
///
/// Thread-safety: one mutex guards the state table; every transition is a
/// single short critical section, safe to call from wave worker threads.
pub struct PlatformHealth {
    policy: BreakerPolicy,
    states: Mutex<HashMap<String, BreakerState>>,
}

impl PlatformHealth {
    /// Fresh, all-closed breakers under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        PlatformHealth {
            policy,
            states: Mutex::new(HashMap::new()),
        }
    }

    /// Gate an atom about to run on `platform`.
    ///
    /// Closed / half-open breakers admit the attempt (`Ok`). An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits the attempt as the probe; otherwise the attempt is rejected
    /// with [`RheemError::PlatformUnavailable`].
    pub fn admit(&self, platform: &str) -> Result<()> {
        let mut states = self.states.lock();
        match states.get(platform).copied() {
            None | Some(BreakerState::Closed { .. }) | Some(BreakerState::HalfOpen) => Ok(()),
            Some(BreakerState::Open { since }) => {
                if since.elapsed() >= self.policy.cooldown {
                    states.insert(platform.to_string(), BreakerState::HalfOpen);
                    Ok(())
                } else {
                    Err(RheemError::PlatformUnavailable {
                        platform: platform.to_string(),
                        message: format!(
                            "circuit breaker open after {} consecutive failures",
                            self.policy.failure_threshold
                        ),
                    })
                }
            }
        }
    }

    /// Record a successful atom execution: closes the breaker and resets
    /// the consecutive-failure run (no entry is a closed breaker).
    pub fn record_success(&self, platform: &str) {
        self.states.lock().remove(platform);
    }

    /// Record a failed atom attempt. Returns `true` when this failure
    /// opened (or re-opened) the breaker.
    pub fn record_failure(&self, platform: &str) -> bool {
        let mut states = self.states.lock();
        let state = states
            .entry(platform.to_string())
            .or_insert(BreakerState::Closed {
                consecutive_failures: 0,
            });
        match *state {
            BreakerState::Closed {
                consecutive_failures,
            } if consecutive_failures + 1 < self.policy.failure_threshold => {
                *state = BreakerState::Closed {
                    consecutive_failures: consecutive_failures + 1,
                };
                false
            }
            BreakerState::Open { .. } => false,
            // The threshold is reached, or the half-open probe failed.
            _ => {
                *state = BreakerState::Open {
                    since: Instant::now(),
                };
                true
            }
        }
    }

    /// Force a platform's breaker open (failover marks the platform it
    /// abandoned as down, so subsequent jobs avoid it until the cooldown
    /// admits a probe).
    pub fn force_open(&self, platform: &str) {
        self.states.lock().insert(
            platform.to_string(),
            BreakerState::Open {
                since: Instant::now(),
            },
        );
    }

    /// Whether `platform`'s breaker is currently open or half-open.
    pub fn is_open(&self, platform: &str) -> bool {
        matches!(
            self.states.lock().get(platform),
            Some(BreakerState::Open { .. } | BreakerState::HalfOpen)
        )
    }

    /// Names of all platforms with open or half-open breakers, sorted —
    /// the exclusion set failover re-planning hands the enumerator.
    pub fn unavailable(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .states
            .lock()
            .iter()
            .filter(|(_, s)| matches!(s, BreakerState::Open { .. } | BreakerState::HalfOpen))
            .map(|(p, _)| p.clone())
            .collect();
        out.sort_unstable();
        out
    }
}

/// The fault-tolerance bundle a [`crate::RheemContext`] installs via
/// `with_fault_policy`: how to back off between retries, when to trip a
/// platform's breaker, and how often a job may re-plan around a failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Backoff between retry attempts of one atom.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Enable failover re-planning: when an atom exhausts its retries (or
    /// its platform's breaker is open), re-enumerate the unexecuted
    /// suffix with the failed platform excluded instead of failing the
    /// job.
    pub failover: bool,
    /// Upper bound on failover re-plans per job.
    pub max_failovers: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            backoff: BackoffPolicy::default(),
            breaker: BreakerPolicy::default(),
            failover: true,
            max_failovers: 2,
        }
    }
}

impl FaultPolicy {
    /// A policy for deterministic tests: zero backoff, zero breaker
    /// cooldown (open breakers immediately admit half-open probes).
    pub fn instant() -> Self {
        FaultPolicy {
            backoff: BackoffPolicy::none(),
            breaker: BreakerPolicy {
                failure_threshold: 3,
                cooldown: Duration::ZERO,
            },
            failover: true,
            max_failovers: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = BackoffPolicy::default();
        for atom in 0..4usize {
            for attempt in 1..6usize {
                let d = p.delay(atom, attempt);
                assert_eq!(d, p.delay(atom, attempt), "replay must match");
                let ceiling = p
                    .max
                    .as_secs_f64()
                    .min(p.base.as_secs_f64() * p.multiplier.powi(attempt as i32 - 1));
                assert!(d.as_secs_f64() <= ceiling + 1e-9);
                assert!(d.as_secs_f64() >= ceiling * (1.0 - p.jitter) - 1e-9);
            }
        }
        // Different atoms / attempts / seeds draw different jitter.
        assert_ne!(p.delay(0, 3), p.delay(1, 3));
        assert_ne!(p.delay(0, 3), p.with_seed(7).delay(0, 3));
    }

    #[test]
    fn backoff_grows_exponentially_until_the_cap() {
        let p = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        assert_eq!(p.delay(0, 1), Duration::from_millis(5));
        assert_eq!(p.delay(0, 2), Duration::from_millis(10));
        assert_eq!(p.delay(0, 3), Duration::from_millis(20));
        assert_eq!(p.delay(0, 60), p.max, "capped at max");
        assert_eq!(BackoffPolicy::none().delay(9, 9), Duration::ZERO);
    }

    #[test]
    fn virtual_sleeper_records_instead_of_sleeping() {
        let s = VirtualSleeper::new();
        let started = Instant::now();
        s.sleep(Duration::from_secs(3600));
        s.sleep(Duration::from_secs(1800));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(s.naps(), [3600, 1800].map(Duration::from_secs));
    }

    #[test]
    fn breaker_opens_at_threshold_and_half_open_probe_recovers() {
        let h = PlatformHealth::new(BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::ZERO,
        });
        assert!(h.admit("spark").is_ok());
        assert!(!h.record_failure("spark"));
        assert!(!h.record_failure("spark"));
        assert!(h.record_failure("spark"), "third failure opens");
        assert!(h.is_open("spark"));
        assert_eq!(h.unavailable(), vec!["spark".to_string()]);
        // Zero cooldown: the next admission is the half-open probe.
        assert!(h.admit("spark").is_ok());
        assert!(h.is_open("spark"), "half-open still counts as unavailable");
        h.record_success("spark");
        assert!(!h.is_open("spark"));
        assert!(h.unavailable().is_empty());
    }

    #[test]
    fn open_breaker_rejects_until_cooldown_and_reopens_on_failed_probe() {
        let h = PlatformHealth::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        });
        assert!(h.record_failure("spark"));
        let err = h.admit("spark").unwrap_err();
        assert!(
            matches!(err, RheemError::PlatformUnavailable { .. }),
            "{err}"
        );
        assert_eq!(err.platform(), Some("spark"));

        // With zero cooldown the probe is admitted; a probe failure
        // re-opens immediately.
        let h = PlatformHealth::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        assert!(h.record_failure("spark"));
        assert!(h.admit("spark").is_ok());
        assert!(h.record_failure("spark"), "failed probe re-opens");
        assert!(h.is_open("spark"));
    }

    #[test]
    fn success_resets_the_consecutive_failure_run() {
        let h = PlatformHealth::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::ZERO,
        });
        assert!(!h.record_failure("java"));
        h.record_success("java");
        assert!(!h.record_failure("java"), "run restarted after success");
        assert!(h.record_failure("java"));
    }

    #[test]
    fn force_open_marks_down_until_a_success() {
        let h = PlatformHealth::new(BreakerPolicy::default());
        h.force_open("mapreduce");
        assert!(h.is_open("mapreduce"));
        h.record_success("mapreduce");
        assert!(!h.is_open("mapreduce"));
    }

    #[test]
    fn cancel_token_first_reason_wins_and_checkpoints_error() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert!(t.check().is_ok());
        assert_eq!(t.wait_timeout(Duration::ZERO), None);

        assert!(t.cancel(CancelReason::DeadlineExceeded));
        assert!(!t.cancel(CancelReason::Explicit), "second cancel loses");
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        let err = t.check().unwrap_err();
        assert!(matches!(
            err,
            RheemError::Cancelled {
                reason: CancelReason::DeadlineExceeded
            }
        ));
        assert_eq!(err.classify(), crate::ErrorKind::Cancelled);

        // Clones share the flag.
        let clone = t.clone();
        assert!(clone.is_cancelled());
        assert_eq!(
            clone.wait_timeout(Duration::from_secs(3600)),
            Some(CancelReason::DeadlineExceeded),
            "waiting on a cancelled token returns immediately"
        );
    }

    #[test]
    fn cancellation_wakes_a_sleeping_thread_mid_nap() {
        let t = CancelToken::new();
        let started = Instant::now();
        std::thread::scope(|s| {
            let sleeper = s.spawn(|| t.wait_timeout(Duration::from_secs(3600)));
            std::thread::sleep(Duration::from_millis(20));
            t.cancel(CancelReason::Shutdown);
            assert_eq!(sleeper.join().unwrap(), Some(CancelReason::Shutdown));
        });
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "nap was interrupted, not slept out"
        );

        // The production sleeper goes through the same wakeable wait.
        let t = CancelToken::new();
        std::thread::scope(|s| {
            let sleeper =
                s.spawn(|| ThreadSleeper.sleep_cancellable(Duration::from_secs(3600), &t));
            std::thread::sleep(Duration::from_millis(20));
            t.cancel(CancelReason::Explicit);
            sleeper.join().unwrap();
        });
    }

    #[test]
    fn virtual_sleeper_skips_cancellable_naps_once_cancelled() {
        let s = VirtualSleeper::new();
        let t = CancelToken::new();
        s.sleep_cancellable(Duration::from_secs(7), &t);
        t.cancel(CancelReason::Explicit);
        s.sleep_cancellable(Duration::from_secs(9), &t);
        assert_eq!(
            s.naps(),
            vec![Duration::from_secs(7)],
            "naps after cancellation are not even requested"
        );
    }

    #[test]
    fn splitmix_spreads_and_unit_is_in_range() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        for x in 0..100u64 {
            let u = unit_f64(splitmix64(x));
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(fnv1a("java"), fnv1a("spark"));
    }
}
