//! Admission control and the shared worker pool.
//!
//! [`JobService`] sits between the sessions and the execution layer. Every
//! job goes through `submit_job` which enforces, *before* any work is
//! queued:
//!
//! * a per-tenant in-flight quota (`max_inflight_per_tenant`): a tenant's
//!   jobs queued-or-running may not exceed it;
//! * a bounded global queue (`queue_capacity`): jobs waiting for a pool
//!   worker may not exceed it.
//!
//! Violating either rejects the submission immediately with an
//! [`AdmissionError`] — backpressure is explicit and prompt, never an
//! unbounded queue. Admitted jobs run on a fixed pool of worker threads;
//! the submitting session blocks until its job completes (the session is
//! the client's connection thread, so per-session jobs are naturally
//! serial while cross-session jobs are concurrent).
//!
//! # Deadlines, cancellation, and panic containment (`DESIGN.md` §7)
//!
//! Every admitted job gets a server-assigned id and a
//! [`CancelToken`], both exposed to the job closure through [`JobRun`].
//! Queue-wait time counts against a request's deadline: a job whose
//! deadline expires while still queued is *shed* at dequeue — typed
//! [`AdmissionError::DeadlineExceeded`], `server.jobs.shed_deadline`
//! counter — without ever costing a worker. [`JobService::cancel_job`] /
//! [`cancel_tenant`](JobService::cancel_tenant) trip a job's token
//! (`server.jobs.cancelled`), and [`JobService::shutdown`] cancels
//! everything with [`CancelReason::Shutdown`] so the drain is bounded by
//! `drain_grace`. A panicking job is caught at the pool boundary
//! ([`AdmissionError::JobPanicked`]): the worker thread survives and the
//! submitter is always woken — a poisoned job can neither shrink the pool
//! nor hang its session.
//!
//! Per-tenant counters (`server.tenant.<t>.submitted/completed/rejected`)
//! are reported into the shared [`MetricsRegistry`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rheem_core::{CancelReason, CancelToken, Counter, MetricsRegistry};

/// Why a submission was refused at the door (or shed before running).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant already has `max_inflight_per_tenant` jobs in flight.
    TenantOverQuota {
        /// The offending tenant.
        tenant: String,
        /// The quota it hit.
        quota: usize,
    },
    /// The global queue is full.
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The job's deadline expired while it waited in the admission
    /// queue; it was shed without costing a worker.
    DeadlineExceeded,
    /// The job panicked; the panic was contained at the pool boundary
    /// and the worker thread survived.
    JobPanicked {
        /// Rendering of the panic payload.
        message: String,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantOverQuota { tenant, quota } => {
                write!(f, "tenant `{tenant}` is over its in-flight quota ({quota})")
            }
            AdmissionError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity})")
            }
            AdmissionError::DeadlineExceeded => {
                write!(f, "deadline exceeded while queued")
            }
            AdmissionError::JobPanicked { message } => {
                write!(f, "job panicked: {message}")
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Knobs for [`JobService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing admitted jobs.
    pub workers: usize,
    /// Bound on jobs queued for a worker (running jobs do not count).
    pub queue_capacity: usize,
    /// Bound on one tenant's queued-plus-running jobs.
    pub max_inflight_per_tenant: usize,
    /// How long [`JobService::shutdown`] waits for cancelled in-flight
    /// jobs to drain before detaching any worker still stuck in one.
    pub drain_grace: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            max_inflight_per_tenant: 4,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// What the pool hands a running job: its server-assigned id, its cancel
/// token (install into the execution context so every layer below
/// observes it), and the deadline budget left after queue wait.
pub struct JobRun {
    /// Server-assigned job id; the `CANCEL` wire request addresses it.
    pub id: u64,
    /// The job's cooperative cancel token.
    pub cancel: CancelToken,
    /// Deadline budget remaining when the job left the queue, if the
    /// request carried a deadline (queue wait already deducted).
    pub remaining: Option<Duration>,
}

/// Completion rendezvous shared by the pool worker and the waiter. The
/// worker always fills it — run, shed, or panic — so waiters cannot hang.
type Slot<R> = Arc<(Mutex<Option<Result<R, AdmissionError>>>, Condvar)>;

/// Handle to an admitted job, from [`JobService::submit_handle`]. Lets
/// the submitter poll for completion (interleaving its own bookkeeping,
/// like watching the client socket) instead of blocking blindly.
pub struct JobHandle<R> {
    id: u64,
    done: Slot<R>,
}

impl<R> JobHandle<R> {
    /// The server-assigned job id; [`JobService::cancel_job`] addresses it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job completes (ran, was shed, or panicked).
    pub fn wait(self) -> Result<R, AdmissionError> {
        let (slot, cv) = &*self.done;
        let mut guard = slot.lock();
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            cv.wait(&mut guard);
        }
    }

    /// Wait up to `timeout` for completion; `None` means still running.
    /// The result is *taken*: once this returns `Some`, later waits
    /// would block forever, so stop polling at the first `Some`.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<Result<R, AdmissionError>> {
        let (slot, cv) = &*self.done;
        let mut guard = slot.lock();
        if guard.is_none() {
            cv.wait_for(&mut guard, timeout);
        }
        guard.take()
    }
}

/// A queued job: the work itself plus the metadata the worker needs to
/// decide between running and shedding it.
struct QueuedJob {
    /// Invoked exactly once, with `Fate::Run` to execute or `Fate::Shed`
    /// to complete the rendezvous with a typed deadline rejection.
    task: Box<dyn FnOnce(Fate) + Send + 'static>,
    /// Absolute deadline, when the request carried one.
    deadline: Option<Instant>,
    /// The job's cancel token (so a worker can observe pre-cancellation).
    cancel: CancelToken,
}

#[derive(Clone, Copy)]
enum Fate {
    Run,
    Shed,
}

/// Registry entry for a queued-or-running job.
struct LiveJob {
    tenant: String,
    cancel: CancelToken,
}

/// A tenant's admission counters (`server.tenant.<t>.{submitted,
/// completed, rejected}`), resolved once, when the tenant first submits.
struct TenantCounters {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
}

impl TenantCounters {
    fn resolve(metrics: &MetricsRegistry, tenant: &str) -> Self {
        let counter = |event: &str| metrics.counter(&format!("server.tenant.{tenant}.{event}"));
        TenantCounters {
            submitted: counter("submitted"),
            completed: counter("completed"),
            rejected: counter("rejected"),
        }
    }
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    /// Queued-plus-running jobs per tenant.
    inflight: HashMap<String, usize>,
    /// Every queued-or-running job by id (for `CANCEL` addressing).
    jobs: HashMap<u64, LiveJob>,
    /// Every tenant seen so far, with its counters.
    tenants: HashMap<String, Arc<TenantCounters>>,
    /// Id fountain; ids start at 1 because `CANCEL { job: 0 }` means
    /// "all of the tenant's jobs" on the wire.
    next_job: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers sleep on this when the queue is empty.
    work_cv: Condvar,
    config: ServiceConfig,
    metrics: Arc<MetricsRegistry>,
    shed_deadline: Arc<Counter>,
    cancelled: Arc<Counter>,
}

/// The admission-controlled worker pool.
pub struct JobService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobService {
    /// Start `config.workers` pool threads reporting into `metrics`.
    pub fn start(config: ServiceConfig, metrics: Arc<MetricsRegistry>) -> Self {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_inflight_per_tenant: config.max_inflight_per_tenant.max(1),
            drain_grace: config.drain_grace,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                jobs: HashMap::new(),
                tenants: HashMap::new(),
                next_job: 1,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            config,
            shed_deadline: metrics.counter("server.jobs.shed_deadline"),
            cancelled: metrics.counter("server.jobs.cancelled"),
            metrics,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rheem-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        JobService {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admit `job` for `tenant` and block until it has run, returning its
    /// result. Rejections (quota, queue, shutdown) return immediately.
    /// Convenience wrapper over [`submit_job`](Self::submit_job) for jobs
    /// that need neither an id, a cancel token, nor a deadline.
    pub fn submit<R, F>(&self, tenant: &str, job: F) -> Result<R, AdmissionError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.submit_job(tenant, None, |_run| job())
    }

    /// Admit `job` for `tenant` and block until it completes, was shed,
    /// or panicked. The closure receives a `JobRun` carrying the job's
    /// id, cancel token, and — when `deadline` is set — the budget left
    /// after queue wait. A job whose deadline expires while queued is
    /// shed with [`AdmissionError::DeadlineExceeded`] without costing a
    /// worker; a panicking job returns [`AdmissionError::JobPanicked`]
    /// while the worker thread keeps running.
    pub fn submit_job<R, F>(
        &self,
        tenant: &str,
        deadline: Option<Duration>,
        job: F,
    ) -> Result<R, AdmissionError>
    where
        R: Send + 'static,
        F: FnOnce(&JobRun) -> R + Send + 'static,
    {
        self.submit_handle(tenant, deadline, job)?.wait()
    }

    /// Like [`submit_job`](Self::submit_job) but returns a `JobHandle`
    /// instead of blocking, so the caller can poll for completion while
    /// watching for out-of-band events (a client hanging up, say) and
    /// cancel the job by its `JobHandle::id` in the meantime.
    pub fn submit_handle<R, F>(
        &self,
        tenant: &str,
        deadline: Option<Duration>,
        job: F,
    ) -> Result<JobHandle<R>, AdmissionError>
    where
        R: Send + 'static,
        F: FnOnce(&JobRun) -> R + Send + 'static,
    {
        let deadline_at = deadline.and_then(|d| Instant::now().checked_add(d));
        let done: Slot<R>;
        let job_id;
        {
            let mut st = self.shared.state.lock();
            if st.shutdown {
                return Err(AdmissionError::ShuttingDown);
            }
            let counters = match st.tenants.get(tenant) {
                Some(counters) => counters.clone(),
                None => {
                    let counters = Arc::new(TenantCounters::resolve(&self.shared.metrics, tenant));
                    st.tenants.insert(tenant.to_string(), counters.clone());
                    counters
                }
            };
            let quota = self.shared.config.max_inflight_per_tenant;
            let inflight = st.inflight.get(tenant).copied().unwrap_or(0);
            if inflight >= quota {
                drop(st);
                counters.rejected.inc();
                return Err(AdmissionError::TenantOverQuota {
                    tenant: tenant.to_string(),
                    quota,
                });
            }
            let capacity = self.shared.config.queue_capacity;
            if st.queue.len() >= capacity {
                drop(st);
                counters.rejected.inc();
                return Err(AdmissionError::QueueFull { capacity });
            }
            *st.inflight.entry(tenant.to_string()).or_insert(0) += 1;
            let id = st.next_job;
            st.next_job += 1;
            job_id = id;
            let cancel = CancelToken::new();
            st.jobs.insert(
                id,
                LiveJob {
                    tenant: tenant.to_string(),
                    cancel: cancel.clone(),
                },
            );

            // Completion rendezvous between the pool worker and this
            // caller. The worker *always* fills it — run, shed, or panic
            // — so the submitting session can never hang on a lost job.
            done = Arc::new((Mutex::new(None), Condvar::new()));
            let done_tx = done.clone();
            let shared = self.shared.clone();
            let job_tenant = tenant.to_string();
            let job_cancel = cancel.clone();
            let completed = counters.completed.clone();
            let task = Box::new(move |fate| {
                let result = match fate {
                    Fate::Shed => {
                        shared.shed_deadline.inc();
                        Err(AdmissionError::DeadlineExceeded)
                    }
                    Fate::Run => {
                        let run = JobRun {
                            id,
                            cancel: job_cancel,
                            remaining: deadline_at
                                .map(|d| d.saturating_duration_since(Instant::now())),
                        };
                        // Contain panics at the pool boundary: the job's
                        // state is discarded wholesale on the error path,
                        // so AssertUnwindSafe is sound here (the same
                        // contract as the executor's atom guard).
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&run)))
                                .map_err(|payload| AdmissionError::JobPanicked {
                                    message: panic_message(payload.as_ref()),
                                });
                        if result.is_ok() {
                            completed.inc();
                        }
                        result
                    }
                };
                // Release the quota slot and registry entry *before*
                // waking the submitter, so an observer unblocked by the
                // result never sees a stale in-flight count.
                {
                    let mut st = shared.state.lock();
                    st.jobs.remove(&id);
                    if let Some(n) = st.inflight.get_mut(&job_tenant) {
                        *n = n.saturating_sub(1);
                        if *n == 0 {
                            st.inflight.remove(&job_tenant);
                        }
                    }
                }
                let (slot, cv) = &*done_tx;
                *slot.lock() = Some(result);
                cv.notify_all();
            });
            counters.submitted.inc();
            st.queue.push_back(QueuedJob {
                task,
                deadline: deadline_at,
                cancel,
            });
        }
        self.shared.work_cv.notify_one();
        Ok(JobHandle { id: job_id, done })
    }

    /// Cancel one of `tenant`'s queued-or-running jobs by id. Returns
    /// `true` when the id named a live job of that tenant whose token
    /// this call tripped (idempotent: a second cancel returns `false`).
    pub fn cancel_job(&self, tenant: &str, id: u64, reason: CancelReason) -> bool {
        let token = {
            let st = self.shared.state.lock();
            st.jobs
                .get(&id)
                .filter(|j| j.tenant == tenant)
                .map(|j| j.cancel.clone())
        };
        match token {
            Some(token) if token.cancel(reason) => {
                self.shared.cancelled.inc();
                true
            }
            _ => false,
        }
    }

    /// Cancel every queued-or-running job of `tenant` (client hung up,
    /// or a wire `CANCEL { job: 0 }`). Returns how many tokens tripped.
    pub(crate) fn cancel_tenant(&self, tenant: &str, reason: CancelReason) -> usize {
        let tokens: Vec<CancelToken> = {
            let st = self.shared.state.lock();
            st.jobs
                .values()
                .filter(|j| j.tenant == tenant)
                .map(|j| j.cancel.clone())
                .collect()
        };
        let tripped = tokens.into_iter().filter(|t| t.cancel(reason)).count();
        self.shared.cancelled.add(tripped as u64);
        tripped
    }

    /// Cancel every queued-or-running job of every tenant (shutdown).
    /// Returns how many tokens tripped.
    pub(crate) fn cancel_all(&self, reason: CancelReason) -> usize {
        let tokens: Vec<CancelToken> = {
            let st = self.shared.state.lock();
            st.jobs.values().map(|j| j.cancel.clone()).collect()
        };
        let tripped = tokens.into_iter().filter(|t| t.cancel(reason)).count();
        self.shared.cancelled.add(tripped as u64);
        tripped
    }

    /// Ids of `tenant`'s queued-or-running jobs, ascending.
    pub fn inflight_ids(&self, tenant: &str) -> Vec<u64> {
        let st = self.shared.state.lock();
        let mut ids: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, j)| j.tenant == tenant)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// A tenant's queued-plus-running jobs.
    pub fn inflight(&self, tenant: &str) -> usize {
        self.shared
            .state
            .lock()
            .inflight
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Stop accepting jobs, cancel everything in flight (reason
    /// [`CancelReason::Shutdown`]), and wait up to
    /// [`ServiceConfig::drain_grace`] for the workers to drain. A worker
    /// still stuck in a job past the grace period — a job that ignored
    /// its cancel token — is detached rather than joined, so shutdown is
    /// bounded.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        // Queued jobs still run (their submitters are blocked waiting),
        // but with tripped tokens they fail at their first checkpoint,
        // so the drain is prompt.
        self.cancel_all(CancelReason::Shutdown);
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        let grace_until = Instant::now() + self.shared.config.drain_grace;
        while Instant::now() < grace_until && handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        for h in handles {
            if h.is_finished() {
                let _ = h.join();
            }
            // else: detached — the job ignored cancellation for the whole
            // grace period; its thread dies with the process instead of
            // blocking shutdown forever.
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(next) = st.queue.pop_front() {
                    break next;
                }
                if st.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut st);
            }
        };
        // Queue-age shedding: a job whose deadline passed while it
        // waited never costs this worker; its submitter gets a typed
        // DeadlineExceeded. (A *cancelled* queued job still runs — its
        // tripped token fails it at the first checkpoint, which keeps
        // exactly one completion path per job.)
        let expired = job
            .deadline
            .is_some_and(|d| Instant::now() >= d && !job.cancel.is_cancelled());
        if expired {
            (job.task)(Fate::Shed);
        } else {
            (job.task)(Fate::Run);
        }
    }
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn service(workers: usize, queue: usize, quota: usize) -> JobService {
        JobService::start(
            ServiceConfig {
                workers,
                queue_capacity: queue,
                max_inflight_per_tenant: quota,
                drain_grace: Duration::from_secs(5),
            },
            Arc::new(MetricsRegistry::new()),
        )
    }

    #[test]
    fn jobs_run_and_return_their_results() {
        let svc = service(2, 8, 8);
        let out: Vec<i32> = (0..8)
            .map(|i| svc.submit("t", move || i * 2).unwrap())
            .collect();
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(svc.queued(), 0);
        assert_eq!(svc.inflight("t"), 0);
    }

    /// A tenant at its quota is rejected immediately — the submit call does
    /// not block behind the stuck jobs.
    #[test]
    fn over_quota_tenant_is_rejected_immediately() {
        let svc = Arc::new(service(1, 16, 1));
        let gate = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let first = {
            let (svc, gate, release) = (svc.clone(), gate.clone(), release.clone());
            std::thread::spawn(move || {
                svc.submit("greedy", move || {
                    gate.wait();
                    release.wait();
                })
                .unwrap()
            })
        };
        gate.wait(); // the greedy job is now running
        let err = svc.submit("greedy", || ()).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::TenantOverQuota {
                tenant: "greedy".into(),
                quota: 1
            }
        );
        // A different tenant is unaffected by greedy's quota, but has to
        // wait for the single worker — so check only the admission side by
        // submitting after release.
        release.wait();
        first.join().unwrap();
        svc.submit("polite", || ()).unwrap();
        assert_eq!(svc.inflight("greedy"), 0);
    }

    /// The global queue bound rejects once exceeded, whoever the tenant.
    #[test]
    fn full_queue_rejects_with_backpressure() {
        let svc = Arc::new(service(1, 1, 16));
        let gate = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let blocker = {
            let (svc, gate, release) = (svc.clone(), gate.clone(), release.clone());
            std::thread::spawn(move || {
                svc.submit("a", move || {
                    gate.wait();
                    release.wait();
                })
                .unwrap()
            })
        };
        gate.wait(); // worker is busy; queue is empty
        let queued = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.submit("b", || ()).unwrap())
        };
        // Wait for the queued job to occupy the single queue slot.
        while svc.queued() < 1 {
            std::thread::yield_now();
        }
        let err = svc.submit("c", || ()).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 1 });
        release.wait();
        blocker.join().unwrap();
        queued.join().unwrap();
    }

    #[test]
    fn shutdown_rejects_new_work_and_joins_workers() {
        let svc = service(2, 4, 4);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let ran = ran.clone();
            svc.submit("t", move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        svc.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 4);
        assert_eq!(
            svc.submit("t", || ()).unwrap_err(),
            AdmissionError::ShuttingDown
        );
    }

    /// A job that ages out in the admission queue is shed with a typed
    /// rejection before costing the (busy) worker anything.
    #[test]
    fn queued_jobs_past_their_deadline_are_shed() {
        let svc = Arc::new(service(1, 4, 16));
        let gate = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let blocker = {
            let (svc, gate, release) = (svc.clone(), gate.clone(), release.clone());
            std::thread::spawn(move || {
                svc.submit("a", move || {
                    gate.wait();
                    release.wait();
                })
                .unwrap()
            })
        };
        gate.wait(); // worker is busy
        let ran = Arc::new(AtomicUsize::new(0));
        let doomed = {
            let (svc, ran) = (svc.clone(), ran.clone());
            std::thread::spawn(move || {
                svc.submit_job("b", Some(Duration::from_millis(1)), move |_run| {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            })
        };
        while svc.queued() < 1 {
            std::thread::yield_now();
        }
        // Let the 1 ms deadline age out while the job sits in the queue.
        std::thread::sleep(Duration::from_millis(10));
        release.wait();
        blocker.join().unwrap();
        assert_eq!(
            doomed.join().unwrap(),
            Err(AdmissionError::DeadlineExceeded)
        );
        assert_eq!(ran.load(Ordering::SeqCst), 0, "shed job must never run");
        assert_eq!(
            svc.shared
                .metrics
                .counter_value("server.jobs.shed_deadline"),
            1
        );
    }

    /// A panicking job is contained: the submitter gets a typed error,
    /// the worker thread survives, and the next job runs normally.
    #[test]
    fn a_panicking_job_does_not_kill_its_worker_or_hang_its_submitter() {
        let svc = service(1, 4, 4);
        let err = svc
            .submit("t", || -> i32 { panic!("poisoned job") })
            .unwrap_err();
        assert!(
            matches!(&err, AdmissionError::JobPanicked { message } if message.contains("poisoned")),
            "{err:?}"
        );
        // Same (sole) worker thread still serves jobs.
        assert_eq!(svc.submit("t", || 7).unwrap(), 7);
        assert_eq!(svc.inflight("t"), 0);
    }

    /// cancel_job trips exactly the addressed tenant's job token, once.
    #[test]
    fn cancel_job_is_tenant_scoped_and_idempotent() {
        let svc = Arc::new(service(1, 4, 4));
        let gate = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let running = {
            let (svc, gate, release) = (svc.clone(), gate.clone(), release.clone());
            std::thread::spawn(move || {
                svc.submit_job("a", None, move |run| {
                    gate.wait();
                    release.wait();
                    run.cancel.is_cancelled()
                })
                .unwrap()
            })
        };
        gate.wait();
        let ids = svc.inflight_ids("a");
        assert_eq!(ids.len(), 1);
        let id = ids[0];
        // Wrong tenant: no effect.
        assert!(!svc.cancel_job("b", id, CancelReason::Explicit));
        // Right tenant: trips once, idempotent after.
        assert!(svc.cancel_job("a", id, CancelReason::Explicit));
        assert!(!svc.cancel_job("a", id, CancelReason::Explicit));
        assert_eq!(svc.shared.metrics.counter_value("server.jobs.cancelled"), 1);
        release.wait();
        assert!(running.join().unwrap(), "job observed its tripped token");
        // The registry entry dies with the job.
        assert!(svc.inflight_ids("a").is_empty());
    }
}
