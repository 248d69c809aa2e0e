//! The TCP server: sessions, statement caching, and lifecycle.
//!
//! One [`RheemServer`] owns a single shared execution substrate — one
//! [`rheem_core::Observability`] hub (metrics + cost calibration), one
//! [`rheem_core::PlanCache`], one [`FairShareScheduler`], one
//! [`JobService`] worker pool — and any number of client sessions on top.
//!
//! Each session gets:
//!
//! * its own `QueryCatalog` (tables registered by one client are invisible
//!   to every other client);
//! * a *statement cache* mapping SQL text to its planned query, so a
//!   repeated statement skips parsing and planning. SQL lowers to fully
//!   declarative plans (expressions, field keys, aggregate specs), so their
//!   fingerprints are transparent and equal statements over equally sized
//!   tables share one plan-cache entry server-wide (scope 0). The statement
//!   cache is cleared whenever the session re-registers a table, since the
//!   old plans capture the old data;
//! * a unique cache scope, so opaque (closure-identity) plan-cache entries
//!   — which only hand-built plans produce — are never shared across
//!   sessions;
//! * a [`scheduler::JobGate`](crate::scheduler::JobGate) tying every wave
//!   of its jobs into the server-wide fair-share scheduler.
//!
//! Sessions do not attach trace sinks: the core's `JobTrace` is per-job
//! state on the shared hub, and the metrics path is atomics-only, which is
//! what makes concurrent jobs on one hub safe (see DESIGN.md §13).

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rheem_core::query::{PlannedQuery, QueryCatalog};
use rheem_core::{CancelReason, Observability, PlanCache, PlanCacheConfig, RheemContext};

use crate::protocol::{read_frame, write_frame, Request, Response, WireError, WireResult};
use crate::scheduler::{FairShareScheduler, JobGate};
use crate::service::{JobService, ServiceConfig};

/// How often a session blocked on a job result re-checks the client
/// socket for a hang-up (and the job for completion).
const DISCONNECT_POLL: Duration = Duration::from_millis(25);

/// Per-read socket timeout for sessions with an idle timeout configured.
/// Reads tick at this granularity so idleness can be judged at frame
/// boundaries (time waiting for a request to *start*) instead of riding
/// on individual `read()` calls — a slow client mid-frame stays alive.
const READ_TICK: Duration = Duration::from_millis(25);

/// Knobs for [`RheemServer::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Admission control and worker pool sizing.
    pub service: ServiceConfig,
    /// Concurrent wave slots shared by all jobs (fair-share granularity).
    pub wave_slots: usize,
    /// Plan cache sizing and drift threshold.
    pub cache: PlanCacheConfig,
    /// Evict a session after this long without a request *starting*
    /// (`None` keeps idle sessions forever). Idleness is judged at frame
    /// boundaries only: a slow client still trickling in the bytes of a
    /// request frame is active, never idle. Evictions are counted under
    /// `server.sessions.idle_evicted`.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig::default(),
            wave_slots: 2,
            cache: PlanCacheConfig::default(),
            idle_timeout: Some(Duration::from_secs(300)),
        }
    }
}

struct ServerShared {
    /// Template context: every session clones this and re-scopes it.
    base: RheemContext,
    observability: Arc<Observability>,
    plan_cache: Arc<PlanCache>,
    scheduler: Arc<FairShareScheduler>,
    service: JobService,
    /// Next session cache scope; 0 is reserved for transparent
    /// (fully declarative) fingerprints shared server-wide.
    next_scope: AtomicU64,
    idle_timeout: Option<Duration>,
    shutdown: AtomicBool,
    /// Clones of live session streams, so shutdown can unblock their reads.
    session_streams: Mutex<Vec<TcpStream>>,
}

/// The long-running multi-tenant job server.
pub struct RheemServer;

/// Handle to a started server: address, shared components, shutdown.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    addr: std::net::SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    session_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl RheemServer {
    /// Bind `config.addr`, start the accept loop, and return a handle.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let observability = Arc::new(Observability::new());
        let plan_cache = Arc::new(PlanCache::new(config.cache));
        let scheduler = FairShareScheduler::new(config.wave_slots);
        let service = JobService::start(config.service.clone(), observability.metrics().clone());
        let base = rheem_platforms::full_context().with_observability(observability.clone());
        let shared = Arc::new(ServerShared {
            base,
            observability,
            plan_cache,
            scheduler,
            service,
            next_scope: AtomicU64::new(1),
            idle_timeout: config.idle_timeout,
            shutdown: AtomicBool::new(false),
            session_streams: Mutex::new(Vec::new()),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let session_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = shared.clone();
        let accept_sessions = session_threads.clone();
        let accept_thread = std::thread::Builder::new()
            .name("rheem-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = accept_shared.clone();
                    let handle = std::thread::Builder::new()
                        .name("rheem-session".to_string())
                        .spawn(move || {
                            let _ = run_session(&shared, stream);
                        })
                        .expect("spawn session thread");
                    accept_sessions.lock().push(handle);
                }
            })?;

        Ok(ServerHandle {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            session_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address clients should connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared observability hub (metrics + calibration).
    pub fn observability(&self) -> &Arc<Observability> {
        &self.shared.observability
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.plan_cache
    }

    /// The shared fair-share wave scheduler (grant log lives here).
    pub fn scheduler(&self) -> &Arc<FairShareScheduler> {
        &self.shared.scheduler
    }

    /// Stop accepting connections, close live sessions, drain the worker
    /// pool, and join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocked accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Cancel every in-flight job *first*: sessions blocked on a job
        // result unblock at the job's next cancellation checkpoint, so
        // joining them below is bounded instead of waiting out whatever
        // the jobs were doing.
        self.shared.service.cancel_all(CancelReason::Shutdown);
        // Unblock session reads, then join the session threads.
        for stream in self.shared.session_streams.lock().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for t in self.session_threads.lock().drain(..) {
            let _ = t.join();
        }
        // Finally drain the pool, bounded by the service's drain grace.
        self.shared.service.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One session: HELLO, then a request/response loop until GOODBYE, EOF,
/// or the idle timeout evicts it.
fn run_session(shared: &ServerShared, mut stream: TcpStream) -> WireResult<()> {
    shared
        .session_streams
        .lock()
        .push(stream.try_clone().map_err(WireError::Io)?);
    // Reads tick at `READ_TICK` so [`read_frame_idle`] can tell "no
    // request started within the idle timeout" (idleness, judged at frame
    // boundaries) from "slow peer mid-frame" (activity — never evicted).
    // Without an idle timeout, reads block indefinitely.
    if let Some(idle) = shared.idle_timeout {
        stream
            .set_read_timeout(Some(READ_TICK.min(idle)))
            .map_err(WireError::Io)?;
    }

    // First frame must be HELLO.
    let body = match read_frame_idle(&mut stream, shared.idle_timeout)? {
        SessionRead::Frame(body) => body,
        SessionRead::Eof => return Ok(()),
        SessionRead::Idle => {
            evict_idle(shared, &mut stream);
            return Ok(());
        }
    };
    let tenant = match Request::decode(&body)? {
        Request::Hello { tenant } if !tenant.is_empty() => tenant,
        _ => {
            let resp = Response::Err {
                message: "expected HELLO with a non-empty tenant".into(),
            };
            write_frame(&mut stream, &resp.encode())?;
            return Ok(());
        }
    };
    write_frame(&mut stream, &Response::Ok.encode())?;

    let scope = shared.next_scope.fetch_add(1, Ordering::Relaxed);
    let gate = shared.scheduler.gate(&tenant);
    let ctx = shared
        .base
        .clone()
        .with_plan_cache(shared.plan_cache.clone())
        .with_cache_scope(scope)
        .with_wave_gate(gate.clone());
    let mut catalog = QueryCatalog::new();
    let mut statements: HashMap<String, Arc<PlannedQuery>> = HashMap::new();

    loop {
        let body = match read_frame_idle(&mut stream, shared.idle_timeout)? {
            SessionRead::Frame(body) => body,
            SessionRead::Eof => break,
            SessionRead::Idle => {
                // Idle session: no request *started* within the timeout.
                evict_idle(shared, &mut stream);
                break;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let response = match Request::decode(&body)? {
            Request::Hello { .. } => Response::Err {
                message: "session already open".into(),
            },
            Request::Register { name, schema, rows } => {
                catalog.register(name, schema, rows);
                // Cached statements captured the replaced table's data.
                statements.clear();
                Response::Ok
            }
            Request::Query { sql, deadline_ms } => handle_query(
                shared,
                &tenant,
                &ctx,
                &gate,
                &stream,
                &catalog,
                &mut statements,
                &sql,
                deadline_ms,
            ),
            Request::Cancel { job } => {
                // Cancels land from a *second* session of the same tenant
                // (a session is blocked while its own query runs). Job 0
                // means "everything of mine"; idempotent either way.
                if job == 0 {
                    shared
                        .service
                        .cancel_tenant(&tenant, CancelReason::Explicit);
                } else {
                    shared
                        .service
                        .cancel_job(&tenant, job, CancelReason::Explicit);
                }
                Response::Ok
            }
            Request::Stats => Response::Stats {
                text: render_stats(shared, &tenant),
            },
            Request::Goodbye => {
                write_frame(&mut stream, &Response::Ok.encode())?;
                break;
            }
        };
        write_frame(&mut stream, &response.encode())?;
    }
    Ok(())
}

/// Outcome of one idle-aware frame read ([`read_frame_idle`]).
enum SessionRead {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary: the peer hung up between messages.
    Eof,
    /// No frame started within the session's idle timeout.
    Idle,
}

/// `true` for the error kinds a timed-out socket read surfaces
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one frame, attributing read timeouts correctly: a timeout while
/// waiting for a frame's *first byte* counts toward `idle` (the session is
/// between requests), while a timeout once any byte of the frame has
/// arrived means a slow-but-active peer mid-request — the read just
/// continues. The stream's per-read timeout must already be set to
/// [`READ_TICK`] (see `run_session`); with `idle == None` reads block and
/// this is plain [`read_frame`].
fn read_frame_idle(stream: &mut TcpStream, idle: Option<Duration>) -> WireResult<SessionRead> {
    use std::io::Read;

    let Some(idle) = idle else {
        return Ok(match read_frame(stream)? {
            Some(body) => SessionRead::Frame(body),
            None => SessionRead::Eof,
        });
    };
    let boundary = std::time::Instant::now();
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(SessionRead::Eof),
            Ok(0) => return Err(WireError::Malformed("EOF inside length prefix".into())),
            Ok(n) => filled += n,
            Err(e) if is_read_timeout(&e) => {
                if filled == 0 && boundary.elapsed() >= idle {
                    return Ok(SessionRead::Idle);
                }
                // Mid-frame (or boundary wait not yet over): keep reading.
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > crate::protocol::MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "declared frame of {len} bytes exceeds MAX_FRAME"
        )));
    }
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match stream.read(&mut body[got..]) {
            Ok(0) => return Err(WireError::Malformed("EOF inside frame body".into())),
            Ok(n) => got += n,
            Err(e) if is_read_timeout(&e) => {} // mid-frame stall: slow, not idle
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(SessionRead::Frame(body))
}

/// Count an idle eviction and tell the client why (best-effort: the
/// write is at a response boundary — the evicted session has no request
/// in flight — but the peer may already be gone).
fn evict_idle(shared: &ServerShared, stream: &mut TcpStream) {
    shared
        .observability
        .metrics()
        .counter("server.sessions.idle_evicted")
        .inc();
    let resp = Response::Err {
        message: "session evicted: idle timeout".into(),
    };
    let _ = write_frame(stream, &resp.encode());
}

/// Drop guard that removes the cancel token installed on a session's
/// [`JobGate`] for the duration of one job. Clearing must survive the job
/// closure panicking (the worker pool catches the unwind at its boundary,
/// skipping any code after the job body), so it rides on `Drop`.
struct ClearGateCancel<'a>(&'a JobGate);

impl Drop for ClearGateCancel<'_> {
    fn drop(&mut self) {
        self.0.set_cancel(None);
    }
}

/// `true` when the client side of `stream` has hung up (EOF on a
/// non-blocking peek). `WouldBlock` means the client is alive but quiet.
fn client_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Plan (or reuse) and execute one query through admission control.
///
/// The session thread polls the job handle instead of blocking blindly:
/// between polls it peeks the client socket, and on a hang-up cancels
/// the job with [`CancelReason::ClientDisconnect`] — a dead client's
/// query stops costing workers within one wave and one morsel.
#[allow(clippy::too_many_arguments)]
fn handle_query(
    shared: &ServerShared,
    tenant: &str,
    ctx: &RheemContext,
    gate: &Arc<JobGate>,
    stream: &TcpStream,
    catalog: &QueryCatalog,
    statements: &mut HashMap<String, Arc<PlannedQuery>>,
    sql: &str,
    deadline_ms: Option<u64>,
) -> Response {
    let planned = match statements.get(sql) {
        Some(p) => p.clone(),
        None => match catalog.plan(sql) {
            Ok(p) => {
                let p = Arc::new(p);
                statements.insert(sql.to_string(), p.clone());
                p
            }
            Err(e) => {
                return Response::Err {
                    message: format!("planning failed: {e}"),
                }
            }
        },
    };
    let job_ctx = ctx.clone();
    let job_planned = planned.clone();
    let job_gate = gate.clone();
    let deadline = deadline_ms.map(Duration::from_millis);
    let submitted = shared.service.submit_handle(tenant, deadline, move |run| {
        // Tie this job's token into the wave gate (so a cancelled job
        // stops waiting for wave slots) and the context (so the executor,
        // interpreter, and kernels all observe it). The remaining budget
        // — queue wait already deducted — becomes the executor timeout.
        job_gate.set_cancel(Some(run.cancel.clone()));
        // Clear the gate on *every* exit, including a panic unwinding to
        // the pool's `catch_unwind`: a dead job's token left installed
        // could be tripped later (e.g. a tenant-wide cancel) and stall
        // the session's next query's wave-slot waits on a stale token.
        let _clear_gate = ClearGateCancel(&job_gate);
        let mut job_ctx = job_ctx.with_cancel_token(run.cancel.clone());
        if let Some(remaining) = run.remaining {
            job_ctx = job_ctx.with_timeout(remaining);
        }
        let mut job = job_ctx.execute_logical(&job_planned.logical)?;
        // Take the sink dataset out of the job: uniquely owned rows move,
        // and a chunk-built result is materialized here, once.
        let rows = job
            .outputs
            .remove(&job_planned.sink)
            .map(|d| d.into_records())
            .unwrap_or_default();
        Ok::<_, rheem_core::RheemError>(rows)
    });
    let handle = match submitted {
        Ok(handle) => handle,
        Err(admission) => {
            return Response::Err {
                message: format!("rejected: {admission}"),
            }
        }
    };
    let mut hung_up = false;
    let result = loop {
        if let Some(result) = handle.wait_timeout(DISCONNECT_POLL) {
            break result;
        }
        if !hung_up && client_disconnected(stream) {
            hung_up = true;
            shared
                .service
                .cancel_job(tenant, handle.id(), CancelReason::ClientDisconnect);
            // Keep waiting: the job unwinds through its next checkpoint
            // and the rendezvous completes; only then is it safe to
            // return (the response write will fail harmlessly).
        }
    };
    match result {
        Err(admission) => Response::Err {
            message: format!("rejected: {admission}"),
        },
        Ok(Err(exec)) => Response::Err {
            message: format!("execution failed: {exec}"),
        },
        Ok(Ok(rows)) => Response::Rows {
            schema: planned.schema.clone(),
            rows,
        },
    }
}

/// Render the shared metrics registry plus cache and scheduler gauges,
/// and the requesting tenant's live job ids (for `CANCEL` addressing).
fn render_stats(shared: &ServerShared, tenant: &str) -> String {
    let mut text = shared.observability.metrics().snapshot().render();
    let cache = shared.plan_cache.stats();
    text.push_str(&format!(
        "plan_cache hits={} misses={} invalidations={} entries={}\n",
        cache.hits, cache.misses, cache.invalidations, cache.entries
    ));
    text.push_str(&format!(
        "scheduler grants={} waiting={}\n",
        shared.scheduler.total_grants(),
        shared.scheduler.waiting_jobs()
    ));
    let ids: Vec<String> = shared
        .service
        .inflight_ids(tenant)
        .into_iter()
        .map(|id| id.to_string())
        .collect();
    text.push_str(&format!(
        "server.tenant.{tenant}.inflight_ids [{}]\n",
        ids.join(",")
    ));
    text
}
