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
//!   tables share one plan-cache entry server-wide. The statement
//!   cache is cleared whenever the session re-registers a table, since the
//!   old plans capture the old data, and holds at most
//!   `MAX_SESSION_STATEMENTS` plans (oldest out first), so a client that
//!   inlines literals cannot grow it without limit;
//! * a [`scheduler::JobGate`](crate::scheduler::JobGate) tying every wave
//!   of its jobs into the server-wide fair-share scheduler.
//!
//! A table arrives as it will be computed on: the session decodes a
//! `REGISTER` frame as its bytes arrive, through a fixed window, straight
//! into one column builder per schema column ([`read_incoming`]), and the
//! catalog holds the resulting chunk — once, and never as rows. A frame with
//! a row not as wide as its schema is malformed and ends the session, as any
//! malformed frame does. What a session may hold is bounded
//! (`MAX_SESSION_TABLES`), and so is what a tenant's sessions hold between
//! them (`MAX_TENANT_TABLE_BYTES`); an over-quota `REGISTER` is refused with
//! an error and the session goes on.
//! `server.registered_bytes` is the server-wide total, and falls back when a
//! session ends.
//!
//! A query's result leaves as it was computed: the job hands the session its
//! sink [`Dataset`], and a [`ResultFrame`] sizes the response from the chunk
//! the columnar kernels built, then encodes it onto the socket a 1 MiB slice
//! at a time — no row is materialized and no whole frame is held on the way
//! out. `server.result.path.{columnar,row}` count which view each result
//! left by. A result larger than a frame is refused from its size alone,
//! before a byte is encoded: it is answered with an error naming its size and
//! `MAX_FRAME`, and the session goes on.
//!
//! Every response is one write when it fits a slice, its length prefix at
//! the front ([`write_body`]), and every accepted socket has `TCP_NODELAY`
//! set before its first frame is read, so neither a response nor the last
//! slice of a large one waits for the peer's delayed ACK (≈ 40 ms on Linux).
//! What a request costs *inside* the server is clocked by the session
//! itself, from the moment its length prefix is complete to the moment its
//! response's last slice is written: `server.request_us`, and beside it the
//! seven stages that tile that interval, `server.stage.{read, decode, plan,
//! queue_wait, run, encode, write}_us` (the `Stage` enum) — `read` is the
//! wait for a body its client sends after its prefix. `STATS` renders them,
//! so wire latency a client measures can be set against the server's own
//! share of it.
//!
//! Every session's jobs report into one shared `Observability` hub. It holds
//! no per-job state and its metrics path is atomics-only, which is what
//! makes concurrent jobs on one hub safe; a job's own record is the
//! `ExecutionStats` it returns (see DESIGN.md §8).

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rheem_core::query::{PlannedQuery, QueryCatalog};
use rheem_core::{
    CancelReason, Counter, Dataset, Gauge, Histogram, MetricsRegistry, Observability, PlanCache,
    PlanCacheConfig, RheemContext,
};

use crate::protocol::{
    read_frame_into, read_incoming, write_body, FrameRead, Incoming, Registration, Request,
    Response, ResultFrame, ResultPath, WireError, WireResult,
};
use crate::scheduler::{FairShareScheduler, JobGate};
use crate::service::{JobService, ServiceConfig};

/// How often a session blocked on a job result re-checks the client
/// socket for a hang-up (and the job for completion).
const DISCONNECT_POLL: Duration = Duration::from_millis(25);

/// Most planned statements one session keeps. Plans are small, but SQL texts
/// are the client's to choose, so the cache must not grow with them.
const MAX_SESSION_STATEMENTS: usize = 256;

/// Most tables one session may have registered at a time.
const MAX_SESSION_TABLES: usize = 64;

/// Most bytes the registered tables of one tenant's live sessions may hold
/// between them ([`Dataset::resident_bytes`]), however many sessions it
/// opens: room for a dozen and more tables of the largest frame a client can
/// send ([`crate::protocol::MAX_FRAME`], ≈ 13 MiB as a chunk of numbers),
/// and a bound on what a frame of values that cost more in memory than on
/// the wire can pin.
const MAX_TENANT_TABLE_BYTES: usize = 256 << 20;

/// Per-read socket timeout for sessions with an idle timeout configured.
/// Reads tick at this granularity so idleness can be judged at frame
/// boundaries (time waiting for a request to *start*) instead of riding
/// on individual `read()` calls — a slow client mid-frame stays alive.
const READ_TICK: Duration = Duration::from_millis(25);

/// Concurrent wave slots shared by all jobs (fair-share granularity). A job
/// holds at most one at a time, and the default pool runs 2 jobs at once
/// (`ServiceConfig::workers`), so with the default pool no wave ever waits
/// for a slot: the grant order is the order the jobs' waves arrive in.
const WAVE_SLOTS: usize = 2;

/// Knobs for [`RheemServer::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Admission control and worker pool sizing.
    pub service: ServiceConfig,
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
            cache: PlanCacheConfig::default(),
            idle_timeout: Some(Duration::from_secs(300)),
        }
    }
}

struct ServerShared {
    /// Template context: every session clones this and adds the shared
    /// plan cache and its own wave gate.
    base: RheemContext,
    observability: Arc<Observability>,
    plan_cache: Arc<PlanCache>,
    scheduler: Arc<FairShareScheduler>,
    service: JobService,
    /// `server.result.path.columnar` / `.row`: results encoded from the
    /// sink's chunk / from its rows (registered up front so `STATS` shows
    /// a zero).
    result_columnar: Arc<Counter>,
    result_row: Arc<Counter>,
    /// `server.registered_bytes`: what the registered tables of all live
    /// sessions hold.
    registered_bytes: Arc<Gauge>,
    /// What the registered tables of each tenant's live sessions hold, by
    /// tenant; a tenant holding nothing has no entry.
    tenant_bytes: Mutex<HashMap<String, usize>>,
    /// `server.session.statements_evicted`: plans dropped from session
    /// statement caches at [`MAX_SESSION_STATEMENTS`].
    statements_evicted: Arc<Counter>,
    /// `server.request_us` and `server.stage.*_us`.
    request_clocks: RequestHistograms,
    idle_timeout: Option<Duration>,
    shutdown: AtomicBool,
    /// A clone of every live session's stream by session id, so shutdown can
    /// unblock their reads. The accept loop puts a clone in before it spawns
    /// the session's thread; [`ReleaseStream`] takes it out when the session
    /// ends, however it ends — a clone left here would keep the socket open,
    /// and the peer would never see a FIN.
    session_streams: Mutex<HashMap<u64, TcpStream>>,
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
        Self::start_with_context(config, rheem_platforms::full_context())
    }

    /// [`RheemServer::start`] over a caller-built context — its platforms,
    /// and whether one of them is forced — instead of
    /// [`rheem_platforms::full_context`]. The server attaches its own
    /// observability hub to it.
    pub fn start_with_context(
        config: ServerConfig,
        base: RheemContext,
    ) -> std::io::Result<ServerHandle> {
        let observability = Arc::new(Observability::new());
        let plan_cache = Arc::new(PlanCache::new(config.cache));
        let scheduler = FairShareScheduler::new(WAVE_SLOTS);
        let service = JobService::start(config.service.clone(), observability.metrics().clone());
        let base = base.with_observability(observability.clone());
        let metrics = observability.metrics();
        let result_columnar = metrics.counter("server.result.path.columnar");
        let result_row = metrics.counter("server.result.path.row");
        let registered_bytes = metrics.gauge("server.registered_bytes");
        let statements_evicted = metrics.counter("server.session.statements_evicted");
        let request_clocks = RequestHistograms::new(metrics);
        let shared = Arc::new(ServerShared {
            base,
            observability,
            plan_cache,
            scheduler,
            service,
            result_columnar,
            result_row,
            registered_bytes,
            tenant_bytes: Mutex::new(HashMap::new()),
            statements_evicted,
            request_clocks,
            idle_timeout: config.idle_timeout,
            shutdown: AtomicBool::new(false),
            session_streams: Mutex::new(HashMap::new()),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let session_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = shared.clone();
        let accept_sessions = session_threads.clone();
        let accept_thread = std::thread::Builder::new()
            .name("rheem-accept".to_string())
            .spawn(move || {
                for (session, stream) in (0u64..).zip(listener.incoming()) {
                    if accept_shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // No clone (out of descriptors), no session: shutdown
                    // could not unblock its reads.
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    accept_shared.session_streams.lock().insert(session, clone);
                    let shared = accept_shared.clone();
                    let handle = std::thread::Builder::new()
                        .name("rheem-session".to_string())
                        .spawn(move || {
                            let _release = ReleaseStream {
                                shared: &shared,
                                session,
                            };
                            let _ = run_session(&shared, stream);
                        })
                        .expect("spawn session thread");
                    let mut sessions = accept_sessions.lock();
                    join_finished(&mut sessions);
                    sessions.push(handle);
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
        // Unblock session reads and let go of the clones, then join the
        // session threads.
        for (_, stream) in self.shared.session_streams.lock().drain() {
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

/// Takes a session's stream clone out of [`ServerShared::session_streams`]
/// when the session's thread ends — by GOODBYE, EOF, eviction, a wire error
/// or a panic alike.
struct ReleaseStream<'a> {
    shared: &'a ServerShared,
    session: u64,
}

impl Drop for ReleaseStream<'_> {
    fn drop(&mut self) {
        self.shared.session_streams.lock().remove(&self.session);
    }
}

/// Join the session threads that have ended, so a long-running server holds
/// handles of live sessions only (called per accepted connection; shutdown
/// joins the rest).
fn join_finished(sessions: &mut Vec<std::thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < sessions.len() {
        if sessions[i].is_finished() {
            let _ = sessions.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// The stages that tile a request's time in the session, in the order a
/// query passes them. The time up to a [`RequestClock::lap`] belongs to the
/// stage it names; a stage a request does not pass is recorded as 0, so all
/// seven histograms count every request and their sums add up to
/// `server.request_us`'s.
#[derive(Clone, Copy)]
enum Stage {
    /// Length prefix complete → body in hand: a body the peer is slow to
    /// send is waited for here. A `REGISTER`'s: prefix → opcode byte.
    Read,
    /// Request body → request decoded. A `REGISTER` is decoded as it
    /// arrives: from its opcode byte to its table received and decoded into
    /// the chunk the catalog will hold.
    Decode,
    /// Statement-cache lookup; on a miss, SQL parse, bind and logical plan.
    Plan,
    /// Admission, the queue, and a pool worker picking the job up.
    QueueWait,
    /// The job on its worker — optimize (cold, or a plan-cache hit) and
    /// execute — and the session waking up to its result. For requests
    /// without a job: the request's own work (catalog insert, stats render,
    /// cancel).
    Run,
    /// Response body encoded; for a query's result, its frame sized.
    Encode,
    /// The response's last slice is in the socket's send buffer.
    Write,
}

const STAGE_NAMES: [&str; 7] = [
    "read",
    "decode",
    "plan",
    "queue_wait",
    "run",
    "encode",
    "write",
];

/// Upper bounds (microseconds) of the request and stage histograms: 1-2-5
/// steps from 10 µs to 10 s.
const REQUEST_US_BOUNDS: [u64; 19] = [
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
    500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// `server.request_us` and `server.stage.<stage>_us`, resolved once.
struct RequestHistograms {
    request: Arc<Histogram>,
    stages: [Arc<Histogram>; 7],
}

impl RequestHistograms {
    fn new(metrics: &MetricsRegistry) -> Self {
        RequestHistograms {
            request: metrics.histogram("server.request_us", &REQUEST_US_BOUNDS),
            stages: STAGE_NAMES.map(|stage| {
                metrics.histogram(&format!("server.stage.{stage}_us"), &REQUEST_US_BOUNDS)
            }),
        }
    }
}

/// One request's clock, started when its frame's length prefix is complete.
/// Stage times are differences of whole microseconds since the start, so
/// they add up to the request's time exactly.
struct RequestClock {
    start: Instant,
    /// Microseconds since `start` at the last lap.
    lapped_us: u64,
    stage_us: [u64; 7],
}

impl RequestClock {
    /// The clock of a request whose length prefix completed at `prefixed`
    /// and whose [`Stage::Read`] ended at `read`.
    fn read(prefixed: Instant, read: Instant) -> Self {
        let mut clock = RequestClock {
            start: prefixed,
            lapped_us: 0,
            stage_us: [0; 7],
        };
        clock.lap_at(Stage::Read, read);
        clock
    }

    /// Give `stage` the time since the last lap.
    fn lap(&mut self, stage: Stage) {
        self.lap_at(stage, Instant::now());
    }

    /// [`RequestClock::lap`] at an instant read elsewhere (a pool worker
    /// reads the one that ends a job's queue wait).
    fn lap_at(&mut self, stage: Stage, at: Instant) {
        let us = at.saturating_duration_since(self.start).as_micros() as u64;
        let us = us.max(self.lapped_us);
        self.stage_us[stage as usize] += us - self.lapped_us;
        self.lapped_us = us;
    }
}

/// What a request is answered with.
enum Reply {
    /// A response body, encoded.
    Body(Vec<u8>),
    /// A query's result: its plan (for the schema) and the job's sink
    /// dataset, to be written straight to the socket from the view it has.
    Rows(Arc<PlannedQuery>, Dataset),
}

/// Write a request's response and record the request: the time since the
/// clock's last lap is the response's encoding — a result's is its size
/// pass, for it is encoded only as its slices leave — and its write, to the
/// last slice, is clocked here. `tenant` is the session's
/// `server.tenant.<t>.request_us`, once it has one.
fn respond(
    shared: &ServerShared,
    stream: &mut TcpStream,
    reply: Reply,
    mut clock: RequestClock,
    tenant: Option<&Histogram>,
) -> WireResult<()> {
    let body = match reply {
        Reply::Body(body) => Some(body),
        Reply::Rows(planned, sink) => match ResultFrame::new(&planned.schema, &sink) {
            Ok(frame) => {
                clock.lap(Stage::Encode);
                match frame.path() {
                    ResultPath::Columnar => shared.result_columnar.inc(),
                    ResultPath::Row => shared.result_row.inc(),
                }
                frame.write(stream)?;
                None
            }
            // Larger than a frame: the session answers and goes on.
            Err(message) => Some(Response::Err { message }.encode()),
        },
    };
    if let Some(body) = body {
        clock.lap(Stage::Encode);
        write_body(stream, &body)?;
    }
    clock.lap(Stage::Write);
    let clocks = &shared.request_clocks;
    for (histogram, us) in clocks.stages.iter().zip(clock.stage_us) {
        histogram.record(us);
    }
    clocks.request.record(clock.lapped_us);
    if let Some(tenant) = tenant {
        tenant.record(clock.lapped_us);
    }
    Ok(())
}

/// One session: HELLO, then a request/response loop until GOODBYE, EOF,
/// or the idle timeout evicts it.
fn run_session(shared: &ServerShared, mut stream: TcpStream) -> WireResult<()> {
    // Before the first frame is read: no slice of this session's responses
    // may sit in the kernel waiting for the peer's delayed ACK of the last.
    stream.set_nodelay(true).map_err(WireError::Io)?;
    // Reads tick at `READ_TICK` so `read_frame_into` can tell "no
    // request started within the idle timeout" (idleness, judged at frame
    // boundaries) from "slow peer mid-frame" (activity — never evicted).
    // Without an idle timeout, reads block indefinitely.
    if let Some(idle) = shared.idle_timeout {
        stream
            .set_read_timeout(Some(READ_TICK.min(idle)))
            .map_err(WireError::Io)?;
    }

    // First frame must be HELLO.
    let mut body = Vec::new();
    let prefixed = match read_frame_into(&mut stream, shared.idle_timeout, &mut body)? {
        FrameRead::Frame(prefixed) => prefixed,
        FrameRead::Eof => return Ok(()),
        FrameRead::Idle => {
            evict_idle(shared, &mut stream);
            return Ok(());
        }
    };
    let mut clock = RequestClock::read(prefixed, Instant::now());
    let hello = Request::decode(&body)?;
    clock.lap(Stage::Decode);
    let tenant = match hello {
        Request::Hello { tenant } if !tenant.is_empty() => tenant,
        _ => {
            let resp = Response::Err {
                message: "expected HELLO with a non-empty tenant".into(),
            };
            return respond(shared, &mut stream, Reply::Body(resp.encode()), clock, None);
        }
    };
    let tenant_request_us = shared.observability.metrics().histogram(
        &format!("server.tenant.{tenant}.request_us"),
        &REQUEST_US_BOUNDS,
    );
    let tenant_request_us = Some(&*tenant_request_us);
    let ok = Reply::Body(Response::Ok.encode());
    respond(shared, &mut stream, ok, clock, tenant_request_us)?;

    let gate = shared.scheduler.gate(&tenant);
    let ctx = shared
        .base
        .clone()
        .with_plan_cache(shared.plan_cache.clone())
        .with_wave_gate(gate.clone());
    let mut catalog = QueryCatalog::new();
    let mut tables = SessionTables::new(shared, &tenant);
    let mut statements = StatementCache::default();

    loop {
        // A fresh buffer per request: a kept one would pin the session's
        // largest frame for as long as the session lives. A REGISTER is not
        // held as a frame at all: it comes decoded, read through a window.
        let incoming = read_incoming(&mut stream, shared.idle_timeout)?;
        let mut clock = match &incoming {
            Incoming::Register {
                prefixed, opened, ..
            } => RequestClock::read(*prefixed, *opened),
            Incoming::Body { prefixed, .. } => RequestClock::read(*prefixed, Instant::now()),
            Incoming::Eof => break,
            Incoming::Idle => {
                // Idle session: no request *started* within the timeout.
                evict_idle(shared, &mut stream);
                break;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Every arm yields an encoded response body, but a query's result:
        // it is written straight from the job's sink dataset, never built as
        // a `Response` nor held as a frame.
        let mut goodbye = false;
        let reply = match incoming {
            Incoming::Register { table, .. } => {
                clock.lap(Stage::Decode);
                let reply = register_table(&mut catalog, &mut tables, &mut statements, table);
                clock.lap(Stage::Run);
                Reply::Body(reply)
            }
            Incoming::Body { body, .. } => {
                let request = Request::decode(&body)?;
                clock.lap(Stage::Decode);
                match request {
                    Request::Hello { .. } => Reply::Body(
                        Response::Err {
                            message: "session already open".into(),
                        }
                        .encode(),
                    ),
                    Request::Register { .. } => {
                        unreachable!("`read_incoming` takes every REGISTER")
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
                        &mut clock,
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
                        clock.lap(Stage::Run);
                        Reply::Body(Response::Ok.encode())
                    }
                    Request::Stats => {
                        let text = render_stats(shared, &tenant);
                        clock.lap(Stage::Run);
                        Reply::Body(Response::Stats { text }.encode())
                    }
                    Request::Goodbye => {
                        goodbye = true;
                        Reply::Body(Response::Ok.encode())
                    }
                }
            }
            Incoming::Eof | Incoming::Idle => unreachable!("the loop ended at the clock"),
        };
        respond(shared, &mut stream, reply, clock, tenant_request_us)?;
        if goodbye {
            break;
        }
    }
    Ok(())
}

/// Put a decoded table into the session's catalog if the session's quotas
/// allow it, and encode the response.
fn register_table(
    catalog: &mut QueryCatalog,
    tables: &mut SessionTables<'_>,
    statements: &mut StatementCache,
    table: Registration,
) -> Vec<u8> {
    let data = Dataset::from_chunk(table.data);
    if let Err(message) = tables.admit(&table.name, data.resident_bytes()) {
        return Response::Err { message }.encode();
    }
    catalog.register_dataset(table.name, table.schema, data);
    // Cached statements captured the replaced table's data.
    statements.clear();
    Response::Ok.encode()
}

/// What a session's registered tables hold, kept under the session's table
/// quota and its tenant's byte quota. The bytes are part of the tenant's
/// total and the server-wide gauge for as long as the session lives:
/// dropping this takes them out again, however the session ends.
struct SessionTables<'a> {
    /// Resident bytes by table name.
    tables: HashMap<String, usize>,
    /// The sum of `tables`.
    resident: usize,
    shared: &'a ServerShared,
    tenant: &'a str,
}

impl<'a> SessionTables<'a> {
    fn new(shared: &'a ServerShared, tenant: &'a str) -> Self {
        SessionTables {
            tables: HashMap::new(),
            resident: 0,
            shared,
            tenant,
        }
    }

    /// Account for a table of `bytes` registered as `name`, or say which
    /// quota refuses it. A table it replaces is released first, so a session
    /// at its limit can still re-register what it has.
    fn admit(&mut self, name: &str, bytes: usize) -> Result<(), String> {
        let replaced = self.tables.get(name).copied();
        if replaced.is_none() && self.tables.len() >= MAX_SESSION_TABLES {
            return Err(format!(
                "session table quota exceeded: {MAX_SESSION_TABLES} tables are registered"
            ));
        }
        let replaced = replaced.unwrap_or(0);
        let mut tenants = self.shared.tenant_bytes.lock();
        let held = tenants.get(self.tenant).map_or(0, |held| held - replaced);
        if bytes > MAX_TENANT_TABLE_BYTES - held {
            return Err(format!(
                "tenant byte quota exceeded: `{name}` holds {bytes} bytes and {} of \
                 {MAX_TENANT_TABLE_BYTES} are free to tenant `{}`'s sessions",
                MAX_TENANT_TABLE_BYTES - held,
                self.tenant
            ));
        }
        tenants.insert(self.tenant.to_string(), held + bytes);
        self.tables.insert(name.to_string(), bytes);
        self.resident = self.resident - replaced + bytes;
        self.shared.registered_bytes.sub(replaced as u64);
        self.shared.registered_bytes.add(bytes as u64);
        Ok(())
    }
}

impl Drop for SessionTables<'_> {
    fn drop(&mut self) {
        let mut tenants = self.shared.tenant_bytes.lock();
        if let Some(held) = tenants.get_mut(self.tenant) {
            *held = held.saturating_sub(self.resident);
            if *held == 0 {
                tenants.remove(self.tenant);
            }
        }
        self.shared.registered_bytes.sub(self.resident as u64);
    }
}

/// A session's planned statements by SQL text, at most
/// [`MAX_SESSION_STATEMENTS`] of them: planning one more drops the oldest.
/// A dropped statement is simply planned again when it comes back — SQL
/// plans fingerprint transparently, so it still finds its plan-cache entry.
#[derive(Default)]
struct StatementCache {
    plans: HashMap<Arc<str>, Arc<PlannedQuery>>,
    /// The keys of `plans`, oldest first.
    order: VecDeque<Arc<str>>,
}

impl StatementCache {
    /// The plan of `sql`, planned against `catalog` on a miss; `evicted`
    /// counts every statement dropped to make room.
    fn get_or_plan(
        &mut self,
        catalog: &QueryCatalog,
        sql: &str,
        evicted: &Counter,
    ) -> rheem_core::Result<Arc<PlannedQuery>> {
        if let Some(planned) = self.plans.get(sql) {
            return Ok(planned.clone());
        }
        let planned = Arc::new(catalog.plan(sql)?);
        while self.plans.len() >= MAX_SESSION_STATEMENTS {
            let oldest = self.order.pop_front().expect("one key per plan");
            self.plans.remove(&oldest);
            evicted.inc();
        }
        let sql: Arc<str> = Arc::from(sql);
        self.order.push_back(sql.clone());
        self.plans.insert(sql, planned.clone());
        Ok(planned)
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.order.clear();
    }
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
    let _ = write_body(stream, &resp.encode());
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

/// Plan (or reuse) and execute one query through admission control, and
/// hand back its sink to write, or an error's encoded body.
///
/// The session thread polls the job handle instead of blocking blindly:
/// between polls it peeks the client socket, and on a hang-up cancels
/// the job with [`CancelReason::ClientDisconnect`] — a dead client's
/// query stops costing workers within one wave and one row.
#[allow(clippy::too_many_arguments)]
fn handle_query(
    shared: &ServerShared,
    tenant: &str,
    ctx: &RheemContext,
    gate: &Arc<JobGate>,
    stream: &TcpStream,
    catalog: &QueryCatalog,
    statements: &mut StatementCache,
    sql: &str,
    deadline_ms: Option<u64>,
    clock: &mut RequestClock,
) -> Reply {
    let error = |message: String| Reply::Body(Response::Err { message }.encode());
    let planned = statements.get_or_plan(catalog, sql, &shared.statements_evicted);
    clock.lap(Stage::Plan);
    let planned = match planned {
        Ok(planned) => planned,
        Err(e) => return error(format!("planning failed: {e}")),
    };
    let job_ctx = ctx.clone();
    let job_planned = planned.clone();
    let job_gate = gate.clone();
    let deadline = deadline_ms.map(Duration::from_millis);
    let submitted = shared.service.submit_handle(tenant, deadline, move |run| {
        // Where the job's queue wait ends and its run begins.
        let picked_up = Instant::now();
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
        // The sink dataset itself, in whichever view the last operator
        // built: the session encodes from that view.
        let sink: rheem_core::Result<Dataset> = job_ctx
            .execute_logical(&job_planned.logical)
            .map(|mut job| job.outputs.remove(&job_planned.sink).unwrap_or_default());
        (picked_up, sink)
    });
    let handle = match submitted {
        Ok(handle) => handle,
        Err(admission) => {
            clock.lap(Stage::QueueWait);
            return error(format!("rejected: {admission}"));
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
    // A job that never ran (shed on its deadline in the queue) only waited.
    let (picked_up, sink) = match result {
        Ok(ran) => ran,
        Err(admission) => {
            clock.lap(Stage::QueueWait);
            return error(format!("rejected: {admission}"));
        }
    };
    clock.lap_at(Stage::QueueWait, picked_up);
    clock.lap(Stage::Run);
    match sink {
        Err(exec) => error(format!("execution failed: {exec}")),
        Ok(sink) => Reply::Rows(planned, sink),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::{DataType, Record, Schema, Value};

    #[test]
    fn a_request_clock_gives_every_microsecond_to_exactly_one_stage() {
        let prefixed = Instant::now();
        let at = |us: u64| prefixed + Duration::from_micros(us);
        let mut clock = RequestClock::read(prefixed, at(60_000));
        let (decoded, picked_up, early, done) = (at(60_007), at(60_040), at(60_025), at(61_040));
        clock.lap_at(Stage::Decode, decoded);
        // Sub-microsecond remainders carry over to the next stage.
        clock.lap_at(Stage::Plan, decoded + Duration::from_nanos(900));
        clock.lap_at(Stage::QueueWait, picked_up);
        // An instant from before the last lap (another thread's) takes nothing.
        clock.lap_at(Stage::Encode, early);
        clock.lap_at(Stage::Run, done);
        assert_eq!(clock.stage_us, [60_000, 7, 0, 33, 1_000, 0, 0]);
        assert_eq!(clock.lapped_us, 61_040);
        assert_eq!(clock.stage_us.iter().sum::<u64>(), clock.lapped_us);
    }

    #[test]
    fn ended_session_threads_are_joined_and_live_ones_kept() {
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let mut sessions: Vec<std::thread::JoinHandle<()>> = (0..3)
            .map(|_| std::thread::spawn(|| {}))
            .chain([std::thread::spawn(move || {
                let _ = blocked.recv();
            })])
            .collect();
        while sessions.iter().filter(|t| t.is_finished()).count() < 3 {
            std::thread::yield_now();
        }
        join_finished(&mut sessions);
        assert_eq!(sessions.len(), 1);
        drop(release);
        sessions.pop().expect("the live one").join().expect("joins");
    }

    #[test]
    fn the_statement_cache_stays_under_its_cap_and_keeps_answering() {
        let mut catalog = QueryCatalog::new();
        catalog.register(
            "t",
            Schema::new(vec![("a", DataType::Int)]),
            (0..20).map(|a| Record::new(vec![Value::Int(a)])).collect(),
        );
        let ctx = rheem_platforms::full_context();
        let evicted = Counter::new();
        let mut cache = StatementCache::default();
        // A client that inlines its literals: every text is new.
        let statement = |i: usize| format!("SELECT a FROM t WHERE a < {i}");
        for i in 0..10 * MAX_SESSION_STATEMENTS {
            let planned = cache
                .get_or_plan(&catalog, &statement(i), &evicted)
                .expect("plans");
            assert!(cache.plans.len() <= MAX_SESSION_STATEMENTS);
            assert_eq!(cache.order.len(), cache.plans.len());
            let job = ctx.execute_logical(&planned.logical).expect("runs");
            assert_eq!(job.outputs[&planned.sink].len(), i.min(20));
        }
        assert_eq!(evicted.get(), 9 * MAX_SESSION_STATEMENTS as u64);
        // The newest statements are the ones kept, and a kept one is reused.
        let last = statement(10 * MAX_SESSION_STATEMENTS - 1);
        let kept = cache.plans[last.as_str()].clone();
        let again = cache.get_or_plan(&catalog, &last, &evicted).expect("hit");
        assert!(Arc::ptr_eq(&kept, &again));
        assert!(!cache.plans.contains_key(statement(0).as_str()));
        cache.clear();
        assert!(cache.plans.is_empty() && cache.order.is_empty());
    }
}
