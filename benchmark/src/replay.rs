//! Twin replay: the per-layer numbers of a traced run.
//!
//! The benchmark builds, in its own process, the catalog the server session
//! builds from the same REGISTERs, and times calls into each layer's public
//! functions on it — the calls the server makes for the same statement.
//! Nothing inside the program is instrumented (that is a later issue), so
//! what the replayed layers do not account for stays in the wire request's
//! self time, reported as `server.session_self_ms`.
//!
//! All times here are wall-clock. The platforms' simulated milliseconds are
//! reported in their own `sim_ms` columns and never added to wall time.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rheem_core::kernels::{self, chunked, parallel};
use rheem_core::logical::LogicalPayload;
use rheem_core::query::{parser, PlannedQuery};
use rheem_core::udf::{FilterUdf, KeyUdf, MapUdf};
use rheem_core::{
    Chunk, Expr, KernelParallelism, Observability, PlanCache, PlanCacheConfig, Record, WaveGate,
};
use rheem_server::protocol::{read_frame, write_frame, Request, Response};
use rheem_server::{FairShareScheduler, JobService, ServiceConfig};

use crate::stats::median;
use crate::verify::{self, Expected};
use crate::workload::{self, Kernel, Statement, Tables, FIVE};

/// Platforms of `rheem_platforms::full_context()` whose default
/// `OverheadConfig` sleeps (`mapreduce.rs`: `OverheadConfig::slept`;
/// sparklike and relational account their overheads without sleeping). Time
/// an atom spends there is simulated time inside a wall-clock figure.
const SLEEPING_PLATFORMS: &[&str] = &["mapreduce"];

/// Repetitions of one timed call: at least `MIN_REPS`, then until the
/// call's share of the replay budget is used, never more than `MAX_REPS`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;

/// Median microseconds of `call`, dropping its result outside the clock.
fn time_us<R>(budget: Duration, mut call: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_REPS && (samples.len() < MIN_REPS || started.elapsed() < budget) {
        let t = Instant::now();
        let result = call();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        drop(black_box(result));
    }
    median(&samples)
}

/// Per-statement numbers of the layers on a query's path.
pub struct StatementLayers {
    pub parse_us: f64,
    /// `QueryCatalog::plan`, which parses first: contains `parse_us`.
    pub plan_us: f64,
    pub optimizer_cold_us: f64,
    pub optimizer_cached_us: f64,
    pub execute_ms: f64,
    pub waves: usize,
    pub atoms: usize,
    pub platforms: Vec<String>,
    /// Simulated critical-path milliseconds the platforms reported.
    pub simulated_ms: f64,
    /// Simulated overhead of atoms on platforms that really sleep it.
    pub slept_overhead_ms: f64,
    /// `records().to_vec()` of the sink dataset, as the session does.
    pub result_copy_ms: f64,
    pub result_codec_ms: f64,
    pub result_bytes: usize,
    /// Round trip of frames of this statement's request and result sizes
    /// through the echo peer: the socket's share, without any codec.
    pub transport_ms: f64,
}

#[derive(Clone, Copy, Default)]
pub struct KernelTimes {
    /// `kernels::parallel::*` with the context's default parallelism: the
    /// path plans reach today.
    pub row_ms: f64,
    /// `kernels::chunked::*`: the path plans do not reach.
    pub chunked_ms: f64,
    pub rows_in: usize,
}

impl KernelTimes {
    pub fn rows_per_s(&self) -> f64 {
        self.rows_in as f64 / (self.row_ms / 1e3)
    }
}

pub struct Layers {
    /// Round trip of a 32-byte frame answered by a 32-byte frame.
    pub frame_rtt_us: f64,
    pub submit_noop_us: f64,
    pub gate_uncontended_us: f64,
    pub register_codec_ms: f64,
    pub register_bytes: usize,
    pub chunk_from_records_ms: f64,
    pub chunk_to_records_ms: f64,
    /// Indexed by `Kernel as usize`.
    pub kernels: [KernelTimes; 4],
    pub statements: Vec<StatementLayers>,
}

/// Time every layer on `tables`, spending about `budget` in total.
pub fn replay(
    tables: &Tables,
    statements: &[Statement],
    expected: &[Expected],
    budget: Duration,
) -> Result<Layers, String> {
    // 7 timed calls per statement, 14 for the workload as a whole.
    let per_call = budget / (statements.len() as u32 * 7 + 14);
    let err = |e: rheem_core::RheemError| e.to_string();

    let catalog = verify::catalog(tables);
    let observability = Arc::new(Observability::new());
    let cold_ctx = rheem_platforms::full_context().with_observability(observability);
    let warm_ctx = cold_ctx
        .clone()
        .with_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::default())))
        .with_cache_scope(1);

    let mut echo = Echo::start().map_err(|e| format!("frame echo: {e}"))?;
    let frame_rtt_us = echo.rtt_us(per_call, 32, 32)?;
    let mut per_statement = Vec::new();
    for (st, expected) in statements.iter().zip(expected) {
        let parse_us = time_us(per_call, || parser::parse(st.sql));
        let plan_us = time_us(per_call, || catalog.plan(st.sql));
        // One planned query per statement, as the session's statement cache
        // keeps it: re-planning would mint fresh closures that miss the cache.
        let planned = catalog.plan(st.sql).map_err(err)?;
        let optimizer_cold_us = time_us(per_call, || cold_ctx.optimize_logical(&planned.logical));
        let plan = warm_ctx.optimize_logical(&planned.logical).map_err(err)?;
        let optimizer_cached_us = time_us(per_call, || warm_ctx.optimize_logical(&planned.logical));

        let mut job = None;
        let execute_us = time_us(per_call, || job = Some(warm_ctx.execute_plan(&plan)));
        let job = job.expect("time_us calls at least once").map_err(err)?;
        let sink = job
            .outputs
            .get(&planned.sink)
            .ok_or_else(|| format!("`{}` produced no output", st.sql))?;
        verify::check(st, expected, sink.records())
            .map_err(|e| format!("twin replay answered wrongly: {e}"))?;
        let result_copy_us = time_us(per_call, || sink.records().to_vec());
        let response = Response::Rows {
            schema: planned.schema.clone(),
            rows: sink.records().to_vec(),
        };
        let result_bytes = response.encode().len();
        let result_codec_us = time_us(per_call, || Response::decode(&response.encode()));
        let query = Request::Query {
            sql: st.sql.to_string(),
            deadline_ms: None,
        };
        let transport_us = echo.rtt_us(per_call, query.encode().len(), result_bytes)?;

        let stats = &job.stats;
        per_statement.push(StatementLayers {
            parse_us,
            plan_us,
            optimizer_cold_us,
            optimizer_cached_us,
            execute_ms: execute_us / 1e3,
            waves: stats.waves,
            atoms: stats.atoms.len(),
            platforms: stats
                .platforms_used()
                .iter()
                .map(|p| p.to_string())
                .collect(),
            simulated_ms: stats.atoms.iter().map(|a| a.simulated_elapsed_ms).sum(),
            // An empty float sum is -0.0; adding 0.0 makes it print as 0.
            slept_overhead_ms: 0.0
                + stats
                    .atoms
                    .iter()
                    .filter(|a| SLEEPING_PLATFORMS.contains(&a.platform.as_str()))
                    .map(|a| a.simulated_overhead_ms)
                    .sum::<f64>(),
            result_copy_ms: result_copy_us / 1e3,
            result_codec_ms: result_codec_us / 1e3,
            result_bytes,
            transport_ms: transport_us / 1e3,
        });
    }
    echo.close()?;

    let register = Request::Register {
        name: "orders".to_string(),
        schema: workload::orders_schema(),
        rows: tables.orders.clone(),
    };
    let register_bytes = register.encode().len();
    let register_codec_us = time_us(per_call, || Request::decode(&register.encode()));
    drop(register);

    let chunk = Chunk::from_records(&tables.orders).ok_or("orders does not chunk")?;
    let chunk_from_records_us = time_us(per_call, || Chunk::from_records(&tables.orders));
    let chunk_to_records_us = time_us(per_call, || chunk.to_records());

    Ok(Layers {
        frame_rtt_us,
        submit_noop_us: submit_noop_us(per_call),
        gate_uncontended_us: gate_uncontended_us(per_call),
        register_codec_ms: register_codec_us / 1e3,
        register_bytes,
        chunk_from_records_ms: chunk_from_records_us / 1e3,
        chunk_to_records_ms: chunk_to_records_us / 1e3,
        kernels: kernel_times(&catalog, tables, &chunk, per_call)?,
        statements: per_statement,
    })
}

/// `READ_TICK` of `server.rs`: the read timeout a session's socket carries
/// because the default configuration has an idle timeout.
const READ_TICK: Duration = Duration::from_millis(25);

/// Fill `buf` from a socket whose reads time out every [`READ_TICK`], as the
/// session's private `read_frame_idle` does: a tick is not an error, the
/// read just continues. `Ok(false)` on EOF before the first byte.
fn read_through_ticks(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<bool> {
    use std::io::{ErrorKind, Read};
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// The benchmark's own echo peer for timing the transport alone: a loopback
/// `TcpStream` with the socket options exactly as `server.rs` leaves them —
/// the accepted side reads with a [`READ_TICK`] timeout and nothing else is
/// set, so no `TCP_NODELAY` on either side. The client side is `write_frame`
/// then `read_frame`, as `Client::call`; the echo side answers with one
/// `write_frame` of as many bytes as the request's first four bytes ask for.
struct Echo {
    stream: TcpStream,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_read_timeout(Some(READ_TICK))?;
            let mut len = [0u8; 4];
            let mut reply = Vec::new();
            while read_through_ticks(&mut stream, &mut len)? {
                let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
                read_through_ticks(&mut stream, &mut body)?;
                let wanted = body
                    .first_chunk::<4>()
                    .map_or(0, |b| u32::from_be_bytes(*b));
                reply.resize(wanted as usize, 0x5a);
                write_frame(&mut stream, &reply)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
            Ok(())
        });
        Ok(Echo {
            stream: TcpStream::connect(addr)?,
            thread,
        })
    }

    /// Median round trip of a `request_len`-byte frame answered by a
    /// `reply_len`-byte frame.
    fn rtt_us(
        &mut self,
        budget: Duration,
        request_len: usize,
        reply_len: usize,
    ) -> Result<f64, String> {
        let mut request = vec![0x5au8; request_len.max(4)];
        request[..4].copy_from_slice(&(reply_len as u32).to_be_bytes());
        let mut failure = None;
        let rtt = time_us(budget, || {
            let reply =
                write_frame(&mut self.stream, &request).and_then(|()| read_frame(&mut self.stream));
            if !matches!(&reply, Ok(Some(body)) if body.len() == reply_len) {
                failure.get_or_insert(format!(
                    "frame echo failed: {:?}",
                    reply.map(|b| b.map(|b| b.len()))
                ));
            }
        });
        failure.map_or(Ok(rtt), Err)
    }

    fn close(self) -> Result<(), String> {
        drop(self.stream);
        self.thread
            .join()
            .map_err(|_| "echo thread panicked".to_string())?
            .map_err(|e| format!("frame echo: {e}"))
    }
}

/// `JobService::submit` of an empty closure on a default-config service.
fn submit_noop_us(budget: Duration) -> f64 {
    let metrics = Observability::new().metrics().clone();
    let service = JobService::start(ServiceConfig::default(), metrics);
    let us = time_us(budget, || service.submit("bench", || ()));
    service.shutdown();
    us
}

/// `before_wave` + `after_wave` on a gate nobody else contends for.
fn gate_uncontended_us(budget: Duration) -> f64 {
    let gate = FairShareScheduler::new(2).gate("bench");
    time_us(budget, || {
        gate.before_wave(0, 1);
        gate.after_wave(0);
    })
}

fn payloads(planned: &PlannedQuery) -> Vec<LogicalPayload> {
    planned
        .logical
        .nodes()
        .iter()
        .map(|n| n.op.payload())
        .collect()
}

/// The kernels [`FIVE`]'s plans use, called directly on the workload's
/// table with the key or predicate taken from the statement's own plan.
fn kernel_times(
    catalog: &rheem_core::query::QueryCatalog,
    tables: &Tables,
    orders_chunk: &Chunk,
    budget: Duration,
) -> Result<[KernelTimes; 4], String> {
    let p = KernelParallelism::default();
    let orders = &tables.orders[..];
    let ms = |us: f64| us / 1e3;
    let plan_of = |kernel: Kernel| -> Result<Vec<LogicalPayload>, String> {
        let st = FIVE
            .iter()
            .find(|st| st.kernels.contains(&kernel))
            .expect("every kernel is taken from one of the five statements");
        Ok(payloads(&catalog.plan(st.sql).map_err(|e| e.to_string())?))
    };
    let missing = |what: &str| format!("the plan has no {what} operator any more");
    let mut out = [KernelTimes::default(); 4];

    // filter, then sort of the projected filter output (statement 5).
    let plan = plan_of(Kernel::Filter)?;
    let filter: &FilterUdf = plan
        .iter()
        .find_map(|p| match p {
            LogicalPayload::Filter(udf) => Some(udf),
            _ => None,
        })
        .ok_or_else(|| missing("filter"))?;
    let select: &MapUdf = plan
        .iter()
        .find_map(|p| match p {
            LogicalPayload::Map(udf) => Some(udf),
            _ => None,
        })
        .ok_or_else(|| missing("select"))?;
    let (sort_key, descending): (&KeyUdf, bool) = plan
        .iter()
        .find_map(|p| match p {
            LogicalPayload::Sort { key, descending } => Some((key, *descending)),
            _ => None,
        })
        .ok_or_else(|| missing("sort"))?;
    // The same predicate as an expression, which a plan lowered to
    // `expr::Expr` would carry; the row counts must agree.
    let predicate = Expr::field(workload::ORDERS_PRICE).gt(Expr::lit(900.0));
    let kept = parallel::filter(orders, filter, &p);
    if chunked::filter(orders_chunk, &predicate).rows() != kept.len() {
        return Err("the chunked filter predicate no longer matches statement 5".into());
    }
    out[Kernel::Filter as usize] = KernelTimes {
        row_ms: ms(time_us(budget, || parallel::filter(orders, filter, &p))),
        chunked_ms: ms(time_us(budget, || {
            chunked::filter(orders_chunk, &predicate)
        })),
        rows_in: orders.len(),
    };
    let projected: Vec<Record> = kernels::map(&kept, select);
    let projected_chunk = Chunk::from_records(&projected).ok_or("projection does not chunk")?;
    out[Kernel::Sort as usize] = KernelTimes {
        row_ms: ms(time_us(budget, || {
            parallel::sort(&projected, sort_key, descending, &p)
        })),
        chunked_ms: ms(time_us(budget, || {
            chunked::sort(&projected_chunk, sort_key, descending)
        })),
        rows_in: projected.len(),
    };

    // hash_group by `cust` (statement 2). The plan's key is the planner's
    // composite-key closure; the chunked twin gets the field read a
    // declarative lowering would carry.
    let plan = plan_of(Kernel::HashGroup)?;
    let group_key: &KeyUdf = plan
        .iter()
        .find_map(|p| match p {
            LogicalPayload::Group { key, .. } => Some(key),
            _ => None,
        })
        .ok_or_else(|| missing("group"))?;
    let field_key = KeyUdf::field(workload::ORDERS_CUST);
    out[Kernel::HashGroup as usize] = KernelTimes {
        row_ms: ms(time_us(budget, || {
            parallel::hash_group(orders, group_key, &p)
        })),
        chunked_ms: ms(time_us(budget, || {
            chunked::hash_group(orders_chunk, &field_key)
        })),
        rows_in: orders.len(),
    };

    // hash_join of orders with customers (statement 4).
    let plan = plan_of(Kernel::HashJoin)?;
    let (left_key, right_key): (&KeyUdf, &KeyUdf) = plan
        .iter()
        .find_map(|p| match p {
            LogicalPayload::Join {
                left_key,
                right_key,
            } => Some((left_key, right_key)),
            _ => None,
        })
        .ok_or_else(|| missing("join"))?;
    let customers = &tables.customers[..];
    let customers_chunk = Chunk::from_records(customers).ok_or("customers does not chunk")?;
    out[Kernel::HashJoin as usize] = KernelTimes {
        row_ms: ms(time_us(budget, || {
            parallel::hash_join(orders, customers, left_key, right_key, &p)
        })),
        chunked_ms: ms(time_us(budget, || {
            chunked::hash_join(orders_chunk, &customers_chunk, left_key, right_key)
        })),
        rows_in: orders.len() + customers.len(),
    };
    Ok(out)
}
