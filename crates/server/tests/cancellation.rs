//! Chaos tests for cancellation, deadlines, and panic isolation
//! (DESIGN.md §14).
//!
//! The property under storm: whatever mix of panicking UDFs, pre- and
//! mid-flight cancels one tenant throws at the service, (a) every
//! submission completes with a *typed* outcome — no hung submitter, no
//! lost worker thread — and (b) an innocent tenant running concurrently
//! still gets byte-identical results.
//!
//! The panicking-UDF cases drive [`JobService`] + `RheemContext` directly
//! rather than over the wire, because the SQL surface cannot express a
//! panicking closure; the wire-level tests below cover the protocol side
//! (deadline shedding, `CANCEL`, idle eviction).

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rheem_core::udf::MapUdf;
use rheem_core::{
    rec, CancelReason, KernelParallelism, MetricsRegistry, PhysicalPlan, PlanBuilder, Record,
    RheemContext, RheemError,
};
use rheem_server::{AdmissionError, Client, JobService, RheemServer, ServerConfig, ServiceConfig};

fn chaos_service(workers: usize) -> (Arc<JobService>, Arc<MetricsRegistry>) {
    let metrics = Arc::new(MetricsRegistry::new());
    let svc = JobService::start(
        ServiceConfig {
            workers,
            queue_capacity: 32,
            max_inflight_per_tenant: 8,
            drain_grace: Duration::from_secs(5),
        },
        metrics.clone(),
    );
    (Arc::new(svc), metrics)
}

/// A linear plan over `records` rows whose map UDF panics at row
/// `panic_at` (when set) and naps `nap_per_record` per row (to hold a
/// wave open long enough for mid-flight cancels to land mid-execution).
fn chaos_plan(records: usize, panic_at: Option<usize>, nap_per_record: Duration) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let rows: Vec<Record> = (0..records as i64).map(|i| rec![i]).collect();
    let src = b.collection("chaos", rows);
    let mapped = b.map(
        src,
        MapUdf::new("chaos-map", move |r| {
            if !nap_per_record.is_zero() {
                std::thread::sleep(nap_per_record);
            }
            if panic_at == Some(r.int(0).unwrap() as usize) {
                panic!("chaos panic at row {}", r.int(0).unwrap());
            }
            r.clone()
        }),
    );
    b.collect(mapped);
    b.build().unwrap()
}

/// The steady tenant's fixed reference workload.
fn steady_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let rows: Vec<Record> = (0..64i64).map(|i| rec![i]).collect();
    let src = b.collection("steady", rows);
    let mapped = b.map(
        src,
        MapUdf::new("steady-map", |r| rec![r.int(0).unwrap() * 3]),
    );
    b.collect(mapped);
    b.build().unwrap()
}

fn run_steady(ctx: &RheemContext) -> Vec<Record> {
    ctx.execute(steady_plan())
        .expect("steady job completes")
        .single()
        .expect("one sink")
        .records()
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random chaos jobs (clean / panicking / pre-cancelled / cancelled at
    /// a random point mid-flight) share the pool with a steady tenant.
    /// Every chaos submission resolves typed, the steady tenant's answer
    /// stays byte-identical, and both workers survive the storm.
    #[test]
    fn chaos_storm_never_breaks_the_service(
        specs in proptest::collection::vec(
            (
                4usize..40,   // rows in the chaos plan
                0u8..4,       // 0 clean, 1 panic, 2 pre-cancel, 3 cancel mid-flight
                0usize..40,   // panic row (mod rows)
                0u64..1500,   // cancel delay, microseconds
            ),
            1..6,
        ),
        sequential in any::<bool>(),
    ) {
        let (svc, _metrics) = chaos_service(2);
        let threads = if sequential { 1 } else { 4 };
        let base = rheem_platforms::full_context().with_kernel_parallelism(testkit::budget(threads));
        let expected = run_steady(&base);

        let outcomes = std::thread::scope(|s| {
            let chaos_handles: Vec<_> = specs
                .iter()
                .map(|&(rows, mode, panic_row, delay_us)| {
                    let svc = svc.clone();
                    let ctx = base.clone();
                    s.spawn(move || {
                        svc.submit_job("chaos", None, move |run| {
                            match mode {
                                2 => {
                                    run.cancel.cancel(CancelReason::Explicit);
                                }
                                3 => {
                                    let token = run.cancel.clone();
                                    std::thread::spawn(move || {
                                        std::thread::sleep(Duration::from_micros(delay_us));
                                        token.cancel(CancelReason::Explicit);
                                    });
                                }
                                _ => {}
                            }
                            let panic_at = (mode == 1).then_some(panic_row % rows);
                            // A small nap per row keeps mid-flight cancels
                            // genuinely mid-execution.
                            let nap = if mode == 3 {
                                Duration::from_micros(100)
                            } else {
                                Duration::ZERO
                            };
                            let ctx = ctx.with_cancel_token(run.cancel.clone());
                            ctx.execute(chaos_plan(rows, panic_at, nap))
                                .map(|r| r.single().map(|d| d.records().len()).unwrap_or(0))
                        })
                    })
                })
                .collect();

            // The steady tenant keeps querying while the storm rages.
            for _ in 0..3 {
                let ctx = base.clone();
                let rows = svc
                    .submit_job("steady", None, move |run| {
                        let ctx = ctx.with_cancel_token(run.cancel.clone());
                        ctx.execute(steady_plan())
                            .map(|r| r.single().map(|d| d.records().to_vec()))
                    })
                    .expect("steady admission")
                    .expect("steady execution")
                    .expect("steady single sink");
                assert_eq!(rows, expected, "steady tenant's answer drifted");
            }

            chaos_handles
                .into_iter()
                .map(|h| h.join().expect("chaos submitter thread survived"))
                .collect::<Vec<_>>()
        });

        for (outcome, &(_, mode, _, _)) in outcomes.iter().zip(&specs) {
            // Panic isolation happens at the executor layer: the service's
            // own catch_unwind backstop must never be what saves us here.
            prop_assert!(
                !matches!(outcome, Err(AdmissionError::JobPanicked { .. })),
                "a panic escaped the executor: {outcome:?}"
            );
            match mode {
                1 => prop_assert!(
                    matches!(outcome, Ok(Err(RheemError::Panic { .. }))),
                    "panicking job must surface a typed Panic, got {outcome:?}"
                ),
                2 => prop_assert!(
                    matches!(outcome, Ok(Err(RheemError::Cancelled { .. }))),
                    "pre-cancelled job must surface Cancelled, got {outcome:?}"
                ),
                // Clean jobs succeed; mid-flight cancels race the finish
                // line, so either completion or Cancelled is legitimate.
                0 => prop_assert!(matches!(outcome, Ok(Ok(_))), "clean job failed: {outcome:?}"),
                _ => prop_assert!(
                    matches!(outcome, Ok(Ok(_)) | Ok(Err(RheemError::Cancelled { .. }))),
                    "mid-flight cancel gave {outcome:?}"
                ),
            }
        }

        // No worker thread was lost: both pool workers can still meet at a
        // barrier, which needs two live threads running simultaneously.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let svc = svc.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    svc.submit("prober", move || {
                        barrier.wait();
                    })
                    .expect("prober job runs");
                });
            }
        });
        prop_assert_eq!(svc.queued(), 0);
        prop_assert_eq!(svc.inflight("chaos"), 0);
        prop_assert_eq!(svc.inflight("steady"), 0);
    }
}

/// A running job cancelled by id returns `Cancelled` within one wave +
/// one morsel — long before its uncancelled runtime — and frees its slot.
#[test]
fn cancelling_a_running_job_stops_it_within_a_morsel() {
    let (svc, metrics) = chaos_service(1);
    // Small morsels so "within one morsel" is a tight bound (with the
    // default 4096-record morsels the whole 400-row input is one morsel).
    let ctx = rheem_platforms::full_context().with_kernel_parallelism(KernelParallelism {
        threads: 2,
        morsel_size: 16,
        min_rows: 0,
    });
    // 400 rows × 5 ms/row ≈ 2 s uncancelled.
    let full_runtime = Duration::from_secs(2);
    let started = Instant::now();
    let job_ctx = ctx.clone();
    let handle = svc
        .submit_handle("t", None, move |run| {
            let ctx = job_ctx.with_cancel_token(run.cancel.clone());
            ctx.execute(chaos_plan(400, None, Duration::from_millis(5)))
        })
        .expect("admitted");
    // Wait until the job is registered and has had a moment to start
    // chewing morsels, then cancel it by its public id.
    while svc.inflight_ids("t").is_empty() {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(30));
    assert!(svc.cancel_job("t", handle.id(), CancelReason::Explicit));
    let outcome = handle.wait().expect("typed completion, not a hang");
    let elapsed = started.elapsed();
    match outcome {
        Err(RheemError::Cancelled {
            reason: CancelReason::Explicit,
        }) => {}
        other => panic!("expected Cancelled(Explicit), got {other:?}"),
    }
    assert!(
        elapsed < full_runtime / 2,
        "cancel took {elapsed:?}, uncancelled runtime is {full_runtime:?}"
    );
    assert_eq!(metrics.counter_value("server.jobs.cancelled"), 1);
    assert_eq!(svc.inflight("t"), 0, "cancelled job freed its slot");
}

/// Over the wire: a request whose deadline has already lapsed is shed in
/// the admission queue — typed error, `server.jobs.shed_deadline` counter
/// — and the session survives to serve the retry.
#[test]
fn an_expired_deadline_is_shed_before_costing_a_worker() {
    let mut handle = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr(), "dl").expect("connect");
    client
        .register(
            "t",
            rheem_core::Schema::new(vec![("x", rheem_core::DataType::Int)]),
            vec![rec![1i64], rec![2i64]],
        )
        .expect("register");
    let err = client
        .query_with_deadline("SELECT x FROM t", Duration::ZERO)
        .unwrap_err();
    assert!(
        err.to_string().contains("deadline exceeded"),
        "expected a typed deadline rejection, got: {err}"
    );
    // The session survives and the same statement runs without a deadline.
    let (_, rows) = client.query("SELECT x FROM t").expect("retry succeeds");
    assert_eq!(rows.len(), 2);
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("server.jobs.shed_deadline 1"),
        "missing shed counter in:\n{stats}"
    );
    client.goodbye().expect("goodbye");
    handle.shutdown();
}

/// Over the wire: `CANCEL` is tenant-scoped and idempotent, and STATS
/// reports the tenant's live job ids for addressing it.
#[test]
fn cancel_requests_are_idempotent_and_stats_lists_inflight_ids() {
    let mut handle = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr(), "c").expect("connect");
    // Nothing in flight: both the targeted and the cancel-all forms are
    // accepted no-ops.
    client.cancel(42).expect("targeted cancel is idempotent");
    client.cancel(0).expect("cancel-all is idempotent");
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("server.tenant.c.inflight_ids []"),
        "missing inflight ids line in:\n{stats}"
    );
    client.goodbye().expect("goodbye");
    handle.shutdown();
}

/// A session that goes quiet past the idle timeout is evicted and counted
/// under `server.sessions.idle_evicted`; active sessions are untouched.
#[test]
fn an_idle_session_is_evicted_and_counted() {
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(60)),
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let mut idle = Client::connect(handle.addr(), "idle").expect("connect");
    std::thread::sleep(Duration::from_millis(250));
    // The server has closed (or is closing) the idle session: the next
    // call fails rather than serving a request.
    assert!(idle.stats().is_err(), "idle session should be gone");
    let evicted = handle
        .observability()
        .metrics()
        .counter_value("server.sessions.idle_evicted");
    assert_eq!(evicted, 1, "eviction must be counted");
    // A fresh session works fine; the timeout only bites idle ones.
    let mut fresh = Client::connect(handle.addr(), "fresh").expect("connect");
    fresh.stats().expect("active session serves requests");
    fresh.goodbye().expect("goodbye");
    handle.shutdown();
}

/// Idleness is judged at frame boundaries only: a slow client whose
/// request frame trickles in byte by byte — every gap longer than the
/// idle timeout — is active, not idle, and still gets its response
/// (REVIEW: the idle timeout must not ride on per-`read()` timeouts).
#[test]
fn a_slow_mid_frame_client_is_not_idle_evicted() {
    use rheem_server::protocol::{read_frame, write_frame, Request, Response};
    use std::io::Write;
    use std::net::TcpStream;

    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(60)),
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let hello = Request::Hello {
        tenant: "slow".into(),
    };
    write_frame(&mut stream, &hello.encode()).expect("hello");
    let body = read_frame(&mut stream)
        .expect("hello reply")
        .expect("frame");
    assert!(matches!(
        Response::decode(&body).expect("decode"),
        Response::Ok
    ));

    // Drip a STATS request one byte at a time, stalling longer than the
    // idle timeout between bytes — both inside the length prefix and
    // inside the body.
    let body = Request::Stats.encode();
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    for (i, byte) in frame.iter().enumerate() {
        if i > 0 {
            // Stall between bytes only: once the frame completes the test
            // must read its reply promptly, or the post-response boundary
            // wait would itself (correctly) count as idleness.
            std::thread::sleep(Duration::from_millis(90));
        }
        stream.write_all(&[*byte]).expect("write byte");
        stream.flush().expect("flush");
    }
    let body = read_frame(&mut stream).expect("reply").expect("frame");
    assert!(
        matches!(
            Response::decode(&body).expect("decode"),
            Response::Stats { .. }
        ),
        "slow-but-active client must get its response, not an eviction"
    );
    let evicted = handle
        .observability()
        .metrics()
        .counter_value("server.sessions.idle_evicted");
    assert_eq!(evicted, 0, "mid-frame stalls must not count as idleness");
    handle.shutdown();
}

/// Shutdown with jobs in flight: the cancel path bounds the drain — the
/// server comes down in far less time than the stuck job would have run.
#[test]
fn shutdown_cancels_in_flight_jobs_and_drains_bounded() {
    let (svc, _metrics) = chaos_service(1);
    let ctx = rheem_platforms::full_context().with_kernel_parallelism(KernelParallelism {
        threads: 2,
        morsel_size: 16,
        min_rows: 0,
    });
    let job_ctx = ctx.clone();
    // ~2 s of work if never cancelled.
    let handle = svc
        .submit_handle("t", None, move |run| {
            let ctx = job_ctx.with_cancel_token(run.cancel.clone());
            ctx.execute(chaos_plan(400, None, Duration::from_millis(5)))
        })
        .expect("admitted");
    while svc.inflight_ids("t").is_empty() {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    svc.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown drain took {:?}",
        started.elapsed()
    );
    match handle.wait() {
        Ok(Err(RheemError::Cancelled {
            reason: CancelReason::Shutdown,
        })) => {}
        other => panic!("expected Cancelled(Shutdown), got {other:?}"),
    }
}

/// Over the wire: a client that vanishes mid-query has its job cancelled
/// by the session's disconnect poll — counted under
/// `server.jobs.cancelled` — and both the worker and the other tenant's
/// queries come through unharmed.
#[test]
fn a_vanished_client_gets_its_job_cancelled() {
    use rheem_server::protocol::{read_frame, write_frame, Request, Response};

    // One worker, so the vanishing client's job sits queued behind two
    // blocker queries: a wide-open window for the 25 ms disconnect poll
    // to notice the hangup while the job is still live.
    let config = ServerConfig {
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let addr = handle.addr();

    let schema = rheem_core::Schema::new(vec![
        ("region", rheem_core::DataType::Str),
        ("amount", rheem_core::DataType::Int),
    ]);
    let rows: Vec<Record> = (0..120_000i64)
        .map(|i| {
            Record::new(vec![
                rheem_core::Value::str(format!("r{:06}", (i * 7919) % 99_991)),
                rheem_core::Value::Int(i),
            ])
        })
        .collect();
    // A full string sort: tens of milliseconds even in release.
    let heavy = "SELECT region, amount FROM orders ORDER BY region LIMIT 50";

    let blockers = std::thread::scope(|s| {
        let slow: Vec<_> = (0..2)
            .map(|i| {
                let (schema, rows) = (schema.clone(), rows.clone());
                s.spawn(move || {
                    let mut client =
                        Client::connect(addr, if i == 0 { "block-a" } else { "block-b" })
                            .expect("connect blocker");
                    client.register("orders", schema, rows).expect("register");
                    let out = client.query(heavy);
                    client.goodbye().expect("goodbye");
                    out
                })
            })
            .collect();

        // Give the blockers a head start so the single worker is busy,
        // then submit from a raw stream and hang up without reading the
        // response.
        std::thread::sleep(Duration::from_millis(50));
        {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            for request in [
                Request::Hello {
                    tenant: "gone".to_string(),
                },
                Request::Register {
                    name: "orders".to_string(),
                    schema: schema.clone(),
                    rows: rows.clone(),
                },
            ] {
                write_frame(&mut stream, &request.encode()).expect("send");
                let body = read_frame(&mut stream).expect("reply").expect("open");
                assert!(matches!(Response::decode(&body), Ok(Response::Ok)));
            }
            write_frame(
                &mut stream,
                &Request::Query {
                    sql: heavy.to_string(),
                    deadline_ms: None,
                }
                .encode(),
            )
            .expect("send query");
            // Vanish: the stream drops here, mid-query.
        }

        let metrics = handle.observability().metrics().clone();
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.counter_value("server.jobs.cancelled") == 0 {
            assert!(
                Instant::now() < deadline,
                "disconnect never cancelled the abandoned job"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        slow.into_iter()
            .map(|h| h.join().expect("blocker thread survived"))
            .collect::<Vec<_>>()
    });
    for out in blockers {
        let (_, rows) = out.expect("blocker query unharmed by the hangup");
        assert_eq!(rows.len(), 50);
    }
    handle.shutdown();
}
