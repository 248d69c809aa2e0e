//! Closed-loop multi-tenant load generator for the job server (self-timed),
//! emitting `BENCH_server.json` at the repo root.
//!
//! Two tenants run concurrent sessions against one in-process
//! `RheemServer`, each looping over a small statement mix against its own
//! registered table. Three claims are measured and *asserted*, not just
//! reported:
//!
//! 1. Fair-share wave scheduling: both tenants are granted waves and the
//!    scheduler's grant log interleaves them (`grant_switches > 0`).
//! 2. The plan cache hits on repeated statements (`hits > 0`), because
//!    each session's statement cache preserves UDF closure identity.
//! 3. Cached-plan executions return byte-identical rows to the cold
//!    execution of the same statement (`outputs_match`, compared on the
//!    canonical wire encoding).
//! 4. A *cancel storm* (DESIGN.md §14): one tenant hurls zero-deadline
//!    requests (shed in the admission queue) while a second connection
//!    spams `CANCEL`; the storm's shed/cancelled/completed counts and the
//!    survivors' p99 are recorded, and the server must stay fully
//!    serviceable afterwards.
//!
//! Latency is reported in two columns that are never added up: what the
//! client measured over the wire (`p50_ms`, `p99_ms`, `latency_ms`) and what
//! the server clocked for the same tenant's requests, frame complete to
//! response written (`server_request_us_*`, from the tenant's
//! `server.tenant.<t>.request_us` histogram; `server_side_us` is the whole
//! run's `server.request_us` and its six `server.stage.*_us` sums). The
//! difference is the transport: `Client` sends a request as two segments with
//! Nagle on, so each one waits out the server's delayed ACK (DESIGN.md §13).
//!
//! `SERVER_BENCH_QUICK=1` trims the request count for CI and writes to
//! `target/bench-quick/BENCH_server.json` instead.

use std::time::Instant;

use rheem_core::observe::HistogramSnapshot;
use rheem_core::{DataType, PlanCacheConfig, Record, Schema, Value};
use rheem_server::protocol::encode_rows;
use rheem_server::{Client, RheemServer, ServerConfig};

fn table_schema() -> Schema {
    Schema::new(vec![
        ("region", DataType::Str),
        ("amount", DataType::Int),
        ("price", DataType::Float),
    ])
}

fn table_rows(seed: i64, n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(vec![
                Value::str(match (seed + i) % 3 {
                    0 => "east",
                    1 => "west",
                    _ => "north",
                }),
                Value::Int(seed + i),
                Value::Float(((seed + i) % 97) as f64 * 0.5),
            ])
        })
        .collect()
}

/// The per-tenant statement mix; repeated requests cycle through these, so
/// every statement past the first pass can hit the plan cache.
const STATEMENTS: &[&str] = &[
    "SELECT region, SUM(amount) AS total FROM orders GROUP BY region ORDER BY region",
    "SELECT region, amount, price FROM orders WHERE amount > 100 ORDER BY amount LIMIT 25",
    "SELECT COUNT(*) AS n, AVG(price) AS avg_price FROM orders",
];

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct TenantReport {
    tenant: &'static str,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    /// Server-side time of the tenant's requests: the bound of the bucket the
    /// median falls in, and the mean.
    server_request_us_p50_le: u64,
    server_request_us_mean: f64,
    granted_waves: u64,
}

const STAGES: [&str; 6] = ["decode", "plan", "queue_wait", "run", "encode", "write"];

struct StormReport {
    requests: usize,
    shed_deadline: u64,
    cancelled: u64,
    completed: usize,
    p99_ms: f64,
}

fn main() {
    let quick = std::env::var_os("SERVER_BENCH_QUICK").is_some();
    let requests_per_tenant = if quick { 24 } else { 150 };
    let rows_per_table: i64 = if quick { 300 } else { 2000 };

    // A high drift threshold keeps early calibration swings from
    // invalidating entries: this bench measures steady-state caching;
    // drift invalidation is covered by its own tests.
    let config = ServerConfig {
        cache: PlanCacheConfig {
            drift_threshold: 1e12,
            ..PlanCacheConfig::default()
        },
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let addr = handle.addr();

    let tenants: &[(&'static str, i64)] = &[("alpha", 0), ("beta", 5000)];
    let wall = Instant::now();
    let mut per_tenant_lat: Vec<(&'static str, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|&(tenant, seed)| {
                s.spawn(move || {
                    let mut client = Client::connect(addr, tenant).expect("connect");
                    client
                        .register("orders", table_schema(), table_rows(seed, rows_per_table))
                        .expect("register");
                    let mut latencies = Vec::with_capacity(requests_per_tenant);
                    for i in 0..requests_per_tenant {
                        let sql = STATEMENTS[i % STATEMENTS.len()];
                        let t = Instant::now();
                        let (_, rows) = client.query(sql).expect("query");
                        latencies.push(t.elapsed().as_secs_f64() * 1e3);
                        assert!(!rows.is_empty(), "{tenant}: `{sql}` returned no rows");
                    }
                    client.goodbye().expect("goodbye");
                    (tenant, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // Byte-identical outputs: a fresh session runs each statement cold
    // (first execution in its cache scope is a miss) and then warm (hit),
    // and the canonical wire encodings must match exactly.
    let mut outputs_match = true;
    {
        let mut client = Client::connect(addr, "verifier").expect("connect");
        client
            .register("orders", table_schema(), table_rows(42, rows_per_table))
            .expect("register");
        for sql in STATEMENTS {
            let (_, cold) = client.query(sql).expect("cold run");
            let (_, warm) = client.query(sql).expect("warm run");
            let identical = encode_rows(&cold) == encode_rows(&warm);
            assert!(identical, "cached run of `{sql}` diverged from cold run");
            outputs_match &= identical;
        }
        client.goodbye().expect("goodbye");
    }

    // Cancel storm: a third tenant alternates zero-deadline requests
    // (aged out in the admission queue before costing a worker) with
    // normal ones, while a second connection under the same tenant spams
    // CANCEL-all. Shed/cancelled counts come off the server's own
    // counters; the p99 is over the requests that survived the storm.
    let storm = {
        let storm_requests = if quick { 12 } else { 60 };
        let metrics = handle.observability().metrics();
        let shed_before = metrics.counter_value("server.jobs.shed_deadline");
        let cancelled_before = metrics.counter_value("server.jobs.cancelled");
        let mut client = Client::connect(addr, "storm").expect("connect");
        client
            .register("orders", table_schema(), table_rows(7, rows_per_table))
            .expect("register");
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut survivors: Vec<f64> = Vec::new();
        let mut completed = 0usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut canceller = Client::connect(addr, "storm").expect("connect canceller");
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    canceller.cancel(0).expect("cancel-all");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                canceller.goodbye().expect("goodbye");
            });
            for i in 0..storm_requests {
                let sql = STATEMENTS[i % STATEMENTS.len()];
                let t = Instant::now();
                let outcome = if i % 3 == 0 {
                    client.query_with_deadline(sql, std::time::Duration::ZERO)
                } else {
                    client.query(sql)
                };
                match outcome {
                    Ok((_, rows)) => {
                        survivors.push(t.elapsed().as_secs_f64() * 1e3);
                        completed += 1;
                        assert!(!rows.is_empty(), "storm: `{sql}` returned no rows");
                    }
                    Err(err) => {
                        // The only acceptable failures are the storm's own
                        // doing: a queue shed or a cancellation — never a
                        // protocol error or a lost worker.
                        let message = err.to_string();
                        assert!(
                            message.contains("deadline") || message.contains("cancelled"),
                            "storm request failed for a non-storm reason: {message}"
                        );
                    }
                }
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
        });

        // Inside the storm a zero-deadline request may be cancelled in the
        // queue before a worker sheds it (both connections' requests leave
        // on the same delayed-ACK timer tick, so the race is tight); with
        // the canceller stopped, one more must be shed, every time.
        let shed = client
            .query_with_deadline(STATEMENTS[0], std::time::Duration::ZERO)
            .expect_err("a zero deadline cannot be met");
        assert!(shed.to_string().contains("deadline"), "{shed}");

        // The storm must not degrade the server: the storm tenant's own
        // session and a fresh tenant both get full service afterwards.
        for sql in STATEMENTS {
            let (_, rows) = client.query(sql).expect("post-storm query");
            assert!(!rows.is_empty(), "post-storm `{sql}` returned no rows");
        }
        client.goodbye().expect("goodbye");
        let mut after = Client::connect(addr, "aftermath").expect("connect");
        after
            .register("orders", table_schema(), table_rows(11, rows_per_table))
            .expect("register");
        let (_, rows) = after.query(STATEMENTS[0]).expect("post-storm fresh tenant");
        assert!(!rows.is_empty());
        after.goodbye().expect("goodbye");

        let shed_deadline = metrics.counter_value("server.jobs.shed_deadline") - shed_before;
        let cancelled = metrics.counter_value("server.jobs.cancelled") - cancelled_before;
        assert!(shed_deadline >= 1, "zero-deadline requests never shed");
        survivors.sort_by(|a, b| a.total_cmp(b));
        StormReport {
            requests: storm_requests,
            shed_deadline,
            cancelled,
            completed,
            p99_ms: percentile(&survivors, 0.99),
        }
    };

    let granted = handle.scheduler().granted_waves();
    let log = handle.scheduler().grant_log();
    let grant_switches = log
        .windows(2)
        .filter(|pair| pair[0].tenant != pair[1].tenant)
        .count();
    let total_grants = handle.scheduler().total_grants();
    let cache = handle.plan_cache().stats();
    let histograms = handle.observability().metrics().snapshot().histograms;
    handle.shutdown();
    let histogram = |name: &str| -> &HistogramSnapshot {
        let found = histograms.iter().find(|(n, _)| n == name);
        &found.unwrap_or_else(|| panic!("no `{name}` histogram")).1
    };
    let p50_le = |h: &HistogramSnapshot| h.quantile_bound(0.5).unwrap_or(u64::MAX);

    // Assert the measured claims.
    for (tenant, _) in tenants {
        let waves = granted.get(*tenant).copied().unwrap_or(0);
        assert!(waves > 0, "tenant {tenant} was granted no waves");
    }
    assert!(
        grant_switches > 0,
        "grant log never interleaved tenants: {log:?}"
    );
    assert!(
        cache.hits > 0,
        "repeated statements never hit the plan cache: {cache:?}"
    );
    assert!(outputs_match);
    // The six stages tile a request, so their sums account for the server's
    // whole share of it (every session has ended: no request is half recorded).
    let served = histogram("server.request_us");
    let stage_sums = STAGES.map(|stage| {
        let h = histogram(&format!("server.stage.{stage}_us"));
        assert_eq!(h.count, served.count, "server.stage.{stage}_us");
        h.sum
    });
    let staged: u64 = stage_sums.iter().sum();
    assert!(
        staged.abs_diff(served.sum) * 10 <= served.sum,
        "stages sum to {staged} us, requests to {} us",
        served.sum
    );

    let mut all: Vec<f64> = Vec::new();
    let mut reports: Vec<TenantReport> = Vec::new();
    for (tenant, latencies) in per_tenant_lat.iter_mut() {
        all.extend_from_slice(latencies);
        latencies.sort_by(|a, b| a.total_cmp(b));
        let server_side = histogram(&format!("server.tenant.{tenant}.request_us"));
        reports.push(TenantReport {
            tenant,
            requests: latencies.len(),
            p50_ms: percentile(latencies, 0.50),
            p99_ms: percentile(latencies, 0.99),
            server_request_us_p50_le: p50_le(server_side),
            server_request_us_mean: server_side.sum as f64 / server_side.count.max(1) as f64,
            granted_waves: granted.get(*tenant).copied().unwrap_or(0),
        });
    }
    all.sort_by(|a, b| a.total_cmp(b));
    let requests_total: usize = reports.iter().map(|r| r.requests).sum();
    let p50 = percentile(&all, 0.50);
    let p99 = percentile(&all, 0.99);
    assert!(p99 >= p50);
    let throughput_rps = requests_total as f64 / (wall_ms / 1e3);
    let hit_rate = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;

    for r in &reports {
        eprintln!(
            "{}: {} requests, wire p50 {:.2} ms, p99 {:.2} ms; server-side p50 <= {} us, \
             mean {:.0} us; {} waves granted",
            r.tenant,
            r.requests,
            r.p50_ms,
            r.p99_ms,
            r.server_request_us_p50_le,
            r.server_request_us_mean,
            r.granted_waves
        );
    }
    eprintln!(
        "total: {requests_total} requests in {wall_ms:.0} ms ({throughput_rps:.1} req/s), \
         cache hit rate {:.2}, {grant_switches} grant interleavings",
        hit_rate
    );
    eprintln!(
        "storm: {} requests, {} shed on deadline, {} cancelled, {} completed, \
         survivor p99 {:.2} ms",
        storm.requests, storm.shed_deadline, storm.cancelled, storm.completed, storm.p99_ms
    );

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tenant_json: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"tenant\":\"{}\",\"requests\":{},\"p50_ms\":{:.3},\
                 \"p99_ms\":{:.3},\"server_request_us_p50_le\":{},\
                 \"server_request_us_mean\":{:.1},\"granted_waves\":{}}}",
                r.tenant,
                r.requests,
                r.p50_ms,
                r.p99_ms,
                r.server_request_us_p50_le,
                r.server_request_us_mean,
                r.granted_waves
            )
        })
        .collect();
    let stage_json: Vec<String> = STAGES
        .iter()
        .zip(stage_sums)
        .map(|(stage, sum)| format!("\"{stage}\": {sum}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_server\",\n  \"unix_time\": {stamp},\n  \
         \"host\": {{\"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\"}},\n  \"note\": \
         \"closed-loop load generator: two concurrent tenant sessions against one \
         in-process server; fairness is read off the scheduler's wave-grant log, \
         outputs_match asserts cached-plan rows are byte-identical to the cold run \
         on the canonical wire encoding; cancel_storm drives a zero-deadline plus \
         CANCEL-spam storm at a third tenant and records shed/cancelled counts and \
         the survivors' p99; *_ms columns are wall time measured by the client over the \
         wire, server_request_us_* and server_side_us are the server's own clock (request \
         frame complete to response written) and the two are never summed\",\n  \
         \"tenants\": {},\n  \"requests_total\": {requests_total},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \"throughput_rps\": {throughput_rps:.2},\n  \
         \"latency_ms\": {{\"p50\": {p50:.3}, \"p99\": {p99:.3}}},\n  \
         \"per_tenant\": [\n{}\n  ],\n  \
         \"server_side_us\": {{\"requests\": {}, \"request_sum\": {}, \
         \"request_p50_le\": {}, \"stage_sums\": {{{}}}}},\n  \
         \"fair_share\": {{\"grant_switches\": {grant_switches}, \"total_grants\": {}}},\n  \
         \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
         \"hit_rate\": {hit_rate:.4}}},\n  \
         \"cancel_storm\": {{\"requests\": {}, \"shed_deadline\": {}, \"cancelled\": {}, \
         \"completed\": {}, \"p99_ms\": {:.3}}},\n  \"outputs_match\": {outputs_match}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        tenants.len(),
        tenant_json.join(",\n"),
        served.count,
        served.sum,
        p50_le(served),
        stage_json.join(", "),
        total_grants,
        cache.hits,
        cache.misses,
        cache.invalidations,
        storm.requests,
        storm.shed_deadline,
        storm.cancelled,
        storm.completed,
        storm.p99_ms,
    );
    let path = rheem_bench::bench_json_path("BENCH_server.json", quick);
    std::fs::write(&path, &json).expect("write BENCH_server.json");
    eprintln!("wrote {}", path.display());
}
