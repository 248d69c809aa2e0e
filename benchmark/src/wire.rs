//! The end-to-end path: an in-process `RheemServer` with the default
//! configuration, driven through the blocking `Client` over loopback TCP in
//! a closed loop (a client sends its next statement only after the previous
//! response arrived and was checked).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rheem_server::{Client, RheemServer, ServerConfig, ServerHandle};

use crate::trace::Tracer;
use crate::verify::{self, Expected};
use crate::workload::{self, Tables, Workload};

/// A workload's inputs: per client, its tables and the reference answers.
pub struct Inputs {
    pub workload: &'static Workload,
    pub tables: Vec<Tables>,
    pub expected: Vec<Vec<Expected>>,
}

impl Inputs {
    /// Generate the tables from the seed and compute the reference answers.
    pub fn generate(workload: &'static Workload, seed: u64, quick: bool) -> Result<Self, String> {
        let tables: Vec<Tables> = (0..workload.clients)
            .map(|c| Tables::generate(workload, seed, c, quick))
            .collect();
        let expected = tables
            .iter()
            .map(|t| verify::reference(t, workload.statements))
            .collect::<Result<_, _>>()?;
        Ok(Inputs {
            workload,
            tables,
            expected,
        })
    }
}

/// A started server with one connected, registered, warmed client per tenant.
pub struct Session {
    pub server: ServerHandle,
    pub clients: Vec<Client>,
}

impl Session {
    pub fn close(mut self) {
        for client in self.clients.drain(..) {
            let _ = client.goodbye();
        }
        self.server.shutdown();
    }
}

/// One set-up as a user pays it: `RheemServer::start`, then per client
/// `Client::connect`, `REGISTER` of both tables and one pass over the
/// statement list (which fills the session statement cache and the plan
/// cache). Returns the session and the seconds it took; the copy of the
/// tables handed to `register` is made before the clock starts.
pub fn set_up(inputs: &Inputs) -> Result<(Session, f64), String> {
    let copies: Vec<_> = inputs
        .tables
        .iter()
        .map(|t| (t.orders.clone(), t.customers.clone()))
        .collect();
    let started = Instant::now();
    let server = RheemServer::start(ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut clients = Vec::new();
    for (c, (orders, customers)) in copies.into_iter().enumerate() {
        let wire = |e: rheem_server::protocol::WireError| format!("set-up of client {c}: {e}");
        let mut client =
            Client::connect(server.addr(), &inputs.workload.tenant(c)).map_err(wire)?;
        client
            .register("orders", workload::orders_schema(), orders)
            .map_err(wire)?;
        client
            .register("customers", workload::customers_schema(), customers)
            .map_err(wire)?;
        for (st, expected) in inputs.workload.statements.iter().zip(&inputs.expected[c]) {
            let (_, rows) = client.query(st.sql).map_err(wire)?;
            verify::check(st, expected, &rows)?;
        }
        clients.push(client);
    }
    let seconds = started.elapsed().as_secs_f64();
    Ok((Session { server, clients }, seconds))
}

/// One successful, verified query.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub statement: usize,
    /// Span id of the request when the loop was traced.
    pub span: Option<u64>,
    pub ms: f64,
}

#[derive(Default)]
pub struct LoopOutcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Failed, rejected or wrong-answer queries; they add no latency sample.
    pub failed: u64,
    /// Queries the server refused at admission (a subset of `failed`).
    pub rejected: u64,
    pub first_error: Option<String>,
    /// From the common start to the last client's last response.
    pub seconds: f64,
    /// Client time spent checking responses, summed over clients.
    pub verify_seconds: f64,
}

impl LoopOutcome {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }
}

/// Cycle every client through the statement list until `window` has passed
/// and the clients together hold `min_samples` successes. Gives up at four
/// windows, so a server that only fails cannot hang the run.
pub fn closed_loop(
    session: &mut Session,
    inputs: &Inputs,
    window: Duration,
    min_samples: usize,
    tracer: Option<&Tracer>,
) -> LoopOutcome {
    let statements = inputs.workload.statements;
    let successes = AtomicU64::new(0);
    let request_ids = AtomicU64::new(1);
    let started = Instant::now();
    let per_client: Vec<LoopOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (successes, request_ids) = (&successes, &request_ids);
                let expected = &inputs.expected[c];
                scope.spawn(move || {
                    let mut out = LoopOutcome::default();
                    let mut next = 0usize;
                    loop {
                        let elapsed = started.elapsed();
                        let enough = successes.load(Ordering::Relaxed) >= min_samples as u64;
                        if (elapsed >= window && enough) || elapsed >= 4 * window {
                            break;
                        }
                        let statement = next % statements.len();
                        next += 1;
                        let st = &statements[statement];
                        out.attempted += 1;
                        let sent = Instant::now();
                        let reply = client.query(st.sql);
                        let received = Instant::now();
                        let checked = reply
                            .map_err(|e| e.to_string())
                            .and_then(|(_, rows)| verify::check(st, &expected[statement], &rows));
                        out.verify_seconds += received.elapsed().as_secs_f64();
                        match checked {
                            Ok(()) => {
                                successes.fetch_add(1, Ordering::Relaxed);
                                let span = tracer.map(|t| {
                                    let request = request_ids.fetch_add(1, Ordering::Relaxed);
                                    t.record(None, request, "wire.query", sent, received)
                                });
                                out.samples.push(Sample {
                                    statement,
                                    span,
                                    ms: (received - sent).as_secs_f64() * 1e3,
                                });
                            }
                            Err(message) => {
                                out.failed += 1;
                                out.rejected += u64::from(message.contains("rejected:"));
                                out.first_error.get_or_insert(message);
                            }
                        }
                        out.seconds = started.elapsed().as_secs_f64();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut total = LoopOutcome::default();
    for out in per_client {
        total.samples.extend(out.samples);
        total.attempted += out.attempted;
        total.failed += out.failed;
        total.rejected += out.rejected;
        total.first_error = total.first_error.or(out.first_error);
        total.seconds = total.seconds.max(out.seconds);
        total.verify_seconds += out.verify_seconds;
    }
    total
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
