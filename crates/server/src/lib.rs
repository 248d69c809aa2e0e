//! Multi-tenant job service over the RHEEM core (DESIGN.md §7).
//!
//! The embedded [`rheem_core::RheemContext`] is a library: one process, one
//! job at a time, full trust. This crate turns it into a *service*: a
//! long-running process owning a shared worker pool that accepts concurrent
//! jobs from many clients over a simple length-prefixed wire protocol.
//!
//! The moving parts, each in its own module:
//!
//! * [`protocol`] — framing and message codec (`u32` big-endian length
//!   prefix, one opcode byte, flat payload encodings for schemas, rows, and
//!   values); one row writer, fed from a result's chunk or from rows, and
//!   one row reader, feeding rows or — for a session's `REGISTER`, decoded
//!   through a fixed window as it arrives — column builders;
//! * the scheduler — [`FairShareScheduler`]: fair-share scheduling of
//!   *waves* across concurrently running jobs. The executor's wave boundary
//!   is the natural preemption point (no task is ever interrupted
//!   mid-atom), so the scheduler plugs in as a [`rheem_core::WaveGate`] and
//!   grants wave slots to the tenant with the least service so far;
//! * the service — [`JobService`]: admission control in front of the
//!   worker pool. Per-tenant in-flight quotas and a bounded global queue;
//!   over-quota submissions are rejected immediately ([`AdmissionError`],
//!   backpressure), never silently queued without bound;
//! * the server — [`RheemServer`]: per-session `QueryCatalog` holding each
//!   registered table once, as a chunk, under per-session quotas; a bounded
//!   statement cache (SQL text → planned query), per-session cache scopes so
//!   closure-identity cache entries are never shared across sessions, and
//!   responses encoded straight from the job's sink dataset;
//! * [`Client`] — a small blocking client used by the tests and the
//!   closed-loop load generator in `benchmark/`.
//!
//! ## Public surface
//!
//! **For applications:** [`RheemServer`] with its [`ServerConfig`] and
//! [`ServerHandle`], and the [`Client`].
//!
//! **For platforms and engines:** [`JobService`] with its
//! [`ServiceConfig`] and [`AdmissionError`], and the
//! [`FairShareScheduler`] a service's jobs share.
//!
//! **For tests:** the codec's paths the equivalence suites hold to the row
//! form ([`protocol::encode_result`] with its [`protocol::ResultPath`],
//! [`protocol::Registration::decode`], and [`protocol::read_incoming`], the
//! session's frame reader), [`RheemServer::start_with_context`]
//! to serve a caller-built context, [`Client::stats`] for the counters a
//! test reads back, and the service's job API the chaos suite drives
//! ([`JobService::submit_job`], [`JobService::inflight_ids`],
//! [`JobService::inflight`], [`JobService::queued`], and the handle's `id`
//! and `wait`).
//!
//! [`protocol`] stays a public module: the standalone `benchmark` package
//! names its frame reader and writer, requests, responses and row encoder by
//! that path.

#![warn(missing_docs)]

mod client;
pub mod protocol;
mod scheduler;
mod server;
mod service;

pub use client::Client;
pub use scheduler::FairShareScheduler;
pub use server::{RheemServer, ServerConfig, ServerHandle};
pub use service::{AdmissionError, JobService, ServiceConfig};
