//! Multi-tenant job service over the RHEEM core (DESIGN.md §13).
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
//!   one row reader, feeding rows or — for a session's `REGISTER` — column
//!   builders;
//! * [`scheduler`] — [`scheduler::FairShareScheduler`]: fair-share
//!   scheduling of *waves* across concurrently running jobs. The executor's
//!   wave boundary is the natural preemption point (no task is ever
//!   interrupted mid-atom), so the scheduler plugs in as a
//!   [`rheem_core::WaveGate`] and grants wave slots to the tenant with the
//!   least service so far;
//! * [`service`] — [`service::JobService`]: admission control in front of
//!   the worker pool. Per-tenant in-flight quotas and a bounded global
//!   queue; over-quota submissions are rejected immediately
//!   (backpressure), never silently queued without bound;
//! * [`server`] — the TCP server: per-session `QueryCatalog` holding each
//!   registered table once, as a chunk, under per-session quotas; a bounded
//!   statement cache (SQL text → planned query), per-session cache scopes so
//!   closure-identity cache entries are never shared across sessions, and
//!   responses encoded straight from the job's sink dataset;
//! * [`client`] — a small blocking client used by the tests and the
//!   closed-loop load generator in `crates/bench`.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod service;

pub use client::Client;
pub use scheduler::{FairShareScheduler, JobGate, WaveGrant};
pub use server::{RheemServer, ServerConfig, ServerHandle};
pub use service::{AdmissionError, JobHandle, JobRun, JobService, ServiceConfig};
