//! # rheem-core
//!
//! A Rust implementation of the RHEEM vision from *"Road to Freedom in Big
//! Data Analytics"* (EDBT 2016): a three-layer data processing abstraction
//! that frees applications from being tied to a single data processing
//! platform.
//!
//! The three layers (paper Figure 1):
//!
//! 1. **Application layer** — [`logical`] operators: application-specific
//!    UDF templates over *data quanta* ([`Record`]).
//! 2. **Core layer** — [`PhysicalOp`]s and [`PhysicalPlan`]s; the
//!    [`MultiPlatformOptimizer`] lowers logical plans
//!    ([`LogicalPlan::lower`](logical::LogicalPlan::lower)), rewrites them,
//!    assigns a platform to every operator by pricing it through each
//!    platform's [`Clock`] over a learned kernel-rate table
//!    ([`CostCalibration`]) plus inter-platform [`MovementCostModel`]
//!    costs, and splits the result into task atoms.
//! 3. **Platform layer** — [`Platform`] implementations (see the
//!    `rheem-platforms` crate) run task atoms with their own execution
//!    operators; the executor behind [`RheemContext::execute`] schedules
//!    atoms, monitors progress, retries failures, and aggregates results.
//!
//! Start with [`RheemContext`] and [`PlanBuilder`].
//!
//! ## Public surface
//!
//! Every module is private; what another crate uses is re-exported here by
//! name. The compiler holds the rest to `dead_code`.
//!
//! **For applications:** [`RheemContext`], [`PlanBuilder`] and
//! [`PhysicalPlan`] with its [`NodeId`]s, the data model ([`Record`],
//! [`Value`], [`Dataset`], [`Chunk`], [`Column`], [`ColumnBuilder`],
//! [`Schema`], [`DataType`], [`rec!`]), the [`udf`] templates, [`Expr`] and
//! [`BinOp`], SQL through [`query::QueryCatalog`], the [`logical`] layer,
//! [`JobResult`] with its [`ExecutionStats`] and [`AtomStats`],
//! [`RheemError`], [`CancelReason`] and [`Result`], the job settings
//! ([`KernelParallelism`], [`FaultPolicy`] with [`BackoffPolicy`] and
//! [`BreakerPolicy`], [`ReplanPolicy`], [`CancelToken`],
//! [`MovementCostModel`], [`EnumerationConfig`]), the plan cache
//! ([`PlanCache`], [`PlanCacheConfig`], [`PlanCacheStats`]), an
//! [`ExecutionPlan`] and how it was enumerated ([`EnumerationPath`]), and
//! the [`Observability`] hub with its metrics ([`MetricsRegistry`],
//! [`Counter`], [`Gauge`], [`Histogram`], [`HistogramSnapshot`]).
//!
//! **For platforms and engines:** the [`Platform`] trait with its
//! [`ExecutionContext`], [`TaskAtom`], [`AtomInputs`], [`AtomResult`] and
//! [`NodeObservation`]s; the [`Clock`] a platform states itself by, with its
//! [`Exchange`] and the [`ChannelSet`] of [`ChannelKind`]s it reads and
//! writes; the interpreter
//! ([`run_fragment`], [`execute_op`]), the operator table
//! ([`kernels::execute`]), the [`Layout`] of every [`PhysicalOp`] and the
//! chunk [`PipelineStage`]s of its [`StageKind`]s; [`CustomPhysicalOp`] for
//! extension operators; [`StorageService`] for storage layers;
//! [`WaveGate`] for a scheduler between waves; and the optimizer's steps
//! for a harness that times them one by one ([`apply_rewrites`],
//! [`enumerate()`], [`split_into_atoms`]), with [`NodeEstimate`] for a
//! hand-built [`ExecutionPlan`].
//!
//! **For tests:** the references a test compares against — [`run_plan`],
//! [`enumerate_exhaustive`], [`assignment_cost`], the route and price
//! [`MovementCostModel::route`] puts on a boundary,
//! [`MultiPlatformOptimizer::without_rewrites`],
//! [`kernels::chunked::run_stages_rows`], [`kernels::flat_map`] and
//! [`BackoffPolicy::delay`]; the morsel-parallel twins under test
//! ([`kernels::parallel::map`], [`kernels::parallel::flat_map`],
//! [`kernels::parallel::sort_group`]); what the platform-independence
//! oracle builds its plans and contexts with ([`PlanBuilder::add`],
//! [`PhysicalOp::arity`], [`PhysicalOp::is_sink`],
//! [`PhysicalOp::pipeline_stages`], [`ExecutionContext::with_storage`],
//! [`ExecutionContext::with_kernel_parallelism`] and the registry's
//! platforms through `RheemContext::platforms().all()`); and the seams that
//! inject a fault, a fake or a worst case — [`FailureInjector`] with its
//! [`InjectedKind`], [`VirtualSleeper`] through
//! [`RheemContext::with_sleeper`], [`MemoryStorageService`],
//! [`KernelParallelism::with_morsel_size`],
//! [`KernelParallelism::with_min_rows`], [`PlatformHealth::is_open`]
//! through [`RheemContext::platform_health`], observed kernel work fed to
//! and read from the [`CostCalibration`] rate table
//! ([`CostCalibration::observe`], [`CostCalibration::rate`],
//! [`CostCalibration::snapshot`], [`KernelKey`], [`Rate`]), and [`kernels::hash_i64`] with
//! [`kernels::radix_bucket`] (keys that all land in one radix bucket).
//!
//! Seven module paths stay public because the standalone `benchmark`
//! package names items by them:
//!
//! * [`kernels`] — the row kernels and the operator table;
//! * [`kernels::chunked`] — the chunk kernels;
//! * [`kernels::parallel`] — the morsel-parallel row kernels;
//! * [`logical`] — the application layer's operators;
//! * [`query`] — SQL planning;
//! * [`query::parser`] — the SQL parser;
//! * [`udf`] — the UDF templates.

#![warn(missing_docs)]

mod context;
mod cost;
mod data;
mod error;
mod executor;
mod expr;
mod fault;
mod interpreter;
pub mod kernels;
pub mod logical;
mod observe;
mod optimizer;
mod physical;
mod plan;
mod platform;
pub mod query;
pub mod udf;

pub use context::RheemContext;
pub use cost::{ChannelKind, ChannelSet, Clock, Exchange, MovementCostModel};
pub use data::{Chunk, Column, ColumnBuilder, DataType, Dataset, Record, Schema, Text, Value};
pub use error::{CancelReason, Result, RheemError};
pub use executor::{AtomStats, ExecutionStats, JobResult, WaveGate};
pub use expr::{BinOp, Expr};
pub use fault::{
    BackoffPolicy, BreakerPolicy, CancelToken, FaultPolicy, PlatformHealth, VirtualSleeper,
};
pub use interpreter::{execute_op, run_fragment, run_plan};
pub use kernels::parallel::KernelParallelism;
pub use observe::{
    CostCalibration, Counter, Gauge, Histogram, HistogramSnapshot, KernelKey, MetricsRegistry,
    NodeObservation, Observability, Rate, Timing, WorkClock,
};
pub use optimizer::{
    apply_rewrites, assignment_cost, enumerate, enumerate_exhaustive, split_into_atoms,
    EnumerationConfig, MultiPlatformOptimizer, PlanCache, PlanCacheConfig, PlanCacheStats,
    ReplanPolicy,
};
pub use physical::{CustomPhysicalOp, Layout, PhysicalOp, PipelineStage, StageKind};
pub use plan::{
    EnumerationPath, ExecutionPlan, NodeEstimate, NodeId, PhysicalPlan, PlanBuilder, TaskAtom,
};
pub use platform::{
    AtomInputs, AtomResult, ExecutionContext, FailureInjector, InjectedKind, MemoryStorageService,
    Platform, StorageService,
};
