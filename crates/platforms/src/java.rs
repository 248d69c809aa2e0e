//! The single-process platform — the paper's "plain Java program".
//!
//! Figure 2 of the paper compares SVM "as a Spark job and as a plain Java
//! program" and finds Java up to an order of magnitude faster on small
//! datasets because it pays no distribution overhead. [`JavaPlatform`]
//! reproduces that profile: straight-line, single-threaded evaluation via
//! the core's reference interpreter, with (near-)zero fixed costs.

use rheem_core::{
    AtomInputs, AtomResult, ChannelKind, ChannelSet, Clock, ExecutionContext, PhysicalOp,
    PhysicalPlan, Platform, Result, TaskAtom,
};

use crate::config::OverheadConfig;
use crate::runner::run_in_process;

/// Single-threaded in-process execution engine.
///
/// "Single-threaded" describes the orchestration (one process, no
/// partitioning, no shuffles). Kernels inside an atom still run on the
/// morsel threads of the ambient
/// [`ExecutionContext::kernel_parallelism`]; what that gains reaches the
/// optimizer as learned kernel rates ([`rheem_core::CostCalibration`]),
/// never as a declared speedup.
pub struct JavaPlatform {
    overheads: OverheadConfig,
}

impl Default for JavaPlatform {
    fn default() -> Self {
        JavaPlatform::new()
    }
}

impl JavaPlatform {
    /// A platform with zero overheads.
    pub fn new() -> Self {
        JavaPlatform {
            overheads: OverheadConfig::none(),
        }
    }

    /// Override the overhead configuration.
    pub fn with_overheads(mut self, overheads: OverheadConfig) -> Self {
        self.overheads = overheads;
        self
    }
}

impl Platform for JavaPlatform {
    fn name(&self) -> &str {
        "java"
    }

    fn supports(&self, _op: &PhysicalOp) -> bool {
        true // the reference interpreter implements the full algebra
    }

    /// In process, handing over in-memory collections.
    fn clock(&self) -> Clock {
        Clock::in_process(
            self.overheads.startup_ms(),
            1.0,
            ChannelSet::of(&[ChannelKind::Memory]),
        )
    }

    fn execute_atom(
        &self,
        plan: &PhysicalPlan,
        atom: &TaskAtom,
        inputs: &AtomInputs,
        ctx: &ExecutionContext,
    ) -> Result<AtomResult> {
        run_in_process(&self.overheads, &self.clock(), plan, atom, inputs, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::udf::{FilterUdf, KeyUdf, MapUdf, ReduceUdf};
    use rheem_core::{rec, PlanBuilder, RheemContext};
    use std::sync::Arc;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    #[test]
    fn end_to_end_pipeline_on_java() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..100i64).map(|i| rec![i]).collect());
        let f = b.filter(src, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0));
        let m = b.map(f, MapUdf::new("x10", |r| rec![r.int(0).unwrap() * 10]));
        let sink = b.collect(m);
        let result = ctx().execute(b.build().unwrap()).unwrap();
        let out = &result.outputs[&sink];
        assert_eq!(out.len(), 50);
        assert_eq!(out.records()[1], rec![20i64]);
        assert_eq!(result.stats.platforms_used(), vec!["java"]);
        assert_eq!(result.stats.atoms.len(), 1);
    }

    #[test]
    fn keyed_aggregation_on_java() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..60i64).map(|i| rec![i % 3, 1i64]).collect());
        let red = b.reduce_by_key(
            src,
            KeyUdf::field(0),
            ReduceUdf::new("count", |a, x| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
            }),
        );
        let sink = b.collect(red);
        let result = ctx().execute(b.build().unwrap()).unwrap();
        assert_eq!(
            result.outputs[&sink].records(),
            &[rec![0i64, 20i64], rec![1i64, 20i64], rec![2i64, 20i64]]
        );
    }

    #[test]
    fn supports_everything_and_reports_its_channels() {
        let p = JavaPlatform::new();
        assert!(p.supports(&PhysicalOp::CrossProduct));
        assert_eq!(p.clock().channels, ChannelSet::of(&[ChannelKind::Memory]));
        assert_eq!(p.name(), "java");
    }

    #[test]
    fn overheads_are_reported() {
        let p = JavaPlatform::new().with_overheads(OverheadConfig::accounted_only(
            std::time::Duration::from_millis(9),
            std::time::Duration::ZERO,
        ));
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        b.collect(src);
        let plan = b.build().unwrap();
        let ctx = RheemContext::new().with_platform(Arc::new(p));
        let result = ctx.execute(plan).unwrap();
        assert_eq!(
            result
                .stats
                .atoms
                .iter()
                .map(|a| a.simulated_overhead_ms)
                .sum::<f64>(),
            9.0
        );
    }
}
