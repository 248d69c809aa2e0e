//! Cost estimation: cardinalities, platform cost models, movement costs.
//!
//! The paper requires that "rules and cost models \[be\] plugins and not
//! hard-coded as in traditional database optimizers" (§4.2, second aspect)
//! and that the optimizer "consider inter-platform cost models to
//! effectively take into account the cost of moving data and computation
//! across underlying processing platforms" (third aspect). Accordingly:
//!
//! * every platform ships its own [`PlatformCostModel`] implementation,
//!   registered together with the platform;
//! * cross-platform transfer prices live in a [`MovementCostModel`] that the
//!   optimizer consults for every candidate platform switch;
//! * the [`CardinalityEstimator`] feeds both with dataset-size estimates.
//!
//! All costs are in *abstract milliseconds*: platform models are calibrated
//! relative to each other, which is all plan comparison needs.

use std::collections::HashMap;

use crate::error::{Result, RheemError};
use crate::observe::CostCalibration;
use crate::physical::PhysicalOp;
use crate::plan::PhysicalPlan;

/// Estimates output cardinality for every node of a plan.
#[derive(Clone, Debug)]
pub struct CardinalityEstimator {
    /// Known cardinalities of storage-layer datasets, by dataset id.
    pub source_hints: HashMap<String, f64>,
    /// Fallback cardinality for unknown storage sources.
    pub default_source_card: f64,
}

impl Default for CardinalityEstimator {
    fn default() -> Self {
        CardinalityEstimator {
            source_hints: HashMap::new(),
            default_source_card: 1_000.0,
        }
    }
}

impl CardinalityEstimator {
    /// Register the known cardinality of a storage dataset.
    pub fn hint(&mut self, dataset_id: impl Into<String>, card: f64) {
        self.source_hints.insert(dataset_id.into(), card);
    }

    /// Estimated output cardinality per node, indexed by node id.
    ///
    /// Fails with [`RheemError::InvalidPlan`] if a binary operator has
    /// fewer than two wired inputs (a malformed plan must surface as an
    /// error, never as an index panic inside the optimizer).
    pub fn estimate(&self, plan: &PhysicalPlan) -> Result<Vec<f64>> {
        self.estimate_with_loop_input(plan, 0.0)
    }

    /// Like [`CardinalityEstimator::estimate`], binding `LoopInput` nodes to
    /// `loop_card` (used when recursing into loop bodies).
    pub fn estimate_with_loop_input(
        &self,
        plan: &PhysicalPlan,
        loop_card: f64,
    ) -> Result<Vec<f64>> {
        let mut cards = vec![0.0f64; plan.len()];
        for node in plan.nodes() {
            let ins: Vec<f64> = node
                .inputs
                .iter()
                .map(|i| {
                    cards.get(i.0).copied().ok_or_else(|| {
                        RheemError::InvalidPlan(format!(
                            "node {} consumes node {} outside the plan ({} nodes)",
                            node.id,
                            i,
                            plan.len()
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            cards[node.id.0] = self.op_output_card(&node.op, &ins, loop_card)?;
        }
        Ok(cards)
    }

    fn op_output_card(&self, op: &PhysicalOp, ins: &[f64], loop_card: f64) -> Result<f64> {
        let in0 = ins.first().copied().unwrap_or(0.0);
        Ok(match op {
            PhysicalOp::CollectionSource { data, .. } => data.len() as f64,
            PhysicalOp::StorageSource { dataset_id } => self
                .source_hints
                .get(dataset_id)
                .copied()
                .unwrap_or(self.default_source_card),
            PhysicalOp::LoopInput => loop_card,
            PhysicalOp::Map(_) | PhysicalOp::Project { .. } => in0,
            PhysicalOp::ChunkPipeline { stages } => {
                // The fused pipeline's cardinality is the fold of its
                // stages: filters scale by selectivity, maps/projects are
                // one-to-one.
                stages.iter().fold(in0, |card, s| match &s.kind {
                    crate::physical::StageKind::Filter { selectivity, .. } => card * selectivity,
                    _ => card,
                })
            }
            PhysicalOp::FlatMap(u) => in0 * u.fanout,
            PhysicalOp::Filter(u) => in0 * u.selectivity,
            PhysicalOp::Limit { n } => in0.min(*n as f64),
            PhysicalOp::Sort { .. } => in0,
            PhysicalOp::SortGroupBy { key, group } | PhysicalOp::HashGroupBy { key, group } => {
                distinct_keys(key.distinct_keys, in0) * group.per_group_output
            }
            PhysicalOp::ReduceByKey { key, .. } => distinct_keys(key.distinct_keys, in0),
            PhysicalOp::GlobalReduce { .. } => 1.0,
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            } => {
                let (l, r) = binary_inputs(op, ins)?;
                let dl = distinct_keys(left_key.distinct_keys, l);
                let dr = distinct_keys(right_key.distinct_keys, r);
                if dl.max(dr) > 0.0 {
                    l * r / dl.max(dr)
                } else {
                    0.0
                }
            }
            PhysicalOp::NestedLoopJoin { selectivity, .. } => {
                let (l, r) = binary_inputs(op, ins)?;
                l * r * selectivity
            }
            PhysicalOp::CrossProduct => {
                let (l, r) = binary_inputs(op, ins)?;
                l * r
            }
            PhysicalOp::Union => {
                let (l, r) = binary_inputs(op, ins)?;
                l + r
            }
            PhysicalOp::Loop { body, .. } => {
                let body_cards = self.estimate_with_loop_input(body, in0)?;
                let terminals = body.terminals();
                terminals.first().map(|t| body_cards[t.0]).unwrap_or(in0)
            }
            PhysicalOp::Custom(c) => c.output_cardinality(ins),
            PhysicalOp::CollectSink | PhysicalOp::StorageSink { .. } => in0,
            PhysicalOp::CountSink => 1.0,
        })
    }
}

/// Both input cardinalities of a binary operator, or `InvalidPlan` if the
/// node is mis-wired (fewer than two inputs).
fn binary_inputs(op: &PhysicalOp, ins: &[f64]) -> Result<(f64, f64)> {
    match ins {
        [l, r, ..] => Ok((*l, *r)),
        _ => Err(RheemError::InvalidPlan(format!(
            "binary operator {} has {} wired input(s), needs 2",
            op.name(),
            ins.len()
        ))),
    }
}

fn distinct_keys(hint: Option<f64>, card: f64) -> f64 {
    hint.unwrap_or_else(|| card.sqrt().max(1.0))
        .min(card.max(1.0))
}

/// Platform-independent work estimate for an operator, in abstract
/// record-touch units. Platform cost models typically scale this by their
/// per-record price and parallelism.
///
/// Total over any `ins`: missing inputs count as cardinality 0 so that
/// infallible [`PlatformCostModel::op_cost`] implementations can call this
/// on partially wired nodes without panicking (plan validity itself is
/// checked by [`CardinalityEstimator::estimate`]).
pub fn op_work_units(op: &PhysicalOp, ins: &[f64], out: f64) -> f64 {
    let in0 = ins.first().copied().unwrap_or(0.0);
    let in1 = ins.get(1).copied().unwrap_or(0.0);
    let nlogn = |n: f64| n * (n.max(2.0)).log2();
    match op {
        PhysicalOp::CollectionSource { .. }
        | PhysicalOp::StorageSource { .. }
        | PhysicalOp::LoopInput => out,
        PhysicalOp::Map(_)
        | PhysicalOp::FlatMap(_)
        | PhysicalOp::Filter(_)
        | PhysicalOp::Project { .. }
        | PhysicalOp::Limit { .. } => in0 + out,
        // A fused pipeline is a single pass over the input regardless of
        // how many operators were folded into it — that is the point of
        // fusing (no intermediate materialization between stages).
        PhysicalOp::ChunkPipeline { .. } => in0 + out,
        PhysicalOp::SortGroupBy { .. } => nlogn(in0) + out,
        PhysicalOp::HashGroupBy { .. } | PhysicalOp::ReduceByKey { .. } => in0 + out,
        PhysicalOp::GlobalReduce { .. } => in0,
        PhysicalOp::Sort { .. } => nlogn(in0),
        PhysicalOp::HashJoin { .. } => ins.iter().sum::<f64>() + out,
        PhysicalOp::NestedLoopJoin { .. } | PhysicalOp::CrossProduct => in0 * in1 + out,
        PhysicalOp::Union => out,
        // Loop work is handled by the optimizer (it recurses into the body);
        // this is only the per-iteration plumbing.
        PhysicalOp::Loop { .. } => in0,
        PhysicalOp::Custom(c) => c.cost_factor() * (ins.iter().sum::<f64>() + out),
        PhysicalOp::CollectSink | PhysicalOp::CountSink | PhysicalOp::StorageSink { .. } => in0,
    }
}

/// A platform's pluggable cost model (abstract milliseconds).
pub trait PlatformCostModel: Send + Sync {
    /// Cost of executing `op` on this platform.
    fn op_cost(&self, op: &PhysicalOp, input_cards: &[f64], output_card: f64) -> f64;

    /// Fixed overhead charged once per task atom scheduled on this platform
    /// (job submission, container spin-up, connection setup, ...).
    fn atom_startup_cost(&self) -> f64;
}

/// A simple linear cost model: `startup + work_units · per_unit / speedup`.
///
/// Good enough for the built-in platforms; applications may implement
/// [`PlatformCostModel`] directly for anything richer.
#[derive(Clone, Debug)]
pub struct LinearCostModel {
    /// Price per work unit in abstract ms.
    pub per_unit: f64,
    /// Effective parallel speedup (1.0 for single-threaded platforms).
    pub speedup: f64,
    /// Fixed per-atom overhead in abstract ms.
    pub startup: f64,
    /// Extra per-unit price for operators that force a shuffle/barrier.
    pub shuffle_surcharge: f64,
}

impl LinearCostModel {
    /// A model for a zero-overhead, single-threaded engine.
    pub fn single_threaded(per_unit: f64) -> Self {
        LinearCostModel {
            per_unit,
            speedup: 1.0,
            startup: 0.0,
            shuffle_surcharge: 0.0,
        }
    }
}

/// Whether an operator requires repartitioning on a partitioned platform
/// (its [`Layout`](crate::physical::Layout) shuffles, gathers or broadcasts).
pub fn requires_shuffle(op: &PhysicalOp) -> bool {
    op.layout().repartitions()
}

/// A platform's static operator cost, corrected by the runtime-observed
/// calibration factor for the `(operator, platform)` pair.
///
/// This is where the observe layer's feedback loop touches cost
/// estimation: the factor is the EMA of observed/estimated ratios kept by
/// [`CostCalibration`] (1.0 for never-observed pairs, i.e. a no-op until
/// the first calibrated job ran).
pub fn calibrated_op_cost(
    model: &dyn PlatformCostModel,
    op: &PhysicalOp,
    input_cards: &[f64],
    output_card: f64,
    platform_name: &str,
    calibration: &CostCalibration,
) -> f64 {
    model.op_cost(op, input_cards, output_card) * calibration.cost_factor(&op.name(), platform_name)
}

impl PlatformCostModel for LinearCostModel {
    fn op_cost(&self, op: &PhysicalOp, input_cards: &[f64], output_card: f64) -> f64 {
        let work = op_work_units(op, input_cards, output_card);
        let mut per_unit = self.per_unit;
        if requires_shuffle(op) {
            per_unit += self.shuffle_surcharge;
        }
        work * per_unit / self.speedup.max(1.0)
    }

    fn atom_startup_cost(&self) -> f64 {
        self.startup
    }
}

// ---------------------------------------------------------------------------
// Data movement channels
// ---------------------------------------------------------------------------

/// The kind of data channel an atom boundary uses (RHEEMix-style explicit
/// data-movement channels): every platform declares which kinds it can
/// produce and consume, and crossing between platforms whose channel sets
/// do not intersect requires *conversion operators* priced by the
/// [`ChannelConversionGraph`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChannelKind {
    /// An in-process (or shared-memory) collection handle.
    #[default]
    Memory,
    /// A file materialized on (distributed) storage.
    File,
    /// A record stream / pipe between running processes.
    Stream,
}

impl ChannelKind {
    /// Lower-case display name (used by explain renderers).
    pub fn as_str(&self) -> &'static str {
        match self {
            ChannelKind::Memory => "memory",
            ChannelKind::File => "file",
            ChannelKind::Stream => "stream",
        }
    }

    /// All channel kinds, in a fixed order.
    pub const ALL: [ChannelKind; 3] = [ChannelKind::Memory, ChannelKind::File, ChannelKind::Stream];
}

impl std::fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The channel kinds one platform can produce and consume at atom
/// boundaries (declared via
/// [`Platform::channels`](crate::platform::Platform::channels)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Channel kinds this platform can write its boundary outputs to.
    pub outputs: Vec<ChannelKind>,
    /// Channel kinds this platform can read boundary inputs from.
    pub inputs: Vec<ChannelKind>,
}

impl ChannelSpec {
    /// A platform that only speaks in-memory collections (the default for
    /// platforms that declare nothing richer).
    pub fn memory_only() -> Self {
        ChannelSpec {
            outputs: vec![ChannelKind::Memory],
            inputs: vec![ChannelKind::Memory],
        }
    }

    /// A spec with explicit output and input channel kinds.
    pub fn new(outputs: Vec<ChannelKind>, inputs: Vec<ChannelKind>) -> Self {
        ChannelSpec { outputs, inputs }
    }
}

impl Default for ChannelSpec {
    fn default() -> Self {
        ChannelSpec::memory_only()
    }
}

/// One conversion operator in the channel conversion graph: re-encodes
/// data from one channel kind into another at a fixed + per-record price.
#[derive(Clone, Debug)]
pub struct ConversionOp {
    /// Display name (e.g. `serialize`), used by explain renderers.
    pub name: String,
    /// Fixed price of running the conversion at all.
    pub fixed: f64,
    /// Per-record price.
    pub per_record: f64,
}

/// The channel conversion graph: which channel-kind conversions exist and
/// what they cost. Shortest conversion *paths* are found over this graph,
/// so a `File → Stream` hop may route through `Memory` even though no
/// direct conversion is registered.
#[derive(Clone, Debug)]
pub struct ChannelConversionGraph {
    edges: HashMap<(ChannelKind, ChannelKind), ConversionOp>,
}

impl Default for ChannelConversionGraph {
    fn default() -> Self {
        let mut g = ChannelConversionGraph {
            edges: HashMap::new(),
        };
        // Defaults mirror the built-in platforms' relative overheads:
        // touching disk costs more than draining a stream.
        g.register(
            ChannelKind::Memory,
            ChannelKind::File,
            "serialize",
            0.5,
            0.002,
        );
        g.register(
            ChannelKind::File,
            ChannelKind::Memory,
            "deserialize",
            0.5,
            0.002,
        );
        g.register(
            ChannelKind::Memory,
            ChannelKind::Stream,
            "publish",
            0.2,
            0.001,
        );
        g.register(
            ChannelKind::Stream,
            ChannelKind::Memory,
            "drain",
            0.2,
            0.001,
        );
        g
    }
}

impl ChannelConversionGraph {
    /// A graph with no conversions at all (only like-for-like channel
    /// hand-offs are possible).
    pub fn empty() -> Self {
        ChannelConversionGraph {
            edges: HashMap::new(),
        }
    }

    /// Register (or replace) the conversion `from -> to`.
    pub fn register(
        &mut self,
        from: ChannelKind,
        to: ChannelKind,
        name: impl Into<String>,
        fixed: f64,
        per_record: f64,
    ) {
        self.edges.insert(
            (from, to),
            ConversionOp {
                name: name.into(),
                fixed,
                per_record,
            },
        );
    }

    /// The registered direct conversion `from -> to`, if any.
    pub fn conversion(&self, from: ChannelKind, to: ChannelKind) -> Option<&ConversionOp> {
        self.edges.get(&(from, to))
    }

    /// Cheapest conversion path from any kind in `outs` to any kind in
    /// `ins` for `records` data quanta. Returns the visited channel kinds
    /// (length 1 when producer and consumer share a kind) and the summed
    /// conversion price, or `None` when the sets cannot be connected.
    pub fn cheapest_path(
        &self,
        outs: &[ChannelKind],
        ins: &[ChannelKind],
        records: f64,
    ) -> Option<(Vec<ChannelKind>, f64)> {
        let records = records.max(0.0);
        let mut best: Option<(Vec<ChannelKind>, f64)> = None;
        // The graph has three nodes; Bellman-Ford-style relaxation over
        // all kinds is exact and allocation-light.
        for &start in outs {
            let mut dist: HashMap<ChannelKind, (f64, Vec<ChannelKind>)> = HashMap::new();
            dist.insert(start, (0.0, vec![start]));
            for _ in 0..ChannelKind::ALL.len() {
                for &from in &ChannelKind::ALL {
                    let Some((d, path)) = dist.get(&from).cloned() else {
                        continue;
                    };
                    for &to in &ChannelKind::ALL {
                        let Some(op) = self.edges.get(&(from, to)) else {
                            continue;
                        };
                        let nd = d + op.fixed + op.per_record * records;
                        let better = dist.get(&to).is_none_or(|(cur, _)| nd < *cur);
                        if better {
                            let mut p = path.clone();
                            p.push(to);
                            dist.insert(to, (nd, p));
                        }
                    }
                }
            }
            for &end in ins {
                if let Some((d, path)) = dist.get(&end) {
                    if best.as_ref().is_none_or(|(_, b)| d < b) {
                        best = Some((path.clone(), *d));
                    }
                }
            }
        }
        best
    }
}

/// A priced route for one cross-platform boundary edge: the channel kinds
/// the data passes through plus the transport and conversion components.
#[derive(Clone, Debug)]
pub struct ChannelRoute {
    /// Channel kinds visited, producer side first. A single entry means
    /// the producer's output channel is directly consumable.
    pub path: Vec<ChannelKind>,
    /// The flat transport component (`fixed + per_record · records`).
    pub transport_ms: f64,
    /// The conversion component along `path`.
    pub conversion_ms: f64,
}

impl ChannelRoute {
    /// Total price of the route.
    pub fn total_ms(&self) -> f64 {
        self.transport_ms + self.conversion_ms
    }
}

/// Inter-platform data movement prices (the paper's §4.2 third aspect and
/// §8 challenge 2's "inter-platform cost model").
///
/// Two layers, both charged on every platform switch: a flat
/// `fixed + default_per_record · records` transport price, plus the
/// cheapest conversion path through the [`ChannelConversionGraph`] from the
/// producer's output channels to the consumer's input channels — each
/// platform's own [`Platform::channels`](crate::platform::Platform::channels).
#[derive(Clone, Debug)]
pub struct MovementCostModel {
    /// Fixed cost of any platform switch (channel setup).
    pub fixed: f64,
    /// Per-record transfer price.
    pub default_per_record: f64,
    /// Channel conversion prices.
    pub conversions: ChannelConversionGraph,
}

impl Default for MovementCostModel {
    fn default() -> Self {
        MovementCostModel {
            fixed: 1.0,
            default_per_record: 0.001,
            conversions: ChannelConversionGraph::default(),
        }
    }
}

impl MovementCostModel {
    /// A model with the given fixed and per-record prices.
    pub fn new(fixed: f64, default_per_record: f64) -> Self {
        MovementCostModel {
            fixed,
            default_per_record,
            ..MovementCostModel::default()
        }
    }

    /// A model in which moving data is free (for tests and ablations).
    pub fn free() -> Self {
        let mut m = MovementCostModel::new(0.0, 0.0);
        m.conversions = ChannelConversionGraph::empty();
        m
    }

    /// The priced route for moving `records` data quanta across a platform
    /// switch, from a producer speaking `from` to a consumer speaking `to`
    /// (callers price switches only; staying on a platform is free).
    /// Unconnectable channel sets are charged the transport price alone,
    /// with an empty path — as if a bespoke copy operator existed — so
    /// enumeration never wedges on an exotic platform pair.
    pub fn route(&self, from: &ChannelSpec, to: &ChannelSpec, records: f64) -> ChannelRoute {
        let (path, conversion_ms) = self
            .conversions
            .cheapest_path(&from.outputs, &to.inputs, records)
            .unwrap_or_default();
        ChannelRoute {
            path,
            transport_ms: self.fixed + self.default_per_record * records,
            conversion_ms,
        }
    }
}

/// Symmetric estimation-error ratio between an estimated and an observed
/// quantity: `max(observed / estimated, estimated / observed)`.
///
/// A perfect estimate yields `1.0`, and the ratio grows the further the
/// estimate was off, regardless of direction — under- and over-estimation
/// drift alike, which is what the executor's re-planning trigger needs.
/// Degenerate cases: both sides (near) zero means the estimate was right
/// (`1.0`); exactly one side zero means it was arbitrarily wrong
/// (`f64::INFINITY`).
pub fn drift_ratio(estimated: f64, observed: f64) -> f64 {
    const EPS: f64 = 1e-9;
    let e = estimated.max(0.0);
    let o = observed.max(0.0);
    if e < EPS && o < EPS {
        1.0
    } else if e < EPS || o < EPS {
        f64::INFINITY
    } else {
        (o / e).max(e / o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::rec;
    use crate::udf::{FilterUdf, FlatMapUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf};

    fn records(n: usize) -> Vec<crate::data::Record> {
        (0..n as i64).map(|i| rec![i]).collect()
    }

    #[test]
    fn source_map_filter_cards() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", records(100));
        let m = b.map(src, MapUdf::new("id", |r| r.clone()));
        let f = b.filter(m, FilterUdf::new("half", |_| true).with_selectivity(0.1));
        b.collect(f);
        let plan = b.build().unwrap();
        let cards = CardinalityEstimator::default().estimate(&plan).unwrap();
        assert_eq!(cards[0], 100.0);
        assert_eq!(cards[1], 100.0);
        assert!((cards[2] - 10.0).abs() < 1e-9);
        assert!((cards[3] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flatmap_fanout_and_groupby_distinct_hints() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", records(100));
        let fm = b.flat_map(
            src,
            FlatMapUdf::new("x3", |r| vec![r.clone(); 3]).with_fanout(3.0),
        );
        let g = b.group_by(
            fm,
            KeyUdf::field(0).with_distinct_keys(10.0),
            GroupMapUdf::identity().with_per_group_output(2.0),
        );
        b.collect(g);
        let plan = b.build().unwrap();
        let cards = CardinalityEstimator::default().estimate(&plan).unwrap();
        assert_eq!(cards[1], 300.0);
        assert_eq!(cards[2], 20.0); // 10 keys × 2 outputs per group
    }

    #[test]
    fn storage_source_uses_hints() {
        let mut b = PlanBuilder::new();
        let src = b.storage_source("big");
        b.count(src);
        let plan = b.build().unwrap();
        let mut est = CardinalityEstimator::default();
        assert_eq!(est.estimate(&plan).unwrap()[0], 1000.0); // default
        est.hint("big", 5e6);
        assert_eq!(est.estimate(&plan).unwrap()[0], 5e6);
        assert_eq!(est.estimate(&plan).unwrap()[1], 1.0); // CountSink
    }

    #[test]
    fn loop_card_flows_through_body() {
        let mut body = PlanBuilder::new();
        let li = body.loop_input();
        body.filter(li, FilterUdf::new("keep", |_| true).with_selectivity(1.0));
        let body = body.build_fragment().unwrap();

        let mut b = PlanBuilder::new();
        let src = b.collection("s", records(50));
        let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(4), 4);
        b.collect(l);
        let plan = b.build().unwrap();
        let cards = CardinalityEstimator::default().estimate(&plan).unwrap();
        assert_eq!(cards[1], 50.0);
    }

    #[test]
    fn cross_product_and_join_cards() {
        let mut b = PlanBuilder::new();
        let l = b.collection("l", records(100));
        let r = b.collection("r", records(400));
        let cp = b.cross_product(l, r);
        let j = b.hash_join(l, r, KeyUdf::field(0), KeyUdf::field(0));
        b.collect(cp);
        b.collect(j);
        let plan = b.build().unwrap();
        let cards = CardinalityEstimator::default().estimate(&plan).unwrap();
        assert_eq!(cards[cp.0], 40_000.0);
        // 100*400 / max(sqrt(100), sqrt(400)) = 40000/20 = 2000
        assert!((cards[j.0] - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn malformed_binary_ops_are_invalid_plan_not_panics() {
        use crate::plan::{NodeId, PhysicalNode, PhysicalPlan};
        // A Union wired with a single input: invalid, but it must surface
        // as an error rather than an `ins[1]` index panic.
        let plan = PhysicalPlan::from_nodes(vec![
            PhysicalNode {
                id: NodeId(0),
                op: PhysicalOp::CollectionSource {
                    data: crate::data::Dataset::new(records(5)),
                    name: "s".into(),
                },
                inputs: vec![],
            },
            PhysicalNode {
                id: NodeId(1),
                op: PhysicalOp::Union,
                inputs: vec![NodeId(0)],
            },
        ]);
        let est = CardinalityEstimator::default();
        assert!(matches!(
            est.estimate(&plan),
            Err(RheemError::InvalidPlan(_))
        ));
        // And the work-unit estimate stays total (missing input => 0 work).
        assert_eq!(op_work_units(&PhysicalOp::CrossProduct, &[100.0], 0.0), 0.0);
        assert_eq!(
            op_work_units(
                &PhysicalOp::HashJoin {
                    left_key: KeyUdf::field(0),
                    right_key: KeyUdf::field(0),
                },
                &[],
                0.0
            ),
            0.0
        );
    }

    #[test]
    fn dangling_input_edges_are_invalid_plan_not_panics() {
        use crate::plan::{NodeId, PhysicalNode, PhysicalPlan};
        let plan = PhysicalPlan::from_nodes(vec![PhysicalNode {
            id: NodeId(0),
            op: PhysicalOp::Limit { n: 1 },
            inputs: vec![NodeId(42)],
        }]);
        assert!(matches!(
            CardinalityEstimator::default().estimate(&plan),
            Err(RheemError::InvalidPlan(_))
        ));
    }

    #[test]
    fn work_units_reflect_algorithmic_profiles() {
        let sort = PhysicalOp::Sort {
            key: KeyUdf::field(0),
            descending: false,
        };
        let n = 1024.0;
        assert!((op_work_units(&sort, &[n], n) - n * 10.0).abs() < 1e-6);
        let cross = PhysicalOp::CrossProduct;
        assert_eq!(op_work_units(&cross, &[100.0, 100.0], 10_000.0), 20_000.0);
    }

    #[test]
    fn linear_cost_model_scales_with_parallelism() {
        let single = LinearCostModel::single_threaded(1.0);
        let parallel = LinearCostModel {
            per_unit: 1.0,
            speedup: 8.0,
            startup: 100.0,
            shuffle_surcharge: 0.0,
        };
        let op = PhysicalOp::Map(MapUdf::new("id", |r| r.clone()));
        let c1 = single.op_cost(&op, &[1000.0], 1000.0);
        let c2 = parallel.op_cost(&op, &[1000.0], 1000.0);
        assert!((c1 / c2 - 8.0).abs() < 1e-9);
        assert_eq!(single.atom_startup_cost(), 0.0);
        assert_eq!(parallel.atom_startup_cost(), 100.0);
    }

    #[test]
    fn shuffle_surcharge_applies_to_wide_ops() {
        let m = LinearCostModel {
            per_unit: 1.0,
            speedup: 1.0,
            startup: 0.0,
            shuffle_surcharge: 1.0,
        };
        let narrow = PhysicalOp::Map(MapUdf::new("id", |r| r.clone()));
        let wide = PhysicalOp::ReduceByKey {
            key: KeyUdf::field(0),
            reduce: crate::udf::ReduceUdf::new("sum", |a, _| a),
        };
        assert!(requires_shuffle(&wide));
        assert!(!requires_shuffle(&narrow));
        assert!(m.op_cost(&wide, &[100.0], 10.0) > m.op_cost(&narrow, &[100.0], 100.0));
    }

    #[test]
    fn calibrated_cost_applies_observed_factor() {
        let m = LinearCostModel::single_threaded(1.0);
        let op = PhysicalOp::Map(MapUdf::new("id", |r| r.clone()));
        let cal = CostCalibration::new();
        let base = calibrated_op_cost(&m, &op, &[100.0], 100.0, "java", &cal);
        assert_eq!(base, m.op_cost(&op, &[100.0], 100.0));
        cal.observe(&op.name(), "java", 1.0, 3.0, 1.0, 1.0);
        let scaled = calibrated_op_cost(&m, &op, &[100.0], 100.0, "java", &cal);
        assert!((scaled / base - 3.0).abs() < 1e-9);
        // Other platforms are unaffected.
        let other = calibrated_op_cost(&m, &op, &[100.0], 100.0, "spark", &cal);
        assert_eq!(other, base);
    }

    #[test]
    fn conversion_graph_finds_multi_hop_paths() {
        let g = ChannelConversionGraph::default();
        // Direct hand-off: no conversion needed.
        let (path, cost) = g
            .cheapest_path(&[ChannelKind::Memory], &[ChannelKind::Memory], 1000.0)
            .unwrap();
        assert_eq!(path, vec![ChannelKind::Memory]);
        assert_eq!(cost, 0.0);
        // One hop: memory -> file is the serialize op.
        let (path, cost) = g
            .cheapest_path(&[ChannelKind::Memory], &[ChannelKind::File], 1000.0)
            .unwrap();
        assert_eq!(path, vec![ChannelKind::Memory, ChannelKind::File]);
        assert!((cost - (0.5 + 0.002 * 1000.0)).abs() < 1e-9);
        // No direct file -> stream conversion exists: the path routes
        // through memory (deserialize + publish).
        let (path, cost) = g
            .cheapest_path(&[ChannelKind::File], &[ChannelKind::Stream], 100.0)
            .unwrap();
        assert_eq!(
            path,
            vec![ChannelKind::File, ChannelKind::Memory, ChannelKind::Stream]
        );
        assert!((cost - (0.5 + 0.2 + 0.003 * 100.0)).abs() < 1e-9);
        // Sets that cannot be connected yield None.
        assert!(ChannelConversionGraph::empty()
            .cheapest_path(&[ChannelKind::File], &[ChannelKind::Stream], 1.0)
            .is_none());
        // Multiple producer channels: the cheapest origin wins.
        let (path, _) = g
            .cheapest_path(
                &[ChannelKind::File, ChannelKind::Stream],
                &[ChannelKind::Memory],
                1000.0,
            )
            .unwrap();
        assert_eq!(path[0], ChannelKind::Stream, "drain beats deserialize");
    }

    #[test]
    fn route_prices_transport_plus_the_cheapest_conversion_between_two_specs() {
        let m = MovementCostModel::new(1.0, 0.001);
        let memory = ChannelSpec::memory_only();
        let file = ChannelSpec::new(vec![ChannelKind::File], vec![ChannelKind::File]);
        // Memory producer, file-only consumer: transport + one serialize.
        let route = m.route(&memory, &file, 1000.0);
        assert_eq!(route.path, vec![ChannelKind::Memory, ChannelKind::File]);
        assert!((route.transport_ms - 2.0).abs() < 1e-9);
        assert!((route.conversion_ms - 2.5).abs() < 1e-9);
        assert!((route.total_ms() - 4.5).abs() < 1e-9);
        // A shared channel kind pays transport only.
        let route = m.route(&memory, &memory, 1000.0);
        assert_eq!(route.path, vec![ChannelKind::Memory]);
        assert!((route.total_ms() - 2.0).abs() < 1e-9);
        // Unconnectable sets (no conversions registered) fall back to the
        // transport price with an empty path; a free model charges nothing.
        let free = MovementCostModel::free();
        let route = free.route(&memory, &file, 1e9);
        assert!(route.path.is_empty());
        assert_eq!(route.total_ms(), 0.0);
    }

    #[test]
    fn drift_ratio_is_symmetric_and_handles_zeroes() {
        assert_eq!(drift_ratio(100.0, 100.0), 1.0);
        assert!((drift_ratio(100.0, 500.0) - 5.0).abs() < 1e-9);
        assert!((drift_ratio(500.0, 100.0) - 5.0).abs() < 1e-9);
        // Both sides empty: the estimate was right.
        assert_eq!(drift_ratio(0.0, 0.0), 1.0);
        // One side empty: arbitrarily wrong.
        assert_eq!(drift_ratio(0.0, 10.0), f64::INFINITY);
        assert_eq!(drift_ratio(10.0, 0.0), f64::INFINITY);
        // Negative estimates are clamped, never NaN.
        assert_eq!(drift_ratio(-5.0, 0.0), 1.0);
    }
}
