//! Cost estimation: cardinalities, platform clocks, movement costs.
//!
//! The paper requires that "rules and cost models \[be\] plugins and not
//! hard-coded as in traditional database optimizers" (§4.2, second aspect)
//! and that the optimizer "consider inter-platform cost models to
//! effectively take into account the cost of moving data and computation
//! across underlying processing platforms" (third aspect). Accordingly:
//!
//! * every platform states its own [`Clock`] — what it charges on top of
//!   kernel time — registered together with the platform; an operator's
//!   price is that clock applied to the kernel time the learned rate table
//!   ([`CostCalibration`](crate::observe::CostCalibration)) estimates;
//! * cross-platform transfer prices live in a [`MovementCostModel`] that the
//!   optimizer consults for every candidate platform switch, from the
//!   channels each platform's clock reads and writes;
//! * the [`CardinalityEstimator`] feeds both with dataset-size estimates.
//!
//! Costs are in simulated milliseconds, the unit engines charge.

use std::collections::HashMap;

use crate::error::{Result, RheemError};
use crate::kernels::parallel::KernelParallelism;
use crate::observe::{CostCalibration, KernelKey};
use crate::physical::{Layout, PhysicalOp};
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
    pub(crate) fn estimate(&self, plan: &PhysicalPlan) -> Result<Vec<f64>> {
        self.estimate_with_loop_input(plan, 0.0)
    }

    /// Like [`CardinalityEstimator::estimate`], binding `LoopInput` nodes to
    /// `loop_card` (used when recursing into loop bodies).
    pub(crate) fn estimate_with_loop_input(
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
            PhysicalOp::CollectSink => in0,
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
/// record-touch units: the axis the kernel-rate table
/// ([`CostCalibration`](crate::observe::CostCalibration)) prices in µs.
///
/// Total over any `ins`: missing inputs count as cardinality 0, so a
/// partially wired node prices without panicking (plan validity itself is
/// checked by `CardinalityEstimator::estimate`).
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
        // A loop is priced through its body; this is only the per-iteration
        // plumbing.
        PhysicalOp::Loop { .. } => in0,
        PhysicalOp::Custom(c) => c.cost_factor() * (ins.iter().sum::<f64>() + out),
        PhysicalOp::CollectSink => in0,
    }
}

/// How an engine hands a dataset from one operator to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// Whole datasets in one process; kernels split into morsels at the
    /// job's thread budget.
    InProcess,
    /// Partitions, each a sequential task, exchanged in memory.
    Memory,
    /// Partitions spilled to disk and read back at every stage input (a
    /// phase boundary); every phase runs one task per worker.
    Disk,
}

/// How a platform turns kernel time into simulated time and which channels
/// it moves data over, stated once by the platform
/// ([`Platform::clock`](crate::platform::Platform::clock)): its engine
/// charges by it, and the optimizer prices by it — [`Clock::price`] is the
/// charge for the kernel time the rate table estimates, and
/// [`MovementCostModel::price`] the charge for crossing between two clocks'
/// channels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Clock {
    /// Charged once per task atom (job submission, connection setup).
    pub startup_ms: f64,
    /// Charged per stage boundary: every repartitioning operator and every
    /// loop iteration (task scheduling, barrier).
    pub stage_ms: f64,
    /// Task slots: a stage runs as at most this many partitions, whose
    /// critical path is charged. 1 for an in-process engine.
    pub workers: usize,
    /// Share of driver-side wall time charged (gathering, routing a
    /// shuffle, a gathered sort): `1 / workers` when the driver's work is
    /// spread over the cluster, 1 when it is not.
    pub driver_share: f64,
    /// Measured kernel time is charged at this factor: the modeled engine's
    /// speed relative to the shared kernels (1.0: the kernels' own).
    pub efficiency: f64,
    /// How the engine moves data between operators.
    pub exchange: Exchange,
    /// The channel kinds the engine reads and writes at atom boundaries;
    /// the [`MovementCostModel`] prices a switch between two platforms
    /// from theirs.
    pub channels: ChannelSet,
}

impl Clock {
    /// An engine that runs a fragment in one process: `startup_ms` per atom,
    /// kernel time at `efficiency`, boundaries over `channels`.
    pub fn in_process(startup_ms: f64, efficiency: f64, channels: ChannelSet) -> Clock {
        Clock {
            startup_ms,
            stage_ms: 0.0,
            workers: 1,
            driver_share: 1.0,
            efficiency,
            exchange: Exchange::InProcess,
            channels,
        }
    }

    /// Tasks a stage over `rows` input rows runs as (one per row, at most
    /// one per worker; every worker on disk).
    pub fn partitions_for(&self, rows: usize) -> usize {
        match self.exchange {
            Exchange::Disk => self.workers.max(1),
            _ => rows.clamp(1, self.workers.max(1)),
        }
    }

    /// Simulated ms this clock charges for `op` over inputs of `ins` rows
    /// producing `out`, at the sequential kernel work and spills `rates`
    /// estimates, in a job whose thread budget is `budget`. In process, the
    /// work is divided by the speedup the budget's morsel schedule allows
    /// (`KernelParallelism::speedup`); partitioned, by the stage's tasks.
    /// A loop is priced by its body (`enumerate::node_cost`); here one
    /// stage.
    pub fn price(
        &self,
        op: &PhysicalOp,
        ins: &[f64],
        out: f64,
        rates: &CostCalibration,
        budget: &KernelParallelism,
    ) -> f64 {
        let kernel_ms = rates
            .rate(KernelKey::of(op))
            .us(op_work_units(op, ins, out))
            / 1e3;
        let rows = |slot: usize| ins.get(slot).map_or(0, |&card| card.max(0.0) as usize);
        let layout = op.layout();
        let work = match layout {
            _ if self.exchange == Exchange::InProcess => {
                kernel_ms / budget.speedup(op, [rows(0), rows(1)], op.runs_columnar())
            }
            Layout::Gather => kernel_ms * self.driver_share,
            Layout::Custom {
                per_partition: false,
            } => kernel_ms,
            _ => kernel_ms / self.partitions_for(rows(0)) as f64,
        };
        let boundary = layout.repartitions().then(|| self.boundary_ms(ins, rates));
        boundary.unwrap_or(0.0) + self.efficiency * work
    }

    /// One stage boundary crossed by inputs of `ins` rows: a stage charge,
    /// on disk per input and with its spill.
    pub(crate) fn boundary_ms(&self, ins: &[f64], rates: &CostCalibration) -> f64 {
        match self.exchange {
            Exchange::Disk => {
                let spill_us = rates.rate(KernelKey::SPILL).us(ins.iter().sum());
                self.stage_ms * ins.len().max(1) as f64 + spill_us / 1e3
            }
            _ => self.stage_ms,
        }
    }
}

// ---------------------------------------------------------------------------
// Data movement channels
// ---------------------------------------------------------------------------

/// The kind of data channel an atom boundary uses (RHEEMix-style explicit
/// data-movement channels): every platform's [`Clock::channels`] names the
/// kinds it reads and writes, and crossing between platforms that share
/// none takes *conversions* priced by the [`MovementCostModel`].
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
    pub(crate) fn as_str(&self) -> &'static str {
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

/// A set of channel kinds, iterated in [`ChannelKind::ALL`] order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChannelSet(u8);

impl ChannelSet {
    /// The set of `kinds`.
    pub const fn of(kinds: &[ChannelKind]) -> ChannelSet {
        let mut bits = 0;
        let mut i = 0;
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u8;
            i += 1;
        }
        ChannelSet(bits)
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: ChannelKind) -> bool {
        self.0 & (1 << kind as u8) != 0
    }

    /// The kinds in the set, in [`ChannelKind::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = ChannelKind> {
        ChannelKind::ALL
            .into_iter()
            .filter(move |&k| self.contains(k))
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

/// `(fixed, per_record)` price of re-encoding one channel kind into
/// another, or `None` where no such conversion exists; indexed
/// `[from][to]` in [`ChannelKind::ALL`] order.
type Conversions = [[Option<(f64, f64)>; 3]; 3];

/// The kinds a conversion path visits (producer side first): the first
/// `len` entries of `kinds`.
#[derive(Clone, Copy)]
struct Hops {
    kinds: [ChannelKind; 3],
    len: usize,
}

/// Inter-platform data movement prices (the paper's §4.2 third aspect and
/// §8 challenge 2's "inter-platform cost model").
///
/// Two layers, both charged on every platform switch: a flat
/// `fixed + default_per_record · records` transport price, plus the
/// cheapest conversion path from a kind the producer writes to a kind the
/// consumer reads — each platform's own
/// [`Clock::channels`]. A path is one shared kind (free), one conversion,
/// or two through the third kind: serializing to a file or publishing to a
/// stream and back, at what the built-in platforms' overheads suggest
/// (touching disk costs more than draining a stream).
#[derive(Clone, Copy, Debug)]
pub struct MovementCostModel {
    /// Fixed cost of any platform switch (channel setup).
    pub fixed: f64,
    /// Per-record transfer price.
    pub default_per_record: f64,
    /// Channel conversion prices.
    conversions: Conversions,
}

impl Default for MovementCostModel {
    fn default() -> Self {
        MovementCostModel::new(1.0, 0.001)
    }
}

impl MovementCostModel {
    /// A model with the given fixed and per-record prices.
    pub fn new(fixed: f64, default_per_record: f64) -> Self {
        let serialize = Some((0.5, 0.002));
        let publish = Some((0.2, 0.001));
        MovementCostModel {
            fixed,
            default_per_record,
            // Rows and columns: memory, file, stream.
            conversions: [
                [None, serialize, publish],
                [serialize, None, None],
                [publish, None, None],
            ],
        }
    }

    /// A model in which moving data is free (for tests and ablations).
    pub fn free() -> Self {
        MovementCostModel {
            fixed: 0.0,
            default_per_record: 0.0,
            conversions: [[None; 3]; 3],
        }
    }

    /// The price of moving `records` data quanta across a platform switch
    /// from a producer writing `from` to a consumer reading `to`: the
    /// total of [`route`](Self::route), found without allocating.
    pub fn price(&self, from: ChannelSet, to: ChannelSet, records: f64) -> f64 {
        let conversion_ms = self.cheapest(from, to, records).map_or(0.0, |(_, ms)| ms);
        self.transport_ms(records) + conversion_ms
    }

    /// The priced route for moving `records` data quanta across a platform
    /// switch, from a producer writing `from` to a consumer reading `to`
    /// (callers price switches only; staying on a platform is free).
    /// Unconnectable channel sets are charged the transport price alone,
    /// with an empty path — as if a bespoke copy operator existed — so
    /// enumeration never wedges on an exotic platform pair.
    pub fn route(&self, from: ChannelSet, to: ChannelSet, records: f64) -> ChannelRoute {
        let (path, conversion_ms) = match self.cheapest(from, to, records) {
            Some((hops, ms)) => (hops.kinds[..hops.len].to_vec(), ms),
            None => (Vec::new(), 0.0),
        };
        ChannelRoute {
            path,
            transport_ms: self.transport_ms(records),
            conversion_ms,
        }
    }

    fn transport_ms(&self, records: f64) -> f64 {
        self.fixed + self.default_per_record * records
    }

    /// The cheapest conversion path from a kind in `from` to a kind in
    /// `to` and its summed price, or `None` when no path joins the sets.
    /// Producer kinds are tried in order, then consumer kinds, then the
    /// direct conversion before a detour; the first strict minimum wins.
    fn cheapest(&self, from: ChannelSet, to: ChannelSet, records: f64) -> Option<(Hops, f64)> {
        let records = records.max(0.0);
        let hop = |ms: f64, a: ChannelKind, b: ChannelKind| {
            self.conversions[a as usize][b as usize]
                .map(|(fixed, per_record)| ms + fixed + per_record * records)
        };
        let mut best: Option<(Hops, f64)> = None;
        let mut offer = |kinds: [ChannelKind; 3], len: usize, ms: f64| {
            if best.is_none_or(|(_, b)| ms < b) {
                best = Some((Hops { kinds, len }, ms));
            }
        };
        for a in from.iter() {
            for b in to.iter() {
                if a == b {
                    offer([a; 3], 1, 0.0);
                    continue;
                }
                if let Some(ms) = hop(0.0, a, b) {
                    offer([a, b, b], 2, ms);
                }
                for via in ChannelKind::ALL {
                    if let Some(ms) = hop(0.0, a, via).and_then(|ms| hop(ms, via, b)) {
                        offer([a, via, b], 3, ms);
                    }
                }
            }
        }
        best
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
        b.collect(src);
        let plan = b.build().unwrap();
        let mut est = CardinalityEstimator::default();
        assert_eq!(est.estimate(&plan).unwrap()[0], 1000.0); // default
        est.hint("big", 5e6);
        assert_eq!(est.estimate(&plan).unwrap()[0], 5e6);
        assert_eq!(est.estimate(&plan).unwrap()[1], 5e6); // CollectSink
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
    fn a_clock_charges_stages_partitions_driver_share_and_spills() {
        let map = PhysicalOp::Map(MapUdf::new("id", |r| r.clone()));
        let sort = PhysicalOp::Sort {
            key: KeyUdf::field(0),
            descending: false,
        };
        let join = PhysicalOp::HashJoin {
            left_key: KeyUdf::field(0),
            right_key: KeyUdf::field(0),
        };
        // Rates fitted so that each kernel below costs what it says, and a
        // spill costs 1 µs per row.
        let rates = CostCalibration::new();
        let costs = |op: &PhysicalOp, ins: &[f64], out: f64, ms: f64| {
            rates.observe(KernelKey::of(op), op_work_units(op, ins, out), ms);
        };
        costs(&map, &[1e5], 1e5, 8.0);
        costs(&map, &[3.0], 3.0, 6.0);
        costs(&join, &[1e5, 1e3], 1e3, 8.0);
        costs(&join, &[1e4, 1e3], 1e3, 8.0);
        costs(&sort, &[1e5], 1e5, 8.0);
        rates.observe(KernelKey::SPILL, 11_000.0, 11.0);
        let close = |a: f64, b: f64| assert!((a - b).abs() < 1e-9, "{a} != {b}");
        // In process, on one thread: kernel time at the engine's
        // efficiency, nothing else.
        let one = KernelParallelism::sequential();
        let relational = Clock::in_process(5.0, 0.5, ChannelSet::default());
        close(relational.price(&map, &[1e5], 1e5, &rates, &one), 4.0);
        close(relational.price(&join, &[1e5, 1e3], 1e3, &rates, &one), 4.0);
        assert_eq!(relational.partitions_for(1_000_000), 1);
        // Partitioned: a narrow operator's critical path is its share of
        // the work; a repartitioning one also pays a stage; a gathered sort
        // runs in the driver, at the driver's share.
        let spark = Clock {
            startup_ms: 25.0,
            stage_ms: 2.0,
            workers: 8,
            driver_share: 1.0 / 8.0,
            efficiency: 1.0,
            exchange: Exchange::Memory,
            channels: ChannelSet::default(),
        };
        close(spark.price(&map, &[1e5], 1e5, &rates, &one), 1.0);
        close(spark.price(&join, &[1e5, 1e3], 1e3, &rates, &one), 3.0);
        close(spark.price(&sort, &[1e5], 1e5, &rates, &one), 3.0);
        // Fewer rows than workers: one task per row.
        assert_eq!(spark.partitions_for(3), 3);
        close(spark.price(&map, &[3.0], 3.0, &rates, &one), 2.0);
        // Disk-phased: every worker runs, and each input of a stage pays a
        // stage and its spill.
        let mr = Clock {
            exchange: Exchange::Disk,
            stage_ms: 8.0,
            driver_share: 1.0,
            ..spark
        };
        assert_eq!(mr.partitions_for(3), 8);
        close(
            mr.price(&join, &[1e4, 1e3], 1e3, &rates, &one),
            16.0 + 11.0 + 1.0,
        );
        // A partitioned clock's tasks are its parallelism: the job's thread
        // budget does not change its price.
        let four = KernelParallelism::sequential().with_threads(4);
        close(spark.price(&map, &[1e5], 1e5, &rates, &four), 1.0);
    }

    /// An in-process clock divides the kernel's sequential work by the
    /// speedup the budget's morsel schedule allows: the rows over the rows
    /// on the busiest worker.
    #[test]
    fn an_in_process_clock_divides_by_the_morsel_schedules_speedup() {
        let map = PhysicalOp::Map(MapUdf::new("id", |r| r.clone()));
        let group = PhysicalOp::HashGroupBy {
            key: KeyUdf::field(0),
            group: GroupMapUdf::identity(),
        };
        let rates = CostCalibration::new();
        let java = Clock::in_process(0.0, 1.0, ChannelSet::default());
        let budget = |threads| KernelParallelism::sequential().with_threads(threads);
        let speedup = |op: &PhysicalOp, rows: f64, threads: usize| {
            let sequential = java.price(op, &[rows], rows, &rates, &budget(1));
            sequential / java.price(op, &[rows], rows, &rates, &budget(threads))
        };
        let close = |a: f64, b: f64| assert!((a - b).abs() < 1e-9, "{a} != {b}");
        // 40 960 rows are ten 4 096-row morsels: 2 threads run five each,
        // 4 threads three on the busiest.
        close(speedup(&map, 40_960.0, 1), 1.0);
        close(speedup(&map, 40_960.0, 2), 2.0);
        close(speedup(&map, 40_960.0, 4), 10.0 / 3.0);
        // 5 000 rows are a full morsel and a short one: the busiest worker
        // runs 4 096 rows, at any budget above one.
        for threads in [2, 4] {
            close(speedup(&map, 5_000.0, threads), 5_000.0 / 4_096.0);
        }
        // Below `min_rows` the sequential kernel runs.
        for threads in [2, 4] {
            close(speedup(&map, 4_000.0, threads), 1.0);
        }
        // A row kernel keyed by a closure splits into one chunk per thread.
        for threads in [1, 2, 4] {
            close(speedup(&group, 40_000.0, threads), threads as f64);
        }
    }

    /// The routes no shipped platform pair takes (`tests/channel_routes.rs`
    /// pins those): a detour through the third kind, and a choice between
    /// two producer kinds.
    #[test]
    fn a_route_detours_through_memory_and_picks_the_cheapest_origin() {
        use ChannelKind::{File, Memory, Stream};
        let m = MovementCostModel::default();
        let (file, stream) = (ChannelSet::of(&[File]), ChannelSet::of(&[Stream]));
        // No file -> stream conversion exists: deserialize, then publish.
        let route = m.route(file, stream, 100.0);
        assert_eq!(route.path, vec![File, Memory, Stream]);
        assert!((route.conversion_ms - (0.5 + 0.2 + 0.003 * 100.0)).abs() < 1e-9);
        assert_eq!(m.price(file, stream, 100.0), route.total_ms());
        // Draining a stream beats deserializing a file.
        let route = m.route(
            ChannelSet::of(&[File, Stream]),
            ChannelSet::of(&[Memory]),
            1e3,
        );
        assert_eq!(route.path, vec![Stream, Memory]);
        // A set iterates in `ChannelKind::ALL` order, whatever its spelling.
        let set = ChannelSet::of(&[Stream, Memory]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![Memory, Stream]);
        assert!(!set.contains(File));
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
