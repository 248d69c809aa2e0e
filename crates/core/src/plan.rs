//! Physical plans: DAGs of physical operators, and the execution plans the
//! multi-platform optimizer derives from them.
//!
//! A [`PhysicalPlan`] is what an application (layer 1) hands to the core
//! (layer 2). The optimizer annotates every node with a platform and splits
//! the plan into [`TaskAtom`]s — "sub-tasks ... the units of execution ...
//! to be executed on a single data processing platform" (§3.1) — producing
//! an [`ExecutionPlan`].

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::cost::ChannelKind;
use crate::data::Dataset;
use crate::error::{Result, RheemError};
use crate::physical::{CustomPhysicalOp, PhysicalOp};
use crate::udf::{
    FilterUdf, FlatMapUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, PairPredicateFn, ReduceUdf,
};

/// Identifier of a node inside one plan. Node ids are assigned in
/// construction order, which the builder guarantees to be a topological
/// order (every input id is smaller than the node's own id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operator instance in a plan.
#[derive(Clone, Debug)]
pub struct PhysicalNode {
    /// This node's id.
    pub id: NodeId,
    /// The operator.
    pub op: PhysicalOp,
    /// Producer nodes, one per input slot.
    pub inputs: Vec<NodeId>,
}

/// A directed acyclic graph of physical operators.
#[derive(Clone, Debug, Default)]
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
    /// The ids this plan's sinks report their outputs under, in sink
    /// order; empty means their own ids. Rewrites renumber nodes when they
    /// fuse operators away, and record here the ids the sinks had in the
    /// plan the application built — so a job's outputs stay addressable by
    /// the handles the application holds.
    reported_sinks: Vec<NodeId>,
}

impl PhysicalPlan {
    /// Assemble a plan from pre-built nodes (rewrite framework only).
    pub(crate) fn from_nodes(nodes: Vec<PhysicalNode>) -> Self {
        PhysicalPlan {
            nodes,
            reported_sinks: Vec::new(),
        }
    }

    /// Report the sinks' outputs under `ids` (one per sink, in sink order).
    pub(crate) fn reporting_sinks_as(mut self, ids: Vec<NodeId>) -> Self {
        debug_assert_eq!(ids.len(), self.sinks().len());
        self.reported_sinks = ids;
        self
    }

    /// Every sink with the id its output is reported under in a
    /// [`crate::JobResult`]: the sink's own id, unless a rewrite renumbered
    /// the plan — then the id the sink had before.
    pub fn output_ids(&self) -> Vec<(NodeId, NodeId)> {
        let sinks = self.sinks();
        if self.reported_sinks.len() == sinks.len() {
            sinks.into_iter().zip(self.reported_sinks.clone()).collect()
        } else {
            sinks.into_iter().map(|s| (s, s)).collect()
        }
    }

    /// All nodes in topological (construction) order.
    pub fn nodes(&self) -> &[PhysicalNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &PhysicalNode {
        &self.nodes[id.0]
    }

    /// Ids of all sink nodes.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.op.is_sink())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of nodes that no other node consumes.
    pub fn terminals(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                consumed[i.0] = true;
            }
        }
        self.nodes
            .iter()
            .filter(|n| !consumed[n.id.0])
            .map(|n| n.id)
            .collect()
    }

    /// Consumers of each node, indexed by node id.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                out[i.0].push(n.id);
            }
        }
        out
    }

    /// Structural validation: arity, edge direction, loop-body shape.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(RheemError::InvalidPlan("plan has no nodes".into()));
        }
        for n in &self.nodes {
            if n.inputs.len() != n.op.arity() {
                return Err(RheemError::InvalidPlan(format!(
                    "node {} ({}) has {} inputs but arity {}",
                    n.id,
                    n.op.name(),
                    n.inputs.len(),
                    n.op.arity()
                )));
            }
            for &i in &n.inputs {
                if i.0 >= n.id.0 {
                    return Err(RheemError::InvalidPlan(format!(
                        "node {} consumes non-earlier node {} (cycle or dangling edge)",
                        n.id, i
                    )));
                }
            }
            if let PhysicalOp::Loop { body, .. } = &n.op {
                validate_loop_body(body)?;
            }
        }
        Ok(())
    }

    /// Multi-line, indentation-free textual rendering for debugging.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        for n in &self.nodes {
            let inputs: Vec<String> = n.inputs.iter().map(|i| i.to_string()).collect();
            s.push_str(&format!(
                "{}: {} <- [{}]\n",
                n.id,
                n.op.name(),
                inputs.join(", ")
            ));
        }
        s
    }

    /// Canonical fingerprint of this plan, for plan-cache keying.
    ///
    /// The fingerprint covers every node in topological order: the operator
    /// tag, its declarative payload (expression trees via their canonical
    /// `Display` form, key field lists, aggregate specs, projection indices,
    /// cost hints as exact `f64` bit patterns, source names and
    /// cardinalities), and the input wiring. UDFs that carry no declarative payload — arbitrary
    /// closures, [`CustomPhysicalOp`]s, loop conditions — are fingerprinted
    /// by `Arc` identity and flip [`PlanFingerprint::opaque`] on: two plans
    /// sharing such a fingerprint provably share the very same closure
    /// objects, which is why the plan cache confines opaque fingerprints to
    /// one session and never shares them across sessions.
    pub fn fingerprint(&self) -> PlanFingerprint {
        let mut fp = FpHasher::new();
        fingerprint_plan(&mut fp, self);
        fp.finish()
    }
}

/// Canonical identity of a [`PhysicalPlan`] for plan-cache keying.
///
/// Produced by [`PhysicalPlan::fingerprint`]. Equal fingerprints with
/// `opaque == false` mean the two plans are structurally identical down to
/// every declarative payload; with `opaque == true` they additionally share
/// the same closure objects by pointer identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanFingerprint {
    /// 64-bit hash over the canonical plan encoding.
    pub hash: u64,
    /// True when any operator was fingerprinted by closure identity rather
    /// than by a declarative payload. Opaque fingerprints are only
    /// meaningful within the process (and, for the plan cache, within one
    /// session): the pointer a closure hashes to is not stable across
    /// plan reconstructions.
    pub opaque: bool,
}

/// FNV-1a-based streaming hasher used by [`PhysicalPlan::fingerprint`],
/// with a SplitMix64 finalizer for avalanche.
struct FpHasher {
    h: u64,
    opaque: bool,
}

impl FpHasher {
    fn new() -> Self {
        FpHasher {
            h: 0xCBF2_9CE4_8422_2325,
            opaque: false,
        }
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    /// Hash a closure by pointer identity and mark the fingerprint opaque.
    fn ptr<T: ?Sized>(&mut self, p: *const T) {
        self.opaque = true;
        self.u64(p as *const () as u64);
    }

    fn finish(self) -> PlanFingerprint {
        PlanFingerprint {
            hash: crate::fault::splitmix64(self.h),
            opaque: self.opaque,
        }
    }
}

fn fingerprint_plan(fp: &mut FpHasher, plan: &PhysicalPlan) {
    fp.usize(plan.len());
    for n in plan.nodes() {
        fp.usize(n.id.0);
        fingerprint_op(fp, &n.op);
        fp.usize(n.inputs.len());
        for i in &n.inputs {
            fp.usize(i.0);
        }
    }
}

fn fingerprint_map(fp: &mut FpHasher, u: &MapUdf) {
    fp.str(&u.name);
    match &u.exprs {
        Some(exprs) => {
            fp.tag(1);
            fp.usize(exprs.len());
            for e in exprs.iter() {
                fp.str(&e.to_string());
            }
        }
        None => {
            fp.tag(0);
            fp.ptr(Arc::as_ptr(&u.f));
        }
    }
}

fn fingerprint_filter(fp: &mut FpHasher, u: &FilterUdf) {
    fp.str(&u.name);
    fp.f64(u.selectivity);
    match &u.expr {
        Some(e) => {
            fp.tag(1);
            fp.str(&e.to_string());
        }
        None => {
            fp.tag(0);
            fp.ptr(Arc::as_ptr(&u.f));
        }
    }
}

fn fingerprint_key(fp: &mut FpHasher, u: &KeyUdf) {
    fp.str(&u.name);
    match u.distinct_keys {
        Some(d) => {
            fp.tag(1);
            fp.f64(d);
        }
        None => fp.tag(0),
    }
    match &u.fields {
        Some(fields) => {
            fp.tag(1);
            fp.usize(fields.len());
            for i in fields.iter() {
                fp.usize(*i);
            }
        }
        None => {
            fp.tag(0);
            fp.ptr(Arc::as_ptr(&u.f));
        }
    }
}

fn fingerprint_reduce(fp: &mut FpHasher, u: &ReduceUdf) {
    fp.str(&u.name);
    fp.ptr(Arc::as_ptr(&u.f));
}

fn fingerprint_group(fp: &mut FpHasher, u: &GroupMapUdf) {
    use crate::udf::{AggFunc, GroupOutput};
    fp.str(&u.name);
    fp.f64(u.per_group_output);
    match &u.aggs {
        Some(outputs) => {
            fp.tag(1);
            fp.usize(outputs.len());
            for output in outputs.iter() {
                match output {
                    GroupOutput::First(i) => {
                        fp.tag(0);
                        fp.usize(*i);
                    }
                    GroupOutput::Agg(agg) => {
                        fp.tag(1);
                        fp.tag(match agg.func {
                            AggFunc::Count => 0,
                            AggFunc::Sum => 1,
                            AggFunc::Min => 2,
                            AggFunc::Max => 3,
                            AggFunc::Avg => 4,
                        });
                        match &agg.arg {
                            Some(e) => {
                                fp.tag(1);
                                fp.str(&e.to_string());
                            }
                            None => fp.tag(0),
                        }
                    }
                }
            }
        }
        None => {
            fp.tag(0);
            fp.ptr(Arc::as_ptr(&u.f));
        }
    }
}

fn fingerprint_op(fp: &mut FpHasher, op: &PhysicalOp) {
    match op {
        PhysicalOp::CollectionSource { data, name } => {
            fp.tag(0);
            fp.str(name);
            // Cardinality, not content: the cached artifact (assignments,
            // atoms, estimates) only depends on how *much* data flows, and
            // a cache hit always re-executes against the new plan's data.
            fp.usize(data.len());
        }
        PhysicalOp::StorageSource { dataset_id } => {
            fp.tag(1);
            fp.str(dataset_id);
        }
        PhysicalOp::LoopInput => fp.tag(2),
        PhysicalOp::Map(u) => {
            fp.tag(3);
            fingerprint_map(fp, u);
        }
        PhysicalOp::FlatMap(u) => {
            fp.tag(4);
            fp.str(&u.name);
            fp.f64(u.fanout);
            fp.ptr(Arc::as_ptr(&u.f));
        }
        PhysicalOp::Filter(u) => {
            fp.tag(5);
            fingerprint_filter(fp, u);
        }
        PhysicalOp::Project { indices } => {
            fp.tag(6);
            fp.usize(indices.len());
            for i in indices {
                fp.usize(*i);
            }
        }
        PhysicalOp::SortGroupBy { key, group } => {
            fp.tag(7);
            fingerprint_key(fp, key);
            fingerprint_group(fp, group);
        }
        PhysicalOp::HashGroupBy { key, group } => {
            fp.tag(8);
            fingerprint_key(fp, key);
            fingerprint_group(fp, group);
        }
        PhysicalOp::ReduceByKey { key, reduce } => {
            fp.tag(9);
            fingerprint_key(fp, key);
            fingerprint_reduce(fp, reduce);
        }
        PhysicalOp::GlobalReduce { reduce } => {
            fp.tag(10);
            fingerprint_reduce(fp, reduce);
        }
        PhysicalOp::Sort { key, descending } => {
            fp.tag(11);
            fingerprint_key(fp, key);
            fp.tag(*descending as u8);
        }
        PhysicalOp::Limit { n } => {
            fp.tag(14);
            fp.usize(*n);
        }
        PhysicalOp::ChunkPipeline { stages } => {
            fp.tag(16);
            fp.usize(stages.len());
            for s in stages.iter() {
                fp.str(&s.name);
                match &s.kind {
                    crate::physical::StageKind::Filter { expr, selectivity } => {
                        fp.tag(0);
                        fp.str(&expr.to_string());
                        fp.f64(*selectivity);
                    }
                    crate::physical::StageKind::Map { exprs } => {
                        fp.tag(1);
                        fp.usize(exprs.len());
                        for e in exprs.iter() {
                            fp.str(&e.to_string());
                        }
                    }
                    crate::physical::StageKind::Project { indices } => {
                        fp.tag(2);
                        fp.usize(indices.len());
                        for i in indices.iter() {
                            fp.usize(*i);
                        }
                    }
                }
            }
        }
        PhysicalOp::HashJoin {
            left_key,
            right_key,
        } => {
            fp.tag(17);
            fingerprint_key(fp, left_key);
            fingerprint_key(fp, right_key);
        }
        PhysicalOp::NestedLoopJoin {
            predicate,
            name,
            selectivity,
        } => {
            fp.tag(19);
            fp.str(name);
            fp.f64(*selectivity);
            fp.ptr(Arc::as_ptr(predicate));
        }
        PhysicalOp::CrossProduct => fp.tag(20),
        PhysicalOp::Union => fp.tag(21),
        PhysicalOp::Loop {
            body,
            condition,
            max_iterations,
            expected_iterations,
        } => {
            fp.tag(22);
            fp.str(&condition.name);
            fp.ptr(Arc::as_ptr(&condition.f));
            fp.u64(*max_iterations);
            fp.f64(*expected_iterations);
            fingerprint_plan(fp, body);
        }
        PhysicalOp::Custom(op) => {
            fp.tag(23);
            fp.str(op.name());
            fp.ptr(Arc::as_ptr(op));
        }
        PhysicalOp::CollectSink => fp.tag(24),
        PhysicalOp::CountSink => fp.tag(25),
        PhysicalOp::StorageSink { dataset_id } => {
            fp.tag(26);
            fp.str(dataset_id);
        }
    }
}

fn validate_loop_body(body: &PhysicalPlan) -> Result<()> {
    body.validate()?;
    let loop_inputs = body
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, PhysicalOp::LoopInput))
        .count();
    if loop_inputs != 1 {
        return Err(RheemError::InvalidPlan(format!(
            "loop body must contain exactly one LoopInput, found {loop_inputs}"
        )));
    }
    let terminals = body.terminals();
    if terminals.len() != 1 {
        return Err(RheemError::InvalidPlan(format!(
            "loop body must have exactly one terminal node, found {}",
            terminals.len()
        )));
    }
    if body.node(terminals[0]).op.is_sink() {
        return Err(RheemError::InvalidPlan(
            "loop body terminal must not be a sink; its output is the loop state".into(),
        ));
    }
    Ok(())
}

/// Fluent builder for [`PhysicalPlan`]s.
///
/// Handles returned by builder methods are plain [`NodeId`]s, so arbitrary
/// DAGs (shared sub-plans, multi-sink jobs) can be expressed:
///
/// ```
/// use rheem_core::plan::PlanBuilder;
/// use rheem_core::udf::{FilterUdf, KeyUdf};
/// use rheem_core::rec;
///
/// let mut b = PlanBuilder::new();
/// let src = b.collection("nums", vec![rec![1i64], rec![2i64], rec![3i64]]);
/// let odd = b.filter(src, FilterUdf::new("odd", |r| r.int(0).unwrap() % 2 == 1));
/// b.collect(odd);
/// let plan = b.build().unwrap();
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct PlanBuilder {
    nodes: Vec<PhysicalNode>,
}

impl PlanBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        PlanBuilder::default()
    }

    /// Append an arbitrary operator node; inputs must already exist.
    pub fn add(&mut self, op: PhysicalOp, inputs: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        debug_assert!(inputs.iter().all(|i| i.0 < id.0), "inputs must pre-exist");
        self.nodes.push(PhysicalNode { id, op, inputs });
        id
    }

    /// In-memory collection source.
    pub fn collection(
        &mut self,
        name: impl Into<String>,
        records: Vec<crate::data::Record>,
    ) -> NodeId {
        self.add(
            PhysicalOp::CollectionSource {
                data: Dataset::new(records),
                name: name.into(),
            },
            vec![],
        )
    }

    /// Source over an already-wrapped [`Dataset`].
    pub fn dataset(&mut self, name: impl Into<String>, data: Dataset) -> NodeId {
        self.add(
            PhysicalOp::CollectionSource {
                data,
                name: name.into(),
            },
            vec![],
        )
    }

    /// Source reading from the storage layer.
    pub fn storage_source(&mut self, dataset_id: impl Into<String>) -> NodeId {
        self.add(
            PhysicalOp::StorageSource {
                dataset_id: dataset_id.into(),
            },
            vec![],
        )
    }

    /// The loop-state placeholder (only valid inside loop bodies).
    pub fn loop_input(&mut self) -> NodeId {
        self.add(PhysicalOp::LoopInput, vec![])
    }

    /// Per-quantum map.
    pub fn map(&mut self, input: NodeId, udf: MapUdf) -> NodeId {
        self.add(PhysicalOp::Map(udf), vec![input])
    }

    /// Per-quantum flat map.
    pub fn flat_map(&mut self, input: NodeId, udf: FlatMapUdf) -> NodeId {
        self.add(PhysicalOp::FlatMap(udf), vec![input])
    }

    /// Per-quantum filter.
    pub fn filter(&mut self, input: NodeId, udf: FilterUdf) -> NodeId {
        self.add(PhysicalOp::Filter(udf), vec![input])
    }

    /// Projection onto the given field indices.
    pub fn project(&mut self, input: NodeId, indices: Vec<usize>) -> NodeId {
        self.add(PhysicalOp::Project { indices }, vec![input])
    }

    /// Hash-based group-by (the optimizer may later swap the algorithm).
    pub fn group_by(&mut self, input: NodeId, key: KeyUdf, group: GroupMapUdf) -> NodeId {
        self.add(PhysicalOp::HashGroupBy { key, group }, vec![input])
    }

    /// Explicit sort-based group-by.
    pub fn sort_group_by(&mut self, input: NodeId, key: KeyUdf, group: GroupMapUdf) -> NodeId {
        self.add(PhysicalOp::SortGroupBy { key, group }, vec![input])
    }

    /// Keyed reduction.
    pub fn reduce_by_key(&mut self, input: NodeId, key: KeyUdf, reduce: ReduceUdf) -> NodeId {
        self.add(PhysicalOp::ReduceByKey { key, reduce }, vec![input])
    }

    /// Global reduction to a single quantum.
    pub fn global_reduce(&mut self, input: NodeId, reduce: ReduceUdf) -> NodeId {
        self.add(PhysicalOp::GlobalReduce { reduce }, vec![input])
    }

    /// Sort ascending (or descending) by key.
    pub fn sort(&mut self, input: NodeId, key: KeyUdf, descending: bool) -> NodeId {
        self.add(PhysicalOp::Sort { key, descending }, vec![input])
    }

    /// Prefix of `n` quanta.
    pub fn limit(&mut self, input: NodeId, n: usize) -> NodeId {
        self.add(PhysicalOp::Limit { n }, vec![input])
    }

    /// Hash equi-join.
    pub fn hash_join(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_key: KeyUdf,
        right_key: KeyUdf,
    ) -> NodeId {
        self.add(
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            },
            vec![left, right],
        )
    }

    /// Theta join with an arbitrary pair predicate.
    pub fn theta_join(
        &mut self,
        left: NodeId,
        right: NodeId,
        name: impl Into<String>,
        selectivity: f64,
        predicate: PairPredicateFn,
    ) -> NodeId {
        self.add(
            PhysicalOp::NestedLoopJoin {
                predicate,
                name: name.into(),
                selectivity,
            },
            vec![left, right],
        )
    }

    /// Cross product.
    pub fn cross_product(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(PhysicalOp::CrossProduct, vec![left, right])
    }

    /// Bag union.
    pub fn union(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(PhysicalOp::Union, vec![left, right])
    }

    /// Iterate `body` starting from `input` while `condition` holds.
    pub fn repeat(
        &mut self,
        input: NodeId,
        body: PhysicalPlan,
        condition: LoopCondUdf,
        max_iterations: u64,
    ) -> NodeId {
        let expected_iterations = max_iterations as f64;
        self.add(
            PhysicalOp::Loop {
                body: Arc::new(body),
                condition,
                max_iterations,
                expected_iterations,
            },
            vec![input],
        )
    }

    /// An application-defined operator.
    pub fn custom(&mut self, op: Arc<dyn CustomPhysicalOp>, inputs: Vec<NodeId>) -> NodeId {
        self.add(PhysicalOp::Custom(op), inputs)
    }

    /// Materializing sink.
    pub fn collect(&mut self, input: NodeId) -> NodeId {
        self.add(PhysicalOp::CollectSink, vec![input])
    }

    /// Counting sink.
    pub fn count(&mut self, input: NodeId) -> NodeId {
        self.add(PhysicalOp::CountSink, vec![input])
    }

    /// Storage-writing sink.
    pub fn write_storage(&mut self, input: NodeId, dataset_id: impl Into<String>) -> NodeId {
        self.add(
            PhysicalOp::StorageSink {
                dataset_id: dataset_id.into(),
            },
            vec![input],
        )
    }

    /// Finish and validate the plan, which must have at least one sink.
    pub fn build(self) -> Result<PhysicalPlan> {
        let plan = self.build_fragment()?;
        if plan.sinks().is_empty() {
            return Err(RheemError::InvalidPlan("plan has no sink".into()));
        }
        Ok(plan)
    }

    /// Finish without requiring sinks (used for loop bodies).
    pub fn build_fragment(self) -> Result<PhysicalPlan> {
        let plan = PhysicalPlan::from_nodes(self.nodes);
        plan.validate()?;
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Execution plans
// ---------------------------------------------------------------------------

/// A dataset flowing from one atom to another.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AtomInput {
    /// The consuming node inside this atom.
    pub consumer: NodeId,
    /// Which input slot of the consumer.
    pub slot: usize,
    /// The producing node (inside another atom).
    pub producer: NodeId,
    /// The channel kind the consumer reads this input from (the last hop
    /// of the chosen conversion route). [`ChannelKind::Memory`] for plans
    /// enumerated without channel information.
    pub channel: ChannelKind,
}

/// A maximal same-platform fragment of the plan — the paper's *task atom*.
#[derive(Clone, Debug)]
pub struct TaskAtom {
    /// Atom index within the execution plan.
    pub id: usize,
    /// Name of the platform that runs this atom.
    pub platform: String,
    /// The plan nodes in this atom, in topological order.
    pub nodes: Vec<NodeId>,
    /// Cross-atom input edges.
    pub inputs: Vec<AtomInput>,
    /// Nodes whose outputs must be surfaced (consumed by other atoms or
    /// being sinks).
    pub outputs: Vec<NodeId>,
}

/// The optimizer's per-node prediction, kept on the execution plan so the
/// observability layer can compare it against what actually happened.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeEstimate {
    /// Estimated cost of the node on its assigned platform, in abstract
    /// milliseconds (after calibration factors were applied).
    pub cost_ms: f64,
    /// Estimated output cardinality.
    pub card: f64,
}

/// How the enumerator arrived at an [`ExecutionPlan`]'s assignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumerationPath {
    /// The subplan-lattice search with lossless pruning ran to the end
    /// (also what hand-built plans report).
    #[default]
    LatticeV2,
    /// The search exhausted its expansion budget and the per-node DP
    /// assigned the platforms instead.
    GreedyFallback,
}

impl EnumerationPath {
    /// Stable display name (used in stats and explains).
    pub fn as_str(&self) -> &'static str {
        match self {
            EnumerationPath::LatticeV2 => "lattice-v2",
            EnumerationPath::GreedyFallback => "greedy-fallback",
        }
    }
}

impl fmt::Display for EnumerationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The channel conversion route of one cross-platform boundary edge
/// (recorded by the enumerator for explain rendering and runner-side
/// channel accounting).
#[derive(Clone, Debug)]
pub struct ChannelConversion {
    /// The producing node.
    pub producer: NodeId,
    /// The consuming node.
    pub consumer: NodeId,
    /// The consumer's input slot.
    pub slot: usize,
    /// Producer-side platform.
    pub from: String,
    /// Consumer-side platform.
    pub to: String,
    /// Channel kinds the data passes through, producer side first; empty
    /// when the movement model had no channel declarations.
    pub path: Vec<ChannelKind>,
    /// Priced movement for this edge (transport + conversions).
    pub cost_ms: f64,
}

/// How an [`ExecutionPlan`] was enumerated: whether the search finished,
/// how much of it ran, and what structure it exploited.
#[derive(Clone, Debug, Default)]
pub struct EnumerationInfo {
    /// Whether the lattice search finished or fell back.
    pub path: EnumerationPath,
    /// Lattice state expansions performed.
    pub expansions: usize,
    /// Maximal linear chains contracted into super-nodes before the
    /// search (only chains of ≥ 2 nodes are recorded; none on the
    /// fallback path).
    pub groups: Vec<Vec<NodeId>>,
    /// Channel conversion routes chosen for cross-platform edges.
    pub conversions: Vec<ChannelConversion>,
}

/// The optimizer's final product: a platform-annotated, atom-partitioned plan.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// The underlying physical plan.
    pub physical: Arc<PhysicalPlan>,
    /// Platform assigned to each node (indexed by node id).
    pub assignments: Vec<String>,
    /// Task atoms in a valid scheduling order.
    pub atoms: Vec<TaskAtom>,
    /// Estimated total cost (platform costs + movement costs), in abstract
    /// milliseconds; what the optimizer minimized.
    pub estimated_cost: f64,
    /// Per-node estimates (indexed by node id). Optimizer-produced plans
    /// always fill this; hand-built plans may leave it empty, in which
    /// case observed-vs-estimated reporting and calibration are skipped.
    pub estimates: Vec<NodeEstimate>,
    /// How the plan was enumerated (algorithm, search effort, contracted
    /// chains, chosen channel conversions).
    pub enumeration: EnumerationInfo,
}

impl ExecutionPlan {
    /// Which atom owns each node.
    pub fn atom_of(&self) -> HashMap<NodeId, usize> {
        let mut m = HashMap::new();
        for atom in &self.atoms {
            for &n in &atom.nodes {
                m.insert(n, atom.id);
            }
        }
        m
    }

    /// Number of platform switches (atom boundary edges).
    pub fn platform_switches(&self) -> usize {
        self.atoms.iter().map(|a| a.inputs.len()).sum()
    }

    /// The atom dependency DAG over atom *positions*: for each atom, the
    /// sorted, deduplicated positions of the atoms whose outputs it
    /// consumes. Positions, not ids, because suffix plans spliced in by
    /// mid-job re-planning keep globally unique (but gappy) ids.
    ///
    /// Producer nodes listed in `materialized` already have their outputs
    /// available (they were produced before the re-plan) and contribute no
    /// edge. Validates the plan's cross-atom wiring while it walks it, so
    /// the executor can schedule without any panicking index: fails with
    /// [`RheemError::InvalidPlan`] if a boundary edge names a producer node
    /// outside the physical plan or the platform assignments, a producer
    /// node is neither owned by any atom nor materialized, or an atom
    /// consumes its own output across a boundary edge (a self-cycle).
    pub fn pending_dependencies(&self, materialized: &HashSet<NodeId>) -> Result<Vec<Vec<usize>>> {
        let mut pos_of: HashMap<NodeId, usize> = HashMap::new();
        for (pos, atom) in self.atoms.iter().enumerate() {
            for &n in &atom.nodes {
                pos_of.insert(n, pos);
            }
        }
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); self.atoms.len()];
        for (pos, atom) in self.atoms.iter().enumerate() {
            for input in &atom.inputs {
                let p = input.producer;
                if p.0 >= self.physical.len() || p.0 >= self.assignments.len() {
                    return Err(RheemError::InvalidPlan(format!(
                        "atom {} consumes node {} outside the plan ({} nodes, {} assignments)",
                        atom.id,
                        p,
                        self.physical.len(),
                        self.assignments.len()
                    )));
                }
                if materialized.contains(&p) {
                    continue;
                }
                let producer_pos = *pos_of.get(&p).ok_or_else(|| {
                    RheemError::InvalidPlan(format!(
                        "atom {} consumes node {} that no pending atom produces \
                         and that is not materialized",
                        atom.id, p
                    ))
                })?;
                if producer_pos == pos {
                    return Err(RheemError::InvalidPlan(format!(
                        "atom {} consumes its own node {} across an atom boundary",
                        atom.id, p
                    )));
                }
                deps[pos].push(producer_pos);
            }
        }
        for d in &mut deps {
            d.sort_unstable();
            d.dedup();
        }
        Ok(deps)
    }

    /// How many boundary edges consume each producer node's output.
    ///
    /// The executor decrements these as atoms finish and drops an
    /// intermediate dataset once its last consumer has run (sink outputs
    /// are kept regardless — they are the job's results).
    pub fn boundary_consumer_counts(&self) -> HashMap<NodeId, usize> {
        let mut counts = HashMap::new();
        for atom in &self.atoms {
            for input in &atom.inputs {
                *counts.entry(input.producer).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Human-readable rendering: node, platform, atom.
    pub fn explain(&self) -> String {
        let atom_of = self.atom_of();
        let mut s = String::new();
        for n in self.physical.nodes() {
            let inputs: Vec<String> = n.inputs.iter().map(|i| i.to_string()).collect();
            s.push_str(&format!(
                "{}: {} <- [{}]  @{} (atom {})\n",
                n.id,
                n.op.name(),
                inputs.join(", "),
                self.assignments[n.id.0],
                atom_of.get(&n.id).copied().unwrap_or(usize::MAX),
            ));
        }
        s.push_str(&format!(
            "atoms: {}, switches: {}, estimated cost: {:.3} ms\n",
            self.atoms.len(),
            self.platform_switches(),
            self.estimated_cost
        ));
        s
    }

    /// The enumerator's companion of [`ExecutionPlan::explain`]: the same
    /// node/platform/atom listing followed by how the plan was found —
    /// which enumeration path ran, how many lattice states it expanded,
    /// the linear chains it contracted into super-nodes, and the channel
    /// conversion route chosen for every cross-platform edge.
    pub fn explain_enumeration(&self) -> String {
        let mut s = self.explain();
        let info = &self.enumeration;
        s.push_str(&format!(
            "enumeration: {} (expansions: {}, contracted groups: {})\n",
            info.path,
            info.expansions,
            info.groups.len()
        ));
        for (i, group) in info.groups.iter().enumerate() {
            let nodes: Vec<String> = group.iter().map(|n| n.to_string()).collect();
            s.push_str(&format!(
                "group {} ({} nodes): {}\n",
                i,
                group.len(),
                nodes.join(" ")
            ));
        }
        for c in &info.conversions {
            let path = if c.path.is_empty() {
                "flat".to_string()
            } else {
                c.path
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join("->")
            };
            s.push_str(&format!(
                "channel {} -> {}: {} -> {} via [{}] ({:.3} ms)\n",
                c.producer, c.consumer, c.from, c.to, path, c.cost_ms
            ));
        }
        s
    }

    /// The `--observed` companion of [`ExecutionPlan::explain`]: compares,
    /// per atom, the optimizer's estimated cost and output cardinality
    /// against what the job actually measured, with error ratios
    /// (observed/estimated; `x1.000` means the estimate was exact).
    ///
    /// Requires the plan to carry optimizer [`NodeEstimate`]s; hand-built
    /// plans without them get an explanatory note instead of a table.
    pub fn explain_observed(&self, stats: &crate::executor::ExecutionStats) -> String {
        let fault = format!(
            "fault: {} retries, {} replans, {} failovers\n",
            stats.retries,
            stats.replans.len(),
            stats.failovers.len(),
        );
        if self.estimates.len() != self.physical.len() {
            return format!(
                "no optimizer estimates attached to this plan; \
                 run it through the optimizer to compare estimated vs observed\n{fault}"
            );
        }
        let by_id: HashMap<usize, &crate::executor::AtomStats> =
            stats.atoms.iter().map(|a| (a.atom_id, a)).collect();
        let ratio = |observed: f64, estimated: f64| -> String {
            if estimated > 0.0 && observed.is_finite() {
                format!("x{:.3}", observed / estimated)
            } else {
                "-".into()
            }
        };
        let mut s = String::from(
            "atom  platform     est_ms      obs_ms      ms_ratio  est_out    obs_out    card_ratio\n",
        );
        let mut total_est = 0.0;
        let mut total_obs = 0.0;
        for atom in &self.atoms {
            let est_ms: f64 = atom.nodes.iter().map(|n| self.estimates[n.0].cost_ms).sum();
            let est_out: f64 = atom.nodes.iter().map(|n| self.estimates[n.0].card).sum();
            let (obs_ms, obs_out) = match by_id.get(&atom.id) {
                Some(a) => (a.simulated_elapsed_ms, a.records_out as f64),
                None => {
                    s.push_str(&format!(
                        "{:<4}  {:<11}  {:>10.3}  (not executed)\n",
                        atom.id, atom.platform, est_ms
                    ));
                    continue;
                }
            };
            total_est += est_ms;
            total_obs += obs_ms;
            s.push_str(&format!(
                "{:<4}  {:<11}  {:>10.3}  {:>10.3}  {:>8}  {:>9.0}  {:>9.0}  {:>10}\n",
                atom.id,
                atom.platform,
                est_ms,
                obs_ms,
                ratio(obs_ms, est_ms),
                est_out,
                obs_out,
                ratio(obs_out, est_out),
            ));
        }
        s.push_str(&format!(
            "total: {:.3} estimated ms vs {:.3} observed ms ({}), {:.3} ms movement observed\n",
            total_est,
            total_obs,
            ratio(total_obs, total_est),
            stats.total_movement_ms,
        ));
        s.push_str(&fault);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use crate::udf::{FilterUdf, LoopCondUdf, MapUdf};

    fn simple_plan() -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let src = b.collection("src", vec![rec![1i64], rec![2i64]]);
        let m = b.map(src, MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1]));
        b.collect(m);
        b.build().unwrap()
    }

    /// A fully declarative (expression-based) plan: two independent builds
    /// must fingerprint identically.
    fn declarative_plan(records: usize, threshold: i64) -> PhysicalPlan {
        use crate::expr::Expr;
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..records as i64).map(|i| rec![i]).collect());
        let f = b.filter(
            src,
            FilterUdf::from_expr("big", Expr::field(0).gt(Expr::lit(threshold))),
        );
        let m = b.map(
            f,
            MapUdf::from_exprs("double", vec![Expr::field(0).mul(Expr::lit(2i64))]),
        );
        b.collect(m);
        b.build().unwrap()
    }

    #[test]
    fn declarative_fingerprints_are_stable_and_transparent() {
        let a = declarative_plan(10, 3).fingerprint();
        let b = declarative_plan(10, 3).fingerprint();
        assert_eq!(a, b, "independent builds of the same plan must agree");
        assert!(!a.opaque, "expression payloads need no identity hashing");
        // Any declarative detail changes the hash: literal, cardinality.
        assert_ne!(a.hash, declarative_plan(10, 4).fingerprint().hash);
        assert_ne!(a.hash, declarative_plan(11, 3).fingerprint().hash);
    }

    #[test]
    fn closure_udfs_fingerprint_by_identity_and_mark_opaque() {
        let udf = FilterUdf::new("pos", |r: &crate::data::Record| r.int(0).unwrap() > 0);
        let build = |u: &FilterUdf| {
            let mut b = PlanBuilder::new();
            let src = b.collection("s", vec![rec![1i64]]);
            let f = b.filter(src, u.clone());
            b.collect(f);
            b.build().unwrap()
        };
        let a = build(&udf).fingerprint();
        let b = build(&udf).fingerprint();
        assert!(a.opaque);
        assert_eq!(a, b, "cloned UDFs share the closure Arc");
        // A freshly constructed closure — even with identical source — is a
        // different identity and must not collide.
        let other = FilterUdf::new("pos", |r: &crate::data::Record| r.int(0).unwrap() > 0);
        assert_ne!(a.hash, build(&other).fingerprint().hash);
    }

    #[test]
    fn key_fields_and_aggregate_specs_are_fingerprinted() {
        use crate::expr::Expr;
        use crate::udf::{AggFunc, Aggregate, GroupMapUdf, GroupOutput, KeyUdf};
        let build = |key_fields: Vec<usize>, func: AggFunc, arg: Option<Expr>| {
            let mut b = PlanBuilder::new();
            let src = b.collection("s", vec![rec![1i64, 2i64]]);
            let g = b.group_by(
                src,
                KeyUdf::fields(key_fields),
                GroupMapUdf::from_aggs(
                    "aggregate",
                    vec![
                        GroupOutput::First(0),
                        GroupOutput::Agg(Aggregate { func, arg }),
                    ],
                ),
            );
            b.collect(g);
            b.build().unwrap().fingerprint()
        };
        let base = build(vec![0, 1], AggFunc::Sum, Some(Expr::field(1)));
        assert!(!base.opaque, "a declarative group-by hashes no closure");
        assert_eq!(base, build(vec![0, 1], AggFunc::Sum, Some(Expr::field(1))));
        // Every declarative detail separates two statements' plans.
        for other in [
            build(vec![1, 0], AggFunc::Sum, Some(Expr::field(1))),
            build(vec![0], AggFunc::Sum, Some(Expr::field(1))),
            build(vec![], AggFunc::Sum, Some(Expr::field(1))),
            build(vec![0, 1], AggFunc::Avg, Some(Expr::field(1))),
            build(vec![0, 1], AggFunc::Sum, Some(Expr::field(0))),
            build(vec![0, 1], AggFunc::Sum, None),
        ] {
            assert_ne!(base.hash, other.hash);
        }
    }

    #[test]
    fn rewritten_plans_report_sinks_under_their_original_ids() {
        use crate::expr::Expr;
        let mut b = PlanBuilder::new();
        let src = b.collection("s", (0..10i64).map(|i| rec![i]).collect());
        let f = b.filter(
            src,
            FilterUdf::from_expr("small", Expr::field(0).lt(Expr::lit(5i64))),
        );
        let m = b.map(
            f,
            MapUdf::from_exprs("twice", vec![Expr::field(0).mul(Expr::lit(2i64))]),
        );
        let first = b.collect(m);
        let second = b.count(src);
        let plan = b.build().unwrap();
        assert_eq!(plan.output_ids(), vec![(first, first), (second, second)]);
        let rewritten = crate::optimizer::rewrites::apply_rewrites(plan).unwrap();
        // Filter and map fused into one pipeline: every later node moved
        // down by one, but the outputs keep the handles the builder gave.
        assert_eq!(rewritten.len(), 4);
        assert_eq!(
            rewritten.output_ids(),
            vec![(NodeId(2), first), (NodeId(3), second)]
        );
    }

    #[test]
    fn loop_bodies_contribute_to_the_fingerprint() {
        let build = |iters: u64| {
            let mut body = PlanBuilder::new();
            let li = body.loop_input();
            body.map(
                li,
                MapUdf::from_exprs(
                    "inc",
                    vec![crate::expr::Expr::field(0).add(crate::expr::Expr::lit(1i64))],
                ),
            );
            let body = body.build_fragment().unwrap();
            let mut b = PlanBuilder::new();
            let src = b.collection("s", vec![rec![0i64]]);
            let l = b.repeat(src, body, LoopCondUdf::fixed_iterations(iters), iters);
            b.collect(l);
            b.build().unwrap()
        };
        let a = build(2).fingerprint();
        assert!(a.opaque, "loop conditions are closures");
        assert_ne!(a.hash, build(3).fingerprint().hash);
    }

    #[test]
    fn builder_produces_topologically_ordered_nodes() {
        let plan = simple_plan();
        assert_eq!(plan.len(), 3);
        for n in plan.nodes() {
            for &i in &n.inputs {
                assert!(i.0 < n.id.0);
            }
        }
        assert_eq!(plan.sinks(), vec![NodeId(2)]);
        assert_eq!(plan.terminals(), vec![NodeId(2)]);
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let plan = PhysicalPlan::from_nodes(vec![PhysicalNode {
            id: NodeId(0),
            op: PhysicalOp::Limit { n: 1 },
            inputs: vec![],
        }]);
        assert!(matches!(plan.validate(), Err(RheemError::InvalidPlan(_))));
    }

    #[test]
    fn validate_rejects_forward_edges() {
        let plan = PhysicalPlan::from_nodes(vec![
            PhysicalNode {
                id: NodeId(0),
                op: PhysicalOp::Limit { n: 1 },
                inputs: vec![NodeId(1)],
            },
            PhysicalNode {
                id: NodeId(1),
                op: PhysicalOp::CollectionSource {
                    data: Dataset::empty(),
                    name: "x".into(),
                },
                inputs: vec![],
            },
        ]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn empty_plan_is_invalid() {
        assert!(PhysicalPlan::default().validate().is_err());
    }

    #[test]
    fn build_requires_a_sink_but_a_fragment_does_not() {
        let sinkless = || {
            let mut b = PlanBuilder::new();
            let src = b.collection("s", vec![rec![1i64]]);
            b.map(src, MapUdf::new("id", |r| r.clone()));
            b
        };
        assert!(matches!(
            sinkless().build(),
            Err(RheemError::InvalidPlan(m)) if m.contains("no sink")
        ));
        assert_eq!(sinkless().build_fragment().unwrap().len(), 2);
    }

    #[test]
    fn loop_body_shape_is_checked() {
        // Valid body: LoopInput -> Map.
        let mut b = PlanBuilder::new();
        let li = b.loop_input();
        b.map(li, MapUdf::new("id", |r| r.clone()));
        let body = b.build_fragment().unwrap();

        let mut outer = PlanBuilder::new();
        let src = outer.collection("s", vec![rec![0i64]]);
        let l = outer.repeat(src, body, LoopCondUdf::fixed_iterations(2), 2);
        outer.collect(l);
        assert!(outer.build().is_ok());

        // Invalid body: no LoopInput.
        let mut b = PlanBuilder::new();
        b.collection("s", vec![rec![0i64]]);
        let bad_body = PhysicalPlan::from_nodes(b.nodes);
        let mut outer = PlanBuilder::new();
        let src = outer.collection("s", vec![rec![0i64]]);
        let l = outer.repeat(src, bad_body, LoopCondUdf::fixed_iterations(2), 2);
        outer.collect(l);
        assert!(outer.build().is_err());

        // Invalid body: terminal is a sink.
        let mut b = PlanBuilder::new();
        let li = b.loop_input();
        b.collect(li);
        let sink_body = PhysicalPlan::from_nodes(b.nodes);
        let mut outer = PlanBuilder::new();
        let src = outer.collection("s", vec![rec![0i64]]);
        let l = outer.repeat(src, sink_body, LoopCondUdf::fixed_iterations(2), 2);
        outer.collect(l);
        assert!(outer.build().is_err());
    }

    #[test]
    fn consumers_and_shared_subplans() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let f1 = b.filter(src, FilterUdf::new("a", |_| true));
        let f2 = b.filter(src, FilterUdf::new("b", |_| true));
        let u = b.union(f1, f2);
        b.collect(u);
        let plan = b.build().unwrap();
        let consumers = plan.consumers();
        assert_eq!(consumers[src.0].len(), 2);
        assert_eq!(consumers[u.0].len(), 1);
    }

    #[test]
    fn explain_mentions_every_node() {
        let plan = simple_plan();
        let text = plan.explain();
        assert!(text.contains("CollectionSource"));
        assert!(text.contains("Map(inc)"));
        assert!(text.contains("CollectSink"));
    }

    /// `{src+map}@a -> {collect}@b`, split into two atoms.
    fn two_atom_exec_plan() -> ExecutionPlan {
        let physical = Arc::new(simple_plan());
        ExecutionPlan {
            physical,
            assignments: vec!["a".into(), "a".into(), "b".into()],
            atoms: vec![
                TaskAtom {
                    id: 0,
                    platform: "a".into(),
                    nodes: vec![NodeId(0), NodeId(1)],
                    inputs: vec![],
                    outputs: vec![NodeId(1)],
                },
                TaskAtom {
                    id: 1,
                    platform: "b".into(),
                    nodes: vec![NodeId(2)],
                    inputs: vec![AtomInput {
                        consumer: NodeId(2),
                        slot: 0,
                        producer: NodeId(1),
                        channel: ChannelKind::Memory,
                    }],
                    outputs: vec![NodeId(2)],
                },
            ],
            estimated_cost: 0.0,
            estimates: vec![],
            enumeration: EnumerationInfo::default(),
        }
    }

    #[test]
    fn explain_observed_without_estimates_degrades_gracefully() {
        let plan = two_atom_exec_plan();
        let text = plan.explain_observed(&crate::executor::ExecutionStats::default());
        assert!(text.contains("no optimizer estimates"));
    }

    #[test]
    fn pending_dependencies_follow_boundary_edges() {
        let plan = two_atom_exec_plan();
        let deps = plan.pending_dependencies(&HashSet::new()).unwrap();
        assert_eq!(deps, vec![vec![], vec![0]]);
        let counts = plan.boundary_consumer_counts();
        assert_eq!(counts.get(&NodeId(1)), Some(&1));
        assert_eq!(counts.get(&NodeId(0)), None);
    }

    #[test]
    fn pending_dependencies_tolerate_gappy_ids_and_materialized_producers() {
        // Same wiring as `two_atom_exec_plan`, but with the suffix shape a
        // re-plan produces: the first atom already ran (its node outputs
        // are materialized), the remaining atom keeps a non-dense id.
        let mut plan = two_atom_exec_plan();
        plan.atoms.remove(0);
        plan.atoms[0].id = 7;
        let materialized: HashSet<NodeId> = [NodeId(0), NodeId(1)].into_iter().collect();
        let deps = plan.pending_dependencies(&materialized).unwrap();
        assert_eq!(deps, vec![Vec::<usize>::new()]);
        // Without the materialized set, the dangling producer is an error.
        assert!(plan.pending_dependencies(&HashSet::new()).is_err());
    }

    #[test]
    fn pending_dependencies_reject_out_of_range_producers() {
        let mut plan = two_atom_exec_plan();
        plan.atoms[1].inputs[0].producer = NodeId(99);
        assert!(matches!(
            plan.pending_dependencies(&HashSet::new()),
            Err(RheemError::InvalidPlan(_))
        ));
    }

    #[test]
    fn pending_dependencies_reject_unowned_and_truncated_assignments() {
        // Producer node exists but no atom owns it.
        let mut plan = two_atom_exec_plan();
        plan.atoms[0].nodes = vec![NodeId(0)];
        assert!(matches!(
            plan.pending_dependencies(&HashSet::new()),
            Err(RheemError::InvalidPlan(_))
        ));
        // Assignments vector shorter than the plan: the old executor would
        // have panicked indexing `assignments[edge.producer.0]`.
        let mut plan = two_atom_exec_plan();
        plan.assignments.truncate(1);
        assert!(matches!(
            plan.pending_dependencies(&HashSet::new()),
            Err(RheemError::InvalidPlan(_))
        ));
    }

    #[test]
    fn pending_dependencies_reject_self_edges() {
        let mut plan = two_atom_exec_plan();
        // Make atom 1 own the node it consumes: a boundary self-edge.
        plan.atoms[1].nodes.push(NodeId(1));
        assert!(plan.pending_dependencies(&HashSet::new()).is_err());
    }
}
