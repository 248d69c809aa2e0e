//! Platform assignment and task-atom splitting — the heart of the
//! multi-platform task optimizer (§4.2).
//!
//! [`enumerate`] is the only way a physical plan becomes an execution
//! plan. It minimizes one objective, [`assignment_cost`]:
//!
//! ```text
//! Σ_nodes [ opCost(n, pₙ) + (n is source ? startup(pₙ) : 0) ]
//! + Σ_edges(u→v) [ move(pᵤ → pᵥ, |u|) + (pᵤ ≠ pᵥ ? startup(pᵥ) : 0) ]
//! ```
//!
//! which prices each node once and each edge once. Loops are costed as
//! `expected_iterations × body-cost-on-p`, with the whole body pinned to
//! one platform — matching how the paper's Figure 2 runs an entire SVM
//! loop either "as a Spark job" or "as a plain Java program". The search
//! is a RHEEMix-style subplan lattice, exact on arbitrary DAGs while
//! staying polynomial on the plans we care about:
//!
//! 1. **One price table** — every `(node, platform)` operator cost and
//!    every `(producer, from, to)` edge cost is computed once, up front
//!    (`Priced`); edges go through [`MovementCostModel::route`] over the
//!    two platforms' own [`Platform::channels`]. The search, the fallback,
//!    plan assembly and the exhaustive oracle all read that table.
//! 2. **Chain contraction** — maximal linear operator chains (single
//!    consumer feeding a single-input node) are contracted into
//!    super-nodes before the search ([`super::fuse::contract_chains`]).
//!    Each chain gets an exact `T[q][p]` cost table (cheapest way to run
//!    the whole chain with the upstream producer on `q` and the chain's
//!    exit on `p`, platform switches inside the chain allowed) computed by
//!    an `O(len · P²)` inner DP.
//! 3. **Frontier lattice** — super-nodes are processed in topological
//!    order; a search state maps the currently *open* super-nodes (those
//!    with unpriced consumer edges) to their exit platforms. Two states
//!    with the same open-node→platform map are interchangeable for every
//!    possible completion, so keeping only the cheaper one is **lossless**
//!    pruning: the reachable frontier is the set of non-dominated
//!    assignments per boundary-platform combination.
//! 4. **Budget** — every `(state, platform)` evaluation counts as one
//!    expansion. Exhausting [`EnumerationConfig::max_expansions`] abandons
//!    the lattice and assigns platforms by a per-node DP instead
//!    (`O(nodes · P²)`, exact on trees; on a shared sub-DAG it may pick a
//!    costlier assignment, never an invalid one). The plan then says so:
//!    [`EnumerationPath::GreedyFallback`]. The budget counts states, not
//!    time, so the chosen plan never depends on host load.
//!
//! Whichever way the assignment was found, the plan is assembled the same
//! way: `estimated_cost` is the objective above evaluated on the returned
//! assignment, and every cross-platform edge carries its conversion route
//! ([`EnumerationInfo::conversions`], [`AtomInput::channel`]).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use crate::cost::{calibrated_op_cost, CardinalityEstimator, ChannelSpec, MovementCostModel};
use crate::error::{Result, RheemError};
use crate::observe::CostCalibration;
use crate::physical::PhysicalOp;
use crate::plan::{
    AtomInput, ChannelConversion, EnumerationInfo, EnumerationPath, ExecutionPlan, NodeEstimate,
    NodeId, PhysicalPlan, TaskAtom,
};
use crate::platform::{Platform, PlatformRegistry};

use super::fuse::contract_chains;

const INF: f64 = f64::INFINITY;

/// What a caller may restrict or bound about enumeration.
#[derive(Clone, Debug)]
pub struct EnumerationConfig {
    /// Restrict the search to one platform (platform-independence ablation;
    /// also how an end user pins a job to an engine).
    pub forced_platform: Option<String>,
    /// Platforms removed from the search entirely. Failover re-planning
    /// excludes failed platforms this way; an exclusion that leaves some
    /// operator unmappable surfaces as [`RheemError::NoPlatformFor`].
    pub excluded_platforms: Vec<String>,
    /// Lattice-state expansion budget. Exhausting it degrades
    /// deterministically to the per-node DP, recorded as
    /// [`EnumerationPath::GreedyFallback`].
    pub max_expansions: usize,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig {
            forced_platform: None,
            excluded_platforms: Vec::new(),
            max_expansions: 200_000,
        }
    }
}

/// Assign platforms to every node and split the plan into task atoms.
///
/// `calibration` scales each platform's static operator cost by the EMA of
/// previously observed/estimated ratios (1.0 when nothing was observed),
/// closing the feedback loop described in `observe::calibrate`. See the
/// module docs for the search and its budget.
pub fn enumerate(
    plan: Arc<PhysicalPlan>,
    registry: &PlatformRegistry,
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    config: &EnumerationConfig,
    calibration: &CostCalibration,
) -> Result<ExecutionPlan> {
    let priced = Priced::new(&plan, registry, estimator, movement, config, calibration)?;
    let mut expansions = 0usize;
    let found = lattice_search(&plan, &priced, config.max_expansions, &mut expansions)?;
    let minimized = found.as_ref().map(|f| f.total_cost);
    let (assignment, groups, path) = match found {
        Some(f) => (f.assignment, f.groups, EnumerationPath::LatticeV2),
        None => (
            greedy_dp(&plan, &priced)?,
            Vec::new(),
            EnumerationPath::GreedyFallback,
        ),
    };
    let exec = assemble(
        plan,
        &priced,
        movement,
        &assignment,
        EnumerationInfo {
            path,
            expansions,
            groups,
            conversions: Vec::new(),
        },
    );
    if let Some(total) = minimized {
        debug_assert!(
            (exec.estimated_cost - total).abs() <= 1e-9 * total.abs().max(1.0),
            "the lattice minimized {total} but its assignment prices to {}",
            exec.estimated_cost
        );
    }
    Ok(exec)
}

/// Everything about one plan that does not depend on the assignment: the
/// platforms the config leaves in play, the estimated cardinalities, and
/// the price of every operator and every edge on every platform (pair).
struct Priced {
    platforms: Vec<Arc<dyn Platform>>,
    /// [`Platform::channels`] per platform.
    channels: Vec<ChannelSpec>,
    /// `atom_startup_cost` per platform.
    startup: Vec<f64>,
    cards: Vec<f64>,
    /// `[node · P + p]`: operator cost of `node` on `p`, `INF` where the
    /// platform cannot run it.
    op: Vec<f64>,
    /// `[(producer · P + q) · P + r]`: an edge out of `producer` with the
    /// producer on `q` and the consumer on `r` — movement of the
    /// producer's output plus, on a switch, the consumer-side startup.
    edge: Vec<f64>,
}

impl Priced {
    fn new(
        plan: &PhysicalPlan,
        registry: &PlatformRegistry,
        estimator: &CardinalityEstimator,
        movement: &MovementCostModel,
        config: &EnumerationConfig,
        calibration: &CostCalibration,
    ) -> Result<Priced> {
        if registry.is_empty() {
            return Err(RheemError::Optimizer("no platforms registered".into()));
        }
        let mut platforms: Vec<_> = match &config.forced_platform {
            Some(name) => vec![registry.get(name)?],
            None => registry.all().to_vec(),
        };
        platforms.retain(|p| !config.excluded_platforms.iter().any(|x| x == p.name()));
        if platforms.is_empty() {
            return Err(RheemError::Optimizer(
                "every registered platform is excluded from enumeration".into(),
            ));
        }
        let n_plats = platforms.len();
        let startup: Vec<f64> = platforms
            .iter()
            .map(|p| p.cost_model().atom_startup_cost())
            .collect();
        let cards = estimator.estimate(plan)?;

        let mut op = vec![INF; plan.len() * n_plats];
        let mut consumed = vec![false; plan.len()];
        for node in plan.nodes() {
            let ins: Vec<f64> = node.inputs.iter().map(|i| cards[i.0]).collect();
            let row = &mut op[node.id.0 * n_plats..][..n_plats];
            for (cost, platform) in row.iter_mut().zip(&platforms) {
                if supports_deep(platform.as_ref(), &node.op) {
                    *cost = node_cost(
                        &node.op,
                        &ins,
                        cards[node.id.0],
                        platform.as_ref(),
                        estimator,
                        calibration,
                    )?;
                }
            }
            // An exclusion set that strands an operator is a clean error
            // here, not an empty frontier deep in the search.
            if row.iter().all(|c| !c.is_finite()) {
                return Err(RheemError::NoPlatformFor {
                    op: node.op.name(),
                    node: node.id,
                });
            }
            for input in &node.inputs {
                consumed[input.0] = true;
            }
        }

        // Route each producer's output once per platform pair; every
        // consumer edge of that producer reads the same entry.
        let channels: Vec<ChannelSpec> = platforms.iter().map(|p| p.channels()).collect();
        let mut edge = vec![0.0; plan.len() * n_plats * n_plats];
        for (producer, _) in consumed.iter().enumerate().filter(|(_, c)| **c) {
            for (q, from) in channels.iter().enumerate() {
                for (r, to) in channels.iter().enumerate() {
                    if q != r {
                        edge[(producer * n_plats + q) * n_plats + r] =
                            movement.route(from, to, cards[producer]).total_ms() + startup[r];
                    }
                }
            }
        }
        Ok(Priced {
            platforms,
            channels,
            startup,
            cards,
            op,
            edge,
        })
    }

    fn n_plats(&self) -> usize {
        self.platforms.len()
    }

    fn op(&self, node: NodeId, p: usize) -> f64 {
        self.op[node.0 * self.n_plats() + p]
    }

    fn edge(&self, producer: NodeId, q: usize, r: usize) -> f64 {
        self.edge[(producer.0 * self.n_plats() + q) * self.n_plats() + r]
    }
}

/// One contracted super-node of the search graph.
struct SuperNode {
    /// Member nodes in dataflow order (a single element unless contracted).
    nodes: Vec<NodeId>,
    /// Inputs of the head node (original node ids).
    head_inputs: Vec<NodeId>,
    /// Super-node index feeding each head input slot.
    producers: Vec<usize>,
    /// Chains (≤ 1 head input) carry the exact `T[q][p]` table;
    /// multi-input heads are priced per slot in the frontier loop.
    table: Option<ChainTable>,
    /// For multi-input heads dragging a linear tail (`nodes.len() > 1`):
    /// the exact table over `nodes[1..]`, rows keyed by the *head*
    /// platform. The head platform is minimized out inside each frontier
    /// step (it only touches the producer edges and the tail entry, both
    /// priced there), so the boundary key still needs only the exit
    /// platform — pruning stays lossless.
    tail: Option<ChainTable>,
}

/// `cost[q][p]`: cheapest full-chain cost with the upstream producer on
/// platform `q` (index `P` = "no producer", source chains) and the tail on
/// `p`. `back[q][j][p]` is the platform of node `j-1` on that cheapest
/// path when node `j` runs on `p`.
struct ChainTable {
    cost: Vec<Vec<f64>>,
    back: Vec<Vec<Vec<usize>>>,
}

/// What the lattice search hands to plan assembly.
struct LatticeOutcome {
    /// Platform index per original node.
    assignment: Vec<usize>,
    /// The contracted chains of ≥ 2 nodes.
    groups: Vec<Vec<NodeId>>,
    /// The objective value the search minimized.
    total_cost: f64,
}

/// Run the frontier DP. Returns `Ok(None)` when the expansion budget was
/// exhausted (the caller falls back to [`greedy_dp`]); errors are real
/// failures that would also affect the fallback.
fn lattice_search(
    plan: &PhysicalPlan,
    priced: &Priced,
    max_expansions: usize,
    expansions: &mut usize,
) -> Result<Option<LatticeOutcome>> {
    let n_plats = priced.n_plats();

    // Contract chains and build the super-node graph.
    let chains = contract_chains(plan);
    let mut super_of = vec![usize::MAX; plan.len()];
    for (si, chain) in chains.iter().enumerate() {
        for n in chain {
            super_of[n.0] = si;
        }
    }
    let mut supers: Vec<SuperNode> = Vec::with_capacity(chains.len());
    for chain in chains {
        let head_inputs = plan.node(chain[0]).inputs.clone();
        let producers: Vec<usize> = head_inputs.iter().map(|i| super_of[i.0]).collect();
        let (table, tail) = if head_inputs.len() <= 1 {
            (Some(chain_table(plan, &chain, priced)), None)
        } else if chain.len() > 1 {
            (None, Some(chain_table(plan, &chain[1..], priced)))
        } else {
            (None, None)
        };
        supers.push(SuperNode {
            nodes: chain,
            head_inputs,
            producers,
            table,
            tail,
        });
    }

    // Unpriced consumer-edge count per super-node: a super-node closes
    // (leaves the frontier key) once every outgoing edge has been priced.
    let m = supers.len();
    let mut remaining = vec![0usize; m];
    for node in plan.nodes() {
        for input in &node.inputs {
            if super_of[input.0] != super_of[node.id.0] {
                remaining[super_of[input.0]] += 1;
            }
        }
    }

    // Visit order. Any topological order of the contracted DAG is valid —
    // producer edges are priced at the consumer's step, so producers just
    // have to come first — but the order decides the frontier width: the
    // key holds one platform per *open* super-node, so states multiply by
    // `n_plats` per open node. Index order is pathological for bushy plans
    // (every branch's chain opens before the first combiner closes any),
    // so schedule greedily: among ready super-nodes take the one closing
    // the most producers, tie-break fewest newly-opened, then smallest
    // index — deterministic, and keeps wide union/join trees near-linear.
    let order = schedule_supers(&supers, &remaining);

    // Frontier: platforms of the open super-nodes (in `open` order) → the
    // cheapest cost reaching that boundary, plus a backpointer into the
    // arena for plan extraction. The open set evolves identically across
    // states, so the key is just the platform vector. A BTreeMap keeps
    // iteration — and therefore equal-cost tie-breaking — deterministic.
    let mut open: Vec<usize> = Vec::new();
    let mut frontier: BTreeMap<Vec<u8>, (f64, u32)> = BTreeMap::new();
    frontier.insert(Vec::new(), (0.0, u32::MAX));
    let mut arena: Vec<(u32, u8)> = Vec::new();

    for &si in &order {
        let s = &supers[si];
        let producer_pos: Vec<usize> = s
            .producers
            .iter()
            .map(|prod| {
                open.iter()
                    .position(|&o| o == *prod)
                    .expect("producer super-node is open until its edges are priced")
            })
            .collect();

        // The open set after this step: drop producers whose last consumer
        // edge we just priced, append `si` when it has outgoing edges.
        for prod in &s.producers {
            remaining[*prod] -= 1;
        }
        let mut next_open = Vec::with_capacity(open.len() + 1);
        let mut keep_pos = Vec::with_capacity(open.len());
        for (pos, &o) in open.iter().enumerate() {
            if remaining[o] > 0 {
                keep_pos.push(pos);
                next_open.push(o);
            }
        }
        let self_open = remaining[si] > 0;
        if self_open {
            next_open.push(si);
        }

        let mut next: BTreeMap<Vec<u8>, (f64, u32)> = BTreeMap::new();
        let mut plats = vec![0usize; producer_pos.len()];
        for (key, &(cost, bp)) in &frontier {
            for (plat, &pos) in plats.iter_mut().zip(&producer_pos) {
                *plat = key[pos] as usize;
            }
            for p in 0..n_plats {
                *expansions += 1;
                if *expansions > max_expansions {
                    return Ok(None);
                }
                let added = match &s.table {
                    // A source chain has no producer: row `P`.
                    Some(t) => t.cost[plats.first().copied().unwrap_or(n_plats)][p],
                    None => multi_head_cost(s, &plats, p, priced).0,
                };
                if !added.is_finite() {
                    continue;
                }
                let total = cost + added;
                let mut new_key = Vec::with_capacity(next_open.len());
                for &pos in &keep_pos {
                    new_key.push(key[pos]);
                }
                if self_open {
                    new_key.push(p as u8);
                }
                // Lossless pruning: identical boundary keys are
                // interchangeable for every completion, keep only the
                // cheapest (first wins on exact ties — deterministic
                // because states are visited in key order).
                let improves = match next.get(&new_key) {
                    Some(&(existing, _)) => total < existing,
                    None => true,
                };
                if improves {
                    arena.push((bp, p as u8));
                    next.insert(new_key, (total, (arena.len() - 1) as u32));
                }
            }
        }
        if next.is_empty() {
            return Err(no_feasible_assignment());
        }
        frontier = next;
        open = next_open;
    }

    debug_assert!(open.is_empty(), "all super-nodes close at the end");
    let (total_cost, mut bp) = *frontier
        .values()
        .next()
        .expect("frontier is non-empty after every step");

    // Walk the backpointer arena: one entry per processed super-node,
    // newest last — i.e. in reverse *visit* order.
    let mut super_platform = vec![0usize; m];
    for &si in order.iter().rev() {
        let (prev, p) = arena[bp as usize];
        super_platform[si] = p as usize;
        bp = prev;
    }

    // Expand chains to per-node platforms through the chain back tables.
    let mut assignment = vec![0usize; plan.len()];
    for (si, s) in supers.iter().enumerate() {
        let exit = super_platform[si];
        match &s.table {
            Some(t) => {
                let q = match s.producers.first() {
                    Some(&prod) => super_platform[prod],
                    None => n_plats,
                };
                let k = s.nodes.len();
                let mut cur = exit;
                assignment[s.nodes[k - 1].0] = cur;
                for j in (1..k).rev() {
                    cur = t.back[q][j][cur];
                    assignment[s.nodes[j - 1].0] = cur;
                }
            }
            None => {
                // Recompute the head-platform argmin with the producers'
                // chosen platforms — same iteration order and strict `<`
                // as the search, so the reconstruction is exact.
                let plats: Vec<usize> = s.producers.iter().map(|&pr| super_platform[pr]).collect();
                let (_, h) = multi_head_cost(s, &plats, exit, priced);
                assignment[s.nodes[0].0] = h;
                if let Some(t) = &s.tail {
                    let kt = s.nodes.len() - 1;
                    let mut cur = exit;
                    assignment[s.nodes[kt].0] = cur;
                    for j in (1..kt).rev() {
                        cur = t.back[h][j][cur];
                        assignment[s.nodes[j].0] = cur;
                    }
                }
            }
        }
    }

    Ok(Some(LatticeOutcome {
        assignment,
        groups: supers
            .into_iter()
            .map(|s| s.nodes)
            .filter(|nodes| nodes.len() > 1)
            .collect(),
        total_cost,
    }))
}

fn no_feasible_assignment() -> RheemError {
    RheemError::Optimizer("enumeration found no feasible assignment".into())
}

/// Pick a topological visit order over the contracted DAG that keeps the
/// set of simultaneously-open super-nodes small (see the call site for
/// why width matters). Greedy: among ready nodes, maximize producers
/// closed by this step, then minimize whether the node itself opens,
/// then smallest index. `remaining` is the initial unpriced consumer-edge
/// count per super-node (not mutated — a local copy is simulated).
fn schedule_supers(supers: &[SuperNode], remaining: &[usize]) -> Vec<usize> {
    let m = supers.len();
    let mut remaining = remaining.to_vec();
    // Unprocessed-producer count per super (slots, duplicates included).
    let mut deps: Vec<usize> = supers.iter().map(|s| s.producers.len()).collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (si, s) in supers.iter().enumerate() {
        for &prod in &s.producers {
            consumers[prod].push(si);
        }
    }
    let mut done = vec![false; m];
    let mut order = Vec::with_capacity(m);
    for _ in 0..m {
        let mut best: Option<(i64, usize)> = None;
        for si in 0..m {
            if done[si] || deps[si] > 0 {
                continue;
            }
            let closes = {
                // A producer closes here iff all its still-unpriced edges
                // point at this very step.
                let s = &supers[si];
                let mut c = 0i64;
                for (slot, &prod) in s.producers.iter().enumerate() {
                    let dups = s.producers.iter().filter(|&&x| x == prod).count();
                    let first = s.producers.iter().position(|&x| x == prod) == Some(slot);
                    if first && remaining[prod] == dups {
                        c += 1;
                    }
                }
                c
            };
            let opens = (remaining[si] > 0) as i64;
            let score = closes - opens;
            if best.is_none_or(|(bs, _)| score > bs) {
                best = Some((score, si));
            }
        }
        let (_, si) = best.expect("contracted DAG is acyclic, a ready node exists");
        done[si] = true;
        order.push(si);
        for &prod in &supers[si].producers {
            remaining[prod] -= 1;
        }
        for &c in &consumers[si] {
            deps[c] -= 1;
        }
    }
    order
}

/// Price a multi-input super-node exiting on platform `p`, given its
/// producers' platforms: minimize over the head platform `h` the head's
/// operator cost, the producer edges into `h`, and (when the super-node
/// drags a linear tail) the tail table entry `tail[h][p]`. Without a tail
/// the head *is* the exit, so `h` must equal `p`. Returns `(cost, h)`;
/// cost is `INF` when no feasible head platform exists. First-wins on
/// exact ties keeps search and reconstruction in lockstep.
fn multi_head_cost(
    s: &SuperNode,
    producer_plats: &[usize],
    p: usize,
    priced: &Priced,
) -> (f64, usize) {
    let mut best = INF;
    let mut best_h = p;
    for h in 0..priced.n_plats() {
        let mut c = priced.op(s.nodes[0], h);
        if !c.is_finite() {
            continue;
        }
        for (input, &q) in s.head_inputs.iter().zip(producer_plats) {
            c += priced.edge(*input, q, h);
        }
        match &s.tail {
            Some(t) => c += t.cost[h][p],
            None if h != p => continue,
            None => {}
        }
        if c < best {
            best = c;
            best_h = h;
        }
    }
    (best, best_h)
}

/// Exact DP over one contracted chain: `cost[q][p]` = cheapest way to run
/// the whole chain when the upstream producer sits on `q` (row `P` means
/// "no producer" — source chains pay startup instead of an entry edge) and
/// the chain exits on `p`. Platform switches inside the chain pay movement
/// plus the consumer-side startup, exactly like boundary edges.
fn chain_table(plan: &PhysicalPlan, chain: &[NodeId], priced: &Priced) -> ChainTable {
    let n_plats = priced.n_plats();
    let k = chain.len();
    let entry = plan.node(chain[0]).inputs.first().copied();
    let mut cost = vec![vec![INF; n_plats]; n_plats + 1];
    let mut back = vec![vec![vec![0usize; n_plats]; k]; n_plats + 1];
    for q in 0..=n_plats {
        // Row P without a source head (or a producer row for a source
        // head) is never queried; skip the waste.
        match entry {
            Some(_) if q == n_plats => continue,
            None if q < n_plats => continue,
            _ => {}
        }
        // An unsupported platform's `INF` operator cost carries through
        // every sum below.
        let mut dp: Vec<f64> = (0..n_plats)
            .map(|r| {
                priced.op(chain[0], r)
                    + match entry {
                        Some(producer) => priced.edge(producer, q, r),
                        None => priced.startup[r], // a source opens an atom
                    }
            })
            .collect();
        for j in 1..k {
            let mut nxt = vec![INF; n_plats];
            for (r, slot) in nxt.iter_mut().enumerate() {
                let (t, via) =
                    argmin((0..n_plats).map(|t| dp[t] + priced.edge(chain[j - 1], t, r)));
                *slot = priced.op(chain[j], r) + via;
                back[q][j][r] = t;
            }
            dp = nxt;
        }
        cost[q] = dp;
    }
    ChainTable { cost, back }
}

/// Index and value of the first minimum (`(0, INF)` when nothing is
/// finite): strict `<`, so exact ties keep the lowest platform index.
fn argmin(costs: impl Iterator<Item = f64>) -> (usize, f64) {
    let mut best = (0usize, INF);
    for (i, c) in costs.enumerate() {
        if c < best.1 {
            best = (i, c);
        }
    }
    best
}

/// The budget fallback: one pass over the nodes in topological order,
///
/// ```text
/// best(n, p) = op(n, p) + (n is source ? startup(p) : 0)
///            + Σ_inputs min_q ( best(in, q) + edge(in, q → p) )
/// ```
///
/// then a backtrack from the terminals that fixes one platform per node.
/// `O(nodes · P²)` whatever the plan's shape. On a tree this minimizes the
/// objective exactly; where a producer has several consumers its subtree
/// is counted once per consumer while choosing, and the node keeps the
/// platform its first-visited consumer asked for — a valid assignment,
/// possibly not the cheapest.
fn greedy_dp(plan: &PhysicalPlan, priced: &Priced) -> Result<Vec<usize>> {
    let n_plats = priced.n_plats();
    // choice[node][p][slot] = platform of that input when `node` runs on `p`.
    let mut best = vec![vec![INF; n_plats]; plan.len()];
    let mut choice: Vec<Vec<Vec<usize>>> = vec![Vec::new(); plan.len()];
    for node in plan.nodes() {
        let mut chosen = vec![vec![0; node.inputs.len()]; n_plats];
        for p in 0..n_plats {
            let mut cost = priced.op(node.id, p);
            if node.inputs.is_empty() {
                cost += priced.startup[p];
            }
            for (slot, input) in node.inputs.iter().enumerate() {
                let (q, via) =
                    argmin((0..n_plats).map(|q| best[input.0][q] + priced.edge(*input, q, p)));
                cost += via;
                chosen[p][slot] = q;
            }
            best[node.id.0][p] = cost;
        }
        if best[node.id.0].iter().all(|c| !c.is_finite()) {
            return Err(no_feasible_assignment());
        }
        choice[node.id.0] = chosen;
    }

    let mut assignment: Vec<Option<usize>> = vec![None; plan.len()];
    let mut stack: Vec<(NodeId, usize)> = plan
        .terminals()
        .into_iter()
        .map(|t| (t, argmin(best[t.0].iter().copied()).0))
        .collect();
    while let Some((node, p)) = stack.pop() {
        if assignment[node.0].is_some() {
            continue;
        }
        assignment[node.0] = Some(p);
        for (input, &q) in plan.node(node).inputs.iter().zip(&choice[node.0][p]) {
            stack.push((*input, q));
        }
    }
    Ok(assignment
        .into_iter()
        .map(|p| p.expect("every node of a DAG reaches a terminal"))
        .collect())
}

/// Turn a platform-per-node assignment into an [`ExecutionPlan`]: string
/// assignments, per-node estimates, the objective's value, the conversion
/// route of every cross-platform edge, and task atoms whose boundary
/// inputs carry the landing channel of their route.
fn assemble(
    plan: Arc<PhysicalPlan>,
    priced: &Priced,
    movement: &MovementCostModel,
    assignment: &[usize],
    mut enumeration: EnumerationInfo,
) -> ExecutionPlan {
    let assignments: Vec<String> = assignment
        .iter()
        .map(|&p| priced.platforms[p].name().to_string())
        .collect();

    let mut estimated_cost = 0.0;
    let mut estimates = Vec::with_capacity(plan.len());
    for node in plan.nodes() {
        let p = assignment[node.id.0];
        let cost_ms = priced.op(node.id, p);
        estimates.push(NodeEstimate {
            cost_ms,
            card: priced.cards[node.id.0],
        });
        estimated_cost += cost_ms;
        if node.inputs.is_empty() {
            estimated_cost += priced.startup[p];
        }
        for (slot, input) in node.inputs.iter().enumerate() {
            let q = assignment[input.0];
            estimated_cost += priced.edge(*input, q, p);
            if q != p {
                let (from, to) = (&assignments[input.0], &assignments[node.id.0]);
                let route = movement.route(
                    &priced.channels[q],
                    &priced.channels[p],
                    priced.cards[input.0],
                );
                enumeration.conversions.push(ChannelConversion {
                    producer: *input,
                    consumer: node.id,
                    slot,
                    from: from.clone(),
                    to: to.clone(),
                    cost_ms: route.total_ms(),
                    path: route.path,
                });
            }
        }
    }

    let mut atoms = split_into_atoms(&plan, &assignments);
    for atom in &mut atoms {
        for input in &mut atom.inputs {
            if let Some(conv) = enumeration.conversions.iter().find(|c| {
                c.producer == input.producer && c.consumer == input.consumer && c.slot == input.slot
            }) {
                input.channel = conv.path.last().copied().unwrap_or_default();
            }
        }
    }

    ExecutionPlan {
        physical: plan,
        assignments,
        atoms,
        estimated_cost,
        estimates,
        enumeration,
    }
}

/// The objective [`enumerate`] minimizes, evaluated independently of its
/// price table: each node priced once on its assigned platform (sources
/// pay startup), each edge priced once (movement plus the consumer-side
/// startup on a platform switch). Every optimizer-produced plan's
/// `estimated_cost` equals this for its own `assignments`.
pub fn assignment_cost(
    plan: &PhysicalPlan,
    assignments: &[String],
    registry: &PlatformRegistry,
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    calibration: &CostCalibration,
) -> Result<f64> {
    if assignments.len() != plan.len() {
        return Err(RheemError::Optimizer(format!(
            "assignment vector has {} entries for a {}-node plan",
            assignments.len(),
            plan.len()
        )));
    }
    let cards = estimator.estimate(plan)?;
    let mut total = 0.0;
    for node in plan.nodes() {
        let p = registry.get(&assignments[node.id.0])?;
        let ins: Vec<f64> = node.inputs.iter().map(|i| cards[i.0]).collect();
        total += node_cost(
            &node.op,
            &ins,
            cards[node.id.0],
            p.as_ref(),
            estimator,
            calibration,
        )?;
        if node.inputs.is_empty() {
            total += p.cost_model().atom_startup_cost();
        }
        for input in &node.inputs {
            let q = &assignments[input.0];
            if q != p.name() {
                let from = registry.get(q)?.channels();
                total += movement
                    .route(&from, &p.channels(), cards[input.0])
                    .total_ms()
                    + p.cost_model().atom_startup_cost();
            }
        }
    }
    Ok(total)
}

/// Exhaustive reference enumerator: tries **every** feasible platform
/// assignment and returns the cheapest one under [`assignment_cost`]
/// (lexicographically-first on ties — deterministic). Exponential by
/// construction, so plans are capped at 12 nodes; this is the oracle the
/// enumeration proptests and the `ablation_enumeration` sweep compare
/// against.
pub fn enumerate_exhaustive(
    plan: &PhysicalPlan,
    registry: &PlatformRegistry,
    estimator: &CardinalityEstimator,
    movement: &MovementCostModel,
    config: &EnumerationConfig,
    calibration: &CostCalibration,
) -> Result<(Vec<String>, f64)> {
    let n = plan.len();
    if n > 12 {
        return Err(RheemError::Optimizer(format!(
            "exhaustive oracle is capped at 12 nodes (got {n})"
        )));
    }
    let priced = Priced::new(plan, registry, estimator, movement, config, calibration)?;
    let supported: Vec<Vec<usize>> = plan
        .nodes()
        .iter()
        .map(|node| {
            (0..priced.n_plats())
                .filter(|&p| priced.op(node.id, p).is_finite())
                .collect()
        })
        .collect();

    // Odometer over per-node supported lists, node 0 most significant, so
    // the first assignment visited (and kept on ties) is lexicographically
    // smallest in platform-index order.
    let mut idx = vec![0usize; n];
    let mut best_cost = INF;
    let mut best: Vec<usize> = Vec::new();
    loop {
        let mut total = 0.0;
        for node in plan.nodes() {
            let p = supported[node.id.0][idx[node.id.0]];
            total += priced.op(node.id, p);
            if node.inputs.is_empty() {
                total += priced.startup[p];
            }
            for input in &node.inputs {
                total += priced.edge(*input, supported[input.0][idx[input.0]], p);
            }
        }
        if total < best_cost {
            best_cost = total;
            best = (0..n).map(|i| supported[i][idx[i]]).collect();
        }
        // Advance the odometer (least significant digit = last node).
        let mut d = n;
        loop {
            if d == 0 {
                let assignments = best
                    .iter()
                    .map(|&p| priced.platforms[p].name().to_string())
                    .collect();
                return Ok((assignments, best_cost));
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < supported[d].len() {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Cost of one operator on one platform; loops recurse into the body.
/// Static model costs are scaled by the calibration factor learned for
/// the `(operator, platform)` pair.
pub(crate) fn node_cost(
    op: &PhysicalOp,
    ins: &[f64],
    out: f64,
    platform: &dyn crate::platform::Platform,
    estimator: &CardinalityEstimator,
    calibration: &CostCalibration,
) -> Result<f64> {
    let model = platform.cost_model();
    match op {
        PhysicalOp::Loop {
            body,
            expected_iterations,
            ..
        } => {
            let loop_card = ins.first().copied().unwrap_or(0.0);
            let body_cards = estimator.estimate_with_loop_input(body, loop_card)?;
            let mut body_cost = 0.0;
            for bn in body.nodes() {
                let bins: Vec<f64> = bn.inputs.iter().map(|i| body_cards[i.0]).collect();
                body_cost += node_cost(
                    &bn.op,
                    &bins,
                    body_cards[bn.id.0],
                    platform,
                    estimator,
                    calibration,
                )?;
            }
            // Each iteration re-dispatches the body: platforms with high
            // scheduling overhead pay it per iteration. This is precisely
            // the mechanism behind Figure 2's "gap gets bigger with the
            // number of iterations".
            let per_iter = body_cost + model.atom_startup_cost() * 0.1;
            let raw = *expected_iterations * per_iter;
            // The Loop node itself is also a calibratable kernel: its
            // observation covers all iterations.
            Ok(raw * calibration.cost_factor(&op.name(), platform.name()))
        }
        _ => Ok(calibrated_op_cost(
            model.as_ref(),
            op,
            ins,
            out,
            platform.name(),
            calibration,
        )),
    }
}

/// `supports` extended through loop bodies.
pub(crate) fn supports_deep(platform: &dyn crate::platform::Platform, op: &PhysicalOp) -> bool {
    match op {
        PhysicalOp::Loop { body, .. } => {
            platform.supports(op) && body.nodes().iter().all(|n| supports_deep(platform, &n.op))
        }
        _ => platform.supports(op),
    }
}

/// Group same-platform nodes into maximal acyclic task atoms.
///
/// Nodes are visited in topological order; a node joins the atom of one of
/// its same-platform producers unless doing so would create a cycle in the
/// atom dependency graph, in which case a fresh atom is opened.
pub fn split_into_atoms(plan: &PhysicalPlan, assignments: &[String]) -> Vec<TaskAtom> {
    struct ProtoAtom {
        platform: String,
        nodes: Vec<NodeId>,
        deps: HashSet<usize>, // direct upstream atoms
    }

    let mut atoms: Vec<ProtoAtom> = Vec::new();
    let mut atom_of: Vec<usize> = vec![usize::MAX; plan.len()];

    // Does atom `from` transitively depend on atom `target`?
    fn depends_on(atoms: &[ProtoAtom], from: usize, target: usize) -> bool {
        if from == target {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(a) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            for &d in &atoms[a].deps {
                if d == target {
                    return true;
                }
                stack.push(d);
            }
        }
        false
    }

    for node in plan.nodes() {
        let platform = &assignments[node.id.0];
        let producer_atoms: Vec<usize> = node.inputs.iter().map(|i| atom_of[i.0]).collect();

        // Candidate atoms: atoms of same-platform producers.
        let mut chosen: Option<usize> = None;
        for (&input_atom, input) in producer_atoms.iter().zip(&node.inputs) {
            if assignments[input.0] != *platform {
                continue;
            }
            // Joining `input_atom` is safe iff no *other* producer atom
            // transitively depends on it.
            let safe = producer_atoms
                .iter()
                .filter(|&&a| a != input_atom)
                .all(|&a| !depends_on(&atoms, a, input_atom));
            if safe {
                chosen = Some(input_atom);
                break;
            }
        }

        let atom_id = match chosen {
            Some(a) => a,
            None => {
                atoms.push(ProtoAtom {
                    platform: platform.clone(),
                    nodes: Vec::new(),
                    deps: HashSet::new(),
                });
                atoms.len() - 1
            }
        };
        atoms[atom_id].nodes.push(node.id);
        atom_of[node.id.0] = atom_id;
        for &pa in &producer_atoms {
            if pa != atom_id {
                atoms[atom_id].deps.insert(pa);
            }
        }
    }

    // Topologically order the atoms.
    let mut order: Vec<usize> = Vec::with_capacity(atoms.len());
    let mut placed = vec![false; atoms.len()];
    while order.len() < atoms.len() {
        let before = order.len();
        for i in 0..atoms.len() {
            if placed[i] {
                continue;
            }
            if atoms[i].deps.iter().all(|&d| placed[d]) {
                placed[i] = true;
                order.push(i);
            }
        }
        assert!(order.len() > before, "atom graph must be acyclic");
    }

    // Materialize TaskAtoms with boundary inputs/outputs.
    let consumers = plan.consumers();
    let mut out = Vec::with_capacity(atoms.len());
    for (new_id, &old_id) in order.iter().enumerate() {
        let proto = &atoms[old_id];
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for &n in &proto.nodes {
            for (slot, producer) in plan.node(n).inputs.iter().enumerate() {
                if atom_of[producer.0] != old_id {
                    inputs.push(AtomInput {
                        consumer: n,
                        slot,
                        producer: *producer,
                        channel: Default::default(),
                    });
                }
            }
            let crosses = consumers[n.0].iter().any(|c| atom_of[c.0] != old_id);
            if crosses || plan.node(n).op.is_sink() {
                outputs.push(n);
            }
        }
        out.push(TaskAtom {
            id: new_id,
            platform: proto.platform.clone(),
            nodes: proto.nodes.clone(),
            inputs,
            outputs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::rec;

    fn assignments(plan: &PhysicalPlan, names: &[&str]) -> Vec<String> {
        assert_eq!(plan.len(), names.len());
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_platform_yields_single_atom() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, crate::udf::MapUdf::new("id", |r| r.clone()));
        b.collect(m);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(&plan, &assignments(&plan, &["java", "java", "java"]));
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].nodes.len(), 3);
        assert!(atoms[0].inputs.is_empty());
        assert_eq!(atoms[0].outputs.len(), 1); // the sink
    }

    #[test]
    fn platform_switch_creates_boundary() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, crate::udf::MapUdf::new("id", |r| r.clone()));
        b.collect(m);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(&plan, &assignments(&plan, &["java", "spark", "spark"]));
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].platform, "java");
        assert_eq!(atoms[1].platform, "spark");
        assert_eq!(atoms[1].inputs.len(), 1);
        assert_eq!(atoms[0].outputs.len(), 1); // crossed edge
    }

    #[test]
    fn sandwich_pattern_does_not_create_cyclic_atoms() {
        // n0(java) -> n1(spark) -> n2(java), plus n0 -> n2 directly.
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let m = b.map(src, crate::udf::MapUdf::new("a", |r| r.clone()));
        let u = b.union(src, m);
        b.collect(u);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(
            &plan,
            &assignments(&plan, &["java", "spark", "java", "java"]),
        );
        // The union cannot join the source's atom (would make java-atom
        // depend on spark-atom depend on java-atom)... unless checked; we
        // verify the atom graph is acyclic by construction (no panic) and
        // the schedule order respects dependencies.
        for atom in &atoms {
            for input in &atom.inputs {
                let producer_atom = atoms
                    .iter()
                    .find(|a| a.nodes.contains(&input.producer))
                    .unwrap();
                assert!(
                    producer_atom.id < atom.id,
                    "producer atom must be scheduled earlier"
                );
            }
        }
    }

    #[test]
    fn diamond_same_platform_is_one_atom() {
        let mut b = PlanBuilder::new();
        let src = b.collection("s", vec![rec![1i64]]);
        let f1 = b.filter(src, crate::udf::FilterUdf::new("a", |_| true));
        let f2 = b.filter(src, crate::udf::FilterUdf::new("b", |_| true));
        let u = b.union(f1, f2);
        b.collect(u);
        let plan = b.build().unwrap();
        let atoms = split_into_atoms(
            &plan,
            &assignments(&plan, &["java", "java", "java", "java", "java"]),
        );
        assert_eq!(atoms.len(), 1);
    }
}
