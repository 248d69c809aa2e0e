//! Ablation (self-timed): exhaustive-exponential vs. lattice plan
//! enumeration, emitting `BENCH_enumeration.json` at the repo root.
//!
//! Two claims are measured and *asserted*, not just reported:
//!
//! 1. On every small plan (≤ 10 nodes here; the oracle caps at 12) the
//!    enumerator's chosen cost equals the exhaustive optimum exactly
//!    (`costs_match` per entry), while visiting polynomially many states
//!    where the oracle visits `platforms^nodes`.
//! 2. A 120-operator plan enumerates on the lattice path within the
//!    default expansion budget (`within_budget` on the `large` entry) —
//!    the shape that motivates chain contraction in the first place.
//!
//! The `sql_join` entry is the served path's most expensive plan to
//! enumerate (a join under an aggregate, two sources): besides the oracle
//! comparison it reports `cold_optimize_us`, the median of cold
//! `optimize_logical` calls (lower + rewrite + enumerate, no plan cache) —
//! what `benchmark/` publishes as `optimizer.cold_us`.
//!
//! `ENUM_BENCH_QUICK=1` trims the sweep and iteration count for CI and
//! writes to `target/bench-quick/BENCH_enumeration.json` instead.

use std::sync::Arc;
use std::time::Instant;

use rheem_core::logical::LogicalPlan;
use rheem_core::query::QueryCatalog;
use rheem_core::udf::{FilterUdf, GroupMapUdf, KeyUdf, MapUdf};
use rheem_core::{
    apply_rewrites, enumerate, enumerate_exhaustive, rec, DataType, EnumerationConfig,
    EnumerationPath, NodeId, PhysicalPlan, PlanBuilder, Record, Schema,
};
use rheem_platforms::test_context;

/// Time `f` over `iters` runs; return best milliseconds.
fn time_best<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 1..iters {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    if iters == 1 {
        best = 0.0;
    }
    (best.max(0.0), out)
}

fn map_inc(b: &mut PlanBuilder, input: NodeId) -> NodeId {
    b.map(
        input,
        MapUdf::new("inc", |r| {
            rec![r.int(0).unwrap() + 1, r.int(1).unwrap_or(1)]
        }),
    )
}

/// A linear chain of `nodes` operators: source → maps/filter → sink.
fn chain_plan(nodes: usize) -> PhysicalPlan {
    assert!(nodes >= 2);
    let mut b = PlanBuilder::new();
    let mut cur = b.collection("s", (0..60i64).map(|i| rec![i % 7, 1i64]).collect());
    for i in 0..nodes - 2 {
        cur = if i % 3 == 2 {
            b.filter(cur, FilterUdf::new("even", |r| r.int(0).unwrap() % 2 == 0))
        } else {
            map_inc(&mut b, cur)
        };
    }
    b.collect(cur);
    b.build().unwrap()
}

/// `width` two-node branches merged by a union tree: 3·width nodes total.
fn bushy_plan(width: usize) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut branches = Vec::new();
    for br in 0..width {
        let src = b.collection(
            format!("s{br}"),
            (0..40i64).map(|i| rec![i % 5, 1i64]).collect(),
        );
        branches.push(map_inc(&mut b, src));
    }
    while branches.len() > 1 {
        let l = branches.remove(0);
        let r = branches.remove(0);
        branches.push(b.union(l, r));
    }
    b.collect(branches[0]);
    b.build().unwrap()
}

/// The budget showcase: `branches` long map chains (ending in a group-by)
/// merged into one sink — 120+ operators.
fn large_plan(branches: usize, chain_len: usize) -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let mut tips = Vec::new();
    for br in 0..branches {
        let mut cur = b.collection(
            format!("s{br}"),
            (0..50i64).map(|i| rec![i % 9, 1i64]).collect(),
        );
        for _ in 0..chain_len {
            cur = map_inc(&mut b, cur);
        }
        cur = b.group_by(
            cur,
            KeyUdf::field(0),
            GroupMapUdf::new("tally", |k, members| {
                vec![Record::new(vec![k.clone(), (members.len() as i64).into()])]
            }),
        );
        tips.push(cur);
    }
    while tips.len() > 1 {
        let l = tips.remove(0);
        let r = tips.remove(0);
        tips.push(b.union(l, r));
    }
    b.collect(tips[0]);
    b.build().unwrap()
}

/// The join statement of `benchmark/`'s workloads over 1 000-row tables,
/// as the logical plan `QueryCatalog::plan` hands the optimizer.
fn sql_join_plan() -> LogicalPlan {
    let mut catalog = QueryCatalog::new();
    catalog.register(
        "orders",
        Schema::new(vec![("amount", DataType::Int), ("cust", DataType::Int)]),
        (0..1000i64).map(|i| rec![i, i * 7 % 1000]).collect(),
    );
    catalog.register(
        "customers",
        Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)]),
        (0..1000i64)
            .map(|id| {
                rec![
                    id,
                    ["consumer", "corporate", "public", "smb"][id as usize % 4]
                ]
            })
            .collect(),
    );
    catalog
        .plan(
            "SELECT seg, COUNT(*) AS n, SUM(amount) AS total FROM orders \
             JOIN customers ON orders.cust = customers.id GROUP BY seg ORDER BY seg",
        )
        .expect("the join statement plans")
        .logical
}

/// Median microseconds of `f` over `iters` runs (after one warm-up).
fn median_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Entry {
    shape: &'static str,
    nodes: usize,
    oracle_ms: f64,
    lattice_ms: f64,
    oracle_cost: f64,
    lattice_cost: f64,
    costs_match: bool,
    expansions: usize,
    within_budget: bool,
    /// `sql_join` only: median cold `optimize_logical`.
    cold_optimize_us: Option<f64>,
}

impl Entry {
    fn json(&self) -> String {
        let cold = self
            .cold_optimize_us
            .map(|us| format!(",\"cold_optimize_us\":{us:.1}"))
            .unwrap_or_default();
        format!(
            "{{\"shape\":\"{}\",\"nodes\":{},\"oracle_ms\":{:.3},\"lattice_ms\":{:.3},\
             \"oracle_cost\":{:.6},\"lattice_cost\":{:.6},\"costs_match\":{},\
             \"expansions\":{},\"within_budget\":{}{cold}}}",
            self.shape,
            self.nodes,
            self.oracle_ms,
            self.lattice_ms,
            self.oracle_cost,
            self.lattice_cost,
            self.costs_match,
            self.expansions,
            self.within_budget
        )
    }
}

fn main() {
    let quick = std::env::var_os("ENUM_BENCH_QUICK").is_some();
    let iters = if quick { 1 } else { 5 };
    let ctx = test_context();
    let opt = ctx.optimizer();
    let config = EnumerationConfig::default();

    let mut entries: Vec<Entry> = Vec::new();

    // Depth sweep (chains) and width sweep (bushy union trees), all under
    // the oracle's 12-node cap so both sides enumerate the same space.
    // (shape, plan, `cold_optimize_us` where measured).
    let mut small: Vec<(&'static str, PhysicalPlan, Option<f64>)> = Vec::new();
    let depths: &[usize] = if quick { &[8] } else { &[4, 8, 10] };
    for &d in depths {
        small.push(("chain", chain_plan(d), None));
    }
    let widths: &[usize] = if quick { &[3] } else { &[2, 3] };
    for &w in widths {
        small.push(("bushy", bushy_plan(w), None));
    }
    // The physical plan the enumerator sees for the join statement, and
    // what a cold optimization of it costs end to end.
    let join = sql_join_plan();
    let lowered = join.lower().expect("the join statement lowers");
    let cold_optimize_us = median_us(if quick { 21 } else { 2001 }, || {
        ctx.optimize_logical(&join)
            .expect("the join statement optimizes")
    });
    small.push((
        "sql_join",
        apply_rewrites(lowered).expect("the join plan rewrites"),
        Some(cold_optimize_us),
    ));

    for (shape, plan, cold_optimize_us) in small {
        let nodes = plan.len();
        let (oracle_ms, (_, oracle_cost)) = time_best(iters.max(2), || {
            enumerate_exhaustive(
                &plan,
                ctx.platforms(),
                &opt.estimator,
                &opt.movement,
                &config,
                &opt.calibration,
            )
            .expect("oracle enumerates")
        });
        let arc = Arc::new(plan);
        let (lattice_ms, exec) = time_best(iters.max(2), || {
            enumerate(
                arc.clone(),
                ctx.platforms(),
                &opt.estimator,
                &opt.movement,
                &config,
                &opt.calibration,
            )
            .expect("the plan enumerates")
        });
        assert_eq!(exec.enumeration.path, EnumerationPath::LatticeV2);
        let tol = 1e-9 * oracle_cost.max(1.0);
        let costs_match = (exec.estimated_cost - oracle_cost).abs() <= tol;
        assert!(
            costs_match,
            "{shape}/{nodes}: lattice {} != oracle {oracle_cost}",
            exec.estimated_cost
        );
        eprintln!(
            "{shape} nodes={nodes}: oracle {oracle_ms:.3} ms, lattice {lattice_ms:.3} ms \
             ({} expansions), costs match",
            exec.enumeration.expansions
        );
        entries.push(Entry {
            shape,
            nodes,
            oracle_ms,
            lattice_ms,
            oracle_cost,
            lattice_cost: exec.estimated_cost,
            costs_match,
            expansions: exec.enumeration.expansions,
            within_budget: exec.enumeration.expansions <= config.max_expansions,
            cold_optimize_us,
        });
    }

    // The 120-operator plan: far past the oracle, must stay on the
    // lattice path (no greedy fallback) under the default budget.
    let plan = large_plan(10, 10);
    let nodes = plan.len();
    assert!(nodes >= 120, "large plan has {nodes} nodes");
    let arc = Arc::new(plan);
    let (lattice_ms, exec) = time_best(iters.max(2), || {
        enumerate(
            arc.clone(),
            ctx.platforms(),
            &opt.estimator,
            &opt.movement,
            &config,
            &opt.calibration,
        )
        .expect("the large plan enumerates")
    });
    let within_budget = exec.enumeration.path == EnumerationPath::LatticeV2
        && exec.enumeration.expansions <= config.max_expansions;
    assert!(
        within_budget,
        "large plan fell off the lattice path: {:?} after {} expansions",
        exec.enumeration.path, exec.enumeration.expansions
    );
    eprintln!(
        "large nodes={nodes}: lattice {lattice_ms:.3} ms, {} expansions, within budget",
        exec.enumeration.expansions
    );
    entries.push(Entry {
        shape: "large",
        nodes,
        oracle_ms: -1.0, // exponential — not run
        lattice_ms,
        oracle_cost: -1.0,
        lattice_cost: exec.estimated_cost,
        costs_match: true,
        expansions: exec.enumeration.expansions,
        within_budget,
        cold_optimize_us: None,
    });

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let body: Vec<String> = entries
        .iter()
        .map(|e| format!("    {}", e.json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_enumeration\",\n  \"unix_time\": {stamp},\n  \
         \"host\": {{\"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\"}},\n  \"note\": \
         \"oracle_ms/oracle_cost are -1 on the large entry (the exhaustive sweep is \
         exponential and not run past 12 nodes); costs_match asserts the enumerator's \
         optimum equals the oracle optimum on every small plan; within_budget asserts \
         the 120-op plan stayed on the lattice path under the default expansion budget; \
         cold_optimize_us (sql_join only) is the median of cold optimize_logical calls, \
         lower + rewrite + enumerate with no plan cache\",\
         \n  \"entries\": [\n{}\n  ]\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        body.join(",\n")
    );
    let path = rheem_bench::bench_json_path("BENCH_enumeration.json", quick);
    std::fs::write(&path, &json).expect("write BENCH_enumeration.json");
    eprintln!("wrote {} ({} entries)", path.display(), entries.len());
}
