//! The optimizer's platform choice against forced runs (paper §2: the
//! system "should be able to select the best available platform").
//!
//! For every row — the five statements the served benchmark repeats, at
//! 1 000, 20 000 and 200 000 rows, and the two Figure 2 SVM sizes that
//! bracket its Java/Spark crossover — the free optimizer's plan on
//! `full_context()` is run against every platform forced in turn, at the
//! same thread budget, and `regret = chosen / best forced` simulated ms
//! (medians of the same build) must stay ≤ 1.05: at budgets of 1 and 2
//! threads (an in-process price divides by the budget's morsel speedup),
//! once from a cold context, whose kernel rates are the seeds, and once
//! after a warm-up at mixed sizes has fitted them. A plan never lands on
//! mapreduce, whose overheads `full_context()` really sleeps.
//!
//! Regret is a statement about release-built kernels, whose speed the
//! seeded rates describe; a debug build's kernels are an order of magnitude
//! slower, so these tests run in release builds only.

use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::{ExecutionPlan, KernelParallelism, Observability};
use rheem_datagen::libsvm::{generate, LibsvmConfig};
use rheem_ml::SvmTrainer;
use rheem_platforms::full_context;

/// The five statements of the served `scan-200k` workload.
const FIVE: [&str; 5] = [
    "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders \
     GROUP BY region ORDER BY region",
    "SELECT cust, SUM(price) AS spend FROM orders GROUP BY cust ORDER BY cust LIMIT 10",
    "SELECT AVG(price) AS avg_price, COUNT(*) AS n FROM orders WHERE price < 500",
    "SELECT seg, COUNT(*) AS n, SUM(amount) AS total FROM orders \
     JOIN customers ON orders.cust = customers.id GROUP BY seg ORDER BY seg",
    "SELECT region, amount, price FROM orders WHERE price > 900 \
     ORDER BY amount LIMIT 25",
];

const SIZES: [usize; 3] = [1_000, 20_000, 200_000];

/// The platforms a plan may be forced onto. Mapreduce is never run forced:
/// its job setup alone is charged (and slept) at more than any row's best
/// forced time, which [`best_forced`] checks instead.
const FORCED: [&str; 3] = ["java", "sparklike", "relational"];

/// Runs per median.
const RUNS: usize = 3;

const MAX_REGRET: f64 = 1.05;

/// The thread budgets every row is checked at.
const BUDGETS: [usize; 2] = [1, 2];

/// `full_context()` at a budget of `threads`.
fn budget_context(threads: usize) -> RheemContext {
    full_context().with_kernel_parallelism(KernelParallelism::sequential().with_threads(threads))
}

/// splitmix64, so the tables need no crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `orders(region, amount, price, cust)` and `customers(id, seg)` as the
/// served workload generates them: `amount` is the row index, `price` a
/// multiple of 0.25 below 1 000 and `cust` one of 1 000 customer ids.
fn catalog(rows: usize) -> QueryCatalog {
    let regions = ["east", "north", "south", "west", "centre"];
    let segments = ["consumer", "corporate", "public", "smb"];
    let mut state = 20_160_315u64 ^ rows as u64;
    let orders = (0..rows)
        .map(|i| {
            Record::new(vec![
                Value::str(regions[(splitmix(&mut state) % 5) as usize]),
                Value::Int(i as i64),
                Value::Float((splitmix(&mut state) % 4000) as f64 * 0.25),
                Value::Int((splitmix(&mut state) % 1000) as i64),
            ])
        })
        .collect();
    let customers = (0..1000i64)
        .map(|id| {
            Record::new(vec![
                Value::Int(id),
                Value::str(segments[(id % 4) as usize]),
            ])
        })
        .collect();
    let mut catalog = QueryCatalog::new();
    catalog.register(
        "orders",
        Schema::new(vec![
            ("region", DataType::Str),
            ("amount", DataType::Int),
            ("price", DataType::Float),
            ("cust", DataType::Int),
        ]),
        orders,
    );
    catalog.register(
        "customers",
        Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)]),
        customers,
    );
    catalog
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The platform every node of `plan` is on, if there is one.
fn single_platform(assignments: &[String]) -> Option<&str> {
    let first = assignments.first()?;
    assignments
        .iter()
        .all(|p| p == first)
        .then_some(first.as_str())
}

/// Median simulated ms per forced platform, and the least of them — which
/// must lie below mapreduce's job setup, so that platform cannot be best.
fn best_forced(forced: &[(&str, f64)]) -> f64 {
    let best = forced
        .iter()
        .map(|(_, ms)| *ms)
        .fold(f64::INFINITY, f64::min);
    let mapreduce_setup = full_context()
        .platforms()
        .all()
        .iter()
        .find(|p| p.name() == "mapreduce")
        .expect("full_context registers mapreduce")
        .clock()
        .startup_ms;
    assert!(
        best < mapreduce_setup,
        "best forced {best} ms is not below mapreduce's {mapreduce_setup} ms setup"
    );
    best
}

/// Regret of the plan `ctx` chooses for `sql`: its median simulated ms
/// over the best forced platform's, at `ctx`'s thread budget. A plan wholly
/// on one platform is the plan forcing that platform gives, so it is
/// charged that platform's forced median; any other plan is run and timed
/// itself.
fn statement_regret(catalog: &QueryCatalog, ctx: &RheemContext, sql: &str) -> (Vec<String>, f64) {
    let forced: Vec<(&str, f64)> = FORCED
        .iter()
        .map(|&p| {
            let forced = budget_context(ctx.kernel_parallelism().threads).force_platform(p);
            let runs = (0..RUNS)
                .map(|_| {
                    catalog
                        .execute(&forced, sql)
                        .unwrap()
                        .job
                        .stats
                        .total_simulated_ms()
                })
                .collect();
            (p, median(runs))
        })
        .collect();
    let planned = catalog.plan(sql).unwrap();
    let chosen: ExecutionPlan = ctx.optimize_logical(&planned.logical).unwrap();
    let chosen_ms = match single_platform(&chosen.assignments) {
        Some(p) if FORCED.contains(&p) => forced.iter().find(|(f, _)| *f == p).unwrap().1,
        _ => median(
            (0..RUNS)
                .map(|_| {
                    ctx.execute_plan(&chosen)
                        .unwrap()
                        .stats
                        .total_simulated_ms()
                })
                .collect(),
        ),
    };
    (chosen.assignments, chosen_ms / best_forced(&forced))
}

/// A context at a budget of `threads` with the rate table fed by every job
/// it runs, as a server's.
fn observed_context(threads: usize) -> RheemContext {
    budget_context(threads).with_observability(Arc::new(Observability::new()))
}

fn check_statements(ctx: &RheemContext, label: &str) {
    let mut failures = Vec::new();
    for rows in SIZES {
        let catalog = catalog(rows);
        for (i, sql) in FIVE.iter().enumerate() {
            let (assignments, regret) = statement_regret(&catalog, ctx, sql);
            eprintln!(
                "{label}: statement {i} at {rows} rows on {assignments:?}: regret {regret:.3}"
            );
            assert!(
                !assignments.iter().any(|p| p == "mapreduce"),
                "{label}: statement {i} at {rows} rows lands on mapreduce: {assignments:?}"
            );
            if regret > MAX_REGRET {
                failures.push(format!("statement {i} at {rows} rows: {regret:.3}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{label}: regret above {MAX_REGRET}: {failures:?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regret is a claim about release-built kernels"
)]
fn served_statements_pick_the_cheapest_platform_from_a_cold_context() {
    for threads in BUDGETS {
        check_statements(
            &observed_context(threads),
            &format!("cold, {threads} thread(s)"),
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regret is a claim about release-built kernels"
)]
fn served_statements_pick_the_cheapest_platform_after_a_mixed_size_warm_up() {
    let catalogs: Vec<QueryCatalog> = SIZES.iter().map(|&rows| catalog(rows)).collect();
    for threads in BUDGETS {
        let ctx = observed_context(threads);
        for _ in 0..3 {
            for catalog in &catalogs {
                for sql in FIVE {
                    catalog.execute(&ctx, sql).unwrap();
                }
            }
        }
        check_statements(&ctx, &format!("warm, {threads} thread(s)"));
    }
}

/// Figure 2's SVM, shortened to 10 iterations, at two of its sizes: the
/// crossover falls between them, with Java far ahead at 1 000 rows and
/// Spark-like far ahead at 50 000.
const SVM_ROWS: [usize; 2] = [1_000, 50_000];
const SVM_DIMS: usize = 10;

fn svm_ms(ctx: &RheemContext, rows: usize) -> (Vec<String>, f64) {
    let data = generate(&LibsvmConfig::new(rows, SVM_DIMS).with_seed(rows as u64));
    let (_, job) = SvmTrainer::new(SVM_DIMS)
        .with_iterations(10)
        .train(ctx, data)
        .unwrap();
    let platforms = job
        .stats
        .platforms_used()
        .into_iter()
        .map(String::from)
        .collect();
    (platforms, job.stats.total_simulated_ms())
}

/// Regret of the SVM at `rows` on a context from `ctx_for_run`, against
/// `forced` medians. A plan wholly on one forced platform is charged that
/// platform's median.
fn svm_regret(
    rows: usize,
    forced: &[(&str, f64)],
    ctx_for_run: &impl Fn() -> RheemContext,
) -> (Vec<String>, f64) {
    let chosen: Vec<(Vec<String>, f64)> = (0..RUNS).map(|_| svm_ms(&ctx_for_run(), rows)).collect();
    let platforms = chosen[0].0.clone();
    let own = || median(chosen.iter().map(|c| c.1).collect());
    let chosen_ms = match platforms.as_slice() {
        [p] => forced
            .iter()
            .find(|(f, _)| f == p)
            .map_or_else(own, |f| f.1),
        _ => own(),
    };
    let best = forced
        .iter()
        .map(|(_, ms)| *ms)
        .fold(f64::INFINITY, f64::min);
    (platforms, chosen_ms / best)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regret is a claim about release-built kernels"
)]
fn figure_2_rows_around_the_crossover_pick_the_cheapest_platform() {
    for threads in BUDGETS {
        let warm = observed_context(threads);
        for rows in [1_000, 10_000, 50_000] {
            svm_ms(&warm, rows);
        }
        for rows in SVM_ROWS {
            // Relational runs no loop; mapreduce sleeps its overheads, so
            // it is timed once.
            let forced: Vec<(&str, f64)> = [("java", RUNS), ("sparklike", RUNS), ("mapreduce", 1)]
                .into_iter()
                .map(|(p, runs)| {
                    let ms = (0..runs)
                        .map(|_| svm_ms(&budget_context(threads).force_platform(p), rows).1)
                        .collect();
                    (p, median(ms))
                })
                .collect();
            let cold = || observed_context(threads);
            let contexts: [(&str, &dyn Fn() -> RheemContext); 2] =
                [("cold", &cold), ("warm", &|| warm.clone())];
            for (label, ctx_for_run) in contexts {
                let label = format!("{label}, {threads} thread(s)");
                let (platforms, regret) = svm_regret(rows, &forced, &ctx_for_run);
                eprintln!(
                    "{label}: SVM at {rows} rows on {platforms:?}: regret {regret:.3} ({forced:?})"
                );
                assert!(
                    !platforms.iter().any(|p| p == "mapreduce"),
                    "{label}: SVM at {rows} rows lands on mapreduce"
                );
                assert!(
                    regret <= MAX_REGRET,
                    "{label}: SVM at {rows} rows on {platforms:?}: regret {regret:.3}"
                );
            }
        }
    }
}
