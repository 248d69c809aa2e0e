//! Ablation (self-timed), two experiments emitting one machine-readable
//! `BENCH_kernels.json` at the repo root with host metadata:
//!
//! 1. **morsel** — sequential vs. morsel-parallel kernels on groupby and
//!    join workloads at 10^5–10^6 rows across 2/4/8 kernel threads (one
//!    thread *is* the sequential kernel: `effective_threads` ≤ 1 returns
//!    it before any morsel is cut, so there is no such row);
//! 2. **columnar** — row (pre) vs. chunk (post) kernels on the same row
//!    counts: each entry carries both timings side by side, both sides
//!    representation-native (records in/out vs. chunk in/out). The
//!    `hash_aggregate_*` entries are what a SQL GROUP BY runs (member
//!    lists + closure vs. typed accumulator lanes); the `pipeline` entry
//!    is the fused stage chain on the chunk against the equivalent row
//!    operator chain. `filter_selective` / `filter_all_pass` are the served
//!    WHERE shape at 10 % and 100 % selectivity, and `hash_join_dense_key`
//!    is the served join (200 000 orders × 1 000 customers on `cust = id`).
//!
//! Determinism is asserted inline: every morsel or chunk run must be
//! byte-equal to the row run it is compared against, so the numbers can
//! never come from a kernel that cheated on its equivalence contract.

use std::sync::Arc;
use std::time::Instant;

use rheem_core::data::Chunk;
use rheem_core::expr::{BinOp, Expr};
use rheem_core::kernels::{self, chunked, parallel};
use rheem_core::physical::{PipelineStage, StageKind};
use rheem_core::rec;
use rheem_core::udf::{
    AggFunc, Aggregate, FilterUdf, GroupMapUdf, GroupOutput, KeyUdf, MapUdf, ReduceUdf,
};
use rheem_core::KernelParallelism;

const ITERS: u32 = 3;
const THREADS: [usize; 3] = [2, 4, 8];

/// Smallest nonzero interval the monotonic clock can report, in ms, with
/// a 1 µs floor. Speedup denominators are clamped here: a timing below
/// this is indistinguishable from zero, so dividing by it fabricates
/// ratios (the old report showed a 681477× "speedup" from a 0.000 ms
/// denominator). Entries whose denominator was clamped carry
/// `below_timer_resolution: true` instead of pretending the ratio is real.
fn timer_resolution_ms() -> f64 {
    let mut res = f64::INFINITY;
    for _ in 0..64 {
        let t = Instant::now();
        let ms = loop {
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if ms > 0.0 {
                break ms;
            }
        };
        res = res.min(ms);
    }
    res.max(1e-3)
}

/// Time `f` over `ITERS` runs; return (best_ms, mean_ms).
fn time<F: FnMut()>(mut f: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..ITERS {
        let t = Instant::now();
        f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        total += ms;
    }
    (best, total / ITERS as f64)
}

struct Entry {
    workload: &'static str,
    kernel: &'static str,
    rows: usize,
    threads: usize,
    best_ms: f64,
    mean_ms: f64,
    speedup: f64,
    below_timer_resolution: bool,
}

impl Entry {
    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"kernel\":\"{}\",\"rows\":{},\"threads\":{},\
             \"best_ms\":{:.3},\"mean_ms\":{:.3},\"speedup_vs_sequential\":{:.3},\
             \"below_timer_resolution\":{}}}",
            self.workload,
            self.kernel,
            self.rows,
            self.threads,
            self.best_ms,
            self.mean_ms,
            self.speedup,
            self.below_timer_resolution
        )
    }
}

/// Benchmark one kernel: a sequential baseline entry (threads = 0 marks
/// the non-morsel code path) plus one morsel entry per thread count.
fn sweep(
    entries: &mut Vec<Entry>,
    resolution_ms: f64,
    workload: &'static str,
    kernel: &'static str,
    rows: usize,
    sequential: &mut dyn FnMut(),
    morsel: &mut dyn FnMut(&KernelParallelism),
) {
    let (best, mean) = time(&mut *sequential);
    entries.push(Entry {
        workload,
        kernel,
        rows,
        threads: 0,
        best_ms: best,
        mean_ms: mean,
        speedup: 1.0,
        below_timer_resolution: best < resolution_ms,
    });
    let baseline = best;
    for t in THREADS {
        let p = KernelParallelism::sequential().with_threads(t);
        let (best, mean) = time(|| morsel(&p));
        entries.push(Entry {
            workload,
            kernel,
            rows,
            threads: t,
            best_ms: best,
            mean_ms: mean,
            speedup: baseline / best.max(resolution_ms),
            below_timer_resolution: best < resolution_ms,
        });
        eprintln!("{workload}/{kernel} rows={rows} threads={t}: best {best:.1} ms");
    }
}

/// One row-vs-chunk comparison: `row_ms` is the pre-columnar (row kernel)
/// timing, `chunk_ms` the post-columnar one.
struct ColEntry {
    kernel: &'static str,
    rows: usize,
    row_ms: f64,
    chunk_ms: f64,
    resolution_ms: f64,
}

impl ColEntry {
    fn speedup(&self) -> f64 {
        self.row_ms / self.chunk_ms.max(self.resolution_ms)
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"columnar\",\"kernel\":\"{}\",\"rows\":{},\
             \"row_ms\":{:.3},\"chunk_ms\":{:.3},\"speedup_chunk_vs_row\":{:.3},\
             \"below_timer_resolution\":{}}}",
            self.kernel,
            self.rows,
            self.row_ms,
            self.chunk_ms,
            self.speedup(),
            self.chunk_ms < self.resolution_ms
        )
    }
}

/// Row (pre) vs. chunk (post) on one kernel; both sides best-of-`ITERS`.
fn col_sweep(
    entries: &mut Vec<ColEntry>,
    resolution_ms: f64,
    kernel: &'static str,
    rows: usize,
    row: &mut dyn FnMut(),
    chunk: &mut dyn FnMut(),
) {
    let (row_best, _) = time(&mut *row);
    let (chunk_best, _) = time(&mut *chunk);
    let entry = ColEntry {
        kernel,
        rows,
        row_ms: row_best,
        chunk_ms: chunk_best,
        resolution_ms,
    };
    eprintln!(
        "columnar/{kernel} rows={rows}: row {row_best:.1} ms, chunk {chunk_best:.1} ms ({:.2}x)",
        entry.speedup()
    );
    entries.push(entry);
}

/// The columnar experiment: row kernels vs. chunk kernels on a 2-column
/// Int dataset (64 skewed keys) — except group-by, which runs on a
/// string-keyed dataset to exercise the dictionary lane — plus the
/// fused-pipeline production path.
fn columnar_experiment(entries: &mut Vec<ColEntry>, resolution_ms: f64, rows: usize) {
    let keys = 64i64;
    let data: Vec<_> = (0..rows as i64).map(|i| rec![i % keys, i]).collect();
    let chunk = Chunk::from_records(&data).expect("rectangular");
    let key = KeyUdf::field(0);

    // Filter: expression predicate on both sides (same derived closure).
    let pred = Expr::field(1).rem(Expr::lit(3i64)).eq(Expr::lit(1i64));
    let filter_udf = FilterUdf::from_expr("mod3", pred.clone());
    let expect = kernels::filter(&data, &filter_udf);
    assert_eq!(chunked::filter(&chunk, &pred).to_records(), expect);
    col_sweep(
        entries,
        resolution_ms,
        "filter",
        rows,
        &mut || {
            kernels::filter(&data, &filter_udf);
        },
        &mut || {
            chunked::filter(&chunk, &pred);
        },
    );

    // The served WHERE shape — a SQL comparison of a Float lane with an Int
    // literal — at 10 % and at 100 % selectivity.
    let priced: Vec<_> = (0..rows as u64)
        .map(|i| rec![i as i64, (spread(i) % 4000) as f64 * 0.25])
        .collect();
    let priced_chunk = Chunk::from_records(&priced).expect("rectangular");
    for (kernel, bound, op) in [
        ("filter_selective", 100i64, BinOp::SqlLt),
        ("filter_all_pass", -1, BinOp::SqlGt),
    ] {
        let pred = Expr::field(1).bin(op, Expr::lit(bound)).is_true();
        let udf = FilterUdf::from_expr(kernel, pred.clone());
        assert_eq!(
            chunked::filter(&priced_chunk, &pred).to_records(),
            kernels::filter(&priced, &udf)
        );
        col_sweep(
            entries,
            resolution_ms,
            kernel,
            rows,
            &mut || {
                kernels::filter(&priced, &udf);
            },
            &mut || {
                chunked::filter(&priced_chunk, &pred);
            },
        );
    }

    // Map: arithmetic over both fields.
    let exprs = vec![Expr::field(0).add(Expr::field(1)), Expr::field(1)];
    let map_udf = MapUdf::from_exprs("sum", exprs.clone());
    assert_eq!(
        chunked::map(&chunk, &exprs).to_records(),
        kernels::map(&data, &map_udf)
    );
    col_sweep(
        entries,
        resolution_ms,
        "map",
        rows,
        &mut || {
            kernels::map(&data, &map_udf);
        },
        &mut || {
            chunked::map(&chunk, &exprs);
        },
    );

    // Project: per-record field clones vs. an O(1) column view.
    assert_eq!(
        chunked::project(&chunk, &[1]).unwrap().to_records(),
        kernels::project(&data, &[1]).unwrap()
    );
    col_sweep(
        entries,
        resolution_ms,
        "project",
        rows,
        &mut || {
            kernels::project(&data, &[1]).unwrap();
        },
        &mut || {
            chunked::project(&chunk, &[1]).unwrap();
        },
    );

    // Group-by on a string key (URL-style, 8k distinct): the row kernel
    // re-hashes and re-compares the full key bytes for every record, while
    // the chunk side groups by dictionary code — no string bytes are
    // touched per row. This is the dictionary lane's representative
    // workload; both sides still materialize the same `Vec<(Value,
    // Vec<Record>)>`, so the ratio is honest about output cost.
    let group_keys = 8192i64;
    let group_data: Vec<_> = (0..rows as i64)
        .map(|i| {
            let k = i % group_keys;
            rec![
                format!(
                    "https://example.com/products/cat-{:04}/item-9f8a7b6c5d4e3f2a1b0c{:08}",
                    k,
                    k * 7
                ),
                i
            ]
        })
        .collect();
    let group_chunk = Chunk::from_records(&group_data).expect("rectangular");
    assert_eq!(
        chunked::hash_group(&group_chunk, &key),
        kernels::hash_group(&group_data, &key)
    );
    col_sweep(
        entries,
        resolution_ms,
        "hash_group",
        rows,
        &mut || {
            kernels::hash_group(&group_data, &key);
        },
        &mut || {
            chunked::hash_group(&group_chunk, &key);
        },
    );

    // Hash aggregate: what a SQL GROUP BY runs. The row side builds every
    // group's member list (`hash_group`) and folds it through the group
    // map's derived closure (`apply_group_map`); the chunk side routes each
    // row's inputs straight into typed accumulator lanes and never builds a
    // member list. Three key shapes: a clean Int lane (direct-address
    // slots), the dictionary lane, and no key at all (a global aggregate).
    let outputs = vec![
        GroupOutput::First(0),
        GroupOutput::Agg(Aggregate {
            func: AggFunc::Count,
            arg: None,
        }),
        GroupOutput::Agg(Aggregate {
            func: AggFunc::Sum,
            arg: Some(Expr::field(1)),
        }),
        GroupOutput::Agg(Aggregate {
            func: AggFunc::Min,
            arg: Some(Expr::field(1)),
        }),
        GroupOutput::Agg(Aggregate {
            func: AggFunc::Avg,
            arg: Some(Expr::field(1)),
        }),
    ];
    let group = GroupMapUdf::from_aggs("aggregate", outputs.clone());
    for (kernel, rows_in, chunk_in, fields) in [
        ("hash_aggregate_int_key", &data, &chunk, vec![0usize]),
        (
            "hash_aggregate_dict_key",
            &group_data,
            &group_chunk,
            vec![0],
        ),
        ("hash_aggregate_global", &data, &chunk, vec![]),
    ] {
        let key = KeyUdf::fields(fields.clone());
        let by_rows = || kernels::apply_group_map(&kernels::hash_group(rows_in, &key), &group);
        assert_eq!(
            chunked::hash_aggregate(chunk_in, &fields, &outputs).to_records(),
            by_rows()
        );
        col_sweep(
            entries,
            resolution_ms,
            kernel,
            rows,
            &mut || {
                by_rows();
            },
            &mut || {
                chunked::hash_aggregate(chunk_in, &fields, &outputs);
            },
        );
    }

    // Joins: engine build+probe with selection-vector output vs. the row
    // kernels' HashMap build / record-concat probe. Dimension-style right
    // side (unique keys covering every left key once) keeps the output
    // linear in `rows`.
    let dim_keys = (rows / 10) as i64;
    let fact: Vec<_> = (0..rows as i64).map(|i| rec![i % dim_keys, i]).collect();
    let dims: Vec<_> = (0..dim_keys).map(|i| rec![i, i * 7]).collect();
    let fact_chunk = Chunk::from_records(&fact).expect("rectangular");
    let dims_chunk = Chunk::from_records(&dims).expect("rectangular");
    assert_eq!(
        chunked::hash_join(&fact_chunk, &dims_chunk, &key, &key).to_records(),
        kernels::hash_join(&fact, &dims, &key, &key)
    );
    col_sweep(
        entries,
        resolution_ms,
        "hash_join",
        rows,
        &mut || {
            kernels::hash_join(&fact, &dims, &key, &key);
        },
        &mut || {
            chunked::hash_join(&fact_chunk, &dims_chunk, &key, &key);
        },
    );

    // The fused filter+map+project chain on the chunk vs. three row
    // operator passes.
    let stages = vec![
        PipelineStage {
            name: "mod3".into(),
            kind: StageKind::Filter {
                expr: Arc::new(pred.clone()),
                selectivity: 1.0 / 3.0,
            },
        },
        PipelineStage {
            name: "sum".into(),
            kind: StageKind::Map {
                exprs: exprs.clone().into(),
            },
        },
        PipelineStage {
            name: "π[0]".into(),
            kind: StageKind::Project {
                indices: vec![0usize].into(),
            },
        },
    ];
    let seq = KernelParallelism::sequential();
    let expect = {
        let f = kernels::filter(&data, &filter_udf);
        let m = kernels::map(&f, &map_udf);
        kernels::project(&m, &[0]).unwrap()
    };
    assert_eq!(
        parallel::run_pipeline_chunk(&chunk, &stages, &seq)
            .unwrap()
            .to_records(),
        expect
    );
    col_sweep(
        entries,
        resolution_ms,
        "pipeline",
        rows,
        &mut || {
            let f = kernels::filter(&data, &filter_udf);
            let m = kernels::map(&f, &map_udf);
            kernels::project(&m, &[0]).unwrap();
        },
        &mut || {
            parallel::run_pipeline_chunk(&chunk, &stages, &seq).unwrap();
        },
    );
}

/// A row index scattered over `u64`, so a column drawn from it follows no
/// order a branch predictor could learn.
fn spread(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// The served join: `orders JOIN customers ON orders.cust = customers.id`,
/// 200 000 orders over 1 000 customers whose ids are `0..1000` — unique
/// build keys of a small range, the direct-address probe's shape.
fn served_join(entries: &mut Vec<ColEntry>, resolution_ms: f64) {
    let rows = 200_000usize;
    let customers = 1_000u64;
    let regions = ["east", "north", "south", "west", "centre"];
    let orders: Vec<_> = (0..rows as u64)
        .map(|i| {
            let h = spread(i);
            rec![
                regions[(h % 5) as usize],
                i as i64,
                (h % 4000) as f64 * 0.25,
                (h % customers) as i64
            ]
        })
        .collect();
    let segments = ["consumer", "corporate", "public", "smb"];
    let dims: Vec<_> = (0..customers as i64)
        .map(|id| rec![id, segments[(id % 4) as usize]])
        .collect();
    let orders_chunk = Chunk::from_records(&orders).expect("rectangular");
    let dims_chunk = Chunk::from_records(&dims).expect("rectangular");
    let (cust, id) = (KeyUdf::field(3), KeyUdf::field(0));
    assert_eq!(
        chunked::hash_join(&orders_chunk, &dims_chunk, &cust, &id).to_records(),
        kernels::hash_join(&orders, &dims, &cust, &id)
    );
    col_sweep(
        entries,
        resolution_ms,
        "hash_join_dense_key",
        rows,
        &mut || {
            kernels::hash_join(&orders, &dims, &cust, &id);
        },
        &mut || {
            chunked::hash_join(&orders_chunk, &dims_chunk, &cust, &id);
        },
    );
}

fn main() {
    let mut entries: Vec<Entry> = Vec::new();
    let mut col_entries: Vec<ColEntry> = Vec::new();
    let resolution_ms = timer_resolution_ms();
    eprintln!("timer resolution: {resolution_ms:.6} ms");
    for rows in [100_000usize, 1_000_000] {
        columnar_experiment(&mut col_entries, resolution_ms, rows);
    }
    served_join(&mut col_entries, resolution_ms);
    for rows in [100_000usize, 1_000_000] {
        let keys = 64i64;
        let data: Vec<_> = (0..rows as i64).map(|i| rec![i % keys, i]).collect();
        let key = KeyUdf::field(0);
        let reduce = ReduceUdf::new("sum", |a, x| {
            rec![a.int(0).unwrap(), a.int(1).unwrap() + x.int(1).unwrap()]
        });

        let expect = kernels::hash_group(&data, &key);
        sweep(
            &mut entries,
            resolution_ms,
            "groupby",
            "hash_group",
            rows,
            &mut || {
                kernels::hash_group(&data, &key);
            },
            &mut |p| assert_eq!(parallel::hash_group(&data, &key, p), expect),
        );
        let expect = kernels::reduce_by_key(&data, &key, &reduce);
        sweep(
            &mut entries,
            resolution_ms,
            "groupby",
            "reduce_by_key",
            rows,
            &mut || {
                kernels::reduce_by_key(&data, &key, &reduce);
            },
            &mut |p| assert_eq!(parallel::reduce_by_key(&data, &key, &reduce, p), expect),
        );

        // Dimension-style equi-join: unique right keys covering every left
        // key exactly once, so the output stays linear in `rows` (a shared
        // key domain as small as the group-by's would make the match
        // rectangles — and the output — quadratic).
        let dim_keys = (rows / 10) as i64;
        let fact: Vec<_> = (0..rows as i64).map(|i| rec![i % dim_keys, i]).collect();
        let dims: Vec<_> = (0..dim_keys).map(|i| rec![i, i * 7]).collect();
        let expect = kernels::hash_join(&fact, &dims, &key, &key);
        sweep(
            &mut entries,
            resolution_ms,
            "join",
            "hash_join",
            rows,
            &mut || {
                kernels::hash_join(&fact, &dims, &key, &key);
            },
            &mut |p| assert_eq!(parallel::hash_join(&fact, &dims, &key, &key, p), expect),
        );
    }

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let body: Vec<String> = col_entries
        .iter()
        .map(|e| format!("    {}", e.json()))
        .chain(entries.iter().map(|e| format!("    {}", e.json())))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_kernels\",\n  \"unix_time\": {stamp},\n  \"iters\": {ITERS},\
         \n  \"host\": {{\"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\", \
         \"timer_resolution_ms\": {resolution_ms:.6}}},\n  \"note\": \
         \"columnar entries carry pre (row_ms) and post (chunk_ms) columns, both sides \
         representation-native (records in/out vs. chunk in/out). \
         threads=0 rows are the sequential (non-morsel) baseline; morsel speedups are \
         physically bounded by host cpus. speedup denominators clamp to timer_resolution_ms; \
         entries with below_timer_resolution=true have untrustworthy ratios\",\
         \n  \"entries\": [\n{}\n  ]\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        body.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    eprintln!(
        "wrote {path} ({} entries, {cpus} cpu(s))",
        entries.len() + col_entries.len()
    );
}
