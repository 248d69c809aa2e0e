//! Prints every ablation series (A–E, see DESIGN.md §5).
//!
//! Usage: `cargo run -p rheem-bench --bin ablation_table --release [--quick]`

use rheem_bench::{
    run_groupby, run_iejoin_scaling, run_movement_cost, run_platform_choice, run_storage,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (a_sizes, b_n, c_sizes, d_n, e_n) = if quick {
        (
            vec![1_000, 100_000],
            20_000,
            vec![1_000, 3_000],
            50_000,
            5_000,
        )
    } else {
        (
            vec![1_000, 100_000, 1_000_000],
            100_000,
            vec![1_000, 4_000, 16_000],
            500_000,
            20_000,
        )
    };

    println!("Ablation A — platform selection (group-sum aggregation)");
    println!("rows        chosen      configuration timings (ms)");
    for row in run_platform_choice(&a_sizes) {
        let timings: Vec<String> = row
            .timings
            .iter()
            .map(|(label, ms)| format!("{label}={ms:.1}"))
            .collect();
        println!(
            "{:<10}  {:<10}  {}",
            row.rows,
            row.chosen,
            timings.join("  ")
        );
    }

    println!("\nAblation B — movement-cost awareness (mixed HDFS→UDF→aggregate pipeline, n={b_n})");
    let b = run_movement_cost(b_n);
    println!(
        "aware:     estimated {:.1} ms, executed movement {:.1} ms, switches {}",
        b.aware.0, b.aware.1, b.switches.0
    );
    println!(
        "oblivious: estimated {:.1} ms, executed movement {:.1} ms, switches {}",
        b.oblivious.0, b.oblivious.1, b.switches.1
    );

    println!("\nAblation C — IEJoin vs cross-product detection");
    println!("rows        iejoin_ms   cross_ms    speedup");
    for (n, ie, cross) in run_iejoin_scaling(&c_sizes) {
        println!("{n:<10}  {ie:>9.1}  {cross:>9.1}  {:>6.1}x", cross / ie);
    }

    println!("\nAblation D — SortGroupBy vs HashGroupBy (n={d_n}, 100 keys)");
    let (sort_ms, hash_ms) = run_groupby(d_n, 100);
    println!("sort-based: {sort_ms:.1} ms   hash-based: {hash_ms:.1} ms");

    println!("\nAblation E — storage: hot buffer and Cartilage transformation plans (n={e_n})");
    let e = run_storage(e_n, 10);
    println!(
        "repeated reads: hot buffer {:.1} ms vs cold {:.1} ms ({:.1}x)",
        e.hot_ms,
        e.cold_ms,
        e.cold_ms / e.hot_ms
    );
    println!(
        "query over prepared layout {:.1} ms vs re-parsing raw {:.1} ms ({:.1}x)",
        e.transformed_ms,
        e.raw_ms,
        e.raw_ms / e.transformed_ms
    );
}
