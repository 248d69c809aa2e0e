//! Prints every ablation (A–F, see DESIGN.md §5) and the scheduling,
//! re-planning and failover reports.
//!
//! Usage: `cargo run -p rheem-bench --bin ablation_table --release [--quick]`

use rheem_bench::{
    render_convergence, run_calibration_flip, run_failover_ablation, run_groupby,
    run_iejoin_scaling, run_movement_cost, run_platform_choice, run_replanning_ablation,
    run_scheduling, run_storage,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (a_sizes, b_n, c_sizes, d_n, e_n, replan_sizes) = if quick {
        (
            vec![1_000, 100_000],
            20_000,
            vec![1_000, 3_000],
            50_000,
            5_000,
            vec![2_000],
        )
    } else {
        (
            vec![1_000, 100_000, 1_000_000],
            100_000,
            vec![1_000, 4_000, 16_000],
            500_000,
            20_000,
            vec![2_000, 8_000],
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

    let f_n = 5_000;
    print!(
        "\n{}",
        render_convergence(f_n, &run_calibration_flip(f_n, 5))
    );

    // Atoms and waves only: a 2-core host draws no thread-scaling curve.
    println!("\nScheduling — independent branches on distinct platforms");
    for (branches, atoms, waves) in run_scheduling(&[3, 6]) {
        println!("branches {branches}: {atoms} atoms in {waves} waves");
    }

    println!("\nRe-planning — a fanout hint 500x reality, static vs adaptive");
    for &n in &replan_sizes {
        let r = run_replanning_ablation(n);
        println!(
            "n {n}: static {:.2} ms → adaptive {:.2} ms ({} replan(s), outputs identical: {}), \
             {:?} → {:?}",
            r.static_simulated_ms,
            r.adaptive_simulated_ms,
            r.replans,
            r.outputs_identical,
            r.initial_assignments,
            r.effective_assignments,
        );
    }

    println!("\nFailover — the cluster engine is down, rigid vs failover");
    for threads in [1, 4] {
        for &n in &replan_sizes {
            let r = run_failover_ablation(n, threads);
            println!(
                "threads {threads} n {n}: rigid failed: {}, failovers: {}, recommitted: {}, \
                 outputs identical: {}, {:?} → {:?}",
                r.rigid_run_failed,
                r.failovers,
                r.recommitted_atoms,
                r.outputs_identical,
                r.initial_assignments,
                r.effective_assignments,
            );
        }
    }
}
