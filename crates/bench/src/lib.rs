//! # rheem-bench
//!
//! The benchmark harness regenerating every evaluation artifact of the
//! paper (see DESIGN.md §1 for the experiment index):
//!
//! * [`fig2`] — SVM on the Spark-like engine vs. the single-process engine
//!   across dataset sizes (paper Figure 2);
//! * [`fig3`] — violation detection: single-UDF vs. operator pipeline
//!   (Figure 3 left) and IEJoin vs. cross-product baseline with a time
//!   budget (Figure 3 right);
//! * the ablations — platform selection ([`run_platform_choice`]),
//!   movement-cost awareness ([`run_movement_cost`]), IEJoin scaling
//!   ([`run_iejoin_scaling`]), grouping algorithm choice ([`run_groupby`]),
//!   storage ([`run_storage`]: hot buffer + transformation plans) and the
//!   wave schedule of a fan-out ([`run_scheduling`]);
//! * the kernel-rate table's convergence from a seed far off the truth
//!   ([`run_calibration_flip`]);
//! * adaptive mid-job re-optimization at wave boundaries
//!   ([`run_replanning_ablation`]);
//! * failover re-planning around a platform outage
//!   ([`run_failover_ablation`]).
//!
//! One binary prints each experiment's tables: `fig2_svm_table`,
//! `fig3_table` and `ablation_table`. The benches under `benches/`
//! (`ablation_kernels`, `ablation_enumeration`) time themselves and write
//! the committed `BENCH_*.json`.
//!
//! ## Public surface
//!
//! Everything here is for the harness's own binaries and benches: the
//! `run_*` series above, [`render_convergence`] and [`bench_json_path`].
//! [`fig2`] and [`fig3`] stay public modules because both export `render`.

#![warn(missing_docs)]

mod ablations;
mod calibration;
mod failover;
pub mod fig2;
pub mod fig3;
mod replanning;

pub use ablations::{
    run_groupby, run_iejoin_scaling, run_movement_cost, run_platform_choice, run_scheduling,
    run_storage,
};
pub use calibration::{render_convergence, run_calibration_flip};
pub use failover::run_failover_ablation;
pub use replanning::run_replanning_ablation;

/// Where a self-timed bench writes `<name>.json`: the repo root for a full
/// run (the committed numbers), `target/bench-quick/` for a `*_QUICK` run,
/// so a CI smoke never overwrites what a full run measured.
pub fn bench_json_path(name: &str, quick: bool) -> std::path::PathBuf {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if !quick {
        return root.join(name);
    }
    let dir = root.join("target/bench-quick");
    std::fs::create_dir_all(&dir).expect("create target/bench-quick");
    dir.join(name)
}
