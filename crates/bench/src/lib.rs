//! # rheem-bench
//!
//! The benchmark harness regenerating every evaluation artifact of the
//! paper (see DESIGN.md §5 for the experiment index):
//!
//! * [`fig2`] — SVM on the Spark-like engine vs. the single-process engine
//!   across dataset sizes (paper Figure 2);
//! * [`fig3`] — violation detection: single-UDF vs. operator pipeline
//!   (Figure 3 left) and IEJoin vs. cross-product baseline with a time
//!   budget (Figure 3 right);
//! * [`ablations`] — platform selection, movement-cost awareness, IEJoin
//!   scaling, grouping algorithm choice, and storage (hot buffer +
//!   transformation plans);
//! * [`calibration`] — feedback-driven cost-model correction;
//! * [`replanning`] — adaptive mid-job re-optimization at wave
//!   boundaries;
//! * [`failover`] — failover re-planning around a platform outage.
//!
//! Row-printer binaries (`fig2_svm_table`, `fig3_table`,
//! `ablation_table`) emit the same series the paper plots; the Criterion
//! benches under `benches/` wrap scaled-down variants for regression
//! tracking.

#![warn(missing_docs)]

pub mod ablations;
pub mod calibration;
pub mod failover;
pub mod fig2;
pub mod fig3;
pub mod replanning;

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
