//! Ablation F's claim: one observed job fits the map's kernel rate and flips
//! the plan. It compares the measured kernel work of consecutive jobs. The
//! work clock leaves out the time a thread waits for a core, so threads
//! running beside it no longer count as work; it cannot leave out a core
//! that runs slower while shared (caches, memory bandwidth, a hypervisor's
//! other guests). So it is still a test binary of its own: the crate's
//! other tests, starting and stopping beside it, would slow one job and
//! not the next.

use rheem_bench::{render_convergence, run_calibration_flip};

#[test]
fn one_observed_job_fits_the_rate_and_flips_the_plan() {
    let steps = run_calibration_flip(5_000, 5);
    eprintln!("{}", render_convergence(5_000, &steps));
    assert_eq!(steps[0].platform, "java", "the seed prices the map cheap");
    assert!(
        steps[0].error() > 10.0,
        "the seed is far off the spinning map: {:?}",
        steps[0]
    );
    assert!(
        steps[1..].iter().all(|s| s.platform == "sparklike"),
        "the fitted rate moves the map: {steps:?}"
    );
    // Every engine records the kernel's sequential work, so from the second
    // job on — sparklike's first, priced from what java's job taught the
    // one rate — the price is within 1.25x of what the job's kernel did: in
    // the median of four jobs, as one job's timing can swing further on a
    // loaded host.
    let mut errors: Vec<f64> = steps[1..].iter().map(|s| s.error()).collect();
    errors.sort_by(f64::total_cmp);
    assert!(errors[errors.len() / 2] <= 1.25, "{steps:?}");
    assert!(
        steps[1].simulated_ms < steps[0].simulated_ms,
        "the flipped plan is cheaper: {steps:?}"
    );
}
