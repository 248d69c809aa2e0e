//! Shared overhead configuration for simulated platforms.
//!
//! Real engines pay fixed costs a laptop simulation would otherwise hide:
//! Spark pays job submission and per-stage scheduling; Hadoop pays job
//! setup and disk-materialized phase boundaries. [`OverheadConfig`] makes
//! those costs explicit, scaled down ~100× from cluster-typical constants
//! so benchmarks finish in seconds while preserving the *relative* shape of
//! the paper's figures. They are the fixed half of a platform's
//! [`Clock`](rheem_core::Clock); each is both (optionally) slept — so
//! wall-clock benchmarks feel it — and charged as deterministic simulated
//! milliseconds — so unit tests can assert on it exactly.

use std::time::Duration;

/// Fixed-cost knobs of a simulated platform.
#[derive(Clone, Copy, Debug)]
pub struct OverheadConfig {
    /// Charged once per task atom (job submission / container spin-up).
    pub job_startup: Duration,
    /// Charged per stage boundary: every shuffle and every loop iteration
    /// (task scheduling, serialization, barrier).
    pub stage_overhead: Duration,
    /// Whether the platform actually sleeps for the charged overheads.
    /// `true` for wall-clock benchmarks; tests usually disable it.
    pub sleep: bool,
}

impl OverheadConfig {
    /// No overheads at all (the "plain Java program" profile).
    pub fn none() -> Self {
        OverheadConfig {
            job_startup: Duration::ZERO,
            stage_overhead: Duration::ZERO,
            sleep: false,
        }
    }

    /// Overheads are accounted but never slept (fast deterministic tests).
    pub fn accounted_only(job_startup: Duration, stage_overhead: Duration) -> Self {
        OverheadConfig {
            job_startup,
            stage_overhead,
            sleep: false,
        }
    }

    /// Overheads are slept and accounted (benchmark realism).
    pub(crate) fn slept(job_startup: Duration, stage_overhead: Duration) -> Self {
        OverheadConfig {
            job_startup,
            stage_overhead,
            sleep: true,
        }
    }

    /// The job-startup overhead in ms: a platform's
    /// [`Clock::startup_ms`](rheem_core::Clock::startup_ms).
    pub(crate) fn startup_ms(&self) -> f64 {
        self.job_startup.as_secs_f64() * 1e3
    }

    /// The per-stage overhead in ms: a platform's
    /// [`Clock::stage_ms`](rheem_core::Clock::stage_ms).
    pub(crate) fn stage_ms(&self) -> f64 {
        self.stage_overhead.as_secs_f64() * 1e3
    }

    /// Pay `ms` of the platform clock's fixed overhead — slept when this
    /// configuration sleeps; returns the charged milliseconds.
    pub(crate) fn pay(&self, ms: f64) -> f64 {
        if self.sleep && ms > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_charges_nothing() {
        let c = OverheadConfig::none();
        assert_eq!(c.pay(c.startup_ms()), 0.0);
        assert_eq!(c.pay(c.stage_ms()), 0.0);
    }

    #[test]
    fn accounted_only_reports_without_sleeping() {
        let c =
            OverheadConfig::accounted_only(Duration::from_millis(100), Duration::from_millis(7));
        let t = std::time::Instant::now();
        assert_eq!(c.pay(c.startup_ms()), 100.0);
        assert_eq!(c.pay(c.stage_ms()), 7.0);
        // No sleeping: far less than the 107 ms charged.
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn slept_actually_sleeps() {
        let c = OverheadConfig::slept(Duration::from_millis(20), Duration::ZERO);
        let t = std::time::Instant::now();
        assert_eq!(c.pay(c.startup_ms()), 20.0);
        assert!(t.elapsed() >= Duration::from_millis(18));
    }
}
