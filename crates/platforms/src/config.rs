//! Shared overhead configuration for simulated platforms.
//!
//! Real engines pay fixed costs a laptop simulation would otherwise hide:
//! Spark pays job submission and per-stage scheduling; Hadoop pays job
//! setup and disk-materialized phase boundaries. [`OverheadConfig`] makes
//! those costs explicit, scaled down ~100× from cluster-typical constants
//! so benchmarks finish in seconds while preserving the *relative* shape of
//! the paper's figures. Each overhead is both (optionally) slept — so
//! wall-clock benchmarks feel it — and reported as deterministic simulated
//! milliseconds — so unit tests can assert on it exactly.

use std::time::Duration;

use rheem_core::ChannelKind;

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

    /// Pay the job-startup overhead; returns the charged milliseconds.
    pub(crate) fn pay_startup(&self) -> f64 {
        self.pay(self.job_startup)
    }

    /// Pay one stage overhead; returns the charged milliseconds.
    pub(crate) fn pay_stage(&self) -> f64 {
        self.pay(self.stage_overhead)
    }

    /// Simulated cost of ingesting a boundary dataset that arrives on a
    /// given channel (the last hop of the conversion route the optimizer
    /// chose, see [`rheem_core::AtomInput::channel`]). Memory is
    /// free — which keeps plans enumerated without channel information
    /// (the greedy DP defaults every boundary to `Memory`) priced exactly
    /// as before. File pays a deserialize, Stream a drain; the constants
    /// mirror the default [`rheem_core::ChannelConversionGraph`]
    /// prices so the executor's accounting matches what the optimizer
    /// assumed. Never slept — ingest is accounting, not wall time.
    pub(crate) fn channel_ingest_ms(&self, channel: ChannelKind, records: usize) -> f64 {
        match channel {
            ChannelKind::Memory => 0.0,
            ChannelKind::File => 0.5 + 0.002 * records as f64,
            ChannelKind::Stream => 0.2 + 0.001 * records as f64,
        }
    }

    fn pay(&self, d: Duration) -> f64 {
        if self.sleep && !d.is_zero() {
            std::thread::sleep(d);
        }
        d.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_charges_nothing() {
        let c = OverheadConfig::none();
        assert_eq!(c.pay_startup(), 0.0);
        assert_eq!(c.pay_stage(), 0.0);
    }

    #[test]
    fn accounted_only_reports_without_sleeping() {
        let c =
            OverheadConfig::accounted_only(Duration::from_millis(100), Duration::from_millis(7));
        let t = std::time::Instant::now();
        assert_eq!(c.pay_startup(), 100.0);
        assert_eq!(c.pay_stage(), 7.0);
        // No sleeping: far less than the 107 ms charged.
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn slept_actually_sleeps() {
        let c = OverheadConfig::slept(Duration::from_millis(20), Duration::ZERO);
        let t = std::time::Instant::now();
        assert_eq!(c.pay_startup(), 20.0);
        assert!(t.elapsed() >= Duration::from_millis(18));
    }
}
