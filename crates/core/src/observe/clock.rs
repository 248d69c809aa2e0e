//! The work clock: how long a thread worked on something, not how long it
//! waited for a core.
//!
//! Every kernel rate is fitted to measured work, so work must not grow when
//! other threads share the core: a runnable thread waiting in the run
//! queue does nothing. Linux reports that wait per thread in
//! `/proc/thread-self/schedstat` (on-CPU ns, run-queue wait ns, time
//! slices), and a thread's work is its wall time minus its run-queue wait.
//! Waiting for a core does not count, whoever holds it — another process or
//! this process's own threads — so work is what the thread would take
//! alone. Blocking — a sleep, a lock, a join — still counts, so work is not
//! on-CPU time either. Where the file cannot be read (not Linux, no
//! schedstat) the work clock is the wall clock.
//!
//! Each thread keeps its file open once it has read it: a read costs about
//! 1 µs, an open about 10 µs.

use std::fs::File;
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    /// This thread's schedstat, opened on its first reading.
    static THIS_THREAD: Schedstat = Schedstat::open("/proc/thread-self/schedstat");
}

/// A thread's schedstat file, if it has one.
struct Schedstat(Option<File>);

impl Schedstat {
    fn open(path: &str) -> Self {
        Schedstat(File::open(path).ok())
    }

    /// Nanoseconds the thread has waited in the run queue so far.
    #[cfg(unix)]
    fn run_delay_ns(&self) -> Option<u64> {
        use std::os::unix::fs::FileExt;
        let mut line = [0u8; 64];
        let n = self.0.as_ref()?.read_at(&mut line, 0).ok()?;
        run_delay(&line[..n])
    }

    #[cfg(not(unix))]
    fn run_delay_ns(&self) -> Option<u64> {
        None
    }
}

/// The run-queue wait of a schedstat line: its second field.
fn run_delay(line: &[u8]) -> Option<u64> {
    std::str::from_utf8(line)
        .ok()?
        .split_ascii_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// What a [`WorkClock`] read: the region's wall time and its work, in ms.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Wall-clock milliseconds less the thread's run-queue wait.
    pub work_ms: f64,
}

/// A started work clock. It reads one thread's wait, so it is stopped on
/// the thread that started it (it is not `Send`).
#[derive(Debug)]
pub struct WorkClock {
    started: Instant,
    waited_ns: Option<u64>,
    _this_thread: PhantomData<*const ()>,
}

impl WorkClock {
    fn started(waited_ns: Option<u64>) -> Self {
        WorkClock {
            started: Instant::now(),
            waited_ns,
            _this_thread: PhantomData,
        }
    }

    /// Start timing this thread's work.
    pub fn start() -> Self {
        Self::started(THIS_THREAD.with(Schedstat::run_delay_ns))
    }

    /// The wall time and the work since the clock started.
    pub fn stop(&self) -> Timing {
        self.stop_with(|| THIS_THREAD.with(Schedstat::run_delay_ns))
    }

    fn stop_with(&self, run_delay_ns: impl FnOnce() -> Option<u64>) -> Timing {
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let waited_ms = self
            .waited_ns
            .and_then(|before| Some(run_delay_ns()?.saturating_sub(before) as f64 / 1e6))
            .unwrap_or(0.0);
        Timing {
            wall_ms,
            work_ms: (wall_ms - waited_ms).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn the_run_queue_wait_is_the_second_field() {
        assert_eq!(run_delay(b"1404766330 374224 8\n"), Some(374_224));
        assert_eq!(run_delay(b"0 0 1"), Some(0));
        assert_eq!(run_delay(b"1404766330\n"), None);
        assert_eq!(run_delay(b""), None);
    }

    #[test]
    fn without_a_file_work_is_wall_time() {
        let none = Schedstat::open("/nonexistent/schedstat");
        assert_eq!(none.run_delay_ns(), None);
        let clock = WorkClock::started(none.run_delay_ns());
        std::thread::sleep(Duration::from_millis(2));
        let t = clock.stop_with(|| none.run_delay_ns());
        assert!(t.wall_ms >= 2.0, "{t:?}");
        assert_eq!(t.work_ms, t.wall_ms);
    }

    #[test]
    fn a_sleep_is_work() {
        let clock = WorkClock::start();
        std::thread::sleep(Duration::from_millis(5));
        let t = clock.stop();
        assert!(t.work_ms >= 5.0, "{t:?}");
    }

    /// Spin `rounds` rounds of arithmetic the optimizer cannot drop.
    fn spin(rounds: u64) {
        let mut acc = 0u64;
        for i in 0..rounds {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
    }

    /// This thread's on-CPU milliseconds so far: schedstat's first field.
    fn on_cpu_ms() -> f64 {
        let line = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        let ns: u64 = line
            .split_ascii_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        ns as f64 / 1e6
    }

    /// One more spinning thread than there are cores (at most eight): each
    /// waits for a core part of the time. At most `cores` of them run at
    /// once, so together they cannot work longer than the cores were there,
    /// `cores` times the span from the first start to the last stop; a wall
    /// clock, which counts a thread waiting for a core as working, reads
    /// more. The bound is on the
    /// sum, not on each thread's on-CPU time: on a VM the hypervisor can
    /// take a running vCPU away (steal time), which is neither on-CPU time
    /// nor run-queue wait, and once left a 2-vCPU guest's thread at 56 ms
    /// of work for 38 ms on the CPU.
    #[test]
    fn threads_sharing_cores_work_no_longer_than_the_cores_were_there() {
        if THIS_THREAD.with(Schedstat::run_delay_ns).is_none() {
            eprintln!("skipped: no schedstat");
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // A spin that works at least 30 ms alone, on this host.
        let mut rounds = 1 << 20;
        while {
            let clock = WorkClock::start();
            spin(rounds);
            clock.stop().work_ms < 30.0
        } {
            rounds *= 2;
        }
        let threads = cores.min(7) + 1;
        let start = Barrier::new(threads);
        let origin = Instant::now();
        let runs: Vec<(Timing, f64, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let (clock, cpu) = (WorkClock::start(), on_cpu_ms());
                        let started = origin.elapsed().as_secs_f64() * 1e3;
                        spin(rounds);
                        let took = clock.stop();
                        (took, on_cpu_ms() - cpu, started)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = runs.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
        let last = runs.iter().map(|r| r.2 + r.0.wall_ms).fold(0.0, f64::max);
        let worked: f64 = runs.iter().map(|r| r.0.work_ms).sum();
        let lanes = cores.min(threads) as f64;
        assert!(worked <= 1.05 * lanes * (last - first), "{runs:?}");
        // With four or more cores, one thread too many makes each wait at
        // most a quarter of its time: the wall time need not grow past 1.25x
        // its time on the CPU.
        if cores <= 3 {
            assert!(
                runs.iter().any(|(t, on_cpu, _)| t.wall_ms > 1.25 * on_cpu),
                "{runs:?}"
            );
        }
    }
}
