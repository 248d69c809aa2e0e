//! Lock-cheap metrics primitives: counters, gauges, and fixed-bound
//! histograms backed by atomics.
//!
//! Hot paths hold an `Arc` handle to the instrument and touch nothing but
//! the atomic itself — the registry's `Mutex`-guarded name table is only
//! consulted when a handle is first created (or when a snapshot is taken).
//! All mutation is *saturating*: instruments never wrap and never panic,
//! even in debug builds at `u64::MAX`-adjacent values.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A monotonically increasing counter with saturating arithmetic.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, delta: u64) {
        // `fetch_add` wraps (and `overflowing_add` debug-asserts nowhere,
        // but the wrapped value would corrupt the count); `fetch_update`
        // with `saturating_add` pins the counter at the ceiling instead.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            });
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a level that is overwritten (`Gauge::set`, last value wins) or
/// moved up and down by the holders that share it ([`Gauge::add`] /
/// [`Gauge::sub`]).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Create a gauge starting at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Overwrite the gauge with `value`.
    pub(crate) fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raise the level by `delta`, saturating at `u64::MAX`.
    pub fn add(&self, delta: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            });
    }

    /// Lower the level by `delta`, saturating at zero.
    pub fn sub(&self, delta: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, ascending bucket upper bounds.
///
/// `bounds = [b0, b1, ..]` produces `bounds.len() + 1` buckets: values
/// `<= b0`, `<= b1`, .., and an implicit overflow bucket for everything
/// larger. Bounds are fixed at construction so recording is a linear scan
/// over a handful of `u64`s plus three saturating atomic adds — no
/// allocation, no locks, no wall-clock reads.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: Counter,
    sum: Counter,
}

impl Histogram {
    /// Create a histogram with the given ascending upper bounds.
    ///
    /// Bounds are sorted and deduplicated defensively so a sloppy caller
    /// cannot produce out-of-order buckets.
    pub(crate) fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: Counter::new(),
            sum: Counter::new(),
        }
    }

    /// Record one observation (saturating everywhere).
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        let _ = self.buckets[idx].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_add(1))
        });
        self.count.inc();
        self.sum.add(value);
    }

    /// Number of recorded observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.get()
    }

    /// Saturating sum of recorded values.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// The configured upper bounds (ascending; overflow bucket implied).
    pub(crate) fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, one more entry than [`Histogram::bounds`].
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Point-in-time copy of a histogram, for snapshots and assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observation count.
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The upper bound of the bucket the `q`-quantile (`0.0..=1.0`) falls in:
    /// that share of the observations are at or under it. `None` when nothing
    /// was observed or the quantile lies in the overflow bucket, past the last
    /// bound.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, bound) in self.buckets.iter().zip(&self.bounds) {
            seen = seen.saturating_add(*bucket);
            if seen >= rank {
                return Some(*bound);
            }
        }
        None
    }
}

/// Point-in-time copy of every instrument in a registry, sorted by name
/// so two snapshots compare deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` pairs, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Render the snapshot as deterministic `name value` lines. A histogram
    /// line carries its median and 99th percentile as bucket bounds
    /// ([`HistogramSnapshot::quantile_bound`]; `p50<=200` reads "half the
    /// observations were at most 200", `>N` "past the last bound N", `-`
    /// "nothing observed"), so it can be read without knowing the bounds.
    pub fn render(&self) -> String {
        let bound = |h: &HistogramSnapshot, q: f64| match (h.quantile_bound(q), h.bounds.last()) {
            (Some(bound), _) => format!("<={bound}"),
            (None, Some(last)) if h.count > 0 => format!(">{last}"),
            _ => "-".to_string(),
        };
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} p50{} p99{} buckets={:?}\n",
                h.count,
                h.sum,
                bound(h, 0.50),
                bound(h, 0.99),
                h.buckets
            ));
        }
        out
    }
}

/// Named registry of counters, gauges, and histograms.
///
/// Handing out `Arc` handles keeps the registry lock off the hot path:
/// callers resolve a name once and then mutate the shared atomic directly.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`. A lookup takes the registry
    /// lock: resolve a handle once, off any per-request path.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// Get or create the histogram named `name` with the given bounds.
    ///
    /// The bounds of the *first* creation win; later callers share it.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds))
    }

    /// Current value of a counter, or 0 when it was never created.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock().get(name).map_or(0, |c| c.get())
    }

    /// Take a deterministic (name-sorted) snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64)> = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: v.bounds().to_vec(),
                        buckets: v.bucket_counts(),
                        count: v.count(),
                        sum: v.sum(),
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The registry's one lookup: a hit clones the handle without allocating
/// a key; only the first lookup of a name creates the instrument.
fn get_or_insert<T>(
    map: &Mutex<HashMap<String, Arc<T>>>,
    name: &str,
    create: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock();
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    let handle = Arc::new(create());
    map.insert(name.to_string(), handle.clone());
    handle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        // Satellite: overflow hygiene. This runs in debug builds where a
        // plain `fetch_add` past u64::MAX would wrap silently; the
        // saturating update must pin at the ceiling without panicking.
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        c.add(usize::MAX as u64);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let g = Gauge::new();
        g.add(10);
        g.sub(4);
        assert_eq!(g.get(), 6);
        g.sub(7);
        assert_eq!(g.get(), 0);
        g.set(u64::MAX - 1);
        g.add(5);
        assert_eq!(g.get(), u64::MAX);
    }

    #[test]
    fn histogram_saturates_near_max() {
        let h = Histogram::new(&[10, 100]);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(usize::MAX as u64);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.bucket_counts(), vec![0, 0, 3]);
    }

    #[test]
    fn histogram_bucket_assignment() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 500, 5000] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5621);
    }

    #[test]
    fn quantile_bounds_name_the_bucket_a_rank_falls_in() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[10, 100, 1000]);
        assert!(reg
            .snapshot()
            .render()
            .contains("histogram h count=0 sum=0 p50- p99- "));
        for v in [1, 2, 3, 50, 60, 70, 80, 500, 600, 5000] {
            h.record(v);
        }
        let snap = reg.snapshot().histograms.remove(0).1;
        assert_eq!(snap.quantile_bound(0.0), Some(10));
        assert_eq!(snap.quantile_bound(0.3), Some(10));
        assert_eq!(snap.quantile_bound(0.5), Some(100));
        assert_eq!(snap.quantile_bound(0.9), Some(1000));
        assert_eq!(snap.quantile_bound(0.99), None);
        assert!(reg.snapshot().render().contains(" p50<=100 p99>1000 "));
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let h = Histogram::new(&[100, 10, 100]);
        assert_eq!(h.bounds(), &[10, 100]);
    }

    #[test]
    fn registry_shares_handles_and_snapshots_deterministically() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("b.second");
        let b = reg.counter("b.second");
        a.add(2);
        b.inc();
        reg.counter("a.first").add(7);
        reg.gauge("g").set(42);
        reg.histogram("h", &[1]).record(3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".into(), 7), ("b.second".into(), 3)]
        );
        assert_eq!(snap.gauges, vec![("g".into(), 42)]);
        assert_eq!(snap.histograms[0].1.buckets, vec![0, 1]);
        assert_eq!(reg.counter_value("missing"), 0);
        assert!(reg.snapshot().render().contains("counter a.first 7\n"));
    }
}
