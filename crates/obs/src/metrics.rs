//! The global metrics registry: named atomic counters, gauges, and
//! histograms.
//!
//! Names are `&'static str` in dotted-path form (`"pool.tasks"`,
//! `"fixpoint.frontier.rounds"`); the README's metric glossary documents
//! every name the workspace emits. Handles returned by [`counter`] /
//! [`gauge`] / [`histogram`] are `&'static` and therefore free to stash in
//! call-site `static`s — the [`counter!`]/[`gauge!`]/[`histogram!`] macros
//! do exactly that, so the registry's `Mutex` is taken once per call site
//! per process while the hot path is a single relaxed atomic RMW.
//!
//! Counters only go up; **gauges** are point-in-time resource levels
//! (live BDD nodes, memo entries, queue depths) sampled at natural safe
//! points and overwritten in place — the last write wins, and
//! [`Gauge::maximize`] keeps a high-water mark where sampling is sparse.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time resource level: set (or max-merged) at sampling safe
/// points, read whole. Unlike a [`Counter`] it goes both ways — a gauge
/// wired to the BDD manager's live-node count drops after every GC sweep.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the gauge with the current level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is higher (high-water marks).
    #[inline]
    pub fn maximize(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets: values land in bucket `⌊log₂ v⌋ + 1` (0 in
/// bucket 0), so bucket `i` covers `[2^(i-1), 2^i)` and the last bucket is
/// a catch-all.
const BUCKETS: usize = 48;

/// A log₂-bucketed histogram of `u64` samples (sizes, durations in µs).
///
/// Recording is lock-free: one relaxed add into the bucket plus relaxed
/// adds into the running count/sum/max. Powers of two are exact enough for
/// the shapes this workspace cares about (frontier sizes, span durations)
/// while keeping the footprint at a fixed 50 words.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| {
                        let upper = if i == 0 { 0 } else { 1u64 << i };
                        (upper, n)
                    })
                })
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// `(exclusive upper bound, samples)` per non-empty log₂ bucket;
    /// bucket 0 holds exactly the zero samples.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// The counter registered under `name`, created on first use. Prefer the
/// [`counter!`](macro@crate::counter) macro, which caches the returned handle at the call site.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry()
        .counters
        .lock()
        .expect("metrics registry poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// The gauge registered under `name`, created on first use. Prefer the
/// [`gauge!`](macro@crate::gauge) macro, which caches the returned handle at the call site.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = registry().gauges.lock().expect("metrics registry poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// The histogram registered under `name`, created on first use. Prefer the
/// [`histogram!`](macro@crate::histogram) macro, which caches the returned handle at the call site.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry()
        .histograms
        .lock()
        .expect("metrics registry poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// The counter registered under a name, with the handle cached in a
/// call-site `static`: after the first call the registry lock is never
/// touched again from this location.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __KPT_OBS_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__KPT_OBS_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// The gauge registered under a name, with the handle cached in a
/// call-site `static` (see [`counter!`](macro@crate::counter)).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __KPT_OBS_GAUGE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__KPT_OBS_GAUGE.get_or_init(|| $crate::gauge($name))
    }};
}

/// The histogram registered under a name, with the handle cached in a
/// call-site `static` (see [`counter!`](macro@crate::counter)).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __KPT_OBS_HISTOGRAM: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__KPT_OBS_HISTOGRAM.get_or_init(|| $crate::histogram($name))
    }};
}

/// One registered metric's current value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Registered name.
    pub name: &'static str,
    /// Current value.
    pub value: MetricValue,
}

/// A counter total, gauge level, or histogram snapshot.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level (last sample).
    Gauge(u64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// Every registered metric, sorted by name (counters, gauges, and
/// histograms interleaved).
pub fn metrics_snapshot() -> Vec<Metric> {
    let reg = registry();
    let mut out: Vec<Metric> = Vec::new();
    for (name, c) in reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .iter()
    {
        out.push(Metric {
            name,
            value: MetricValue::Counter(c.get()),
        });
    }
    for (name, g) in reg.gauges.lock().expect("metrics registry poisoned").iter() {
        out.push(Metric {
            name,
            value: MetricValue::Gauge(g.get()),
        });
    }
    for (name, h) in reg
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .iter()
    {
        out.push(Metric {
            name,
            value: MetricValue::Histogram(h.snapshot()),
        });
    }
    out.sort_by_key(|m| m.name);
    out
}

/// Zero every registered metric (benchmark harnesses isolate phases with
/// this; handles stay valid).
pub fn reset_metrics() {
    let reg = registry();
    for c in reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        c.reset();
    }
    for g in reg
        .gauges
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        g.reset();
    }
    for h in reg
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test.metrics.counter");
        let before = c.get();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name, same handle.
        assert!(std::ptr::eq(c, counter("test.metrics.counter")));
        let snap = metrics_snapshot();
        assert!(snap.iter().any(|m| m.name == "test.metrics.counter"
            && matches!(m.value, MetricValue::Counter(v) if v >= 5)));
    }

    #[test]
    fn macro_caches_handle() {
        let a = counter!("test.metrics.macro");
        let b = counter!("test.metrics.macro");
        assert!(std::ptr::eq(a, b));
        a.incr();
        assert!(b.get() >= 1);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = histogram("test.metrics.hist");
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        // 0 → bucket 0; 1 → (0,1]=bucket upper 2; 2,3 → upper 4; 1000 → upper 1024.
        assert!(s.buckets.contains(&(0, 1)));
        assert!(s.buckets.contains(&(2, 1)));
        assert!(s.buckets.contains(&(4, 2)));
        assert!(s.buckets.contains(&(1024, 1)));
        assert!((s.mean() - 201.2).abs() < 1e-9);
    }

    #[test]
    fn gauges_overwrite_and_maximize() {
        let g = gauge("test.metrics.gauge");
        g.set(40);
        g.set(7);
        assert_eq!(g.get(), 7, "set overwrites — gauges go down too");
        g.maximize(3);
        assert_eq!(g.get(), 7);
        g.maximize(19);
        assert_eq!(g.get(), 19);
        assert!(std::ptr::eq(g, gauge("test.metrics.gauge")));
        let cached = gauge!("test.metrics.gauge.macro");
        cached.set(5);
        assert!(std::ptr::eq(cached, gauge!("test.metrics.gauge.macro")));
        let snap = metrics_snapshot();
        assert!(snap
            .iter()
            .any(|m| m.name == "test.metrics.gauge" && matches!(m.value, MetricValue::Gauge(19))));
    }
}
