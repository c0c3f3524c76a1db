//! Atomic counters, gauges, and log-bucketed latency histograms behind a
//! shared [`MetricsRegistry`], with snapshot export to the Prometheus
//! text exposition format and to JSON.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cheapness.** A metric handle is an `Arc` around one (or
//!    a few) atomics; recording is a relaxed `fetch_add`. Name/label
//!    resolution happens once, at registration — callers resolve their
//!    handles up front (the io engine resolves per-drive handles when a
//!    worker is spawned) and never touch the registry map again.
//! 2. **No dependencies.** Export is hand-rolled; the histogram uses
//!    power-of-two buckets so quantile estimation needs no sample
//!    storage.
//! 3. **Shareability.** Handles are `Clone` and usable *detached* from
//!    any registry (e.g. [`Counter::detached`]) so a layer can count
//!    unconditionally and only pay for export when observability is on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (`1 ≤ i ≤ 64`) holds values in `[2^(i-1), 2^i - 1]` — so bucket 64's
/// upper bound is `u64::MAX` and every `u64` has a bucket.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of a value (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`; the quantile estimate for any
/// value landing in the bucket.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Monotonic counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere — counts are still shared
    /// across clones, but never exported. Lets a layer count
    /// unconditionally and surface the number through its own report.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed gauge. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not registered anywhere (see [`Counter::detached`]).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Log-bucketed histogram of `u64` samples (typically microseconds).
///
/// Buckets are powers of two (see [`bucket_index`]); quantiles are
/// estimated as the upper bound of the bucket the quantile's rank lands
/// in, clamped to the observed maximum — so `p99 ≤ max` always, and a
/// histogram fed a single value reports that exact value at every
/// quantile.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    /// A histogram not registered anywhere (see [`Counter::detached`]).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn observe(&self, v: u64) {
        let h = &self.0;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the buckets and summary stats.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples observed.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Largest sample observed (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (used when reconstructing from exports).
    pub fn empty() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Estimate the `q`-quantile (`0 < q ≤ 1`): the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest sample, clamped
    /// to [`Self::max`]. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the observed samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other`'s buckets into `self` (for aggregating several
    /// series — e.g. per-drive queue-wait histograms — into one view).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Sorted `key=value` label set identifying one series of a metric.
pub type Labels = Vec<(String, String)>;

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct RegistryInner {
    base_labels: Labels,
    metrics: Mutex<BTreeMap<(String, Labels), Metric>>,
}

/// Shared, thread-safe registry of named metrics.
///
/// Handles returned by [`MetricsRegistry::counter`] /
/// [`MetricsRegistry::gauge`] / [`MetricsRegistry::histogram`] stay valid
/// for the registry's lifetime; re-registering the same name + labels
/// returns a handle onto the *same* underlying series.
#[derive(Clone)]
pub struct MetricsRegistry(Arc<RegistryInner>);

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.0.metrics.lock().unwrap().len();
        f.debug_struct("MetricsRegistry").field("series", &n).finish()
    }
}

fn norm_labels(labels: &[(&str, String)]) -> Labels {
    let mut v: Labels = labels.iter().map(|(k, val)| (k.to_string(), val.clone())).collect();
    v.sort();
    v
}

impl MetricsRegistry {
    /// An empty registry with no base labels.
    pub fn new() -> Self {
        Self::with_base_labels(&[])
    }

    /// An empty registry whose every exported series carries the given
    /// constant labels (e.g. `run="seq"`), letting snapshots from
    /// several registries merge into one valid Prometheus exposition.
    pub fn with_base_labels(base: &[(&str, &str)]) -> Self {
        let mut base_labels: Labels =
            base.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        base_labels.sort();
        Self(Arc::new(RegistryInner { base_labels, metrics: Mutex::new(BTreeMap::new()) }))
    }

    fn entry<T: Clone>(
        &self,
        name: &str,
        labels: &[(&str, String)],
        make: impl FnOnce() -> (T, Metric),
        get: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let key = (name.to_string(), norm_labels(labels));
        let mut map = self.0.metrics.lock().unwrap();
        if let Some(m) = map.get(&key) {
            return get(m).unwrap_or_else(|| {
                panic!("metric {name} already registered with a different type")
            });
        }
        let (handle, metric) = make();
        map.insert(key, metric);
        handle
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> Counter {
        self.entry(
            name,
            labels,
            || {
                let c = Counter::default();
                (c.clone(), Metric::Counter(c))
            },
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> Gauge {
        self.entry(
            name,
            labels,
            || {
                let g = Gauge::default();
                (g.clone(), Metric::Gauge(g))
            },
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, String)]) -> Histogram {
        self.entry(
            name,
            labels,
            || {
                let h = Histogram::default();
                (h.clone(), Metric::Histogram(h))
            },
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Point-in-time snapshot of every registered series, with the
    /// registry's base labels folded in. Samples are sorted by
    /// `(name, labels)`, so equal registry contents export identically.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.0.metrics.lock().unwrap();
        let mut samples = Vec::with_capacity(map.len());
        for ((name, labels), metric) in map.iter() {
            let mut all = self.0.base_labels.clone();
            all.extend(labels.iter().cloned());
            all.sort();
            let value = match metric {
                Metric::Counter(c) => SampleValue::Counter(c.get()),
                Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
            };
            samples.push(MetricSample { name: name.clone(), labels: all, value });
        }
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }
}

/// Value of one exported series.
///
/// The histogram variant carries its full 65-bucket state inline; a
/// snapshot is a short-lived export value, so the size skew between
/// variants is not worth an allocation per sample.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum SampleValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-set value.
    Gauge(i64),
    /// Full bucket state.
    Histogram(HistogramSnapshot),
}

/// One exported series: name, labels, value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Metric name (Prometheus-legal: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Sorted label set.
    pub labels: Labels,
    /// The observed value.
    pub value: SampleValue,
}

/// Point-in-time export of a whole registry (see
/// [`MetricsRegistry::snapshot`]); serialisable to Prometheus text and
/// JSON, and parseable back for round-trip verification.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All series, sorted by `(name, labels)`.
    pub samples: Vec<MetricSample>,
}

impl Snapshot {
    /// Append all samples of `other` (for merging per-run registries
    /// into one exposition; caller guarantees disjoint label sets, e.g.
    /// via distinct base labels).
    pub fn merge(&mut self, other: &Snapshot) {
        self.samples.extend(other.samples.iter().cloned());
        self.samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// Look up a series by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut want: Labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        want.sort();
        self.samples.iter().find(|s| s.name == name && s.labels == want).map(|s| &s.value)
    }

    /// Aggregate every histogram series named `name` whose labels
    /// include all of `required` into one merged
    /// [`HistogramSnapshot`] (e.g. a processor's queue-wait across all
    /// drives: `required = [("proc", "3"), ("kind", "read")]`).
    pub fn histogram_sum(&self, name: &str, required: &[(&str, &str)]) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for s in &self.samples {
            if s.name != name {
                continue;
            }
            let matches =
                required.iter().all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v));
            if !matches {
                continue;
            }
            if let SampleValue::Histogram(h) = &s.value {
                out.merge(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_edge_values_land_and_quantile_clamps() {
        let h = Histogram::detached();
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), u64::MAX);
        // sum wrapped: 0 + MAX = MAX
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn histogram_bucket_seams() {
        // Values at 2^k-1 and 2^k must land in adjacent buckets.
        for k in 1..63usize {
            let lo = (1u64 << k) - 1;
            let hi = 1u64 << k;
            assert_eq!(bucket_index(lo) + 1, bucket_index(hi), "seam at 2^{k}");
            assert!(bucket_upper_bound(bucket_index(lo)) == lo);
        }
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::detached();
        h.observe(123_456);
        let s = h.snapshot();
        // Upper bound of the bucket would be 131071; the clamp to max
        // makes every quantile exact for a single sample.
        assert_eq!(s.p50(), 123_456);
        assert_eq!(s.p99(), 123_456);
        assert_eq!(s.max, 123_456);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = Histogram::detached();
        for _ in 0..90 {
            h.observe(10); // bucket 4, ub 15
        }
        for _ in 0..10 {
            h.observe(1000); // bucket 10, ub 1023
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 15);
        assert_eq!(s.quantile(0.90), 15);
        assert_eq!(s.p95(), 1000); // ub 1023 clamped to max 1000
        assert_eq!(s.p99(), 1000);
        assert!((s.mean() - (90.0 * 10.0 + 10.0 * 1000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::detached().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_returns_same_series_for_same_key() {
        let r = MetricsRegistry::new();
        let a = r.counter("ops", &[("drive", "0".into())]);
        let b = r.counter("ops", &[("drive", "0".into())]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let other = r.counter("ops", &[("drive", "1".into())]);
        assert_eq!(other.get(), 0);
        assert_eq!(r.snapshot().samples.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registry_rejects_type_confusion() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x", &[]);
        let _ = r.gauge("x", &[]);
    }

    #[test]
    fn base_labels_fold_into_snapshot() {
        let r = MetricsRegistry::with_base_labels(&[("run", "seq")]);
        r.counter("ops", &[("drive", "0".into())]).inc();
        let snap = r.snapshot();
        assert_eq!(
            snap.get("ops", &[("run", "seq"), ("drive", "0")]),
            Some(&SampleValue::Counter(1))
        );
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::detached();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = Histogram::detached();
        a.observe(5);
        let b = Histogram::detached();
        b.observe(500);
        b.observe(700);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 1205);
        assert_eq!(m.max, 700);
    }

    #[test]
    fn histogram_sum_filters_by_labels() {
        let r = MetricsRegistry::new();
        for (drive, proc, v) in [("0", "1", 10u64), ("1", "1", 20), ("0", "2", 999)] {
            r.histogram("wait_us", &[("drive", drive.into()), ("proc", proc.into())]).observe(v);
        }
        let s = r.snapshot();
        let sum = s.histogram_sum("wait_us", &[("proc", "1")]);
        assert_eq!(sum.count, 2);
        assert_eq!(sum.sum, 30);
        let all = s.histogram_sum("wait_us", &[]);
        assert_eq!(all.count, 3);
        assert_eq!(s.histogram_sum("nope", &[]).count, 0);
    }
}
