//! A lock-cheap registry of named instruments.
//!
//! Components register [`Counter`]s, [`Gauge`]s and [`Histogram`]s once (at
//! construction or wiring time) and record into them on the hot path with
//! nothing but relaxed atomic operations — no locks, no allocation, no
//! formatting. Like [`crate::TraceHandle`], the whole layer is opt-in: a
//! disabled [`MetricsHandle`] hands out disabled instruments whose record
//! calls compile down to a branch on a `None`.
//!
//! Instrument names are dotted paths (`component.noun.metric`), e.g.
//! `skeleton.queue.delay`, `kv.lock.wait`, `cluster.provision.latency`.
//! Registering the same name twice returns the same underlying cell, so
//! restarted components keep accumulating into one series.
//!
//! Histograms use a log-linear scheme (√2 resolution, 64 buckets from 1 µs)
//! over atomics: fixed allocation, mergeable snapshots, HDR-style
//! approximate quantiles with exact count/mean/max. A [`HistogramSnapshot`]
//! also records on its own, without atomics, for single-owner windows such
//! as a skeleton's burst interval.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use erm_sim::{SimDuration, SimTime};

const BUCKETS: usize = 64;

/// Log-linear bucket index for a duration: two buckets per power of two
/// (≈ √2 resolution) starting at 1 µs.
fn bucket_index(d: SimDuration) -> usize {
    let micros = d.as_micros().max(1);
    let log2 = 63 - micros.leading_zeros() as usize;
    let half = usize::from(micros >= (1u64 << log2) + (1u64 << log2.saturating_sub(1)));
    (2 * log2 + half).min(BUCKETS - 1)
}

/// Upper bound of a log-linear bucket, the value quantiles report.
fn bucket_upper_bound(index: usize) -> SimDuration {
    let log2 = index / 2;
    let base = 1u64 << log2;
    let bound = if index.is_multiple_of(2) {
        base + base / 2
    } else {
        base * 2
    };
    SimDuration::from_micros(bound)
}

/// The shared instrument table. Create one per run (or per pool) and snapshot
/// it whenever a time-series sample is wanted.
///
/// # Example
///
/// ```
/// use erm_metrics::MetricsHandle;
/// use erm_sim::{SimDuration, SimTime};
///
/// let (metrics, registry) = MetricsHandle::shared();
/// let delay = metrics.histogram("skeleton.queue.delay");
/// delay.record(SimDuration::from_millis(12));
/// let snap = registry.snapshot(SimTime::from_secs(1));
/// assert_eq!(snap.histograms[0].0, "skeleton.queue.delay");
/// assert_eq!(snap.histograms[0].1.count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCore>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn counter_cell(&self, name: &'static str) -> Arc<AtomicU64> {
        let mut table = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(table.entry(name).or_default())
    }

    fn gauge_cell(&self, name: &'static str) -> Arc<AtomicI64> {
        let mut table = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(table.entry(name).or_default())
    }

    fn histogram_cell(&self, name: &'static str) -> Arc<HistogramCore> {
        let mut table = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            table
                .entry(name)
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        )
    }

    /// A point-in-time copy of every instrument, stamped `at` (whatever clock
    /// the caller runs on — virtual time in experiments).
    pub fn snapshot(&self, at: SimTime) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, cell)| (name, cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, cell)| (name, cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, cell)| (name, cell.snapshot()))
            .collect();
        RegistrySnapshot {
            at,
            counters,
            gauges,
            histograms,
        }
    }
}

/// A cheap, cloneable handle components register instruments through: either
/// disabled (the default — every instrument it hands out is a no-op) or
/// backed by a shared [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle {
    registry: Option<Arc<Registry>>,
}

impl MetricsHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        MetricsHandle::default()
    }

    /// A handle backed by `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        MetricsHandle {
            registry: Some(registry),
        }
    }

    /// Creates a registry and a handle onto it.
    pub fn shared() -> (Self, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        (MetricsHandle::new(Arc::clone(&registry)), registry)
    }

    /// Whether instruments reach a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Registers (or re-opens) the named counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter {
            cell: self.registry.as_ref().map(|r| r.counter_cell(name)),
        }
    }

    /// Registers (or re-opens) the named gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge {
            cell: self.registry.as_ref().map(|r| r.gauge_cell(name)),
        }
    }

    /// Registers (or re-opens) the named histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram {
            core: self.registry.as_ref().map(|r| r.histogram_cell(name)),
        }
    }
}

/// A monotonically increasing count. Disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter that records nothing.
    pub fn disabled() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count (zero when disabled).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value-wins instantaneous measurement. Disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A gauge that records nothing.
    pub fn disabled() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adjusts the value by `delta`.
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value (zero when disabled).
    pub fn get(&self) -> i64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A duration distribution with log-linear buckets. Disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A histogram that records nothing.
    pub fn disabled() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, d: SimDuration) {
        if let Some(core) = &self.core {
            core.record(d);
        }
    }

    /// A point-in-time copy (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |core| core.snapshot())
    }
}

/// The fixed-allocation atomic core behind a [`Histogram`]: 64 log-linear
/// buckets plus exact count / sum / max, all relaxed atomics so concurrent
/// skeleton threads can record without coordination.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    fn record(&self, d: SimDuration) {
        let micros = d.as_micros();
        self.buckets[bucket_index(d)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram, mergeable across members (the same
/// aggregation the sentinel does for per-skeleton latency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one observation into this copy, exactly as the atomic
    /// [`Histogram`] would.
    pub fn record(&mut self, d: SimDuration) {
        let micros = d.as_micros();
        self.buckets[bucket_index(d)] += 1;
        self.count += 1;
        self.sum_micros += micros;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        Some(SimDuration::from_micros(self.sum_micros / self.count))
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        if self.count == 0 {
            None
        } else {
            Some(SimDuration::from_micros(self.max_micros))
        }
    }

    /// Approximate quantile (`0.0..=1.0`) as a bucket upper bound, clamped to
    /// the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0,1]");
        if self.count == 0 {
            return None;
        }
        let max = SimDuration::from_micros(self.max_micros);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_upper_bound(i).min(max));
            }
        }
        Some(max)
    }

    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

/// Every instrument's value at one instant, for CSV time series.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// When the snapshot was taken, on the caller's clock.
    pub at: SimTime,
    /// Counter values, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(&'static str, i64)>,
    /// Histogram copies, sorted by name.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

/// Header row of [`snapshots_to_csv`].
pub const CSV_HEADER: &str = "at_s,name,kind,count,value,mean_us,p50_us,p90_us,p99_us,max_us";

/// Renders snapshots as one CSV: a row per instrument per snapshot, so a
/// sequence of snapshots becomes a time series keyed on `at_s,name`.
/// Counters and gauges fill `value`; histograms fill the percentile columns
/// (microseconds, blank when the histogram is empty).
pub fn snapshots_to_csv(snapshots: &[RegistrySnapshot]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for snap in snapshots {
        let at = format!("{:.6}", snap.at.as_secs_f64());
        for &(name, value) in &snap.counters {
            out.push_str(&format!("{at},{name},counter,{value},{value},,,,,\n"));
        }
        for &(name, value) in &snap.gauges {
            out.push_str(&format!("{at},{name},gauge,,{value},,,,,\n"));
        }
        for (name, h) in &snap.histograms {
            let us =
                |d: Option<SimDuration>| d.map_or(String::new(), |d| d.as_micros().to_string());
            out.push_str(&format!(
                "{at},{name},histogram,{},,{},{},{},{},{}\n",
                h.count(),
                us(h.mean()),
                us(h.quantile(0.5)),
                us(h.quantile(0.9)),
                us(h.quantile(0.99)),
                us(h.max()),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_are_no_ops() {
        let handle = MetricsHandle::disabled();
        assert!(!handle.is_enabled());
        let c = handle.counter("x");
        let g = handle.gauge("y");
        let h = handle.histogram("z");
        c.incr();
        g.set(5);
        h.record(SimDuration::from_millis(1));
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn same_name_shares_the_cell() {
        let (handle, registry) = MetricsHandle::shared();
        let a = handle.counter("pool.grow");
        let b = handle.counter("pool.grow");
        a.incr();
        b.incr();
        assert_eq!(a.get(), 2);
        let snap = registry.snapshot(SimTime::ZERO);
        assert_eq!(snap.counters, vec![("pool.grow", 2)]);
    }

    #[test]
    fn local_record_matches_the_atomic_histogram() {
        let (handle, _registry) = MetricsHandle::shared();
        let h = handle.histogram("lat");
        let mut local = HistogramSnapshot::default();
        assert_eq!(local.mean(), None);
        assert_eq!(local.max(), None);
        assert_eq!(local.quantile(0.9), None);
        for ms in 1..=100u64 {
            let d = SimDuration::from_millis(ms);
            h.record(d);
            local.record(d);
        }
        assert_eq!(local, h.snapshot());
        // Count, mean and max are exact; quantiles are bucket upper bounds
        // clamped to the maximum.
        assert_eq!(local.count(), 100);
        assert_eq!(local.mean(), Some(SimDuration::from_micros(50_500)));
        assert_eq!(local.max(), Some(SimDuration::from_millis(100)));
        let p50 = local.quantile(0.5).unwrap();
        assert!(
            p50 >= SimDuration::from_millis(32) && p50 <= SimDuration::from_millis(100),
            "p50 = {p50}"
        );
        assert_eq!(local.quantile(1.0), Some(SimDuration::from_millis(100)));
    }

    #[test]
    #[should_panic(expected = "within [0,1]")]
    fn quantile_validates_range() {
        let _ = HistogramSnapshot::default().quantile(1.5);
    }

    #[test]
    fn snapshots_merge_like_the_sentinel_does() {
        let (handle, _r) = MetricsHandle::shared();
        let a = handle.histogram("a");
        let b = handle.histogram("b");
        a.record(SimDuration::from_millis(5));
        b.record(SimDuration::from_millis(50));
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max(), Some(SimDuration::from_millis(50)));
    }

    #[test]
    fn gauge_tracks_last_value_and_deltas() {
        let (handle, _r) = MetricsHandle::shared();
        let g = handle.gauge("pool.size");
        g.set(3);
        g.add(2);
        g.add(-1);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn csv_has_a_row_per_instrument_per_snapshot() {
        let (handle, registry) = MetricsHandle::shared();
        handle.counter("c").add(7);
        handle.gauge("g").set(-2);
        handle.histogram("h").record(SimDuration::from_millis(10));
        let s1 = registry.snapshot(SimTime::from_secs(1));
        handle.counter("c").add(1);
        let s2 = registry.snapshot(SimTime::from_secs(2));
        let csv = snapshots_to_csv(&[s1, s2]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + 3 + 3);
        assert!(lines[1].starts_with("1.000000,c,counter,7,7"));
        assert!(lines[2].starts_with("1.000000,g,gauge,,-2"));
        assert!(lines[3].starts_with("1.000000,h,histogram,1,,"));
        assert!(lines[4].starts_with("2.000000,c,counter,8,8"));
    }

    #[test]
    fn empty_histogram_csv_leaves_percentiles_blank() {
        let (handle, registry) = MetricsHandle::shared();
        let _ = handle.histogram("h");
        let csv = snapshots_to_csv(&[registry.snapshot(SimTime::ZERO)]);
        assert!(csv.lines().nth(1).unwrap().ends_with("histogram,0,,,,,,"));
    }
}
