//! QoS trackers: latency and admission tallies.
//!
//! The paper defines QoS per application as "typically a combination of
//! throughput and latency" (§5.1). These trackers are used by the threaded
//! runtime's skeletons (per-method stats feeding `getMethodCallStats`) and by
//! the application tests.

use std::sync::atomic::{AtomicU64, Ordering};

use erm_sim::SimDuration;

/// Online latency statistics with logarithmic buckets.
///
/// Tracks count/mean/max exactly and quantiles approximately (bucketed by
/// powers of √2 starting at 1 µs), which is plenty for QoS thresholds like
/// "put latency > 100 ms" in the paper's `CacheExplicit2` example.
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u128,
    max: SimDuration,
}

pub(crate) const BUCKETS: usize = 64;

/// Log-linear bucket index for a duration: two buckets per power of two
/// (≈ √2 resolution) starting at 1 µs. Shared by [`LatencyTracker`] and the
/// registry's atomic histograms so their quantiles agree.
pub(crate) fn bucket_index(d: SimDuration) -> usize {
    let micros = d.as_micros().max(1);
    let log2 = 63 - micros.leading_zeros() as usize;
    let half = usize::from(micros >= (1u64 << log2) + (1u64 << log2.saturating_sub(1)));
    (2 * log2 + half).min(BUCKETS - 1)
}

/// Upper bound of a log-linear bucket, the value quantiles report.
pub(crate) fn bucket_upper_bound(index: usize) -> SimDuration {
    let log2 = index / 2;
    let base = 1u64 << log2;
    let bound = if index.is_multiple_of(2) {
        base + base / 2
    } else {
        base * 2
    };
    SimDuration::from_micros(bound)
}

impl LatencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        LatencyTracker {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_micros: 0,
            max: SimDuration::ZERO,
        }
    }

    /// Records one latency observation.
    pub fn observe(&mut self, latency: SimDuration) {
        self.buckets[bucket_index(latency)] += 1;
        self.count += 1;
        self.sum_micros += u128::from(latency.as_micros());
        if latency > self.max {
            self.max = latency;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean latency, `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        Some(SimDuration::from_micros(
            (self.sum_micros / u128::from(self.count)) as u64,
        ))
    }

    /// Exact maximum latency, `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate quantile (`0.0..=1.0`) as a bucket upper bound.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another tracker into this one (used when aggregating
    /// per-skeleton stats at the sentinel).
    pub fn merge(&mut self, other: &LatencyTracker) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

impl Default for LatencyTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// Thread-safe counters of admission-control decisions — one per component
/// (skeleton, pool, experiment) that admits, rejects, culls or sheds work.
///
/// # Example
///
/// ```
/// use erm_metrics::AdmissionCounters;
///
/// let counters = AdmissionCounters::new();
/// counters.admit();
/// counters.reject();
/// let stats = counters.snapshot();
/// assert_eq!((stats.admitted, stats.rejected), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct AdmissionCounters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    culled: AtomicU64,
    shed: AtomicU64,
}

/// A point-in-time copy of [`AdmissionCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests admitted into a run queue.
    pub admitted: u64,
    /// Requests refused with `Overloaded` (queue full).
    pub rejected: u64,
    /// Admitted requests culled from a queue after their deadline passed.
    pub culled: u64,
    /// Requests shed sideways (rebalance redirect or shutdown drain).
    pub shed: u64,
}

impl AdmissionCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        AdmissionCounters::default()
    }

    /// Counts one admission.
    pub fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `Overloaded` rejection.
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one expired-in-queue cull.
    pub fn cull(&self) {
        self.culled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shed (redirect).
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            culled: self.culled.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_mean_and_max_are_exact() {
        let mut l = LatencyTracker::new();
        l.observe(SimDuration::from_millis(10));
        l.observe(SimDuration::from_millis(20));
        l.observe(SimDuration::from_millis(30));
        assert_eq!(l.mean(), Some(SimDuration::from_millis(20)));
        assert_eq!(l.max(), Some(SimDuration::from_millis(30)));
        assert_eq!(l.count(), 3);
    }

    #[test]
    fn quantile_is_order_of_magnitude_accurate() {
        let mut l = LatencyTracker::new();
        for ms in 1..=100u64 {
            l.observe(SimDuration::from_millis(ms));
        }
        let p50 = l.quantile(0.5).unwrap();
        assert!(
            p50 >= SimDuration::from_millis(32) && p50 <= SimDuration::from_millis(100),
            "p50 = {p50}"
        );
        let p100 = l.quantile(1.0).unwrap();
        assert_eq!(p100, SimDuration::from_millis(100));
    }

    #[test]
    fn empty_latency_tracker_returns_none() {
        let l = LatencyTracker::new();
        assert_eq!(l.mean(), None);
        assert_eq!(l.max(), None);
        assert_eq!(l.quantile(0.9), None);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyTracker::new();
        let mut b = LatencyTracker::new();
        a.observe(SimDuration::from_millis(5));
        b.observe(SimDuration::from_millis(50));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(SimDuration::from_millis(50)));
    }

    #[test]
    #[should_panic(expected = "within [0,1]")]
    fn quantile_validates_range() {
        let l = LatencyTracker::new();
        let _ = l.quantile(1.5);
    }

    #[test]
    fn admission_counters_tally_each_decision() {
        let c = AdmissionCounters::new();
        c.admit();
        c.admit();
        c.reject();
        c.cull();
        c.shed();
        assert_eq!(
            c.snapshot(),
            AdmissionStats {
                admitted: 2,
                rejected: 1,
                culled: 1,
                shed: 1,
            }
        );
    }
}
