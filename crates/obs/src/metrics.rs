//! The metrics registry: named counters and histograms.
//!
//! Registration is get-or-create by name; handles are cheap clones around
//! shared atomics, so hot paths can cache them. Snapshots iterate in sorted
//! name order, which keeps every export deterministic.

use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets (covers the full `u64` range).
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    /// `buckets[i]` counts observations with `floor(log2(v)) == i - 1`
    /// (bucket 0 holds zeros).
    buckets: Vec<AtomicU64>,
}

/// A histogram of `u64` observations in power-of-two buckets — enough
/// resolution for latency/backoff distributions without configuration.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let inner = &self.0;
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        let idx = if v == 0 { 0 } else { 64 - (v.leading_zeros() as usize) };
        inner.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (see [`quantile_from_buckets`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let buckets: Vec<(u64, u64)> = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect();
        quantile_from_buckets(&buckets, self.count(), q)
    }
}

/// Inclusive upper bound of power-of-two bucket `i` (bucket 0 holds zeros).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        ((1u128 << i) - 1).min(u64::MAX as u128) as u64
    }
}

/// Estimate the `q`-quantile of a log-bucketed distribution by linear
/// interpolation inside the bucket holding the target rank.
///
/// `buckets` are `(inclusive upper bound, count)` pairs in ascending bound
/// order (empty buckets may be omitted) and `count` is the total number of
/// observations. The rank convention is nearest-rank: the target is sample
/// `ceil(q·count)` (1-based) of the sorted observations. The estimate is
/// always within the bounds of the bucket containing that sample, so its
/// error is bounded by the bucket width (a factor of two in value).
///
/// Returns `None` for an empty distribution; `q` is clamped to `[0, 1]`.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], count: u64, q: f64) -> Option<f64> {
    if count == 0 || buckets.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for &(le, n) in buckets {
        if n == 0 {
            continue;
        }
        cum += n;
        if cum >= target {
            // The bucket's inclusive value range: [lo, le].
            let lo = if le == 0 { 0 } else { (le >> 1) + 1 };
            let rank_in_bucket = target - (cum - n); // 1-based within bucket
            let frac = rank_in_bucket as f64 / n as f64;
            return Some(lo as f64 + frac * (le - lo) as f64);
        }
    }
    // `count` exceeded the bucket totals (concurrent observe mid-snapshot);
    // fall back to the top bucket's bound.
    buckets.last().map(|&(le, _)| le as f64)
}

enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

/// Get or create the counter named `name`.
///
/// # Panics
/// Panics if `name` is already registered as a histogram.
pub fn counter(name: &str) -> Counter {
    let mut reg = lock(&REGISTRY);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        Metric::Histogram(_) => panic!("metric {name:?} is a histogram, not a counter"),
    }
}

/// Set the counter named `name` to an absolute value — the pull-model entry
/// point used to mirror externally-accumulated statistics (fault counters,
/// ORB traffic) into the registry at export time.
pub fn set_counter(name: &str, value: u64) {
    counter(name).0.store(value, Ordering::Relaxed);
}

/// Get or create the histogram named `name`.
///
/// # Panics
/// Panics if `name` is already registered as a counter.
pub fn histogram(name: &str) -> Histogram {
    let mut reg = lock(&REGISTRY);
    match reg.entry(name.to_string()).or_insert_with(|| {
        Metric::Histogram(Histogram(Arc::new(HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        Metric::Counter(_) => panic!("metric {name:?} is a counter, not a histogram"),
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Histogram: observation count, sum, and the non-empty `(upper_bound,
    /// count)` buckets.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Non-empty buckets as `(inclusive upper bound, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

impl MetricSnapshot {
    /// Estimate the `q`-quantile of a histogram snapshot (see
    /// [`quantile_from_buckets`]); `None` for counters and empty histograms.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match self {
            MetricSnapshot::Counter(_) => None,
            MetricSnapshot::Histogram { count, buckets, .. } => {
                quantile_from_buckets(buckets, *count, q)
            }
        }
    }
}

/// Snapshot every registered metric, sorted by name.
pub fn metrics_snapshot() -> Vec<(String, MetricSnapshot)> {
    let reg = lock(&REGISTRY);
    reg.iter()
        .map(|(name, metric)| {
            let snap = match metric {
                Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                Metric::Histogram(h) => MetricSnapshot::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h
                        .0
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then(|| {
                                let le = if i == 0 { 0 } else { (1u128 << i) - 1 };
                                (le.min(u64::MAX as u128) as u64, n)
                            })
                        })
                        .collect(),
                },
            };
            (name.clone(), snap)
        })
        .collect()
}

/// Drop every registered metric.
pub fn metrics_reset() {
    lock(&REGISTRY).clear();
}
