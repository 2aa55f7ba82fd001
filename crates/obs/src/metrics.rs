//! A run's metrics: monotonic counters and log2 latency histograms,
//! keyed by socket and access class.
//!
//! Recording is allocation-free on the hot path (fixed bucket arrays); the
//! only allocations happen when counter keys are first inserted.
//! Everything derives `PartialEq` so determinism gates can assert two runs
//! produced bit-identical metrics.

use std::collections::BTreeMap;

/// Number of access classes tracked per socket (the Fig. 8c order of
/// `AccessClass::ALL`; labels are supplied by the simulator at sink
/// construction so this crate stays independent of the topology model).
pub const NUM_CLASSES: usize = 6;

/// Number of log2 buckets per histogram: bucket `i ≥ 1` covers latencies in
/// `[2^(i-1), 2^i)` ns, bucket 0 holds zero. 32 buckets reach ~2 s, far
/// beyond any simulated access latency.
pub const HIST_BUCKETS: usize = 32;

/// A fixed-bucket log2 latency histogram over nanoseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index a latency of `ns` falls into.
    pub fn bucket_of(ns: f64) -> usize {
        let v = if ns.is_finite() && ns > 0.0 {
            ns as u64
        } else {
            0
        };
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The inclusive lower edge of bucket `i` in ns.
    pub fn bucket_floor_ns(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one latency sample.
    ///
    /// Non-finite or negative samples are clamped to 0 for the sum as well
    /// as for bucketing: a single NaN would otherwise poison `sum_ns` (and
    /// thus `mean_ns` and every merged export) permanently, and a negative
    /// sample would silently skew the mean downward while landing in
    /// bucket 0 like a zero.
    #[inline]
    pub fn record(&mut self, ns: f64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        if ns.is_finite() && ns > 0.0 {
            self.sum_ns += ns;
        }
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for i in 0..HIST_BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded latencies in ns.
    pub fn sum_ns(&self) -> f64 {
        self.sum_ns
    }

    /// Mean latency in ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The `p`-th percentile latency in ns (`p` in `[0, 1]`), estimated as
    /// [`try_percentile_from_counts`] does; `None` for an empty histogram,
    /// distinguishing "no samples" from a true 0 ns percentile.
    pub fn try_percentile_ns(&self, p: f64) -> Option<f64> {
        let counts: Vec<f64> = self.buckets.iter().map(|&c| c as f64).collect();
        try_percentile_from_counts(&counts, p)
    }
}

/// Percentile estimation over raw log2 bucket counts (the shape exported
/// in trace JSONL `hist` lines, so the CLI can compute percentiles from a
/// parsed trace without rebuilding a [`LatencyHistogram`]). `None` when
/// the histogram holds no samples, so a caller that renders percentiles
/// can show `-` instead of a misleading `0`.
///
/// The rank `p * total` is located in its covering bucket and linearly
/// interpolated between the bucket's floor and ceiling — the standard
/// estimator for log2 histograms (HdrHistogram-style): exact at bucket
/// edges, at most a factor-2 bucket width off inside.
pub fn try_percentile_from_counts(counts: &[f64], p: f64) -> Option<f64> {
    let total: f64 = counts.iter().copied().filter(|c| c.is_finite()).sum();
    if total <= 0.0 {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * total).min(total);
    let mut cumulative = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if !c.is_finite() || c <= 0.0 {
            continue;
        }
        let next = cumulative + c;
        if rank <= next {
            let floor = LatencyHistogram::bucket_floor_ns(i) as f64;
            let ceil = if i == 0 {
                0.0
            } else {
                (2 * LatencyHistogram::bucket_floor_ns(i)) as f64
            };
            let frac = ((rank - cumulative) / c).clamp(0.0, 1.0);
            return Some(floor + (ceil - floor) * frac);
        }
        cumulative = next;
    }
    // Not reached: `rank <= total`, and the positive finite counts the loop
    // accumulates sum to at least `total`.
    Some(0.0)
}

/// Per-socket metrics: one latency histogram per access class.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SocketMetrics {
    /// Histograms in `AccessClass::ALL` order.
    pub class_hist: [LatencyHistogram; NUM_CLASSES],
}

impl Default for SocketMetrics {
    fn default() -> Self {
        SocketMetrics {
            class_hist: [LatencyHistogram::default(); NUM_CLASSES],
        }
    }
}

impl SocketMetrics {
    /// Total samples across all classes.
    pub fn total_count(&self) -> u64 {
        self.class_hist.iter().map(LatencyHistogram::count).sum()
    }
}

/// One run's metrics: per-socket histograms plus named counters.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricsFrame {
    /// Per-socket histogram banks, indexed by socket.
    pub sockets: Vec<SocketMetrics>,
    /// Named monotonic counters (keys are dotted paths like
    /// `dir.transactions`). `BTreeMap` keeps export order stable.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsFrame {
    /// An empty frame for `num_sockets` sockets.
    pub fn new(num_sockets: usize) -> Self {
        MetricsFrame {
            sockets: vec![SocketMetrics::default(); num_sockets],
            counters: BTreeMap::new(),
        }
    }

    /// Records one memory-access latency sample. Out-of-range socket or
    /// class indices are ignored (the disabled sink has zero sockets).
    #[inline]
    pub fn record_access(&mut self, socket: usize, class: usize, ns: f64) {
        if let Some(s) = self.sockets.get_mut(socket) {
            if let Some(h) = s.class_hist.get_mut(class) {
                h.record(ns);
            }
        }
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, key: &str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(key.to_string()).or_insert(0) += delta;
        }
    }
}

/// A statistics source that can contribute named counters to a frame.
///
/// The substrate crates (`mem`, `cache`, `coherence`) implement this for
/// their stats types so the simulator can pour their counts into a run's
/// frame without knowing their field layouts.
pub trait Observe {
    /// Writes this source's counters into `frame`, prefixing every key
    /// with `prefix` (e.g. `link.cxl.transfers`).
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression (PR 5): a NaN/-1.0/inf sample used to be added raw to
    /// `sum_ns`, permanently poisoning `mean_ns` and every merge downstream.
    /// Pathological samples must count (so the anomaly is visible in bucket
    /// 0) but contribute 0 to the sum.
    #[test]
    fn pathological_samples_do_not_poison_the_mean() {
        let mut h = LatencyHistogram::default();
        h.record(100.0);
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 100.0);
        assert_eq!(h.mean_ns(), 20.0);
        assert!(h.mean_ns().is_finite());
        // The four clamped samples are all visible in bucket 0.
        assert_eq!(h.buckets()[0], 4);

        // Merging stays finite too (a poisoned shard used to spread NaN).
        let mut other = LatencyHistogram::default();
        other.record(f64::NAN);
        h.merge(&other);
        assert!(h.sum_ns().is_finite());
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn bucket_edges_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0.0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1.0), 1);
        assert_eq!(LatencyHistogram::bucket_of(1.9), 1);
        assert_eq!(LatencyHistogram::bucket_of(2.0), 2);
        assert_eq!(LatencyHistogram::bucket_of(3.0), 2);
        assert_eq!(LatencyHistogram::bucket_of(4.0), 3);
        assert_eq!(LatencyHistogram::bucket_of(180.0), 8);
        assert_eq!(LatencyHistogram::bucket_of(f64::INFINITY), 0);
        assert_eq!(LatencyHistogram::bucket_of(-5.0), 0);
        assert_eq!(LatencyHistogram::bucket_floor_ns(0), 0);
        assert_eq!(LatencyHistogram::bucket_floor_ns(8), 128);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = LatencyHistogram::default();
        a.record(80.0);
        a.record(360.0);
        let mut b = LatencyHistogram::default();
        b.record(180.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean_ns() - (80.0 + 360.0 + 180.0) / 3.0).abs() < 1e-9);
        assert_eq!(a.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn percentiles_on_known_distributions() {
        // 100 identical samples at 100 ns: bucket 7 covers [64, 128). Every
        // percentile interpolates inside that one bucket, so p50 < p95 <
        // p99 and all stay within the bucket's bounds.
        let pct = |h: &LatencyHistogram, p: f64| h.try_percentile_ns(p).expect("samples");
        let mut h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(100.0);
        }
        for p in [pct(&h, 0.50), pct(&h, 0.95), pct(&h, 0.99)] {
            assert!((64.0..=128.0).contains(&p), "degenerate percentile {p}");
        }
        assert!(pct(&h, 0.50) < pct(&h, 0.95) && pct(&h, 0.95) < pct(&h, 0.99));

        // 90 samples in [64,128) + 10 in [1024,2048): p50 sits in the low
        // bucket, p95 and p99 in the tail bucket.
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(80.0);
        }
        for _ in 0..10 {
            h.record(1_500.0);
        }
        assert!(
            (64.0..=128.0).contains(&pct(&h, 0.50)),
            "p50 {}",
            pct(&h, 0.50)
        );
        assert!(
            (1024.0..=2048.0).contains(&pct(&h, 0.95)),
            "p95 {}",
            pct(&h, 0.95)
        );
        assert!(
            (1024.0..=2048.0).contains(&pct(&h, 0.99)),
            "p99 {}",
            pct(&h, 0.99)
        );
        assert!(pct(&h, 0.95) < pct(&h, 0.99));

        // Exact bucket-edge ranks: 50 samples in [64,128), 50 in [128,256);
        // p50 lands exactly on the first bucket's ceiling (128 ns).
        let mut h = LatencyHistogram::default();
        for _ in 0..50 {
            h.record(100.0);
        }
        for _ in 0..50 {
            h.record(200.0);
        }
        assert!(
            (pct(&h, 0.50) - 128.0).abs() < 1e-9,
            "p50 {}",
            pct(&h, 0.50)
        );

        // Empty histogram and degenerate inputs.
        assert_eq!(LatencyHistogram::default().try_percentile_ns(0.95), None);
        assert_eq!(try_percentile_from_counts(&[], 0.95), None);
        assert_eq!(try_percentile_from_counts(&[f64::NAN, 0.0], 0.5), None);
        // The bucket-count form agrees with the histogram's own.
        let counts: Vec<f64> = h.buckets().iter().map(|&c| c as f64).collect();
        assert_eq!(
            try_percentile_from_counts(&counts, 0.5),
            Some(pct(&h, 0.50))
        );
    }

    #[test]
    fn frame_guards_out_of_range_indices() {
        let mut f = MetricsFrame::new(2);
        f.record_access(0, 0, 80.0);
        f.record_access(7, 0, 80.0); // no such socket: ignored
        f.record_access(0, 99, 80.0); // no such class: ignored
        assert_eq!(f.sockets[0].total_count(), 1);
        assert_eq!(f.sockets[1].total_count(), 0);
    }

    #[test]
    fn counters_accumulate_and_skip_zero_deltas() {
        let mut f = MetricsFrame::new(1);
        f.add_counter("x", 0);
        assert!(f.counters.is_empty());
        f.add_counter("x", 2);
        f.add_counter("x", 5);
        assert_eq!(f.counters["x"], 7);
    }
}
