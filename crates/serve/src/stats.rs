//! Latency accounting for closed-loop load runs: a nearest-rank
//! percentile estimator plus throughput.
//!
//! Nearest-rank (rank `⌈p/100 · N⌉` over the sorted samples) is exact —
//! it always returns an observed sample, never an interpolation — which
//! keeps latency reports reproducible across runs of the same seeded
//! stream on the same host, and makes the estimator trivially
//! testable against known distributions.

/// Accumulates per-request latencies (nanoseconds) for one load pass.
#[derive(Debug, Default, Clone)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

/// The digest of one pass: percentiles plus closed-loop throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Requests observed.
    pub count: usize,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Requests per second over the pass's wall-clock time.
    pub throughput_rps: f64,
}

impl LatencyStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request latency.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`), or `None` on
    /// an empty stream. `p = 100` is the maximum; small `p` degenerates
    /// to the minimum (the rank is clamped to the first sample).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, n) - 1])
    }

    /// Median latency.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Tail latency.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Summarizes the pass given its wall-clock duration. `None` when no
    /// samples were recorded or the duration is zero.
    pub fn summary(&self, elapsed_ns: u64) -> Option<LatencySummary> {
        if self.samples.is_empty() || elapsed_ns == 0 {
            return None;
        }
        Some(LatencySummary {
            count: self.samples.len(),
            p50_ns: self.p50()?,
            p99_ns: self.p99()?,
            throughput_rps: self.samples.len() as f64 / (elapsed_ns as f64 / 1e9),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[u64]) -> LatencyStats {
        let mut s = LatencyStats::new();
        for &x in samples {
            s.record(x);
        }
        s
    }

    #[test]
    fn exact_percentiles_on_one_to_hundred() {
        // 1..=100: nearest-rank p-th percentile of this sample is exactly p.
        let s = stats(&(1..=100).collect::<Vec<_>>());
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(1.0), Some(1));
    }

    #[test]
    fn order_of_recording_does_not_matter() {
        let a = stats(&[5, 1, 4, 2, 3]);
        let b = stats(&[1, 2, 3, 4, 5]);
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.p50(), Some(3));
        // Five samples: rank ceil(0.99·5)=5 → the max.
        assert_eq!(a.p99(), Some(5));
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let s = stats(&[10, 500, 20, 30, 1000, 40, 50, 60, 70, 80]);
        let ps = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];
        let vals: Vec<u64> = ps.iter().map(|&p| s.percentile(p).unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?} not monotone");
    }

    #[test]
    fn single_sample_answers_every_percentile() {
        let s = stats(&[777]);
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Some(777));
        }
        let sum = s.summary(1_000_000_000).unwrap();
        assert_eq!(sum.count, 1);
        assert_eq!(sum.p50_ns, 777);
        assert!((sum.throughput_rps - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_has_no_percentiles() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.p50(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.summary(1_000), None);
        assert_eq!(stats(&[1]).summary(0), None, "zero elapsed time");
    }

    #[test]
    fn throughput_counts_requests_per_second() {
        let s = stats(&[100, 200, 300, 400]);
        let sum = s.summary(2_000_000_000).unwrap();
        assert_eq!(sum.count, 4);
        assert!((sum.throughput_rps - 2.0).abs() < 1e-9);
    }
}
