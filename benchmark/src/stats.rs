//! Order statistics the harness reports: the fast decile of repeated
//! timings, medians, nearest-rank percentiles with the "ten samples beyond"
//! rule, and geometric means.

/// Sorted copy of `v` (samples are wall times or counts, never NaN).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one round.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The estimate of a quantity timed many times over: the nearest-rank 10th
/// percentile, the "fast decile". Interference from the rest of the machine
/// only ever adds time, so the fast end of the sample is the steady one: on
/// the seed, over ten runs in a noisy spell, kernel medians spread 17–26 %
/// between their quartiles and fast deciles 2–7 %; in a quiet spell the two
/// spread alike.
pub fn fast_decile(v: &[f64]) -> f64 {
    percentile(v, 10.0)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (`p` in `(0, 100]`).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let s = sorted(v);
    s[nearest_rank(s.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples
/// (the small slack keeps `99.9 % of 10 000` at 9 990, not 9 991).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — the only tail a sample of size `n` can support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Geometric mean of positive values (the aggregate over tensors and
/// formats, so no single large cell dominates).
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty() && v.iter().all(|&x| x > 0.0), "geomean needs positive samples");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        // Nearest rank never interpolates: the answer is always a sample.
        assert_eq!(percentile(&[10.0, 20.0, 30.0], 50.0), 20.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 50.0), 20.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(6000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fast_decile_ignores_the_slow_tail() {
        let mut v: Vec<f64> = (0..50).map(|i| 1.0 + f64::from(i) * 0.001).collect();
        v.extend([30.0; 40]); // a noisy spell slows 40 of 90 samples thirtyfold
        assert_eq!(fast_decile(&v), 1.008);
        assert_eq!(fast_decile(&[3.0, 1.0, 2.0]), 1.0);
    }
}
