//! Windowed quantiles.
//!
//! The telemetry registry keeps lifetime histograms, so a quantile read
//! at shutdown mixes admission, warm-up and the measurement window.
//! [`window`] subtracts a snapshot taken when the window opened from
//! one taken when it closed, leaving exactly the window's samples.
//! Every quantile is reported with its sample count, and a percentile
//! with fewer than [`MIN_TAIL`] samples above it is reported as a max.

use rts_obs::LogHistogram;

/// Fewest samples that must lie above a percentile for it to be
/// reported under a percentile name.
pub const MIN_TAIL: u64 = 10;

/// The samples recorded between two snapshots of one histogram.
///
/// Buckets, count and sum are exact. The window's min and max are the
/// bounds of its lowest and highest occupied buckets, tightened by the
/// lifetime extremes, so every quantile lands in the same bucket as
/// the quantile of the window's own samples.
///
/// # Panics
///
/// Panics if `after` is not a later snapshot of the same histogram.
pub fn window(before: &LogHistogram, after: &LogHistogram) -> LogHistogram {
    let b = before.buckets();
    let buckets: Vec<u64> = after
        .buckets()
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let earlier = b.get(i).copied().unwrap_or(0);
            a.checked_sub(earlier).expect("snapshots out of order")
        })
        .collect();
    assert!(b.len() <= buckets.len() || b[buckets.len()..].iter().all(|&c| c == 0));
    let count: u64 = buckets.iter().sum();
    let sum = after.sum().saturating_sub(before.sum());
    let lo = buckets.iter().position(|&c| c > 0);
    let hi = buckets.iter().rposition(|&c| c > 0);
    let (min, max) = match (lo, hi) {
        (Some(lo), Some(hi)) => (
            LogHistogram::bucket_bounds(lo).0.max(after.min()),
            LogHistogram::bucket_bounds(hi).1.min(after.max()),
        ),
        _ => (0, 0),
    };
    LogHistogram::from_parts(buckets, count, sum, min, max)
}

/// A reported quantile: the value under its percentile name when at
/// least [`MIN_TAIL`] samples lie above it, otherwise the max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile value, when enough samples lie above it.
    pub value: Option<f64>,
    /// The largest sample.
    pub max: f64,
    /// Number of samples.
    pub count: u64,
}

impl Quantile {
    /// The percentile, or 0 when it is reported as a max instead.
    pub fn or_zero(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// The sample-count note printed beside the metric.
    pub fn note(&self, q: f64) -> String {
        match self.value {
            Some(_) => format!("n={}", self.count),
            None => format!(
                "n={}: too few samples above p{}, max={}",
                self.count,
                q * 100.0,
                self.max
            ),
        }
    }
}

/// Nearest rank of quantile `q` among `n` samples (1-based), immune to
/// `q·n` landing a rounding error above a whole number.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64 - 1e-9).ceil() as u64).clamp(1, n.max(1))
}

fn tail_ok(count: u64, q: f64) -> bool {
    count > 0 && count - rank(count, q) >= MIN_TAIL
}

/// Quantile `q` of a (windowed) histogram, in the histogram's units.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> Quantile {
    Quantile {
        value: tail_ok(h.count(), q).then(|| h.quantile(q) as f64),
        max: h.max() as f64,
        count: h.count(),
    }
}

/// Nearest-rank quantile `q` of exact samples.
pub fn sample_quantile(samples: &[f64], q: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as u64;
    Quantile {
        value: tail_ok(n, q).then(|| sorted[rank(n, q) as usize - 1]),
        max: sorted.last().copied().unwrap_or(0.0),
        count: n,
    }
}

/// Median of exact samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of exact samples (0 when empty): robust to
/// stalls like a median, but it averages over the central samples
/// instead of picking one, so it does not jump between the modes of a
/// quantized distribution.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::rng::SplitMix64;
    use rts_telemetry::AtomicHistogram;

    fn samples(seed: u64, n: usize, scale: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.range_u64(1, scale)).collect()
    }

    #[test]
    fn window_of_registry_snapshots_equals_the_window_samples() {
        // Lifetime samples before the window are large, the window's
        // are small, and more large ones follow after it closes.
        let live = AtomicHistogram::new();
        for v in samples(1, 5_000, 50_000_000) {
            live.record(v);
        }
        let before = live.snapshot();
        let inside = samples(2, 3_000, 200_000);
        let mut only_window = LogHistogram::new();
        for &v in &inside {
            live.record(v);
            only_window.record(v);
        }
        let after = live.snapshot();
        for v in samples(3, 1_000, 90_000_000) {
            live.record(v);
        }

        let w = window(&before, &after);
        assert_eq!(w.buckets(), only_window.buckets());
        assert_eq!(w.count(), only_window.count());
        assert_eq!(w.sum(), only_window.sum());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = w.quantile(q);
            let want = only_window.quantile(q);
            assert_eq!(
                LogHistogram::bucket_of(got),
                LogHistogram::bucket_of(want),
                "q={q}: window {got} vs samples {want}"
            );
        }
        // The lifetime histogram's tail is nowhere near the window's.
        assert!(after.quantile(0.99) > 10 * w.quantile(0.99));
    }

    #[test]
    fn empty_window_is_empty() {
        let live = AtomicHistogram::new();
        live.record(7);
        let s = live.snapshot();
        let w = window(&s, &s);
        assert_eq!(w.count(), 0);
        assert_eq!(hist_quantile(&w, 0.5).value, None);
    }

    #[test]
    fn thin_tails_are_reported_as_max() {
        let nine: Vec<f64> = (1..=90).map(f64::from).collect();
        let q = sample_quantile(&nine, 0.9);
        assert_eq!(q.value, None, "9 samples above p90 is too few");
        assert_eq!(q.max, 90.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let q = sample_quantile(&hundred, 0.9);
        assert_eq!(q.value, Some(90.0));
        assert_eq!(q.count, 100);
        assert_eq!(sample_quantile(&hundred, 0.5).value, Some(50.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_ignores_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 1000.0]), 2.5);
        // Two modes split near the middle: the median jumps from one to
        // the other with a single sample, the interquartile mean moves
        // by a step of the mode gap over the middle count.
        let mut v = vec![6.0; 12];
        v.extend([9.0; 12]);
        let a = interquartile_mean(&v);
        v[0] = 9.0;
        let b = interquartile_mean(&v);
        assert!((b - a - 0.25).abs() < 1e-9, "{a} -> {b}");
        assert_eq!(median(&v), 9.0);
    }
}
