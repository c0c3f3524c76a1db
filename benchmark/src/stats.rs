//! Sample arithmetic: medians, nearest-rank percentiles, how many
//! samples lie beyond a percentile, and the open-loop send schedule.

/// Median/min/max/count of one metric's samples, as carried in the
/// result-set envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median; the mean of the two middle samples for an even count.
/// Panics on an empty slice (every caller has at least one sample).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// 1-based nearest-rank position of percentile `p` among `n` samples:
/// the smallest rank with at least `p` percent of the samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    // In integers, in tenths of a percent: `99.9 / 100 * 10_000` is
    // 9990.000000000002 in floating point and would round up a rank.
    let permille = (p * 10.0).round() as usize;
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile. With few samples the high percentiles
/// degrade to the maximum, which is why the sample count is always
/// reported next to them.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    s[rank(s.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Percentile `p` when at least ten samples lie beyond it; otherwise the
/// highest supported percentile below it, and the median when there is
/// none. A p99 read off a dozen samples is their maximum: one slow run
/// would be reported as the tail.
pub fn supported_percentile(xs: &[f64], p: f64) -> f64 {
    let best = highest_supported_percentile(xs.len()).unwrap_or(50.0);
    percentile(xs, p.min(best))
}

/// Samples per slice of [`sliced_percentile`]: one second of the
/// reference rate.
pub const SLICE: usize = 100;

/// Median over consecutive slices of `SLICE` samples of each slice's
/// nearest-rank percentile `p` (the whole sample when it is shorter than
/// one slice; a trailing partial slice is left out).
///
/// A tail percentile of the whole window is decided by its worst few
/// samples, and one stall of the machine supplies all of them; the
/// typical slice's tail is what a change to the program moves.
pub fn sliced_percentile(xs: &[f64], p: f64) -> f64 {
    if xs.len() < SLICE {
        return percentile(xs, p);
    }
    let tails: Vec<f64> = xs.chunks_exact(SLICE).map(|slice| percentile(slice, p)).collect();
    median(&tails)
}

pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    assert!(!s.is_empty(), "summary of no samples");
    Summary { median: median(&s), min: s[0], max: s[s.len() - 1], n: s.len() }
}

/// Jobs an open loop sends in a window: one every `1/rate` seconds
/// starting at the window's first instant.
pub fn jobs_in_window(rate_per_s: f64, seconds: f64) -> usize {
    (rate_per_s * seconds).floor() as usize
}

/// Microseconds after the window start at which job `k` is due.
pub fn due_us(k: usize, rate_per_s: f64) -> u64 {
    (k as f64 * 1e6 / rate_per_s).round() as u64
}

/// Queue length above which an open loop at `rate_per_s` has a backlog:
/// by Little's law a queue longer than `rate × limit` makes the newest
/// job miss a latency limit of `limit_ms` even if service were free.
pub fn backlog_limit(rate_per_s: f64, limit_ms: f64) -> usize {
    (rate_per_s * limit_ms / 1e3).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Few samples: every high percentile is the maximum.
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 95.0), 9.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 50.0), 4.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond() {
        // 1 200 samples at the reference rate: 12 beyond p99.
        assert_eq!(samples_beyond(1200, 99.0), 12);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn unsupported_percentiles_fall_back() {
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(supported_percentile(&few, 99.0), percentile(&few, 50.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&many, 99.0), 990.0);
        assert_eq!(supported_percentile(&many, 95.0), 950.0);
        // 500 samples: 5 beyond p99, so p99 falls back to p95.
        let mid: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(supported_percentile(&mid, 99.0), 475.0);
    }

    #[test]
    fn sliced_percentile_ignores_one_stalled_slice() {
        // Ten slices whose p99 is 99, one of them stalled to 10 000.
        let mut xs: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
        assert_eq!(sliced_percentile(&xs, 99.0), 99.0);
        xs[300..400].fill(10_000.0);
        assert_eq!(sliced_percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 99.0), 10_000.0);
        // Shorter than a slice: the plain percentile; partial tail dropped.
        assert_eq!(sliced_percentile(&xs[..50], 95.0), percentile(&xs[..50], 95.0));
        assert_eq!(sliced_percentile(&xs[..250], 50.0), 50.0);
    }

    #[test]
    fn summary_fields() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { median: 2.5, min: 1.0, max: 4.0, n: 4 });
    }

    #[test]
    fn open_loop_schedule() {
        assert_eq!(jobs_in_window(100.0, 12.0), 1200);
        assert_eq!(jobs_in_window(300.0, 2.5), 750);
        assert_eq!(due_us(0, 100.0), 0);
        assert_eq!(due_us(1, 100.0), 10_000);
        assert_eq!(due_us(1199, 100.0), 11_990_000);
        // 300/s does not divide a microsecond evenly: rounded, never drifting.
        assert_eq!(due_us(3, 300.0), 10_000);
        assert_eq!(due_us(1, 300.0), 3_333);
        assert_eq!(backlog_limit(200.0, 25.0), 5);
        assert_eq!(backlog_limit(100.0, 25.0), 3);
    }
}
