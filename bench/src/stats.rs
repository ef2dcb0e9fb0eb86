//! Order statistics for timing samples.
//!
//! The ledger reports a timing as a median plus the highest percentile
//! the sample can support: one with at least [`MIN_BEYOND`] samples
//! beyond it, so the tail figure is never a single outlier.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median (mean of the middle two for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of the `pct`-th percentile among
/// `n` samples, in exact tenths-of-a-percent arithmetic.
fn rank(pct: f64, n: usize) -> usize {
    let permille = (pct * 10.0).round() as usize;
    (permille * n).div_ceil(1000)
}

/// The `pct`-th percentile of an ascending slice (nearest rank).
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(pct, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of
/// `n` samples beyond its nearest-rank position, if any.
pub fn tail_pct(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|pct| n.saturating_sub(rank(*pct, n)) >= MIN_BEYOND)
}

/// Median and supported tail of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_pct`] (the median when no tail
    /// percentile is supported).
    pub tail: f64,
    /// Which percentile `tail` is (50 when none is supported).
    pub tail_pct: f64,
}

/// Summarize a sample (all zeros when empty).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = median(&v);
    match tail_pct(v.len()) {
        Some(pct) => Summary {
            n: v.len(),
            p50,
            tail: percentile_sorted(&v, pct),
            tail_pct: pct,
        },
        None => Summary {
            n: v.len(),
            p50,
            tail: p50,
            tail_pct: if v.is_empty() { 0.0 } else { 50.0 },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Below 40 samples not even p75 leaves ten beyond it.
        assert_eq!(tail_pct(39), None);
        assert_eq!(tail_pct(40), Some(75.0));
        // p90 needs 100, p95 200, p99 1000, p99.9 10000.
        assert_eq!(tail_pct(99), Some(75.0));
        assert_eq!(tail_pct(100), Some(90.0));
        assert_eq!(tail_pct(199), Some(90.0));
        assert_eq!(tail_pct(200), Some(95.0));
        assert_eq!(tail_pct(999), Some(95.0));
        assert_eq!(tail_pct(1000), Some(99.0));
        assert_eq!(tail_pct(10_000), Some(99.9));
    }

    #[test]
    fn summary_picks_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.5, 99.0, 990.0));
        let beyond = v.iter().filter(|x| **x > s.tail).count();
        assert_eq!(beyond, MIN_BEYOND);
        // Too few samples: the tail falls back to the median.
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (5.0, 5.0, 50.0));
        assert_eq!(summarize(&[]).tail_pct, 0.0);
    }
}
