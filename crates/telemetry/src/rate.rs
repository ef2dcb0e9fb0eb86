//! Rate estimation from polled counters.
//!
//! A poller reads a monotone (wrapping) counter at intervals; the
//! estimator turns successive reads into bytes/s, optionally smoothed
//! with an EWMA. Smoothing matters for the controller: raw per-poll
//! rates on bursty traffic flap threshold alarms, and the paper's
//! controller must not oscillate lies in and out.

use crate::counters::{counter_delta, CounterWidth};
use fib_igp::time::Timestamp;

/// Turns counter samples into a smoothed rate (units/second).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    width: CounterWidth,
    alpha: f64,
    last: Option<(Timestamp, u64)>,
    ewma: Option<f64>,
}

impl RateEstimator {
    /// Create an estimator. `alpha` is the EWMA weight of the newest
    /// sample in `(0, 1]`; `alpha = 1.0` disables smoothing.
    pub fn new(width: CounterWidth, alpha: f64) -> RateEstimator {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        RateEstimator {
            width,
            alpha,
            last: None,
            ewma: None,
        }
    }

    /// Feed one counter read. Returns the new smoothed rate if this
    /// sample completed an interval.
    pub fn observe(&mut self, at: Timestamp, counter: u64) -> Option<f64> {
        let prev = self.last.replace((at, counter));
        let (t0, c0) = prev?;
        if at <= t0 {
            return self.ewma; // duplicate or out-of-order poll
        }
        let dt = (at - t0).as_secs_f64();
        let delta = counter_delta(self.width, c0, counter) as f64;
        let rate = delta / dt;
        self.ewma = Some(match self.ewma {
            None => rate,
            Some(prev) => self.alpha * rate + (1.0 - self.alpha) * prev,
        });
        self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    /// Runs `check` on `n` cases, each on its own seeded generator, and
    /// names the case and seed that fail.
    fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
        for case in 0..n {
            let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
            assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
        }
    }

    /// Per-second counter deltas under 2 MB, `len` of them.
    fn deltas(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u64> {
        (0..rng.gen_range(len))
            .map(|_| rng.gen_range(0..2_000_000))
            .collect()
    }

    #[test]
    fn needs_two_samples() {
        let mut e = RateEstimator::new(CounterWidth::C64, 1.0);
        assert_eq!(e.observe(t(0), 0), None);
        let r = e.observe(t(1), 1000).unwrap();
        assert!((r - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_accounts_for_interval_length() {
        let mut e = RateEstimator::new(CounterWidth::C64, 1.0);
        e.observe(t(0), 0);
        let r = e.observe(t(4), 8000).unwrap();
        assert!((r - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn wrap_is_transparent() {
        let mut e = RateEstimator::new(CounterWidth::C32, 1.0);
        e.observe(t(0), u32::MAX as u64 - 499);
        let r = e.observe(t(1), 500).unwrap();
        assert!((r - 1000.0).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn ewma_smooths() {
        let mut e = RateEstimator::new(CounterWidth::C64, 0.5);
        e.observe(t(0), 0);
        e.observe(t(1), 1000); // ewma = 1000
        let r = e.observe(t(2), 1000).unwrap(); // instant 0 → ewma 500
        assert!((r - 500.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_poll_is_ignored() {
        let mut e = RateEstimator::new(CounterWidth::C64, 1.0);
        e.observe(t(0), 0);
        let before = e.observe(t(1), 100);
        let after = e.observe(t(1), 100);
        assert_eq!(before, after);
    }

    /// For any monotone counter trace sampled at 1 Hz with alpha = 1,
    /// every reported rate equals the per-second delta and is never
    /// negative.
    #[test]
    fn prop_rates_match_deltas() {
        cases(64, |rng| {
            let deltas = deltas(rng, 1..50);
            let mut e = RateEstimator::new(CounterWidth::C64, 1.0);
            let mut counter = 0u64;
            e.observe(t(0), counter);
            for (i, d) in deltas.iter().enumerate() {
                counter += d;
                let r = e.observe(t(i as u64 + 1), counter).unwrap();
                assert!((r - *d as f64).abs() < 1e-6);
                assert!(r >= 0.0);
            }
        });
    }

    /// EWMA output always lies within [min, max] of instant rates.
    #[test]
    fn prop_ewma_bounded() {
        cases(64, |rng| {
            let (deltas, alpha) = (deltas(rng, 2..50), rng.gen_range(0.05..1.0));
            let mut e = RateEstimator::new(CounterWidth::C64, alpha);
            let mut counter = 0u64;
            e.observe(t(0), counter);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (i, d) in deltas.iter().enumerate() {
                counter += d;
                let r = e.observe(t(i as u64 + 1), counter).unwrap();
                lo = lo.min(*d as f64);
                hi = hi.max(*d as f64);
                assert!(
                    r >= lo - 1e-6 && r <= hi + 1e-6,
                    "ewma {r} escaped [{lo}, {hi}]"
                );
            }
        });
    }
}
