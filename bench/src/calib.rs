//! Calibrated host time.
//!
//! On the shared 2-vCPU reference host the same code runs anywhere
//! between 1x and 1.6x its best speed, in regimes that last from a few
//! seconds to a minute: 25 consecutive reps of one workload spread by
//! 22-36 % (interquartile, as a share of the median). No bound the
//! benchmark could state survives that, so timed reps are run in small
//! slices with a fixed, std-only *calibration burst* between them, and
//! the rep's time is divided by how much slower than nominal the
//! bursts ran. Measured on that host: raw interquartile spread 22 %,
//! calibrated 4.6 %. The burst is part of the benchmark, not of the
//! program, so a change to the program cannot move it.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// Rounds of the mixed loop in one burst (about 3 ms).
const BURST_ROUNDS: u64 = 12_000;

/// What one burst takes on the reference host at its usual best speed.
/// Calibrated seconds are host seconds at this speed.
pub const NOMINAL_BURST_S: f64 = 3.0e-3;

/// Host seconds of measured work after which the next burst is due.
const SPACING_S: f64 = 0.040;

/// One burst: ordered-map inserts, removals and range lookups over
/// small heap vectors — branchy, allocating, pointer-chasing work with
/// the same sensitivity to a busy host as the simulator's own
/// (a dependent arithmetic chain slows down far less than the
/// workloads do and tracks them poorly). Returns host seconds.
pub fn burst() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..BURST_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 4096;
        map.entry(key).or_default().push(i);
        if i % 3 == 0 {
            if let Some(v) = map.remove(&((x >> 20) % 4096)) {
                acc = acc.wrapping_add(v.iter().sum::<u64>());
            }
        }
        if let Some((_, v)) = map.range(key..).next() {
            acc ^= v.len() as u64;
        }
    }
    std::hint::black_box((map, acc));
    t.elapsed().as_secs_f64()
}

/// `jobs` bursts at once, one per thread, timed until the last is
/// done: what a workload that keeps `jobs` workers busy is calibrated
/// against (a second vCPU that other tenants are using slows such a
/// workload down without slowing a single-threaded burst).
fn burst_on(jobs: usize) -> f64 {
    if jobs <= 1 {
        return burst();
    }
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(burst);
        }
        burst();
    });
    t.elapsed().as_secs_f64()
}

/// Median host milliseconds of twenty bursts (`bench.calib_ms`).
pub fn calib_ms() -> f64 {
    let samples: Vec<f64> = (0..20).map(|_| burst() * 1e3).collect();
    median(&samples)
}

/// Interleaves bursts with slices of measured work and turns the
/// work's host seconds into calibrated seconds: each stretch of work
/// between two bursts is divided by how much slower than nominal those
/// two bursts ran (their mean), so a slow spell only discounts the
/// work done during it.
#[derive(Debug)]
pub struct Calibrator {
    jobs: usize,
    last_burst_s: f64,
    open_s: f64,
    raw_s: f64,
    cal_s: f64,
}

impl Calibrator {
    /// Start measuring work that keeps `jobs` threads busy: one burst
    /// (on that many threads) up front.
    pub fn start(jobs: usize) -> Calibrator {
        Calibrator {
            jobs,
            last_burst_s: burst_on(jobs),
            open_s: 0.0,
            raw_s: 0.0,
            cal_s: 0.0,
        }
    }

    /// Close the open stretch of work with a burst that took `now_s`.
    fn close(&mut self, now_s: f64) {
        let slowdown = (self.last_burst_s + now_s) / 2.0 / NOMINAL_BURST_S;
        self.cal_s += self.open_s / slowdown;
        self.open_s = 0.0;
        self.last_burst_s = now_s;
    }

    /// Account `secs` of measured work; run a burst if one is due.
    pub fn worked(&mut self, secs: f64) {
        self.raw_s += secs;
        self.open_s += secs;
        if self.open_s >= SPACING_S {
            self.close(burst_on(self.jobs));
        }
    }

    /// Finish with a closing burst: `(host seconds, calibrated
    /// seconds)` of the measured work.
    pub fn finish(mut self) -> (f64, f64) {
        if self.open_s > 0.0 {
            self.close(burst_on(self.jobs));
        }
        (self.raw_s, self.cal_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_stretch_is_discounted_by_its_own_bursts() {
        let mut c = Calibrator {
            jobs: 1,
            last_burst_s: 2.0 * NOMINAL_BURST_S,
            open_s: 0.0,
            raw_s: 0.0,
            cal_s: 0.0,
        };
        // Half the spacing: no burst yet, nothing calibrated yet.
        c.worked(SPACING_S / 2.0);
        assert_eq!((c.cal_s, c.open_s), (0.0, SPACING_S / 2.0));
        // A stretch between a 2x-slow and a 1x burst ran 1.5x slow.
        c.close(NOMINAL_BURST_S);
        assert!((c.cal_s - SPACING_S / 2.0 / 1.5).abs() < 1e-15);
        assert_eq!(c.open_s, 0.0);
        // The next stretch, between two nominal bursts, counts in full.
        c.open_s = 1.0;
        c.raw_s += 1.0;
        c.close(NOMINAL_BURST_S);
        assert!((c.cal_s - (SPACING_S / 2.0 / 1.5 + 1.0)).abs() < 1e-12);
        assert!((c.raw_s - (SPACING_S / 2.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn work_past_the_spacing_triggers_a_burst() {
        let mut c = Calibrator::start(2);
        c.worked(SPACING_S);
        assert_eq!(c.open_s, 0.0, "the stretch was closed by a burst");
        let (raw, cal) = c.finish();
        assert!(raw >= SPACING_S && cal > 0.0);
        assert!(burst() > 0.0);
    }
}
