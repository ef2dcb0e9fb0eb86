//! Flash-crowd arrival schedules.
//!
//! The demo's exact workload, and the arrival processes extended
//! experiments draw their waves' start times from.

use crate::workload::Wave;
use fib_igp::time::{Dur, Timestamp};
use fib_igp::types::{Prefix, RouterId};
use rand::Rng;

/// The paper's exact schedule (Sec. 3): one flow from `s1` at t=0,
/// 30 more at t=15, then 31 flows from `s2` at t=35 — all toward the
/// blue prefix, constant-bitrate videos. One [`Wave`] per batch, so
/// tags run 0, 1–30, 31–61.
///
/// `rate` is the per-video bitrate (bytes/s); `video_secs` the clip
/// length (long enough to span the experiment).
pub fn paper_schedule(
    s1: RouterId,
    s2: RouterId,
    dst: Prefix,
    rate: f64,
    video_secs: f64,
) -> Vec<Wave> {
    [(s1, 0, 1), (s1, 15, 30), (s2, 35, 31)]
        .into_iter()
        .map(|(src, at, n)| {
            let starts = batch_starts(Timestamp::from_secs(at), n);
            Wave::constant(src, dst, rate, video_secs, starts)
        })
        .collect()
}

/// A batch: `n` starts spread over one second from `start` (launching
/// 30 players takes a moment in the real demo too) — the building
/// block of [`paper_schedule`] and of the scenario engine's constant
/// workloads and demand surges.
pub fn batch_starts(start: Timestamp, n: u32) -> Vec<Timestamp> {
    (0..u64::from(n))
        .map(|i| start + Dur::from_millis(i * 1000 / u64::from(n.max(1))))
        .collect()
}

/// A Poisson flash crowd: `n` arrivals at exponential inter-arrival
/// times of mean `mean_gap` from `start`, drawn from `rng` in arrival
/// order.
pub fn poisson_starts<R: Rng>(
    rng: &mut R,
    start: Timestamp,
    mean_gap: Dur,
    n: u32,
) -> Vec<Timestamp> {
    let mut starts = Vec::with_capacity(n as usize);
    let mut t = start;
    for _ in 0..n {
        let u: f64 = rng.gen_range(1e-9..1.0);
        let gap = Dur::from_secs_f64(-u.ln() * mean_gap.as_secs_f64());
        t += gap;
        starts.push(t);
    }
    starts
}

/// A diurnal demand mix: session arrivals whose intensity swings
/// sinusoidally between `trough_per_sec` and `peak_per_sec` with the
/// given period, over `[0, horizon_secs)` — the "daily cycle"
/// compressed into an experiment horizon.
///
/// Arrival times come from integrating the intensity (deterministic);
/// the RNG only jitters each arrival inside its integration step, so
/// the same seed always yields the same schedule. Starts are returned
/// in *generation* order: the jitter may locally reorder them, and the
/// driver sorts stably by start when it launches.
pub fn diurnal_starts<R: Rng>(
    rng: &mut R,
    horizon_secs: f64,
    period_secs: f64,
    peak_per_sec: f64,
    trough_per_sec: f64,
) -> Vec<Timestamp> {
    assert!(period_secs > 0.0, "period must be positive");
    assert!(
        peak_per_sec >= trough_per_sec && trough_per_sec >= 0.0,
        "need peak >= trough >= 0"
    );
    let mid = (peak_per_sec + trough_per_sec) / 2.0;
    let amp = (peak_per_sec - trough_per_sec) / 2.0;
    let step = 0.1; // integration step in seconds
    let mut starts = Vec::new();
    let mut acc = 0.0;
    let mut t = 0.0;
    while t < horizon_secs {
        // Trough at t=0, peak half a period in.
        let lambda = mid - amp * (2.0 * std::f64::consts::PI * t / period_secs).cos();
        acc += lambda * step;
        while acc >= 1.0 {
            acc -= 1.0;
            let jitter = rng.gen_range(0.0..step);
            starts.push(Timestamp::from_secs(0) + Dur::from_secs_f64(t + jitter));
        }
        t += step;
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    #[test]
    fn paper_schedule_is_three_waves_of_1_30_31() {
        let waves = paper_schedule(r(2), r(1), Prefix::net24(1), 125_000.0, 120.0);
        let shape: Vec<(RouterId, usize, Timestamp)> = waves
            .iter()
            .map(|w| (w.src, w.starts.len(), w.starts[0]))
            .collect();
        assert_eq!(
            shape,
            [
                (r(2), 1, Timestamp::from_secs(0)),
                (r(2), 30, Timestamp::from_secs(15)),
                (r(1), 31, Timestamp::from_secs(35)),
            ]
        );
        assert_eq!(waves.iter().map(|w| w.starts.len()).sum::<usize>(), 62);
        for w in &waves {
            // Every batch is spread over its first second, in order.
            assert!(w.starts.windows(2).all(|p| p[0] < p[1]));
            assert!(*w.starts.last().unwrap() < w.starts[0] + Dur::from_secs(1));
            assert_eq!(w.dst, Prefix::net24(1));
            assert_eq!(w.video, crate::catalog::Video::constant(120.0, 125_000.0));
        }
    }

    #[test]
    fn diurnal_mix_swings_and_is_deterministic() {
        let mk = || diurnal_starts(&mut StdRng::seed_from_u64(11), 120.0, 120.0, 1.0, 0.1);
        let a = mk();
        // Mean intensity 0.55/s over 120 s ≈ 66 arrivals.
        assert!((50..=80).contains(&a.len()), "got {}", a.len());
        // Peak half (centered on t=60) sees far more arrivals than the
        // trough halves.
        let in_range = |from: f64, to: f64| {
            a.iter()
                .filter(|t| (from..to).contains(&t.as_secs_f64()))
                .count()
        };
        assert!(in_range(30.0, 90.0) > 2 * (in_range(0.0, 30.0) + in_range(90.0, 120.0)));
        // An arrival is jittered inside its own 0.1 s step, never out
        // of it: generation order is start order up to one step.
        assert!(a.windows(2).all(|w| w[1] + Dur::from_millis(100) > w[0]));
        // Same seed ⇒ same schedule.
        assert_eq!(a, mk());
    }

    #[test]
    fn poisson_starts_are_ordered_and_deterministic() {
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            poisson_starts(
                &mut rng,
                Timestamp::from_secs(10),
                Dur::from_millis(500),
                20,
            )
        };
        let a = mk(3);
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a, mk(3));
        assert_ne!(a, mk(4));
        assert!(a[0] >= Timestamp::from_secs(10));
    }

    #[test]
    fn batch_starts_spread_over_one_second() {
        let t0 = Timestamp::from_secs(7);
        assert_eq!(batch_starts(t0, 0), []);
        assert_eq!(batch_starts(t0, 1), [t0]);
        assert_eq!(
            batch_starts(t0, 4),
            [0, 250, 500, 750].map(|ms| t0 + Dur::from_millis(ms))
        );
    }
}
