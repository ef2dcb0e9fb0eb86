//! [`TieBreak`] implementations driving explored orderings.
//!
//! Both hooks confine themselves to a `[lo, hi)` window of simulated
//! time: outside it they return the identity without recording a
//! decision, so the schedule away from the fault instant under attack
//! stays stock-FIFO and the explored state space stays tractable.
//! Every in-window decision is appended to a shared [`ScheduleLog`]
//! (the run's schedule trace, fingerprinted for distinctness
//! counting) and mirrored through [`fib_trace::order`] so an exported
//! trace audits exactly which batches were reordered.

use fib_igp::time::Timestamp;
use fib_sim_kernel::TieBreak;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use fib_trace::OrderRecord;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Shared, append-only log of the ordering decisions one run made.
pub type ScheduleLog = Arc<Mutex<Vec<OrderRecord>>>;

/// A fresh, empty schedule log.
pub fn new_log() -> ScheduleLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// Deterministic FNV-1a fingerprint of a schedule trace. Two runs
/// that made the same ordering decisions at the same instants share a
/// fingerprint; the explorer counts *distinct* fingerprints.
pub fn fingerprint(log: &[OrderRecord]) -> u64 {
    log.iter().fold(FNV_OFFSET, |h, r| {
        fnv1a(fnv1a(h, r.render().as_bytes()), b";")
    })
}

/// `n!` with saturation (21! overflows u64; ranks the explorer uses
/// are far below the saturation point, so clamping is safe).
pub fn factorial(n: usize) -> u64 {
    (1..=n as u64).fold(1u64, u64::saturating_mul)
}

/// The `rank`-th permutation of `0..n` in lexicographic order
/// (Lehmer unranking). `rank` is taken modulo `n!`.
pub fn unrank(n: usize, rank: u64) -> Vec<u32> {
    let mut rank = rank % factorial(n).max(1);
    let mut items: Vec<u32> = (0..n as u32).collect();
    let mut out = Vec::with_capacity(n);
    while !items.is_empty() {
        let f = factorial(items.len() - 1).max(1);
        let d = ((rank / f) as usize).min(items.len() - 1);
        rank %= f;
        out.push(items.remove(d));
    }
    out
}

fn is_identity(perm: &[u32]) -> bool {
    perm.iter().enumerate().all(|(i, p)| *p == i as u32)
}

/// Convert window seconds to a [`Timestamp`].
fn ts(secs: f64) -> Timestamp {
    Timestamp((secs.max(0.0) * 1e9) as u64)
}

/// Record one decision into the log and the trace audit stream.
/// Identity decisions are canonicalized to an empty permutation so a
/// random walk that happens to draw the identity fingerprints the
/// same as a plan that never touched the batch.
fn record(log: &ScheduleLog, at: Timestamp, n: usize, perm: Vec<u32>) -> Vec<u32> {
    let perm = if is_identity(&perm) { Vec::new() } else { perm };
    let rec = OrderRecord {
        sim_ns: at.0,
        batch: n as u32,
        perm: perm.clone(),
    };
    fib_trace::order(rec.clone());
    log.lock().push(rec);
    perm
}

/// Replay a fixed permutation plan: the `k`-th in-window decision
/// applies the plan's `k`-th Lehmer rank (missing entries = identity).
/// The exhaustive explorer enumerates these plans in DFS order.
pub struct PlanHook {
    lo: Timestamp,
    hi: Timestamp,
    plan: Vec<u64>,
    next: usize,
    log: ScheduleLog,
}

impl PlanHook {
    /// A hook applying `plan` inside `window` (seconds), recording
    /// every in-window decision into `log`.
    pub fn new(window: (f64, f64), plan: Vec<u64>, log: ScheduleLog) -> PlanHook {
        PlanHook {
            lo: ts(window.0),
            hi: ts(window.1),
            plan,
            next: 0,
            log,
        }
    }
}

impl TieBreak<Timestamp> for PlanHook {
    fn permute(&mut self, at: Timestamp, n: usize, out: &mut Vec<u32>) {
        if at < self.lo || at >= self.hi {
            return;
        }
        let rank = self.plan.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        let perm = if rank == 0 {
            Vec::new()
        } else {
            unrank(n, rank)
        };
        let perm = record(&self.log, at, n, perm);
        out.extend_from_slice(&perm);
    }
}

/// A seeded random walk: every in-window batch gets an independent
/// Fisher–Yates shuffle. Same seed, same walk — the explorer derives
/// one seed per walk index so walks are reproducible individually.
pub struct RandomHook {
    lo: Timestamp,
    hi: Timestamp,
    rng: StdRng,
    log: ScheduleLog,
}

impl RandomHook {
    /// A hook shuffling every batch inside `window` (seconds) from
    /// `seed`, recording decisions into `log`.
    pub fn new(window: (f64, f64), seed: u64, log: ScheduleLog) -> RandomHook {
        RandomHook {
            lo: ts(window.0),
            hi: ts(window.1),
            rng: StdRng::seed_from_u64(seed),
            log,
        }
    }
}

impl TieBreak<Timestamp> for RandomHook {
    fn permute(&mut self, at: Timestamp, n: usize, out: &mut Vec<u32>) {
        if at < self.lo || at >= self.hi {
            return;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut self.rng);
        let perm = record(&self.log, at, n, perm);
        out.extend_from_slice(&perm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_is_lexicographic_and_total() {
        assert_eq!(unrank(3, 0), vec![0, 1, 2]);
        assert_eq!(unrank(3, 1), vec![0, 2, 1]);
        assert_eq!(unrank(3, 2), vec![1, 0, 2]);
        assert_eq!(unrank(3, 5), vec![2, 1, 0]);
        // Rank wraps modulo n!.
        assert_eq!(unrank(3, 6), unrank(3, 0));
        // Every rank yields a valid permutation.
        for n in 1..6 {
            for rank in 0..factorial(n) {
                let mut p = unrank(n, rank);
                p.sort_unstable();
                assert_eq!(p, (0..n as u32).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn fingerprints_separate_schedules() {
        let a = vec![OrderRecord {
            sim_ns: 10,
            batch: 2,
            perm: vec![1, 0],
        }];
        let b = vec![OrderRecord {
            sim_ns: 10,
            batch: 2,
            perm: Vec::new(),
        }];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn plan_hook_respects_window_and_plan() {
        let log = new_log();
        let mut hook = PlanHook::new((1.0, 2.0), vec![1], log.clone());
        let mut out = Vec::new();
        // Outside the window: identity, unrecorded.
        hook.permute(ts(0.5), 3, &mut out);
        assert!(out.is_empty() && log.lock().is_empty());
        // First in-window decision: rank 1 of S_3 = [0, 2, 1].
        hook.permute(ts(1.5), 3, &mut out);
        assert_eq!(out, vec![0, 2, 1]);
        // Plan exhausted: identity, still recorded.
        out.clear();
        hook.permute(ts(1.6), 2, &mut out);
        assert!(out.is_empty());
        let log = log.lock();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].render(), "t=1500000000 n=3 perm=0.2.1");
        assert_eq!(log[1].render(), "t=1600000000 n=2 perm=id");
    }

    #[test]
    fn random_hook_is_reproducible_per_seed() {
        let run = |seed: u64| {
            let log = new_log();
            let mut hook = RandomHook::new((0.0, 10.0), seed, log.clone());
            let mut out = Vec::new();
            for i in 0..20 {
                out.clear();
                hook.permute(ts(i as f64 * 0.1), 4, &mut out);
            }
            let l = log.lock();
            fingerprint(&l)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds, different walks");
    }
}
