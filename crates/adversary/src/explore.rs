//! The schedule explorer: enumerate same-timestamp interleavings.
//!
//! ## Exploration model
//!
//! A *decision point* is a batch of ≥ 2 events sharing one timestamp
//! inside the configured window; the kernel's [`TieBreak`] hook lets
//! us serve the batch in any order. A *plan* is a vector of Lehmer
//! ranks, one per decision point in encounter order; the empty plan
//! is the stock-FIFO identity schedule. Plans are enumerated DFS,
//! canonically (every enqueued plan ends in a nonzero rank, so no
//! schedule is run twice): running a plan of length `k` reveals the
//! batch sizes of every later decision *under that prefix*, which is
//! exactly what's needed to expand its children — decision `k+j`'s
//! batch size under `plan ++ zeros` equals what the parent run
//! observed, because the schedules coincide up to that point.
//!
//! After the bounded exhaustive phase, seeded random walks
//! ([`RandomHook`]) sample the deeper space: walk `w` shuffles every
//! in-window batch from seed `seed ⊕ w·φ64`, so each walk is
//! individually replayable.
//!
//! The identity run's report gives the `[expect]` stanza every other
//! schedule is judged against with [`ExpectSpec::check`] (no new
//! forwarding loop, a bounded blackout, every lie retracted; see
//! `docs/ADVERSARY.md`); every schedule trace is fingerprinted, and
//! the sorted set of distinct fingerprints is folded into a digest CI
//! byte-compares across double runs.
//!
//! [`TieBreak`]: fib_sim_kernel::TieBreak

use crate::hook::{factorial, fingerprint, new_log, PlanHook, RandomHook, ScheduleLog};
use crate::{judge, run_checked, safety_stanza};
use fib_igp::time::Timestamp;
use fib_scenario::prelude::*;
use fib_sim_kernel::TieBreak;
use fib_trace::OrderRecord;
use std::collections::BTreeSet;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Explorer configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Simulated-time window `[lo, hi)` (seconds) inside which ties
    /// are permuted; pick it around the fault instant under attack.
    pub window: (f64, f64),
    /// Decision points the exhaustive phase may branch over.
    pub max_depth: usize,
    /// Permutations considered per decision point (caps `n!`).
    pub perm_cap: u64,
    /// Run budget for the exhaustive phase (identity run included).
    pub max_runs: usize,
    /// Seeded random walks after the exhaustive phase.
    pub walks: usize,
    /// Base seed for the walk RNGs.
    pub seed: u64,
    /// Horizon override (seconds) — shrink it to the window plus
    /// settle margin to afford more runs.
    pub horizon_secs: Option<f64>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            window: (14.0, 16.0),
            max_depth: 4,
            perm_cap: 6,
            max_runs: 96,
            walks: 64,
            seed: 0xF1B,
            horizon_secs: None,
        }
    }
}

/// What one exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Scenario explored.
    pub scenario: String,
    /// The permutation window (seconds).
    pub window: (f64, f64),
    /// Total runs (identity + exhaustive + walks).
    pub runs: usize,
    /// Runs in the exhaustive phase (identity included).
    pub exhaustive_runs: usize,
    /// Random-walk runs.
    pub walk_runs: usize,
    /// Distinct schedule fingerprints observed.
    pub distinct: usize,
    /// Most in-window decision points any single run saw.
    pub max_decisions: usize,
    /// Largest same-timestamp batch any in-window decision had.
    pub max_batch: usize,
    /// Violated bounds, one string each (empty = all safe).
    pub violations: Vec<String>,
    /// FNV fold of the sorted distinct fingerprints (deterministic;
    /// CI byte-compares it across double runs).
    pub digest: u64,
    /// The identity run, whose report the judging stanza came from.
    pub identity: ScenarioReport,
}

fn plan_label(plan: &[u64]) -> String {
    let ranks: Vec<String> = plan.iter().map(|r| r.to_string()).collect();
    format!("plan=[{}]", ranks.join(","))
}

/// Push the canonical children of `plan` (run with trace `trace`):
/// every extension by zeros followed by one nonzero rank, bounded by
/// depth and the per-decision permutation cap.
fn expand(stack: &mut Vec<Vec<u64>>, plan: &[u64], trace: &[OrderRecord], cfg: &ExploreConfig) {
    let upto = cfg.max_depth.min(trace.len());
    for (k, rec) in trace.iter().enumerate().take(upto).skip(plan.len()) {
        let n = rec.batch as usize;
        let total = factorial(n).min(cfg.perm_cap);
        // Reverse so DFS visits low ranks first.
        for rank in (1..total).rev() {
            let mut child = plan.to_vec();
            child.resize(k, 0);
            child.push(rank);
            stack.push(child);
        }
    }
}

/// What the schedules run so far have shown.
struct Tally<'a> {
    spec: &'a ScenarioSpec,
    horizon_secs: Option<f64>,
    /// The stanza every schedule is judged against (empty, so judging
    /// nothing, until the identity run has given it).
    expect: ExpectSpec,
    distinct: BTreeSet<u64>,
    max_decisions: usize,
    max_batch: usize,
    violations: Vec<String>,
}

impl Tally<'_> {
    /// Run one schedule, `hook` on a fresh log breaking its ties: fold
    /// its trace into the tally, [`judge`] its report under `label`,
    /// and return both.
    fn visit<H: TieBreak<Timestamp> + 'static>(
        &mut self,
        label: &str,
        hook: impl FnOnce(ScheduleLog) -> H,
    ) -> Result<(ScenarioReport, Vec<OrderRecord>), SpecError> {
        let log = new_log();
        let (report, cycles) = run_checked(
            self.spec,
            self.horizon_secs,
            Some(Box::new(hook(log.clone()))),
        )?;
        let trace = std::mem::take(&mut *log.lock());
        self.distinct.insert(fingerprint(&trace));
        self.max_decisions = self.max_decisions.max(trace.len());
        let batch = trace.iter().map(|r| r.batch as usize).max().unwrap_or(0);
        self.max_batch = self.max_batch.max(batch);
        self.violations
            .extend(judge(label, &self.expect, &report, &cycles));
        Ok((report, trace))
    }
}

/// Explore `spec`'s same-timestamp interleavings per `cfg`.
pub fn explore(spec: &ScenarioSpec, cfg: &ExploreConfig) -> Result<ExploreOutcome, SpecError> {
    let mut tally = Tally {
        spec,
        horizon_secs: cfg.horizon_secs,
        expect: ExpectSpec::default(),
        distinct: BTreeSet::new(),
        max_decisions: 0,
        max_batch: 0,
        violations: Vec::new(),
    };
    // The identity run gives the stanza; an identity run that
    // micro-loops during reconvergence leaves loops unbounded for the
    // whole exploration (the outcome's identity report records it).
    let (identity, identity_trace) =
        tally.visit("identity", |log| PlanHook::new(cfg.window, Vec::new(), log))?;
    tally.expect = safety_stanza(&identity);
    let mut exhaustive_runs = 1usize;

    // Bounded-exhaustive DFS over canonical plans.
    let mut stack: Vec<Vec<u64>> = Vec::new();
    expand(&mut stack, &[], &identity_trace, cfg);
    while let Some(plan) = stack.pop() {
        if exhaustive_runs >= cfg.max_runs {
            break;
        }
        let (_, trace) = tally.visit(&plan_label(&plan), |log| {
            PlanHook::new(cfg.window, plan.clone(), log)
        })?;
        exhaustive_runs += 1;
        expand(&mut stack, &plan, &trace, cfg);
    }

    // Seeded random walks into the deeper space.
    for w in 0..cfg.walks {
        let walk_seed = cfg.seed ^ (w as u64).wrapping_mul(GOLDEN);
        tally.visit(&format!("walk={w}"), |log| {
            RandomHook::new(cfg.window, walk_seed, log)
        })?;
    }

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for fp in &tally.distinct {
        digest ^= *fp;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }

    Ok(ExploreOutcome {
        scenario: spec.name.clone(),
        window: cfg.window,
        runs: exhaustive_runs + cfg.walks,
        exhaustive_runs,
        walk_runs: cfg.walks,
        distinct: tally.distinct.len(),
        max_decisions: tally.max_decisions,
        max_batch: tally.max_batch,
        violations: tally.violations,
        digest,
        identity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small scenario with a fault inside the window: enough event
    /// traffic for real decision points, fast enough for debug tests.
    fn spec() -> ScenarioSpec {
        ScenarioSpec::from_toml_str(
            r#"
name = "explore_tiny"
horizon_secs = 18.0
seed = 3
capacity = 1e6
sinks = [3]

[topology]
kind = "ring"
n = 4

[controller]
attach = 2
default_flow_rate = 100000.0

[[workload]]
kind = "constant"
at = 5.0
src = 1
n = 10
rate = 1e5
video_secs = 60.0

[[event]]
at = 12.0
action = "fail_link"
a = 1
b = 2
"#,
        )
        .unwrap()
    }

    fn cfg() -> ExploreConfig {
        ExploreConfig {
            window: (11.5, 12.5),
            max_depth: 2,
            perm_cap: 2,
            max_runs: 6,
            walks: 4,
            seed: 9,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn exploration_is_deterministic_and_finds_interleavings() {
        let a = explore(&spec(), &cfg()).unwrap();
        let b = explore(&spec(), &cfg()).unwrap();
        assert_eq!(a.digest, b.digest, "same seed, same schedule set");
        assert_eq!(a.distinct, b.distinct);
        assert_eq!(a.violations, b.violations);
        assert!(
            a.distinct > 1,
            "window around the failure must expose ties: {a:?}"
        );
        assert!(a.max_decisions > 0);
        assert!(
            a.violations.is_empty(),
            "tiny ring is safe: {:?}",
            a.violations
        );
    }

    #[test]
    fn identity_only_exploration_counts_one_schedule() {
        let mut c = cfg();
        c.max_runs = 1; // identity only
        c.walks = 0;
        let out = explore(&spec(), &c).unwrap();
        assert_eq!(out.runs, 1);
        assert_eq!(out.distinct, 1);
    }
}
