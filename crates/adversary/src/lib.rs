//! # fib-adversary — hunt the races and QoE cliffs nobody scripted
//!
//! Every pinned artifact in this workspace proves the simulator is
//! deterministic; none of them proves the *system under test* is
//! robust to orderings the stable FIFO tie-break happens not to
//! produce. Real networks have no such tie-break: an LSA and an SNMP
//! poll landing "at the same time" arrive in whichever order the wires
//! decide. This crate attacks that gap from two sides:
//!
//! * the **schedule explorer** ([`explore`]) replays a pinned scenario
//!   while driving the event kernel's [`fib_sim_kernel::TieBreak`]
//!   hook: within a time window around a fault instant it permutes
//!   every batch of same-timestamp events — exhaustively up to a
//!   bounded depth (Lehmer-unranked permutation plans), then with
//!   seeded random walks — and judges every interleaving against an
//!   `[expect]` stanza derived from the identity run
//!   (forwarding loop-freedom at settle points,
//!   bounded unroutable flow-seconds, eventual lie retraction);
//! * the **scenario fuzzer** ([`fuzz`]) mutates [`ScenarioSpec`]s
//!   (shift/duplicate/reorder fault-script entries, scale crowds and
//!   capacities, retarget link faults onto bridges), scores runs
//!   against one-bound stanzas of the same kind (loops, blackouts,
//!   QoE cliffs), **minimizes** finds by
//!   greedy mutation-reversal, and archives them as replayable
//!   regression files under `scenarios/found/` with an `[expect]`
//!   stanza the suite runner enforces.
//!
//! Everything is deterministic: the same seed reproduces the same
//! plans, the same walks, the same finds, and the same schedule
//! fingerprints — CI double-runs the whole thing and byte-diffs the
//! artifact. Exploration decisions are additionally audited through
//! [`fib_trace::order`], so an exported Chrome trace of an adversary
//! run shows exactly which batches were reordered and how.
//!
//! See `docs/ADVERSARY.md` for the exploration model, the derived
//! stanza, and the found-corpus lifecycle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explore;
pub mod fuzz;
pub mod hook;
pub mod minimize;
pub mod mutate;

pub use fib_scenario::prelude::ScenarioSpec;

use fib_igp::time::Timestamp;
use fib_scenario::prelude::*;
use fib_sim_kernel::TieBreak;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::explore::{explore, ExploreConfig, ExploreOutcome};
    pub use crate::fuzz::{archive_find, fuzz, Find, FuzzConfig, FuzzOutcome};
    pub use crate::hook::{
        factorial, fingerprint, new_log, unrank, PlanHook, RandomHook, ScheduleLog,
    };
    pub use crate::minimize::minimize;
    pub use crate::mutate::{apply, apply_all, bridges, gen_mutations, Mutation};
}

/// The bounds every explored schedule must keep, derived from the
/// identity (stock-FIFO) run `identity`. A permuted schedule may move
/// *performance*, not *safety*:
///
/// 1. **Forwarding loop-freedom** — if the identity run is loop-free,
///    no settle point of any schedule may hold a forwarding cycle
///    (`max_fwd_loops = 0`). Some fault scripts micro-loop during
///    reconvergence under the stock schedule too; then loops are no
///    violation and the bound is left out.
/// 2. **Bounded unroutable flow-seconds** — reordering inside a small
///    window may lengthen a convergence gap, not open a blackout:
///    `max_unroutable_flow_secs = 10 × identity + 5`, so a
///    blackout-free identity run still tolerates 5 s of jitter.
/// 3. **Eventual lie retraction** — if the identity run retracts every
///    lie, so must every schedule (`max_final_lies = 0`): a lie that
///    survives only under some orderings is a retraction race.
pub(crate) fn safety_stanza(identity: &ScenarioReport) -> ExpectSpec {
    ExpectSpec {
        max_fwd_loops: (identity.fwd_loop_settles == 0).then_some(0),
        max_unroutable_flow_secs: Some(10.0 * identity.unroutable_flow_secs + 5.0),
        max_final_lies: (identity.final_lies == 0).then_some(0),
        ..ExpectSpec::default()
    }
}

/// Judge one schedule's `report` against `expect`: one line per
/// violated bound in the suite's `expect:` form, prefixed with the
/// schedule's `label`. A broken loop bound also carries the probe's
/// rendered `cycles`; the other bounds are checked without them.
pub(crate) fn judge(
    label: &str,
    expect: &ExpectSpec,
    report: &ScenarioReport,
    cycles: &[String],
) -> Vec<String> {
    let loops = ExpectSpec {
        max_fwd_loops: expect.max_fwd_loops,
        ..ExpectSpec::default()
    };
    let rest = ExpectSpec {
        max_fwd_loops: None,
        ..expect.clone()
    };
    let detail = match cycles {
        [] => String::new(),
        _ => format!(" ({})", cycles.join("; ")),
    };
    let mut out = rest.check(report);
    out.extend(loops.check(report).into_iter().map(|v| v + &detail));
    out.into_iter().map(|v| format!("{label}: {v}")).collect()
}

/// One run of `spec` to its horizon (or `horizon_secs`) with the loop
/// probe armed and `hook`, if any, breaking same-timestamp ties.
/// Returns the report and the cycles the probe logged, rendered (the
/// log is capped; the report's settle count is not).
pub(crate) fn run_checked(
    spec: &ScenarioSpec,
    horizon_secs: Option<f64>,
    hook: Option<Box<dyn TieBreak<Timestamp>>>,
) -> Result<(ScenarioReport, Vec<String>), SpecError> {
    let opts = RunOptions {
        horizon_secs,
        check_loops: true,
        ..RunOptions::default()
    };
    let mut run = build(spec, opts)?;
    run.sim.set_tie_break(hook);
    let horizon = run.horizon_secs();
    run.run_until_secs(horizon);
    let cycles = run
        .sim
        .loop_violations()
        .iter()
        .map(|v| {
            let path: Vec<String> = v.cycle.iter().map(|r| r.0.to_string()).collect();
            format!(
                "t={:.3}s prefix={:?} cycle={}",
                v.at.as_secs_f64(),
                v.prefix,
                path.join("->")
            )
        })
        .collect();
    Ok((run.finish(), cycles))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fib_video::prelude::QoeSummary;

    /// A clean hand-built report: one session, no loop, no blackout,
    /// every lie retracted.
    pub(crate) fn report() -> ScenarioReport {
        ScenarioReport {
            name: "t".into(),
            seed: 1,
            horizon_secs: 10.0,
            routers: 3,
            links: 3,
            sessions: 1,
            max_util: 0.5,
            mean_util: 0.2,
            peak_lies: 1,
            final_lies: 0,
            injections: 1,
            retractions: 1,
            reactions: 1,
            reaction_secs: None,
            unroutable_flow_secs: 0.0,
            fwd_loop_settles: 0,
            ctrl_pkts: 0,
            ctrl_bytes: 0,
            qoe: QoeSummary {
                sessions: 1,
                mean_score: 0.9,
                ..QoeSummary::default()
            },
            trace_csv: String::new(),
        }
    }

    #[test]
    fn the_derived_stanza_trips_each_bound_on_its_own() {
        let clean = report();
        let mut identity = report();
        identity.unroutable_flow_secs = 1.0;
        let stanza = safety_stanza(&identity);
        assert!(stanza.check(&clean).is_empty());
        assert!(stanza.check(&identity).is_empty(), "identity passes itself");

        let mut loops = report();
        loops.fwd_loop_settles = 2;
        let v = stanza.check(&loops);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("expect: fwd_loops = 2 > max 0"), "{v:?}");

        let mut blackout = report();
        blackout.unroutable_flow_secs = 15.5;
        let v = stanza.check(&blackout);
        assert_eq!(v.len(), 1, "bound is 10*1+5=15: {v:?}");
        assert!(v[0].starts_with("expect: unroutable_flow_secs"), "{v:?}");
        blackout.unroutable_flow_secs = 15.0;
        assert!(stanza.check(&blackout).is_empty(), "the bound is inclusive");

        let mut stuck = report();
        stuck.final_lies = 3;
        let v = stanza.check(&stuck);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("expect: final_lies = 3 > max 0"), "{v:?}");

        // A looping identity run drops the loop bound; a lie-keeping
        // one drops the lie bound.
        let mut loopy = identity.clone();
        loopy.fwd_loop_settles = 1;
        assert_eq!(safety_stanza(&loopy).max_fwd_loops, None);
        assert!(safety_stanza(&loopy).check(&loops).is_empty());
        let mut dirty = identity.clone();
        dirty.final_lies = 1;
        assert_eq!(safety_stanza(&dirty).max_final_lies, None);
        assert!(safety_stanza(&dirty).check(&stuck).is_empty());

        // A blackout-free identity run still tolerates 5 s.
        let calm = safety_stanza(&clean);
        blackout.unroutable_flow_secs = 5.0;
        assert!(calm.check(&blackout).is_empty());
        blackout.unroutable_flow_secs = 5.001;
        assert_eq!(calm.check(&blackout).len(), 1);

        // Judging labels every violation; only the loop line carries
        // the probe's cycles, also when the same run breaks a second
        // bound.
        let cycles = ["cycle 1->2->1".to_string()];
        let v = judge("plan=[0,1]", &stanza, &loops, &cycles);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("plan=[0,1]: expect: fwd_loops = 2 > max 0"));
        assert!(v[0].ends_with(" (cycle 1->2->1)"), "{v:?}");
        let mut both = loops.clone();
        both.unroutable_flow_secs = 15.5;
        let v = judge("walk=3", &stanza, &both, &cycles);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("walk=3: expect: unroutable_flow_secs"));
        assert!(!v[0].contains("cycle"), "{v:?}");
        assert!(v[1].starts_with("walk=3: expect: fwd_loops = 2 > max 0"));
        assert!(v[1].contains("cycle 1->2->1"), "{v:?}");
        assert!(judge("walk=3", &stanza, &clean, &cycles).is_empty());
    }
}
