//! Guard rails for the incremental data plane.
//!
//! The dirty-set machinery is invisible in functional tests — a
//! regression back to global recompute would still produce correct
//! traces, just O(flows × events) slower. These tests pin the
//! *counters*: across a controller-on scenario with flow churn, lie
//! churn, and a link failure, most path resolutions must be skipped
//! and lie-only SPF runs must stay partial. The video players get the
//! same kind of guard: a driver that walked every session at every tick
//! would still give every report, and only its count of player updates
//! shows it.

use fibbing::netsim::sim::SimStats;
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::spec::ScenarioSpec;

/// A compact controller-on scenario with everything the dirty set
/// tracks: a flash crowd (flow churn), an overloaded shortest path
/// (lie churn), a failure and recovery (link + FIB invalidations).
const SPEC: &str = r#"
name = "incremental-guard"
description = "counter guard for dirty-set recompute"
horizon_secs = 40.0
seed = 5
capacity = 2.5e6
sinks = [25]

[topology]
kind = "grid"
rows = 5
cols = 5

[controller]
attach = 25
target_util = 0.6
default_flow_rate = 100000.0

[[workload]]
kind = "constant"
at = 8.0
src = 1
n = 50
rate = 1e5
video_secs = 120.0

[[workload]]
kind = "constant"
at = 10.0
src = 5
n = 50
rate = 1e5
video_secs = 120.0

[[event]]
at = 20.0
action = "fail_link"
a = 24
b = 25

[[event]]
at = 30.0
action = "restore_link"
a = 24
b = 25
"#;

fn run_guard() -> (SimStats, u64) {
    let spec = ScenarioSpec::from_toml_str(SPEC).unwrap();
    let mut run = build(&spec, RunOptions::default()).unwrap();
    run.run_until_secs(40.0);
    let injections = run
        .ctrl
        .as_ref()
        .expect("controller on")
        .lock()
        .stats
        .injections;
    (run.sim.stats(), injections)
}

#[test]
fn dirty_set_counters_prove_incrementality() {
    let (stats, injections) = run_guard();

    // The engine reallocated and resolved paths at all.
    assert!(stats.reallocs > 40, "reallocs: {}", stats.reallocs);
    assert!(
        stats.paths_resolved > 100,
        "paths_resolved: {}",
        stats.paths_resolved
    );

    // The heart of the guard: the old engine re-resolved every flow at
    // every reallocation (`paths_resolved + paths_skipped` is exactly
    // that count, so a regression to global recompute lands at ratio
    // 1). This deliberately lie-churn-heavy scenario still skips over
    // half the work (observed ~2.7x; the 14-170x ratios of the larger
    // workloads are the ledger's `netsim.resolve_ratio`, in `bench/`).
    let naive = stats.paths_resolved + stats.paths_skipped;
    assert!(
        stats.paths_resolved * 2 <= naive,
        "dirty-set resolution no longer incremental: resolved {} of naive {}",
        stats.paths_resolved,
        naive
    );

    // Every reallocation fills; the two allocator fields are kept for
    // the ledger benchmark and say so.
    assert_eq!((stats.alloc_fills, stats.alloc_skips), (stats.reallocs, 0));

    // The controller lied (the scenario overloads the shortest path),
    // and lie churn must ride the partial-SPF path, not full Dijkstra.
    assert!(injections > 0, "no lies injected");
    assert!(
        stats.spf_partial_runs > 0,
        "lie churn re-ran full SPF everywhere: full {} partial {}",
        stats.spf_full_runs,
        stats.spf_partial_runs
    );

    // Full runs still happen (startup convergence + the failure), but
    // partial runs must not degenerate to zero share.
    assert!(stats.spf_full_runs > 0);

    // And the counters themselves are part of the determinism
    // contract: a second same-seed run must reproduce them exactly.
    let (again, _) = run_guard();
    assert_eq!(
        (
            stats.events,
            stats.reallocs,
            stats.paths_resolved,
            stats.paths_skipped,
            stats.spf_full_runs,
            stats.spf_partial_runs,
        ),
        (
            again.events,
            again.reallocs,
            again.paths_resolved,
            again.paths_skipped,
            again.spf_full_runs,
            again.spf_partial_runs,
        ),
        "incrementality counters are not deterministic"
    );
}

/// `churn_pin`'s spec: 1 200 viewers over 22 simulated seconds, without
/// a controller, through a failure and a brown-out.
const CHURN: &str = include_str!("common/churn_pin.toml");

/// The players sleep: a session is touched where its flow changes class
/// or runs at a rate of its own, and at the tick its cap flip or stop
/// falls due; a class's rate change touches no player, only its class's
/// clock. On `churn_pin`'s run the driver makes 4 909 player updates,
/// 0.019 of sessions × ticks (1 200 × 220). Handing every member's rate
/// change to its player made 87 135 (0.33), and the walk over every
/// playing session at every tick before that 145 000 (0.55); both fail
/// the bound of 0.066 here, a fifth of 0.33. (Saturated links make this
/// the players' worst case: nearly every settle moves the fair share of
/// every class on them.)
#[test]
fn players_are_touched_only_where_rates_change_or_actions_fall_due() {
    let spec = ScenarioSpec::from_toml_str(CHURN).expect("churn_pin's spec parses");
    let mut run = build(&spec, RunOptions::default()).expect("churn_pin builds");
    run.run_until_secs(spec.horizon_secs);
    let updates = run.qoe.player_updates();
    let sessions = run.qoe.reports().len() as u64;
    let ticks = (spec.horizon_secs * 10.0).round() as u64;
    assert_eq!((sessions, ticks), (1200, 220));
    assert!(
        updates * 1000 <= sessions * ticks * 66,
        "{updates} player updates for {sessions} sessions over {ticks} ticks: \
         more than 0.066 of them, so players take their members' rate changes again"
    );
}

/// After the fill, a settle looks only at the flows whose rate may
/// have moved: the members of the classes whose rate bits changed, the
/// flows whose class changed, and the flows frozen alone at that fill
/// or the one before. On `churn_pin`'s run that is 87 040 flows over
/// its settles, where a walk over the live flows at every settle — what
/// the spread did before it went by class — makes `paths_resolved +
/// paths_skipped`.
#[test]
fn a_settle_looks_at_the_flows_whose_rate_may_move_not_at_every_live_one() {
    let spec = ScenarioSpec::from_toml_str(CHURN).expect("churn_pin's spec parses");
    let mut run = build(&spec, RunOptions::default()).expect("churn_pin builds");
    run.run_until_secs(spec.horizon_secs);
    let stats = run.sim.stats();
    let walked = stats.paths_resolved + stats.paths_skipped;
    assert!(
        stats.settle_visits < walked,
        "{} flows looked at, against {walked} live over the settles",
        stats.settle_visits
    );
    assert_eq!((stats.settle_visits, walked), (87_040, 151_520));
}
