//! Guard rails for the incremental data plane.
//!
//! The dirty-set machinery is invisible in functional tests — a
//! regression back to global recompute would still produce correct
//! traces, just O(flows × events) slower. These tests pin the
//! *counters*: across a controller-on scenario with flow churn, lie
//! churn, and a link failure, most path resolutions must be skipped,
//! the allocator must answer some reallocations from cache, and
//! lie-only SPF runs must stay partial.

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

    // Reallocations whose inputs did not change (FIB churn that moved
    // no path) must be answered from the allocator cache.
    assert!(
        stats.alloc_skips > 0,
        "allocator never skipped: fills {} skips {}",
        stats.alloc_fills,
        stats.alloc_skips
    );
    assert_eq!(stats.alloc_fills + stats.alloc_skips, stats.reallocs);

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
            stats.alloc_fills,
            stats.alloc_skips,
            stats.spf_full_runs,
            stats.spf_partial_runs,
        ),
        (
            again.events,
            again.reallocs,
            again.paths_resolved,
            again.paths_skipped,
            again.alloc_fills,
            again.alloc_skips,
            again.spf_full_runs,
            again.spf_partial_runs,
        ),
        "incrementality counters are not deterministic"
    );
}
