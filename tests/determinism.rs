//! Workspace determinism smoke test.
//!
//! The reproduction's whole verification story rests on determinism:
//! identical configs (same seed) must yield identical runs. This test
//! pins the paper's control-plane milestones — the single-lie plan the
//! controller installs after the t=15 wave (B splits evenly over R2 and
//! R3) and the two-lie plan after the t=35 wave (A gets a 1/3–2/3
//! split toward B and R1) — and asserts both the plan structure and
//! its bit-for-bit reproducibility across two independent runs.

use fibbing::demo::{self, DemoConfig, A, B, BLUE, R1, R2, R3};
use fibbing::prelude::*;
use fibbing::scenario::runner::{build as build_scenario, RunOptions};
use fibbing::scenario::suite::load_scenario;

/// Sorted next-hop routers for `router` toward the blue prefix.
fn hops(run: &mut demo::Demo, router: RouterId) -> Vec<RouterId> {
    let mut v: Vec<RouterId> = run
        .sim
        .ctx()
        .fib_nexthops(router, BLUE)
        .iter()
        .map(|h| h.router)
        .collect();
    v.sort();
    v
}

/// Drive one demo to just past each wave and snapshot the installed
/// forwarding structure at both milestones.
#[allow(clippy::type_complexity)]
fn milestones() -> (
    Vec<RouterId>,
    Vec<RouterId>,
    Vec<RouterId>,
    Vec<RouterId>,
    String,
) {
    let mut run = demo::build(&DemoConfig::default());
    run.sim.start();

    // Past the t=15 wave: the controller has started lying at B —
    // traffic is spread over both R2 and R3 — while A is untouched.
    // (The first reaction over-provisions slots; reconciliation trims
    // it to the paper's even split by the next milestone.)
    run.sim.run_until(Timestamp::from_secs(25));
    let b_first_wave = hops(&mut run, B);
    let a_untouched = hops(&mut run, A);

    // Past the t=35 wave, settled: the single-lie plan at B (even
    // R2/R3 split) and the two-lie plan at A (three ECMP slots, two of
    // them via R1 — the 1/3–2/3 split).
    run.sim.run_until(Timestamp::from_secs(45));
    let b_single_lie = hops(&mut run, B);
    let a_two_lie = hops(&mut run, A);

    let csv = run.sim.recorder().to_csv();
    (b_first_wave, a_untouched, b_single_lie, a_two_lie, csv)
}

#[test]
fn demo_reproduces_paper_plans_deterministically() {
    let (bw1, a_idle1, b1, a1, csv1) = milestones();
    let (bw2, a_idle2, b2, a2, csv2) = milestones();

    // After the first wave, B spreads over both egresses …
    assert!(
        bw1.contains(&R2) && bw1.contains(&R3),
        "B must spread over R2 and R3 after the first wave: {bw1:?}"
    );
    // … while A still forwards only via B until its own wave hits.
    assert_eq!(a_idle1, vec![B], "A untouched until the t=35 wave");

    // The paper's single-lie plan at B: one slot each via R2 and R3.
    assert_eq!(b1, vec![R2, R3], "B's even split once plans settle");
    // The paper's two-lie plan at A: 3 slots, two of them via R1.
    assert_eq!(a1.len(), 3, "A has 3 ECMP slots after the second wave");
    assert_eq!(
        a1.iter().filter(|r| **r == R1).count(),
        2,
        "two of A's slots point at R1 (the 2/3 share)"
    );
    assert!(a1.contains(&B), "one of A's slots still points at B");

    // Same seed ⇒ same plans, same everything.
    assert_eq!(bw1, bw2, "first-wave reaction differs between runs");
    assert_eq!(a_idle1, a_idle2);
    assert_eq!(b1, b2, "single-lie plan differs between runs");
    assert_eq!(a1, a2, "two-lie plan differs between runs");
    assert_eq!(csv1, csv2, "recorded traces differ between runs");
}

/// Sorted next-hop routers toward the blue prefix, scenario flavor.
fn scenario_hops(run: &mut ScenarioRun, router: RouterId) -> Vec<RouterId> {
    let mut v: Vec<RouterId> = run
        .sim
        .ctx()
        .fib_nexthops(router, BLUE)
        .iter()
        .map(|h| h.router)
        .collect();
    v.sort();
    v
}

/// The same pinned milestones, reached through the declarative
/// scenario engine instead of the hand-wired demo module: the
/// `scenarios/paper_demo.toml` port must reproduce the paper's t=15
/// single-lie and t=35 two-lie plans, and the whole run — summary and
/// trace CSVs included — must be byte-identical across same-seed runs.
#[test]
fn scenario_paper_demo_reproduces_plans_deterministically() {
    let spec = load_scenario("paper_demo").expect("shipped spec parses");
    let milestones = || {
        let mut run = build_scenario(
            &spec,
            RunOptions {
                seed: Some(7),
                horizon_secs: Some(45.0),
                ..RunOptions::default()
            },
        )
        .expect("paper_demo builds");
        run.run_until_secs(25.0);
        let b_wave = scenario_hops(&mut run, B);
        let a_idle = scenario_hops(&mut run, A);
        run.run_until_secs(45.0);
        let b_settled = scenario_hops(&mut run, B);
        let a_settled = scenario_hops(&mut run, A);
        let report = run.finish();
        (b_wave, a_idle, b_settled, a_settled, report)
    };
    let (bw1, ai1, b1, a1, r1) = milestones();
    let (bw2, ai2, b2, a2, r2) = milestones();

    assert!(
        bw1.contains(&R2) && bw1.contains(&R3),
        "B must spread over R2 and R3 after the first wave: {bw1:?}"
    );
    assert_eq!(ai1, vec![B], "A untouched until the t=35 wave");
    assert_eq!(b1, vec![R2, R3], "B's settled single-lie plan");
    assert_eq!(a1.len(), 3, "A has 3 ECMP slots after the second wave");
    assert_eq!(a1.iter().filter(|r| **r == R1).count(), 2, "2 slots via R1");
    assert!(a1.contains(&B), "one slot still via B");

    assert_eq!(bw1, bw2);
    assert_eq!(ai1, ai2);
    assert_eq!(b1, b2);
    assert_eq!(a1, a2);
    assert_eq!(
        r1.summary_csv(),
        r2.summary_csv(),
        "scenario summary CSV differs between same-seed runs"
    );
    assert_eq!(
        r1.trace_csv, r2.trace_csv,
        "scenario trace CSV differs between same-seed runs"
    );
    // The report actually carries the signals the suite table prints.
    assert!(
        r1.peak_lies >= 2,
        "both waves install lies: {:?}",
        r1.peak_lies
    );
    assert!(r1.max_util > 0.0 && r1.qoe.sessions == 62);
}

/// The three-prefix predictive scenario without a trace sink. Besides
/// the same-seed byte identity, this is the run in which debug builds
/// recompute every reaction the controller answers from its memo and
/// compare lies and allocator state (the check stands down under a
/// sink, so the traced pin in `tests/predictive_pin.rs` does not get
/// it): 222 reactions, most of them memo hits.
#[test]
fn predictive_pin_untraced_is_deterministic() {
    let spec = load_scenario(fibbing::scenario::suite::PREDICTIVE_PIN).expect("compiled-in spec");
    let run = || {
        let mut run = build_scenario(&spec, RunOptions::default()).expect("predictive_pin builds");
        run.run_until_secs(spec.horizon_secs);
        let replayed = run.ctrl.as_ref().expect("controller").lock().stats.replayed;
        (run.finish(), replayed)
    };
    let ((a, replayed), (b, _)) = (run(), run());
    assert_eq!((a.reactions, a.injections, a.peak_lies), (222, 84, 20));
    assert_eq!(replayed, 173, "of 222 reactions answered from the memo");
    assert_eq!(a.summary_csv(), b.summary_csv());
    assert_eq!(a.trace_csv, b.trace_csv);
}
