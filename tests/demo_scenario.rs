//! End-to-end reproduction of the demo experiment (Fig. 2).
//!
//! Runs `scenarios/paper_demo.toml` through the full co-simulation —
//! real IGP convergence, controller reacting to server notifications
//! and SNMP, video players — and asserts the shape of the paper's
//! Fig. 2: additional paths appear as load increases, the maximum link
//! load stays below capacity with the controller, and playback only
//! stutters without it. Routers are numbered as in `fibbing::demo`
//! (A = 1, B = 2, R1 = 3, R2 = 4, R3 = 5, R4 = 6, C = 7), so A-R1,
//! B-R2 and B-R3 are the series `r1-r3`, `r2-r4` and `r2-r5`.

use fibbing::demo::{self, A, B, BLUE, R1, R2, R3};
use fibbing::prelude::*;

/// The shipped spec `name`, run to `secs` with the controller's
/// `predictive` flag set and `extra` links sampled as well.
fn paper_run(name: &str, predictive: bool, extra: &[(u32, u32)], secs: f64) -> ScenarioRun {
    let mut spec = load_scenario(name).expect("shipped spec parses");
    if let Some(ctl) = spec.controller.as_mut() {
        ctl.predictive = predictive;
    }
    spec.trace_links.extend_from_slice(extra);
    let mut run = build(&spec, RunOptions::default()).expect("shipped spec builds");
    run.run_until_secs(secs);
    run
}

#[test]
fn fig2_with_controller_prevents_congestion() {
    // R2-C, R3-C and R4-C too: nothing may exceed capacity.
    let mut run = paper_run("paper_demo", true, &[(4, 7), (5, 7), (6, 7)], 55.0);
    let rec = run.sim.recorder();

    // Phase 1 (t < 15): a single ~125 kB/s flow on B–R2 only.
    let b_r2_p1 = rec.mean_over("r2-r4", 8.0, 14.0).unwrap();
    assert!(
        (b_r2_p1 - demo::VIDEO_RATE).abs() < 0.2 * demo::VIDEO_RATE,
        "phase 1 B-R2 ≈ one video, got {b_r2_p1}"
    );
    assert_eq!(rec.mean_over("r1-r3", 8.0, 14.0), Some(0.0));
    assert_eq!(rec.mean_over("r2-r5", 8.0, 14.0), Some(0.0));

    // Phase 2 (15 < t < 35): 31 flows, fB splits B's traffic evenly
    // over B–R2 and B–R3; A–R1 still idle.
    let b_r2_p2 = rec.mean_over("r2-r4", 25.0, 34.0).unwrap();
    let b_r3_p2 = rec.mean_over("r2-r5", 25.0, 34.0).unwrap();
    let total_p2 = 31.0 * demo::VIDEO_RATE;
    assert!(
        (b_r2_p2 + b_r3_p2 - total_p2).abs() < 0.1 * total_p2,
        "phase 2 total: {b_r2_p2} + {b_r3_p2} vs {total_p2}"
    );
    assert!(
        (b_r2_p2 - b_r3_p2).abs() < 0.25 * total_p2,
        "phase 2 split should be roughly even: {b_r2_p2} vs {b_r3_p2}"
    );
    assert!(rec.mean_over("r1-r3", 25.0, 34.0).unwrap() < 1e3);

    // Phase 3 (t > 35): 62 flows; A–R1 carries ~2/3 of S2's traffic;
    // nothing exceeds capacity.
    let a_r1_p3 = rec.mean_over("r1-r3", 45.0, 54.0).unwrap();
    let s2_total = 31.0 * demo::VIDEO_RATE;
    assert!(
        (a_r1_p3 - 2.0 / 3.0 * s2_total).abs() < 0.25 * s2_total,
        "phase 3 A-R1 ≈ 2/3 of S2 ({}), got {a_r1_p3}",
        2.0 / 3.0 * s2_total
    );
    for series in ["r1-r3", "r2-r4", "r2-r5", "r4-r7", "r5-r7", "r6-r7"] {
        let max = rec.max(series).unwrap_or(0.0);
        assert!(
            max <= demo::CAPACITY + 1.0,
            "{series} exceeded capacity: {max}"
        );
    }

    // The controller installed the paper's slot structure: 3 at A
    // (1×B + 2×R1), 2 at B (R2 + R3).
    let a_hops = run.sim.ctx().fib_nexthops(A, BLUE);
    let a_routers: Vec<RouterId> = a_hops.iter().map(|h| h.router).collect();
    assert_eq!(a_hops.len(), 3, "A has 3 ECMP slots: {a_hops:?}");
    assert_eq!(a_routers.iter().filter(|r| **r == R1).count(), 2);
    let b_hops = run.sim.ctx().fib_nexthops(B, BLUE);
    assert_eq!(b_hops.len(), 2, "B has 2 ECMP slots: {b_hops:?}");
    assert!(b_hops.iter().any(|h| h.router == R2));
    assert!(b_hops.iter().any(|h| h.router == R3));

    // "The video playbacks are smooth when the Fibbing controller is
    // in use": the overwhelming majority of sessions never stall.
    let reports = run.qoe.reports();
    let summary = summarize(&reports);
    assert_eq!(summary.sessions, 62);
    assert!(
        summary.smooth
            + reports
                .iter()
                .filter(|r| !r.completed && r.stalls == 0)
                .count()
            >= 58,
        "most sessions smooth, got {summary:?}"
    );
}

#[test]
fn fig2_without_controller_congests_and_stutters() {
    let run = paper_run("no_controller_baseline", true, &[], 55.0);
    let rec = run.sim.recorder();

    // All traffic squeezes onto B–R2–C; the link saturates.
    let b_r2 = rec.mean_over("r2-r4", 45.0, 54.0).unwrap();
    assert!(
        b_r2 > 0.97 * demo::CAPACITY,
        "B-R2 should saturate, got {b_r2}"
    );
    assert_eq!(rec.mean_over("r1-r3", 45.0, 54.0), Some(0.0));
    assert_eq!(rec.mean_over("r2-r5", 45.0, 54.0), Some(0.0));

    // Players starve: "stutter when disabled".
    let reports = run.qoe.reports();
    let stalled = reports.iter().filter(|r| r.stalls > 0).count();
    assert!(
        stalled > 20,
        "expected widespread stalls without the controller, got {stalled}/62"
    );
}

/// T4's two Fibbing rows, end to end, through the measurement the
/// `paper` binary renders: the seconds from the t=15 surge until B-R3
/// carries traffic, and the control packets and bytes sent over
/// 14–33 s. Without notifications the controller reacts only once the
/// polled SNMP counters raise an alarm.
#[test]
fn reaction_to_the_surge_is_pinned_with_and_without_notifications() {
    let row = |predictive: bool| {
        let (secs, pkts, bytes) =
            demo::surge_reaction(&mut paper_run("paper_demo", predictive, &[], 0.0));
        (secs.map(|s| format!("{s:.3}")), pkts, bytes)
    };
    assert_eq!(row(true), (Some("0.900".into()), 364, 12_067));
    assert_eq!(row(false), (Some("4.100".into()), 364, 8_437));
}
