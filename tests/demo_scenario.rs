//! End-to-end reproduction of the demo experiment (Fig. 2).
//!
//! Runs the full co-simulation — real IGP convergence, controller
//! reacting to server notifications and SNMP, video players — and
//! asserts the shape of the paper's Fig. 2: additional paths appear
//! as load increases, the maximum link load stays below capacity with
//! the controller, and playback only stutters without it.

use fibbing::demo::{self, DemoConfig, A, B, BLUE, R1, R2, R3};
use fibbing::prelude::*;

#[test]
fn fig2_with_controller_prevents_congestion() {
    let cfg = DemoConfig::default();
    let mut run = demo::build(&cfg);
    run.sim.start();
    run.sim.run_until(Timestamp::from_secs(55));
    let rec = run.sim.recorder();

    // Phase 1 (t < 15): a single ~125 kB/s flow on B–R2 only.
    let b_r2_p1 = rec.mean_over("B-R2", 8.0, 14.0).unwrap();
    assert!(
        (b_r2_p1 - demo::VIDEO_RATE).abs() < 0.2 * demo::VIDEO_RATE,
        "phase 1 B-R2 ≈ one video, got {b_r2_p1}"
    );
    assert_eq!(rec.mean_over("A-R1", 8.0, 14.0), Some(0.0));
    assert_eq!(rec.mean_over("B-R3", 8.0, 14.0), Some(0.0));

    // Phase 2 (15 < t < 35): 31 flows, fB splits B's traffic evenly
    // over B–R2 and B–R3; A–R1 still idle.
    let b_r2_p2 = rec.mean_over("B-R2", 25.0, 34.0).unwrap();
    let b_r3_p2 = rec.mean_over("B-R3", 25.0, 34.0).unwrap();
    let total_p2 = 31.0 * demo::VIDEO_RATE;
    assert!(
        (b_r2_p2 + b_r3_p2 - total_p2).abs() < 0.1 * total_p2,
        "phase 2 total: {b_r2_p2} + {b_r3_p2} vs {total_p2}"
    );
    assert!(
        (b_r2_p2 - b_r3_p2).abs() < 0.25 * total_p2,
        "phase 2 split should be roughly even: {b_r2_p2} vs {b_r3_p2}"
    );
    assert!(rec.mean_over("A-R1", 25.0, 34.0).unwrap() < 1e3);

    // Phase 3 (t > 35): 62 flows; A–R1 carries ~2/3 of S2's traffic;
    // nothing exceeds capacity.
    let a_r1_p3 = rec.mean_over("A-R1", 45.0, 54.0).unwrap();
    let s2_total = 31.0 * demo::VIDEO_RATE;
    assert!(
        (a_r1_p3 - 2.0 / 3.0 * s2_total).abs() < 0.25 * s2_total,
        "phase 3 A-R1 ≈ 2/3 of S2 ({}), got {a_r1_p3}",
        2.0 / 3.0 * s2_total
    );
    for series in ["A-R1", "B-R2", "B-R3", "R2-C", "R3-C", "R4-C"] {
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
    let cfg = DemoConfig {
        controller: false,
        ..DemoConfig::default()
    };
    let mut run = demo::build(&cfg);
    run.sim.start();
    run.sim.run_until(Timestamp::from_secs(55));
    let rec = run.sim.recorder();

    // All traffic squeezes onto B–R2–C; the link saturates.
    let b_r2 = rec.mean_over("B-R2", 45.0, 54.0).unwrap();
    assert!(
        b_r2 > 0.97 * demo::CAPACITY,
        "B-R2 should saturate, got {b_r2}"
    );
    assert_eq!(rec.mean_over("A-R1", 45.0, 54.0), Some(0.0));
    assert_eq!(rec.mean_over("B-R3", 45.0, 54.0), Some(0.0));

    // Players starve: "stutter when disabled".
    let reports = run.qoe.reports();
    let stalled = reports.iter().filter(|r| r.stalls > 0).count();
    assert!(
        stalled > 20,
        "expected widespread stalls without the controller, got {stalled}/62"
    );
}

#[test]
fn demo_is_deterministic() {
    let run_csv = || {
        let run = demo::run(&DemoConfig::default(), 40);
        run.sim.recorder().to_csv()
    };
    assert_eq!(run_csv(), run_csv());
}
