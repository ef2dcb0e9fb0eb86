//! Resilience scenarios beyond the paper's happy path: link failure
//! during the flash crowd, and two concurrent crowds toward different
//! prefixes (the controller manages lies per destination).

use fibbing::demo::{A, B, BLUE, C, CAPACITY, PAPER_LINKS, R1, R2, R3, R4};
use fibbing::prelude::*;

/// The Fig. 1a network with the calibrated links, `prefixes` announced
/// and a controller (optimizer budget 0.5) peering at R3; not started.
fn paper_sim(prefixes: &[(RouterId, Prefix)]) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    for r in [A, B, R1, R2, R3, R4, C] {
        sim.add_router(r);
    }
    for (a, b, w) in PAPER_LINKS {
        sim.add_link(LinkSpec::new(a, b, Metric(w), CAPACITY));
    }
    for (router, prefix) in prefixes {
        sim.announce_prefix(*router, *prefix);
    }
    sim.add_controller_speaker(RouterId(100), R3);
    let mut ctl = ControllerConfig::new(RouterId(100));
    ctl.target_util = 0.5;
    sim.add_app(Box::new(FibbingController::new(ctl)));
    sim
}

/// Run to `at`, then start a flow there from host code.
fn start_at(sim: &mut Sim, at: Timestamp, spec: FlowSpec) -> FlowId {
    sim.run_until(at);
    sim.ctx().start_flow(spec)
}

/// During the controlled flash crowd of `paper_demo`, the B–R2 link
/// dies. The IGP reconverges, flows reroute, and — crucially — the
/// injected lies do not trap traffic: everything keeps being delivered
/// loop-free.
#[test]
fn link_failure_during_crowd_reroutes() {
    let mut spec = load_scenario("paper_demo").expect("shipped spec parses");
    spec.events.push(EventSpec {
        at: 45.0,
        kind: EventKind::FailLink { a: B.0, b: R2.0 },
    });
    let mut run = build(&spec, RunOptions::default()).expect("paper_demo builds");
    run.run_until_secs(55.0);

    // B must have rerouted everything away from the dead link (B-R2,
    // B-R3 and A-R1 are the spec's `r2-r4`, `r2-r5` and `r1-r3`).
    let rec = run.sim.recorder();
    let b_r2_after = rec.mean_over("r2-r4", 50.0, 54.0).unwrap_or(0.0);
    assert!(b_r2_after < 1.0, "dead link still carries {b_r2_after}");
    // Total delivery continues: remaining egress links carry the load.
    let b_r3 = rec.mean_over("r2-r5", 50.0, 54.0).unwrap_or(0.0);
    let a_r1 = rec.mean_over("r1-r3", 50.0, 54.0).unwrap_or(0.0);
    assert!(
        b_r3 + a_r1 > 4.0e6,
        "surviving paths must carry the crowd: B-R3={b_r3} A-R1={a_r1}"
    );
    // Every flow still has a loop-free path.
    let unrouted = run.sim.flows().filter(|f| f.path.is_none()).count();
    assert_eq!(unrouted, 0, "{unrouted} flows lost their path");
}

/// Two flash crowds toward two different prefixes: lies are
/// per-destination, so relieving one prefix must not steer the other.
#[test]
fn two_prefixes_are_steered_independently() {
    let green = Prefix::net24(2);
    let mut sim = paper_sim(&[(C, BLUE), (R4, green)]); // green behind R4
    sim.start();

    // Crowd 1: 31 videos B → blue (needs the fB lie).
    for i in 0..31u64 {
        start_at(
            &mut sim,
            Timestamp::from_secs(10) + Dur::from_millis(i * 20),
            FlowSpec::new(B, BLUE).with_cap(125_000.0),
        );
    }
    // Light traffic A → green (no congestion there).
    for i in 0..4u64 {
        start_at(
            &mut sim,
            Timestamp::from_secs(12) + Dur::from_millis(i * 20),
            FlowSpec::new(A, green).with_cap(125_000.0),
        );
    }
    sim.run_until(Timestamp::from_secs(40));

    // Blue got its extra slot at B; green kept its natural single path.
    let b_blue = sim.ctx().fib_nexthops(B, BLUE);
    assert!(b_blue.len() >= 2, "blue crowd must be spread: {b_blue:?}");
    let a_green = sim.ctx().fib_nexthops(A, green);
    assert_eq!(
        a_green.len(),
        1,
        "green must be untouched by blue's lies: {a_green:?}"
    );
    assert_eq!(a_green[0].router, R1, "green's natural path is via R1");
    // And green flows deliver at full rate.
    let ids: Vec<_> = sim.flows().map(|f| f.id).collect();
    let ctx = sim.ctx();
    for id in ids {
        let rate = ctx.flow_rate(id).expect("live");
        assert!(
            (rate - 125_000.0).abs() < 1.0,
            "flow {id} starved at {rate}"
        );
    }
}

/// Stopping the crowd mid-run retracts lies; restarting it re-installs
/// them — the controller is idempotent across cycles.
#[test]
fn crowd_cycles_install_and_retract_repeatedly() {
    let mut sim = paper_sim(&[(C, BLUE)]);
    sim.start();

    // Two crowd waves with a quiet gap.
    let wave = |start: u64, sim: &mut Sim| -> Vec<FlowId> {
        (0..31u64)
            .map(|i| {
                start_at(
                    sim,
                    Timestamp::from_secs(start) + Dur::from_millis(i * 10),
                    FlowSpec::new(B, BLUE).with_cap(125_000.0),
                )
            })
            .collect()
    };
    let stop = |at: u64, ids: Vec<FlowId>, sim: &mut Sim| {
        sim.run_until(Timestamp::from_secs(at));
        for id in ids {
            assert!(sim.ctx().stop_flow(id));
        }
    };

    let ids = wave(10, &mut sim);
    sim.run_until(Timestamp::from_secs(25));
    assert!(sim.ctx().fib_nexthops(B, BLUE).len() >= 2, "wave 1 spread");
    stop(30, ids, &mut sim);
    sim.run_until(Timestamp::from_secs(50));
    assert_eq!(
        sim.ctx().fib_nexthops(B, BLUE).len(),
        1,
        "quiet gap: lies retracted"
    );
    let ids = wave(60, &mut sim);
    sim.run_until(Timestamp::from_secs(75));
    assert!(sim.ctx().fib_nexthops(B, BLUE).len() >= 2, "wave 2 spread");
    stop(80, ids, &mut sim);
    sim.run_until(Timestamp::from_secs(100));
    assert_eq!(
        sim.ctx().fib_nexthops(B, BLUE).len(),
        1,
        "after wave 2: retracted again"
    );
}
