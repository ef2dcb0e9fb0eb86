//! Hashed ECMP realizes the planned ratios in the data plane.
//!
//! The analytical layers prove the *expected* split; this test drives
//! hundreds of hashed flows through the live simulator and checks the
//! realized split converges to the plan (1/3–2/3 at A), i.e. that
//! replicated forwarding addresses actually bias per-flow hashing.

use fibbing::demo::{fig1_plan, A, B, BLUE, C, R1, R2, R3, R4};
use fibbing::prelude::*;

#[test]
fn hashed_flows_realize_uneven_split() {
    // Offline plan for the paper's demand.
    let (_, lies) = fig1_plan();

    // Live network + controller speaker injecting that exact plan.
    let mut sim = Sim::new(SimConfig::default());
    for r in [A, B, R1, R2, R3, R4, C] {
        sim.add_router(r);
    }
    for (a, b, w) in fibbing::demo::PAPER_LINKS {
        sim.add_link(LinkSpec::new(a, b, Metric(w), 1e9));
    }
    sim.announce_prefix(C, BLUE);
    sim.add_controller_speaker(RouterId(100), R3);
    sim.start();
    sim.run_until(Timestamp::from_secs(10));
    {
        let mut api = sim.ctx();
        for lie in &lies {
            api.inject_fake(
                RouterId(100),
                lie.fake_id,
                lie.attach,
                lie.attach_metric,
                lie.prefix,
                lie.prefix_metric,
                lie.fw,
            )
            .unwrap();
        }
    }
    sim.run_until(Timestamp::from_secs(20));

    // 600 hashed flows from A; count first hops.
    let n = 600;
    let mut ids = Vec::new();
    for i in 0..n {
        let spec = FlowSpec::new(A, BLUE).with_cap(1.0).with_hash_id(i);
        ids.push(sim.ctx().start_flow(spec));
    }
    sim.run_until(Timestamp::from_secs(21));
    let mut via_b = 0;
    let mut via_r1 = 0;
    for id in &ids {
        match sim.ctx().flow_path(*id).expect("routable")[0].to {
            x if x == B => via_b += 1,
            x if x == R1 => via_r1 += 1,
            other => panic!("unexpected first hop {other}"),
        }
    }
    let frac_r1 = f64::from(via_r1) / f64::from(n as u32);
    assert!(
        (frac_r1 - 2.0 / 3.0).abs() < 0.06,
        "expected ~2/3 via R1, got {frac_r1} ({via_r1}/{n}, {via_b} via B)"
    );
}

#[test]
fn retraction_restores_natural_forwarding() {
    let mut sim = Sim::new(SimConfig::default());
    for r in [A, B, R1, R2, R3, R4, C] {
        sim.add_router(r);
    }
    for (a, b, w) in fibbing::demo::PAPER_LINKS {
        sim.add_link(LinkSpec::new(a, b, Metric(w), 1e9));
    }
    sim.announce_prefix(C, BLUE);
    sim.add_controller_speaker(RouterId(100), R3);
    sim.start();
    sim.run_until(Timestamp::from_secs(10));
    let fake = RouterId::fake(7);
    {
        let mut api = sim.ctx();
        api.inject_fake(
            RouterId(100),
            fake,
            B,
            Metric(1),
            BLUE,
            Metric(1),
            FwAddr::secondary(R3, 1),
        )
        .unwrap();
    }
    sim.run_until(Timestamp::from_secs(15));
    assert_eq!(sim.ctx().fib_nexthops(B, BLUE).len(), 2, "lie installed");
    {
        let mut api = sim.ctx();
        api.retract_fake(RouterId(100), fake).unwrap();
    }
    sim.run_until(Timestamp::from_secs(25));
    let hops = sim.ctx().fib_nexthops(B, BLUE);
    assert_eq!(hops, vec![FwAddr::primary(R2)], "natural state restored");
}
