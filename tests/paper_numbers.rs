//! Offline reproduction of every number in Fig. 1 (panels a–d).
//!
//! These tests use only the analytical layers (SPF, load model,
//! optimizer, augmentation) — no event simulation — and assert the
//! paper's exact values. The case itself is `fibbing::demo`'s
//! ([`FIG1_DEMAND`], [`fig1_plan`]), the one the `paper` binary renders.

use fibbing::demo::{
    fig1_demands, fig1_plan, paper_capacities, A, B, BLUE, C, FIG1_CAPACITY, FIG1_DEMAND, R1, R2,
    R3, R4,
};
use fibbing::igp::builders::paper_fig1;
use fibbing::prelude::*;

/// Fig. 1b: both sources send 100 units; the overlap on B–R2–C
/// doubles the load there (the "200" relative load in the figure).
#[test]
fn fig1b_overload_on_b_r2_c() {
    let loads = spread(&paper_fig1(), &fig1_demands()).expect("routable");
    assert!((loads[&(A, B)] - 100.0).abs() < 1e-9);
    assert!(
        (loads[&(B, R2)] - 200.0).abs() < 1e-9,
        "B-R2 must carry 200"
    );
    assert!(
        (loads[&(R2, C)] - 200.0).abs() < 1e-9,
        "R2-C must carry 200"
    );
    assert_eq!(loads.get(&(A, R1)), None, "the long path is unused");
    assert_eq!(loads.get(&(B, R3)), None, "B-R3 is unused");
    // Max relative load = 200 on capacity-100 links.
    let caps = paper_capacities(FIG1_CAPACITY);
    assert!((max_utilization(&loads, &caps) - 2.0).abs() < 1e-9);
}

/// Fig. 1c: the computed augmentation is exactly the paper's — one
/// fake node at B announcing the blue prefix at cost 2 resolving to
/// R3, and two fake nodes at A at cost 3 resolving to R1.
#[test]
fn fig1c_exact_lies() {
    let (_, lies) = fig1_plan();

    assert_eq!(lies.len(), 3, "the paper injects exactly 3 fake nodes");
    let at_b: Vec<&Lie> = lies.iter().filter(|l| l.attach == B).collect();
    let at_a: Vec<&Lie> = lies.iter().filter(|l| l.attach == A).collect();
    assert_eq!(at_b.len(), 1, "one fake node fB at B");
    assert_eq!(at_a.len(), 2, "two fake nodes fA at A");
    assert_eq!(
        at_b[0].cost_at_attach(),
        Metric(2),
        "fB announces at cost 2"
    );
    assert_eq!(at_b[0].fw.router, R3, "fB resolves to R3");
    for l in &at_a {
        assert_eq!(l.cost_at_attach(), Metric(3), "fA announces at cost 3");
        assert_eq!(l.fw.router, R1, "fA resolves to R1");
    }
    // The two fA lies occupy distinct gateway addresses.
    assert_ne!(at_a[0].fw, at_a[1].fw);
}

/// Fig. 1c caption: fB gives B two equal-cost paths; fA×2 give A
/// three.
#[test]
fn fig1c_path_counts() {
    let augmented = apply_all(&paper_fig1(), &fig1_plan().1);

    let rt_b = compute_routes(&augmented, B);
    assert_eq!(rt_b.nexthops(BLUE).len(), 2, "B: 2 equal-cost slots");
    let rt_a = compute_routes(&augmented, A);
    assert_eq!(rt_a.nexthops(BLUE).len(), 3, "A: 3 equal-cost slots");
    // A's slots: one via B (primary), two via R1 (secondary addrs).
    let a_routers: Vec<RouterId> = rt_a.nexthops(BLUE).iter().map(|h| h.router).collect();
    assert_eq!(a_routers.iter().filter(|r| **r == B).count(), 1);
    assert_eq!(a_routers.iter().filter(|r| **r == R1).count(), 2);
}

/// Fig. 1d: the augmented data plane carries 33/66/66… and the max
/// link load drops from 200 to ~66.7.
#[test]
fn fig1d_balanced_loads() {
    let augmented = apply_all(&paper_fig1(), &fig1_plan().1);
    let loads = spread(&augmented, &fig1_demands()).expect("routable");
    let want = [
        ((A, B), 100.0 / 3.0),  // "33"
        ((A, R1), 200.0 / 3.0), // "66"
        ((R1, R4), 200.0 / 3.0),
        ((R4, C), 200.0 / 3.0),
        ((B, R2), 200.0 / 3.0),
        ((R2, C), 200.0 / 3.0),
        ((B, R3), 200.0 / 3.0),
        ((R3, C), 200.0 / 3.0),
    ];
    for (key, expect) in want {
        let got = loads.get(&key).copied().unwrap_or(0.0);
        assert!(
            (got - expect).abs() < 1e-6,
            "{key:?}: expected {expect:.1}, got {got:.1}"
        );
    }
    let caps = paper_capacities(FIG1_CAPACITY);
    assert!((max_utilization(&loads, &caps) - 2.0 / 3.0).abs() < 1e-6);
}

/// The fractional min-max optimum for the Fig. 1 demand is exactly
/// 2/3 — Fibbing's rounded plan achieves it (the paper's "Fibbing can
/// implement the optimal solution" claim).
#[test]
fn fibbing_achieves_min_max_optimum() {
    let caps = paper_capacities(FIG1_CAPACITY);
    let theta = min_max_theta(&paper_fig1(), BLUE, &FIG1_DEMAND, &caps).unwrap();
    assert!((theta - 2.0 / 3.0).abs() < 1e-3, "θ* = {theta}");
}

/// The verifier proves the full plan as `augment` computes it, before
/// any reduction: constrained routers match the DAG, everyone else is
/// untouched, and forwarding is loop-free.
#[test]
fn plan_verifies_end_to_end() {
    let topo = paper_fig1();
    let (plan, _) = fig1_plan();
    let aug = augment(&topo, &plan.dag, &mut LieAllocator::new()).unwrap();
    let report = check_preserving(&topo, &apply_all(&topo, &aug.lies), &plan.dag);
    assert!(report.ok(), "{report}");
}
