//! The paper's demo network: names and calibration.
//!
//! Sec. 3 of the paper runs one experiment: the Fig. 1a topology
//! (weights included), the video servers S1/S2 at B and A, the blue
//! destination prefix behind C, the Fibbing controller attached to R3,
//! and the flow schedule of Fig. 2 (1 flow at t = 0 s, +30 at
//! t = 15 s, +31 from the second source at t = 35 s). That experiment
//! is `scenarios/paper_demo.toml`, run by the scenario engine
//! (`fib_scenario::runner::build`); `no_controller_baseline.toml`, or
//! `RunOptions::disable_controller`, is its controller-off twin. This
//! module names the routers, links and constants the static figures
//! and tables read, and its tests hold them to that file. It also
//! defines Fig. 1's offline case once ([`FIG1_DEMAND`],
//! [`fig1_plan`]) and T4's reaction measurement ([`surge_reaction`])
//! for the `paper` binary and the tests.
//!
//! ## Calibration
//!
//! The testbed used ~10–30 Mb/s emulated links and ~1 Mb/s videos; we
//! use 4 MB/s (32 Mb/s) links and 125 kB/s (1 Mb/s) videos so that:
//!
//! * 31 videos ≈ 3.875 MB/s saturate a single link (the t = 15 surge
//!   overloads B–R2 exactly as in Fig. 1b),
//! * 62 videos ≈ 7.75 MB/s exceed any two paths but fit across three
//!   with the paper's 1/3–2/3 split at A (Fig. 1d ⇒ max link load
//!   ≈ 2.6 MB/s, the plateau Fig. 2 shows).
//!
//! With the controller's optimizer budget at 0.5 utilization, the
//! computed plans coincide with the paper's lies *exactly*: one fake
//! node at B (cost 2 via R3) at t = 15, plus two fake nodes at A
//! (cost 3 via R1) at t = 35.

use fib_core::prelude::{augment, plan_paths, reduce, Lie, LieAllocator, PathPlan};
use fib_igp::builders::paper_fig1;
use fib_igp::prelude::*;
use fib_scenario::runner::ScenarioRun;
use std::collections::BTreeMap;

/// Router A (hosts video source S2).
pub const A: RouterId = RouterId(1);
/// Router B (hosts video source S1).
pub const B: RouterId = RouterId(2);
/// Router R1 (A's long detour).
pub const R1: RouterId = RouterId(3);
/// Router R2 (B's shortest path).
pub const R2: RouterId = RouterId(4);
/// Router R3 (B's alternate; the controller peers here).
pub const R3: RouterId = RouterId(5);
/// Router R4 (on the long A detour).
pub const R4: RouterId = RouterId(6);
/// Router C (announces the blue prefix; clients D1/D2 sit behind it).
pub const C: RouterId = RouterId(7);

/// The blue destination prefix of Fig. 1.
pub const BLUE: Prefix = Prefix::net24(1);

/// Human name of a demo router.
pub fn name(r: RouterId) -> &'static str {
    match r {
        A => "A",
        B => "B",
        R1 => "R1",
        R2 => "R2",
        R3 => "R3",
        R4 => "R4",
        C => "C",
        _ => "?",
    }
}

/// `"A-R1"`-style name of a directed link.
pub fn link_name(from: RouterId, to: RouterId) -> String {
    format!("{}-{}", name(from), name(to))
}

/// The symmetric links of Fig. 1a: `(a, b, igp_weight)`. Unlabeled
/// weights in the figure are 1. They name, for capacity maps and
/// `LinkSpec` construction, the links of [`paper_fig1`], the one
/// definition of the topology (blue announced at C), which the
/// scenario engine builds too.
pub const PAPER_LINKS: [(RouterId, RouterId, u32); 8] = [
    (A, B, 1),
    (B, R2, 1),
    (R2, C, 1),
    (B, R3, 2),
    (R3, C, 1),
    (A, R1, 2),
    (R1, R4, 2),
    (R4, C, 2),
];

/// Uniform per-direction capacities for the paper topology.
pub fn paper_capacities(capacity: f64) -> BTreeMap<(RouterId, RouterId), f64> {
    paper_fig1()
        .all_links()
        .map(|(a, b, _)| ((a, b), capacity))
        .collect()
}

/// Fig. 1's demand in the figure's relative units: A and B each send
/// 100 toward blue, over links of [`FIG1_CAPACITY`].
pub const FIG1_DEMAND: [(RouterId, f64); 2] = [(A, 100.0), (B, 100.0)];
/// Fig. 1's per-direction link capacity, in the same units.
pub const FIG1_CAPACITY: f64 = 100.0;

/// [`FIG1_DEMAND`] as the load model's demands.
pub fn fig1_demands() -> [Demand; 2] {
    FIG1_DEMAND.map(|(src, rate)| Demand {
        src,
        prefix: BLUE,
        rate,
    })
}

/// Fig. 1c: [`FIG1_DEMAND`] planned at a 0.5 utilization budget, and
/// the lies that realize it, augmented and reduced — the paper's one
/// fake node at B and two at A.
pub fn fig1_plan() -> (PathPlan, Vec<Lie>) {
    let topo = paper_fig1();
    let caps = paper_capacities(FIG1_CAPACITY);
    let plan = plan_paths(&topo, BLUE, &FIG1_DEMAND, &caps, 0.5, 8).expect("Fig. 1 plans");
    let aug = augment(&topo, &plan.dag, &mut LieAllocator::new()).expect("Fig. 1 augments");
    let lies = reduce(&topo, &plan.dag, &aug.lies);
    (plan, lies)
}

/// T4's measurement on one Fibbing run of `paper_demo`: the seconds
/// from the t = 15 s surge until B-R3 (`r2-r5`) first carries traffic,
/// and the control packets and bytes sent over 14–33 s. Advances `run`
/// from where it stands to 14 s, then to 33 s.
pub fn surge_reaction(run: &mut ScenarioRun) -> (Option<f64>, u64, u64) {
    run.run_until_secs(14.0);
    let before = run.sim.stats();
    run.run_until_secs(33.0);
    let after = run.sim.stats();
    let reaction = run
        .sim
        .recorder()
        .series("r2-r5")
        .iter()
        .find(|(t, v)| *t >= 14.9 && *v > 1e4)
        .map(|(t, _)| t - 15.0);
    (
        reaction,
        after.ctrl_pkts - before.ctrl_pkts,
        after.ctrl_bytes - before.ctrl_bytes,
    )
}

/// Per-direction link capacity in bytes/s (see Calibration).
pub const CAPACITY: f64 = 4.0e6;
/// Per-video bitrate in bytes/s (see Calibration).
pub const VIDEO_RATE: f64 = 125_000.0;
/// Video clip length in seconds (long enough to span the run).
pub const VIDEO_SECS: f64 = 300.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_fig_1a() {
        let t = paper_fig1();
        assert_eq!(t.router_count(), 7);
        assert_eq!(t.all_links().count(), 16);
        // Fig. 1a path costs: B reaches blue at 2 via R2; the B–R3–C
        // detour costs 3; A reaches blue at 3 via B; the A–R1–R4–C
        // detour costs 6.
        let rt_b = compute_routes(&t, B);
        assert_eq!(rt_b.route(BLUE).unwrap().dist, Metric(2));
        assert_eq!(rt_b.nexthops(BLUE), &[FwAddr::primary(R2)]);
        let rt_a = compute_routes(&t, A);
        assert_eq!(rt_a.route(BLUE).unwrap().dist, Metric(3));
        assert_eq!(rt_a.nexthops(BLUE), &[FwAddr::primary(B)]);
    }

    #[test]
    fn shortest_paths_overlap_on_b_r2_c() {
        // "The IGP shortest paths starting at A and B overlap along
        // B–R2–C" (Fig. 1a caption).
        let t = paper_fig1();
        let from_a = enumerate_paths(&t, A, BLUE, 8);
        let from_b = enumerate_paths(&t, B, BLUE, 8);
        assert_eq!(from_a, vec![vec![A, B, R2, C]]);
        assert_eq!(from_b, vec![vec![B, R2, C]]);
    }

    #[test]
    fn paper_links_match_the_canonical_builder() {
        // PAPER_LINKS (used for LinkSpecs and capacity maps) and the
        // igp builder must describe the same graph.
        let t = paper_fig1();
        assert_eq!(t.all_links().count(), PAPER_LINKS.len() * 2);
        for (a, b, w) in PAPER_LINKS {
            assert_eq!(t.link_metric(a, b), Some(Metric(w)), "{a}-{b}");
            assert_eq!(t.link_metric(b, a), Some(Metric(w)), "{b}-{a}");
        }
    }

    #[test]
    fn constants_match_the_paper_demo_spec() {
        use fib_scenario::spec::WorkloadSpec::Paper;
        let spec = fib_scenario::suite::load_scenario("paper_demo").expect("shipped spec");
        let ctl = spec.controller.as_ref().expect("controller on");
        let [Paper {
            src1,
            src2,
            rate,
            video_secs,
        }] = spec.workloads.as_slice()
        else {
            panic!("paper_demo runs the paper workload alone");
        };
        assert_eq!(
            (spec.capacity, *rate, *video_secs, ctl.default_flow_rate),
            (CAPACITY, VIDEO_RATE, VIDEO_SECS, VIDEO_RATE)
        );
        assert_eq!([*src1, *src2, ctl.attach].map(RouterId), [B, A, R3]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(name(A), "A");
        assert_eq!(name(R4), "R4");
        assert_eq!(link_name(B, R3), "B-R3");
    }
}
