//! T1 — control-plane overhead of programming k extra paths
//! (Sec. 2's comparison, quantified).
//!
//! Scenario: an ingress router I must spread traffic over k extra
//! equal-cost paths to a sink S (beyond its single natural path).
//!
//! * Fibbing: k lies, injected live into the simulated IGP; we count
//!   the *measured* marginal control packets/bytes until quiescence,
//!   and the LSA copies flooded (one per neighbour an LSA is sent to,
//!   however many share a packet).
//! * RSVP-TE: k+1 tunnels via the real CSPF/signalling module.
//! * Weight reconfiguration: the k weight changes that equalize the
//!   paths, with the disruption model (devices, LSAs, full SPFs).
//!
//! Run: `cargo run -p fib-bench --bin table_control_overhead`

use fib_bench::{f, Table};
use fib_te::prelude::*;
use fibbing::prelude::*;

const CAP: f64 = 1e8;

/// Build the k-path topology: I(1) – M_i(10+i) – S(2); path 0 has
/// cost 2, paths 1..=k cost 3 (Mi–S weight 2).
fn ladder_topology(k: u32) -> Topology {
    let mut t = Topology::new();
    let ingress = RouterId(1);
    let sink = RouterId(2);
    t.add_router(ingress);
    t.add_router(sink);
    for i in 0..=k {
        let mid = RouterId(10 + i);
        t.add_router(mid);
        t.add_link_sym(ingress, mid, Metric(1)).unwrap();
        t.add_link_sym(mid, sink, Metric(if i == 0 { 1 } else { 2 }))
            .unwrap();
    }
    t.announce_prefix(sink, Prefix::net24(1), Metric::ZERO)
        .unwrap();
    t
}

/// Measured Fibbing cost: marginal control packets/bytes and flooded
/// LSA copies to install k lies network-wide (hello/keepalive
/// background subtracted via a twin run without injection), plus added
/// FIB slots.
fn fibbing_cost(k: u32) -> (u64, u64, u64, usize) {
    let run = |inject: bool| -> (u64, u64, u64, usize) {
        let ingress = RouterId(1);
        let mut sim = Sim::new(SimConfig::default());
        let topo = ladder_topology(k);
        for r in topo.routers() {
            sim.add_router(r);
        }
        let mut seen = std::collections::BTreeSet::new();
        for (a, b, m) in topo.all_links() {
            let key = if a < b { (a, b) } else { (b, a) };
            if seen.insert(key) {
                sim.add_link(LinkSpec::new(a, b, m, CAP));
            }
        }
        sim.announce_prefix(RouterId(2), Prefix::net24(1));
        sim.add_controller_speaker(RouterId(99), RouterId(2));
        sim.start();
        sim.run_until(Timestamp::from_secs(15));
        let speakers: Vec<RouterId> = topo.routers().chain([RouterId(99)]).collect();
        let flooded = |sim: &Sim| -> u64 {
            speakers
                .iter()
                .map(|r| sim.instance(*r).expect("a speaker").stats.lsas_flooded)
                .sum()
        };
        let before = sim.stats();
        let flooded_before = flooded(&sim);
        if inject {
            let mut api = sim.ctx();
            for i in 1..=k {
                api.inject_fake(
                    RouterId(99),
                    RouterId::fake(i),
                    ingress,
                    Metric(1),
                    Prefix::net24(1),
                    Metric(1),
                    FwAddr::secondary(RouterId(10 + i), 1),
                )
                .unwrap();
            }
        }
        sim.run_until(Timestamp::from_secs(25));
        let after = sim.stats();
        let slots = sim.ctx().fib_nexthops(ingress, Prefix::net24(1)).len();
        (
            after.ctrl_pkts - before.ctrl_pkts,
            after.ctrl_bytes - before.ctrl_bytes,
            flooded(&sim) - flooded_before,
            slots,
        )
    };
    let (pkts, bytes, lsas, slots) = run(true);
    let (base_pkts, base_bytes, base_lsas, _) = run(false);
    (
        pkts.saturating_sub(base_pkts),
        bytes.saturating_sub(base_bytes),
        lsas.saturating_sub(base_lsas),
        slots,
    )
}

fn main() {
    println!("== T1: control-plane cost of programming k extra paths ==\n");
    let mut t = Table::new(&[
        "k",
        "Fibbing pkts",
        "Fibbing bytes",
        "Fibbing LSAs",
        "RSVP setup msgs",
        "RSVP refresh/s",
        "RSVP labels",
        "Weights: devices",
        "Weights: LSAs",
        "Weights: conv (s)",
    ]);
    for k in 1..=6u32 {
        // Fibbing, measured live (includes flooding acks + periodic
        // hellos during the convergence window).
        let (pkts, bytes, lsas, slots) = fibbing_cost(k);
        assert_eq!(slots as u32, k + 1, "lies must install k extra slots");

        // RSVP-TE: k+1 tunnels over distinct paths.
        let topo = ladder_topology(k);
        let caps = topo.all_links().map(|(a, b, _)| ((a, b), CAP)).collect();
        let mut rsvp = RsvpTe::new(topo.clone(), caps);
        for _ in 0..=k {
            rsvp.establish(RouterId(1), RouterId(2), CAP * 0.9)
                .expect("a free path remains");
        }
        let setup = rsvp.stats.path_msgs + rsvp.stats.resv_msgs;
        let refresh = rsvp.refresh_msgs_per_sec(Dur::from_secs(30));
        let labels = rsvp.stats.labels;

        // Weight reconfiguration: equalize the k slow paths.
        let mut after = topo.clone();
        for i in 1..=k {
            after
                .set_metric(RouterId(10 + i), RouterId(2), Metric(1))
                .unwrap();
            after
                .set_metric(RouterId(2), RouterId(10 + i), Metric(1))
                .unwrap();
        }
        let d = disruption(&topo, &after, Dur::from_secs(5), Dur::from_millis(250));

        t.row(&[
            k.to_string(),
            pkts.to_string(),
            bytes.to_string(),
            lsas.to_string(),
            setup.to_string(),
            f(refresh),
            labels.to_string(),
            d.devices_reconfigured.to_string(),
            d.lsas_reoriginated.to_string(),
            f(d.est_convergence.as_secs_f64()),
        ]);
    }
    t.emit("table1_control_overhead");
    println!("Reading: Fibbing's cost is one flooded LSA per path (a copy");
    println!("to every neighbour of every router; lies injected together");
    println!("share packets), stateless afterwards. RSVP pays per-hop");
    println!("signalling plus *continuous* refreshes and per-hop label state.");
    println!("Weight changes touch devices serially and re-run SPF everywhere.");
}
