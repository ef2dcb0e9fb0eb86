//! Guard rail for the IGP receive path's MaxAge sweep.
//!
//! Every LSA an `on_update` takes, every `on_ack`, origination and
//! timer poll ends by asking whether a purged LSA can leave the LSDB.
//! Answering that by scanning the database is still *correct* — every
//! functional test and every pinned artifact would pass — it just costs
//! attempts × LSDB size. So, like `incremental_stats.rs` does for the
//! data plane, this pins the *counter*: the entries the sweep looks at
//! must grow with the purges that happened, not with the packets that
//! arrived. It also guards the packing of floods: a cold start sends
//! fewer datagrams than it floods LSAs.

use fibbing::prelude::*;
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::spec::ScenarioSpec;

/// Fifty routers and one announced prefix: the IGP alone (the engine
/// insists on a workload; its one viewer arrives after the test ends).
const SPEC: &str = r#"
name = "sweep-cost-guard"
description = "counter guard for the MaxAge sweep"
horizon_secs = 20.0
seed = 50
capacity = 1e7
sinks = [1]

[topology]
kind = "waxman"
n = 50
alpha = 0.25
beta = 0.25
max_metric = 5

[[workload]]
kind = "constant"
at = 19.0
src = 5
n = 1
rate = 1e5
video_secs = 1.0
"#;

const LIE: RouterId = RouterId::fake(0);

/// The lie's LSDB key.
fn lie_key() -> fibbing::igp::lsa::LsaKey {
    fibbing::igp::lsa::LsaKey {
        origin: LIE,
        kind: fibbing::igp::lsa::LsaKind::Fake,
        id: 0,
    }
}

fn sweep_visits(sim: &Sim, routers: &[RouterId]) -> u64 {
    routers
        .iter()
        .map(|r| sim.instance(*r).expect("router exists").sweep_visits())
        .sum()
}

#[test]
fn sweep_cost_follows_purges_not_packets() {
    let spec = ScenarioSpec::from_toml_str(SPEC).unwrap();
    let mut run = build(&spec, RunOptions::default()).unwrap();
    let sim = &mut run.sim;
    let routers: Vec<RouterId> = (1..=50).map(RouterId).collect();
    // Any speaker can lie; router 2 plays the controller's part.
    let (speaker, attach, via) = (RouterId(2), RouterId(3), RouterId(4));
    let prefix = sim.ctx().prefix_owners()[0].0;

    // Cold start: 5 699 packets, an LSDB of 51 LSAs at every router —
    // and not one purge, so nothing to look at.
    sim.run_until(Timestamp::from_secs(10));
    let cold = sim.stats();
    assert!(cold.ctrl_pkts > 4_000, "cold start: {}", cold.ctrl_pkts);
    assert!(sim.instance(speaker).unwrap().lsdb().len() >= 50);
    // Floods are packed per neighbor: fewer datagrams than flooded LSAs,
    // hellos, DBDs, requests and acks included (24 018 LSAs, 0.24
    // packets each). It was 15 607 packets, 0.65 each, while every stale
    // copy was answered; 60 378, 2.5 each, with one LSA per update and
    // one ack per update.
    let flooded: u64 = routers
        .iter()
        .map(|r| sim.instance(*r).unwrap().stats.lsas_flooded)
        .sum();
    println!(
        "cold start: {} packets for {flooded} flooded LSAs",
        cold.ctrl_pkts
    );
    assert!(
        cold.ctrl_pkts < flooded,
        "{} control packets for {flooded} flooded LSAs",
        cold.ctrl_pkts
    );
    assert_eq!(
        sweep_visits(sim, &routers),
        0,
        "the sweep looked at LSDB entries although nothing was ever purged"
    );

    // One lie in, flooded everywhere; still no purge.
    sim.ctx()
        .inject_fake(
            speaker,
            LIE,
            attach,
            Metric(1),
            prefix,
            Metric(1),
            FwAddr::primary(via),
        )
        .unwrap();
    sim.run_until(Timestamp::from_secs(12));
    let everywhere = |sim: &Sim| {
        routers
            .iter()
            .filter(|r| sim.instance(**r).unwrap().lsdb().get(&lie_key()).is_some())
            .count()
    };
    assert_eq!(everywhere(sim), routers.len());
    assert_eq!(sweep_visits(sim, &routers), 0);

    // And out again: one MaxAge instance per router, each looked at
    // once per sweep attempt until its neighbours have acked it.
    sim.ctx().retract_fake(speaker, LIE).unwrap();
    sim.run_until(Timestamp::from_secs(14));
    assert_eq!(everywhere(sim), 0, "the purge did not complete");
    let purges = routers.len() as u64;
    let visits = sweep_visits(sim, &routers);
    let pkts = sim.stats().ctrl_pkts;
    println!("retraction: {visits} sweep visits for {purges} purges, {pkts} packets in all");
    assert!(
        visits >= purges,
        "every purge is swept: {visits} of {purges}"
    );
    // A router attempts the sweep once per LSA and ack it handles while
    // it holds the purge — its neighbours' copies of the purge and their
    // acks; observed 189 visits for the 50 purges (192 before floods
    // were packed). A scan visits all 51 entries on every attempt:
    // millions on this run.
    assert!(
        visits <= 8 * purges,
        "sweep visited {visits} LSDB entries for {purges} purges ({pkts} packets handled)"
    );
}
