//! Kernel port pin: replaying a seed-scripted scenario through the
//! redesigned API must reproduce the pre-port simulator's output
//! byte-for-byte — flow rates, deliveries, paths, machinery counters,
//! and the full recorder trace.
//!
//! A flow's deliveries are the integral of its rate changes, which the
//! run logs with `watch_rates` from the start; the simulator keeps no
//! per-flow byte count. The references hold the sums the pre-port
//! simulator integrated at every instant, re-pinned once to the log's
//! integral, which sums the same rates over the same spans grouped by
//! rate change (each value moved by less than 1e-14 of itself).
//!
//! The references were generated by the pre-kernel simulator
//! (map-based arenas, `SimApi` object, one `schedule_*` method per
//! event kind) running the exact script below. Seed 0's output is kept
//! in full, readable, as `tests/data/pin_0.csv`; seeds 1–7 are kept as
//! a digest of their data plane and their `stats,` line verbatim.
//!
//! That simulator scheduled the flow script as queue events, issuing
//! each flow's id when its start was scheduled: in script order. Flows
//! now start from host code at their instants and are issued ids in
//! start order, so the run prints each flow under its script index and
//! hashes it with that index, its old id. Its scripted flow actions are
//! no longer events: the `events` count the references hold is the
//! run's count plus those actions.

use fib_igp::time::{Dur, Timestamp};
use fib_igp::types::{FwAddr, Metric, Prefix, RouterId};
use fib_netsim::oracle;
use fib_netsim::prelude::*;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use std::collections::BTreeMap;
use std::iter::Peekable;

/// Seed 0's reference output, in full.
const PIN_0: &str = include_str!("data/pin_0.csv");

/// Seeds 1–7: the FNV-1a digest of everything but the `stats,` line,
/// and that line.
const DIGESTS: [(u64, &str); 7] = [
    (
        0x192a_e73b_b60b_2650,
        "stats,1695,1274,48404,0,31,21,197,1,0.051000",
    ),
    (
        0x5596_2af6_cef5_b92e,
        "stats,1697,1274,48404,0,34,25,213,1,0.051000",
    ),
    (
        0x6617_03d5_5ed9_965e,
        "stats,1694,1274,48404,0,32,27,210,2,0.002000",
    ),
    (
        0xcc42_a333_28c4_a6ab,
        "stats,1696,1274,48404,0,34,27,224,0,0.000000",
    ),
    (
        0x0edd_98e2_fd11_ddab,
        "stats,1697,1274,48404,0,34,20,214,0,0.000000",
    ),
    (
        0xc1e4_eea5_aabf_4790,
        "stats,1692,1274,48404,0,29,17,207,0,0.000000",
    ),
    (
        0x5b4c_4ae7_e3e4_0857,
        "stats,1697,1274,48404,0,31,14,191,0,0.000000",
    ),
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn r(n: u32) -> RouterId {
    RouterId(n)
}

/// Each flow's bytes delivered, as the integral of the rate-change log:
/// per flow id, the rate in force, since when, and the bytes up to then.
#[derive(Default)]
struct Deliveries(BTreeMap<FlowId, (f64, Timestamp, f64)>);

impl Deliveries {
    /// Fold in every change logged since the last read, and return
    /// `id`'s bytes up to now (`None` once it stopped).
    fn read(&mut self, ctx: &mut SimContext<'_>, id: FlowId) -> Option<f64> {
        let mut log = Vec::new();
        ctx.take_rate_changes(&mut log);
        for c in log {
            let (rate, since, bytes) = self.0.entry(c.flow).or_insert((0.0, c.at, 0.0));
            *bytes += *rate * (c.at - *since).as_secs_f64();
            (*rate, *since) = (c.rate, c.at);
        }
        ctx.flow_rate(id)?;
        let now = ctx.now();
        Some(self.0.get(&id).map_or(0.0, |(rate, since, bytes)| {
            bytes + rate * (now - *since).as_secs_f64()
        }))
    }
}

/// A scripted flow action, on the flow of a script index.
enum Action {
    Start(FlowSpec),
    Stop,
    Cap(Option<f64>),
}

/// Run to `until`, taking each scripted action due by then from host
/// code at its instant; `flows` holds the id each script index was
/// issued when it started.
fn run_to(
    sim: &mut Sim,
    script: &mut Peekable<impl Iterator<Item = (Timestamp, usize, Action)>>,
    flows: &mut [Option<FlowId>],
    until: Timestamp,
) {
    while let Some((at, k, action)) = script.next_if(|(at, ..)| *at <= until) {
        sim.run_until(at);
        let mut ctx = sim.ctx();
        match action {
            Action::Start(spec) => flows[k] = Some(ctx.start_flow(spec)),
            Action::Stop => assert!(ctx.stop_flow(flows[k].expect("started"))),
            Action::Cap(cap) => assert!(ctx.set_flow_cap(flows[k].expect("started"), cap)),
        }
    }
    sim.run_until(until);
}

/// Run the pin scenario; returns the fixture-format output.
fn run_pin(seed: u64) -> String {
    let mut st = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xD1B5;

    let mut sim = Sim::new(SimConfig::default());
    for i in 1..=8 {
        sim.add_router(r(i));
    }
    // Ring plus two chords; costs and capacities vary with the seed.
    let mut links = Vec::new();
    for i in 1..=8u32 {
        let j = if i == 8 { 1 } else { i + 1 };
        links.push((i, j));
    }
    links.push((1, 5));
    links.push((2, 6));
    for (a, b) in links {
        let cost = Metric(1 + (splitmix(&mut st) % 3) as u32);
        let cap = 5e5 + (splitmix(&mut st) % 5) as f64 * 1e5;
        sim.add_link(LinkSpec::new(r(a), r(b), cost, cap));
    }
    sim.announce_prefix(r(4), Prefix::net24(1));
    sim.announce_prefix(r(7), Prefix::net24(2));
    sim.add_controller_speaker(r(100), r(2));
    sim.sample_link("l1", r(1), r(2));
    sim.sample_link("l2", r(2), r(3));
    sim.sample_link("l3", r(5), r(6));
    sim.sample_link("l4", r(8), r(1));

    // Flow script: starts, stops, caps, all seed-derived, each under
    // its flow's script index, in the order they are drawn.
    let mut script = Vec::new();
    for k in 0..12usize {
        let src = r(1 + (splitmix(&mut st) % 8) as u32);
        let dst = if splitmix(&mut st) % 2 == 0 {
            Prefix::net24(1)
        } else {
            Prefix::net24(2)
        };
        let start = Timestamp::from_millis(5_000 + (splitmix(&mut st) % 15_000));
        let mut spec = FlowSpec::new(src, dst).with_hash_id(k as u64 + 1);
        if splitmix(&mut st) % 3 == 0 {
            spec = spec.with_cap(1e5 + (splitmix(&mut st) % 3) as f64 * 5e4);
        }
        script.push((start, k, Action::Start(spec)));
        if splitmix(&mut st) % 4 == 0 {
            let stop = start + Dur::from_secs(8 + (k as u64 % 5));
            script.push((stop, k, Action::Stop));
        }
        if splitmix(&mut st) % 5 == 0 {
            script.push((start + Dur::from_secs(3), k, Action::Cap(Some(2e5))));
        }
    }
    // Taken in time order, in draw order on ties.
    script.sort_by_key(|(at, ..)| *at);
    let actions = script.len() as u64;
    let mut script = script.into_iter().peekable();
    let mut flows = [None; 12];
    // Link fault script.
    sim.schedule(
        Timestamp::from_secs(18),
        Event::LinkAdmin {
            a: r(3),
            b: r(4),
            up: false,
        },
    );
    sim.schedule(
        Timestamp::from_secs(28),
        Event::LinkAdmin {
            a: r(3),
            b: r(4),
            up: true,
        },
    );
    sim.schedule(
        Timestamp::from_secs(22),
        Event::LinkCapacity {
            a: r(1),
            b: r(2),
            capacity: 3e5,
        },
    );

    sim.ctx().watch_rates();
    let mut delivered = Deliveries::default();
    sim.start();
    run_to(&mut sim, &mut script, &mut flows, Timestamp::from_secs(12));
    let mut out = String::new();
    {
        let mut ctx = sim.ctx();
        for (k, id) in flows.iter().enumerate() {
            out.push_str(&format!(
                "mid,{},{:?},{:?}\n",
                k + 1,
                id.and_then(|id| ctx.flow_rate(id)),
                id.and_then(|id| delivered.read(&mut ctx, id))
            ));
        }
        // A lie injected between runs, through the speaker.
        ctx.inject_fake(
            r(100),
            RouterId::fake(0),
            r(1),
            Metric(1),
            Prefix::net24(1),
            Metric(1),
            FwAddr::secondary(r(5), 1),
        )
        .unwrap();
    }
    run_to(&mut sim, &mut script, &mut flows, Timestamp::from_secs(25));
    sim.ctx().retract_fake(r(100), RouterId::fake(0)).unwrap();
    // An unscheduled (between-runs) mutation.
    sim.ctx().set_link_capacity(r(5), r(6), 4e5);
    run_to(&mut sim, &mut script, &mut flows, Timestamp::from_secs(40));
    assert!(script.next().is_none(), "every scripted action was taken");
    // Twelve seconds after the last fault the IGP is at rest, every
    // LSDB agrees and every FIB is a from-scratch SPF on it.
    assert!(
        oracle::igp_at_rest(&sim),
        "seed {seed}: IGP busy at the horizon"
    );
    if let Err(fault) = oracle::igp_converged(&sim) {
        panic!("seed {seed}: not converged at the horizon: {fault}");
    }

    for (k, id) in flows.iter().enumerate() {
        let id = id.expect("every flow started");
        let mut ctx = sim.ctx();
        let bytes = delivered.read(&mut ctx, id);
        out.push_str(&format!(
            "end,{},{:?},{:?},{:?}\n",
            k + 1,
            ctx.flow_rate(id),
            bytes,
            ctx.flow_path(id)
        ));
    }
    let s = sim.stats();
    format!(
        "{out}stats,{},{},{},{},{},{},{},{},{:.6}\n{}",
        s.events + actions,
        s.ctrl_pkts,
        s.ctrl_bytes,
        s.ctrl_dropped,
        s.reallocs,
        s.paths_resolved,
        s.paths_skipped,
        s.unroutable,
        s.unroutable_flow_secs,
        sim.recorder().to_csv()
    )
}

/// A pin's output split in two: everything but the `stats,` line (flow
/// rates, deliveries, paths and the recorder trace — the data plane),
/// and that line (event and control-packet counts next to the
/// settle and path-resolution counts). A change to how the IGP packs its packets may move
/// the second and never the first.
fn split_stats(full: &str) -> (String, String) {
    let (stats, data): (Vec<&str>, Vec<&str>) = full
        .split_inclusive('\n')
        .partition(|l| l.starts_with("stats,"));
    (data.concat(), stats.concat())
}

/// Seed `seed`'s run as its reference is kept: the data plane (in full
/// for seed 0, as a digest otherwise) and the `stats,` line.
fn observed(seed: u64) -> (String, String) {
    let (data, stats) = split_stats(&run_pin(seed));
    if seed == 0 {
        (data, stats)
    } else {
        (
            format!("{:#018x}", fnv1a(FNV_OFFSET, data.as_bytes())),
            stats,
        )
    }
}

/// The pre-port reference for `seed`, in the form [`observed`] returns.
fn expected(seed: u64) -> (String, String) {
    match seed {
        0 => split_stats(PIN_0),
        _ => {
            let (digest, stats) = DIGESTS[seed as usize - 1];
            (format!("{digest:#018x}"), format!("{stats}\n"))
        }
    }
}

/// Every seed's kernel-driven run is byte-identical to the pre-port
/// reference trace, machinery counters included.
#[test]
fn kernel_matches_preport_reference_traces() {
    for seed in 0..8 {
        let (data, stats) = observed(seed);
        let (want_data, want_stats) = expected(seed);
        assert_eq!(
            data, want_data,
            "seed {seed}: data plane diverged from pre-port reference"
        );
        assert_eq!(
            stats, want_stats,
            "seed {seed}: machinery counters diverged from pre-port reference"
        );
    }
}
