//! Kernel port pin: replaying a seed-scripted scenario through the
//! redesigned API must reproduce the pre-port simulator's output
//! byte-for-byte — flow rates, deliveries, paths, machinery counters,
//! and the full recorder trace.
//!
//! The fixtures under `tests/data/pin_<seed>.csv` were generated by
//! the pre-kernel simulator (map-based arenas, `SimApi` object, one
//! `schedule_*` method per event kind) running the exact script below.

use fib_igp::time::{Dur, Timestamp};
use fib_igp::types::{FwAddr, Metric, Prefix, RouterId};
use fib_netsim::oracle;
use fib_netsim::prelude::*;
use proptest::prelude::*;

const FIXTURES: [&str; 8] = [
    include_str!("data/pin_0.csv"),
    include_str!("data/pin_1.csv"),
    include_str!("data/pin_2.csv"),
    include_str!("data/pin_3.csv"),
    include_str!("data/pin_4.csv"),
    include_str!("data/pin_5.csv"),
    include_str!("data/pin_6.csv"),
    include_str!("data/pin_7.csv"),
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

    // Flow script: starts, stops, caps, all seed-derived, all through
    // the single typed scheduling path.
    let mut flows = Vec::new();
    for k in 0..12u64 {
        let src = r(1 + (splitmix(&mut st) % 8) as u32);
        let dst = if splitmix(&mut st) % 2 == 0 {
            Prefix::net24(1)
        } else {
            Prefix::net24(2)
        };
        let start = Timestamp::from_millis(5_000 + (splitmix(&mut st) % 15_000));
        let mut spec = FlowSpec::new(src, dst);
        if splitmix(&mut st) % 3 == 0 {
            spec = spec.with_cap(1e5 + (splitmix(&mut st) % 3) as f64 * 5e4);
        }
        let id = sim.new_flow_id();
        sim.schedule(start, Event::FlowStart { id, spec });
        flows.push(id);
        if splitmix(&mut st) % 4 == 0 {
            sim.schedule(start + Dur::from_secs(8 + (k % 5)), Event::FlowStop { id });
        }
        if splitmix(&mut st) % 5 == 0 {
            sim.schedule(
                start + Dur::from_secs(3),
                Event::FlowCap { id, cap: Some(2e5) },
            );
        }
    }
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

    sim.start();
    sim.run_until(Timestamp::from_secs(12));
    let mut out = String::new();
    {
        let mut ctx = sim.ctx();
        for id in &flows {
            out.push_str(&format!(
                "mid,{},{:?},{:?}\n",
                id.0,
                ctx.flow_rate(*id),
                ctx.flow_delivered(*id)
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
    sim.run_until(Timestamp::from_secs(25));
    sim.ctx().retract_fake(r(100), RouterId::fake(0)).unwrap();
    // An unscheduled (between-runs) mutation.
    sim.ctx().set_link_capacity(r(5), r(6), 4e5);
    sim.run_until(Timestamp::from_secs(40));
    // Twelve seconds after the last fault the IGP is at rest, every
    // LSDB agrees and every FIB is a from-scratch SPF on it.
    assert!(
        oracle::igp_at_rest(&sim),
        "seed {seed}: IGP busy at the horizon"
    );
    if let Err(fault) = oracle::igp_converged(&sim) {
        panic!("seed {seed}: not converged at the horizon: {fault}");
    }

    for id in &flows {
        let ctx = sim.ctx();
        out.push_str(&format!(
            "end,{},{:?},{:?},{:?}\n",
            id.0,
            ctx.flow_rate(*id),
            ctx.flow_delivered(*id),
            ctx.flow_path(*id)
        ));
    }
    let s = sim.stats();
    format!(
        "{out}stats,{},{},{},{},{},{},{},{},{},{:.6}\n{}",
        s.events,
        s.ctrl_pkts,
        s.ctrl_bytes,
        s.ctrl_dropped,
        s.reallocs,
        s.paths_resolved,
        s.paths_skipped,
        s.alloc_fills,
        s.unroutable,
        s.unroutable_flow_secs,
        sim.recorder().to_csv()
    )
}

/// A pin's output split in two: everything but the `stats,` line (flow
/// rates, deliveries, paths and the recorder trace — the data plane),
/// and that line (event and control-packet counts next to the
/// allocator's). A change to how the IGP packs its packets may move
/// the second and never the first.
fn split_stats(full: &str) -> (String, String) {
    let (stats, data): (Vec<&str>, Vec<&str>) = full
        .split_inclusive('\n')
        .partition(|l| l.starts_with("stats,"));
    (data.concat(), stats.concat())
}

/// Every seed's kernel-driven run is byte-identical to the pre-port
/// reference trace, machinery counters included.
#[test]
fn kernel_matches_preport_reference_traces() {
    for (seed, fixture) in FIXTURES.iter().enumerate() {
        let (data, stats) = split_stats(&run_pin(seed as u64));
        let (want_data, want_stats) = split_stats(fixture);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the pin: any scripted seed replayed through
    /// the kernel reproduces its pre-port reference byte-for-byte.
    #[test]
    fn kernel_run_is_byte_identical_to_reference(seed in 0u64..8) {
        let (data, stats) = split_stats(&run_pin(seed));
        let (want_data, want_stats) = split_stats(FIXTURES[seed as usize]);
        prop_assert_eq!(data, want_data);
        prop_assert_eq!(stats, want_stats);
    }
}
