//! Equivalence of the incremental data plane with full recompute.
//!
//! The simulator re-resolves only dirty flows and reuses the fluid
//! allocator across event batches (`crates/netsim/src/dirty.rs`).
//! These properties drive random event sequences — flow churn, cap
//! changes, link failures/restores, capacity brown-outs — through a
//! random topology and, at every checkpoint, compare the live state
//! against a from-scratch reference: every flow's path re-resolved
//! through the current FIBs (`resolve_path`) and the whole allocation
//! recomputed by the retained reference allocator (`max_min_keyed`).
//! Paths must match exactly, rates and link loads bit for bit, and
//! same-seed runs must be byte-identical.

use fib_igp::time::Timestamp;
use fib_igp::types::{Metric, Prefix, RouterId};
use fib_netsim::events::Event;
use fib_netsim::fib::{resolve_path, Fib};
use fib_netsim::flow::{FlowId, FlowSpec};
use fib_netsim::fluid::max_min_keyed;
use fib_netsim::link::{LinkInfo, LinkKey, LinkSpec};
use fib_netsim::sim::{Sim, SimConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn r(n: u32) -> RouterId {
    RouterId(n)
}

/// Allocate an id and schedule a typed flow start (the sequence the
/// old `schedule_flow` convenience produced).
fn sched_flow(sim: &mut Sim, at: Timestamp, spec: FlowSpec) -> FlowId {
    let id = sim.new_flow_id();
    sim.schedule(at, Event::FlowStart { id, spec });
    id
}

/// One scripted action of a random scenario.
#[derive(Debug, Clone)]
enum Op {
    Start {
        at_ms: u64,
        src: u32,
        cap: Option<f64>,
    },
    StopNth {
        at_ms: u64,
        nth: usize,
    },
    CapNth {
        at_ms: u64,
        nth: usize,
        cap: Option<f64>,
    },
    FailLink {
        at_ms: u64,
        a: u32,
        b: u32,
    },
    RestoreLink {
        at_ms: u64,
        a: u32,
        b: u32,
    },
    SetCapacity {
        at_ms: u64,
        a: u32,
        b: u32,
        cap: f64,
    },
}

/// A random but always-connected world: a line backbone `1..=n` plus
/// chords, prefix at router `n`.
fn build_sim(n: u32, chords: &[(u32, u32, u32)], caps: &[f64]) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    for i in 1..=n {
        sim.add_router(r(i));
    }
    let mut li = 0usize;
    let cap_of = |li: &mut usize| {
        let c = caps[*li % caps.len()];
        *li += 1;
        c
    };
    for i in 1..n {
        let c = cap_of(&mut li);
        sim.add_link(LinkSpec::new(r(i), r(i + 1), Metric(1), c));
    }
    for (a, b, m) in chords {
        let (a, b) = (a % n + 1, b % n + 1);
        if a == b {
            continue;
        }
        // Skip duplicates of backbone or earlier chords (the sim
        // supports only one link per router pair).
        if a.abs_diff(b) == 1 {
            continue;
        }
        let c = cap_of(&mut li);
        if sim.ctx().ifindex_for(r(a), r(b)).is_none() {
            sim.add_link(LinkSpec::new(r(a), r(b), Metric(1 + m % 4), c));
        }
    }
    sim.announce_prefix(r(n), Prefix::net24(1));
    sim
}

/// Schedule the ops, run to each checkpoint, and verify the live
/// incremental state against the from-scratch reference.
fn run_and_verify(n: u32, chords: &[(u32, u32, u32)], caps: &[f64], ops: &[Op]) -> String {
    let mut sim = build_sim(n, chords, caps);
    let mut flow_ids = Vec::new();
    let base = 12_000u64; // after IGP convergence
    for op in ops {
        match *op {
            Op::Start { at_ms, src, cap } => {
                let mut spec = FlowSpec::new(r(src % n + 1), Prefix::net24(1));
                spec.cap = cap;
                flow_ids.push(sched_flow(
                    &mut sim,
                    Timestamp::from_millis(base + at_ms),
                    spec,
                ));
            }
            Op::StopNth { at_ms, nth } => {
                if !flow_ids.is_empty() {
                    let id = flow_ids[nth % flow_ids.len()];
                    sim.schedule(Timestamp::from_millis(base + at_ms), Event::FlowStop { id });
                }
            }
            Op::CapNth { at_ms, nth, cap } => {
                if !flow_ids.is_empty() {
                    let id = flow_ids[nth % flow_ids.len()];
                    sim.schedule(
                        Timestamp::from_millis(base + at_ms),
                        Event::FlowCap { id, cap },
                    );
                }
            }
            Op::FailLink { at_ms, a, b } => {
                sim.schedule(
                    Timestamp::from_millis(base + at_ms),
                    Event::LinkAdmin {
                        a: r(a % n + 1),
                        b: r(b % n + 1),
                        up: false,
                    },
                );
            }
            Op::RestoreLink { at_ms, a, b } => {
                sim.schedule(
                    Timestamp::from_millis(base + at_ms),
                    Event::LinkAdmin {
                        a: r(a % n + 1),
                        b: r(b % n + 1),
                        up: true,
                    },
                );
            }
            Op::SetCapacity { at_ms, a, b, cap } => {
                sim.schedule(
                    Timestamp::from_millis(base + at_ms),
                    Event::LinkCapacity {
                        a: r(a % n + 1),
                        b: r(b % n + 1),
                        capacity: cap,
                    },
                );
            }
        }
    }
    sim.sample_link("probe", r(1), r(2));
    sim.start();

    let mut fingerprint = String::new();
    // Checkpoints: before the script, mid-script, after every event
    // has fired, and after extra convergence time.
    for at_ms in [11_000u64, 14_000, 17_000, 20_000, 26_000] {
        sim.run_until(Timestamp::from_millis(at_ms));
        verify_against_reference(&mut sim);
        let flows: Vec<_> = sim.flows().cloned().collect();
        let ctx = sim.ctx();
        for f in &flows {
            fingerprint.push_str(&format!(
                "{}:{}:{:x};",
                f.id,
                f.path.as_ref().map(|p| p.len()).unwrap_or(0),
                ctx.flow_rate(f.id).expect("live").to_bits()
            ));
        }
        fingerprint.push('|');
    }
    fingerprint.push_str(&sim.recorder().to_csv());
    fingerprint
}

/// The heart of the property: cached paths and rates must equal a
/// from-scratch recompute of the entire data plane.
fn verify_against_reference(sim: &mut Sim) {
    // Reference path resolution over cloned FIBs.
    let routers: Vec<RouterId> = sim.ctx().routers().collect();
    let mut fibs: BTreeMap<RouterId, Fib> = BTreeMap::new();
    for router in routers {
        if let Some(f) = sim.fib(router) {
            fibs.insert(router, f.clone());
        }
    }
    let links: Vec<LinkInfo> = sim.ctx().links().collect();
    let up: BTreeMap<LinkKey, bool> = links.iter().map(|l| (l.key, l.up)).collect();
    let capacities: BTreeMap<LinkKey, f64> = links
        .iter()
        .filter(|l| l.up)
        .map(|l| (l.key, l.capacity))
        .collect();

    let flows: Vec<_> = sim.flows().cloned().collect();
    let ctx = sim.ctx();
    let mut routed: Vec<(Vec<LinkKey>, Option<f64>)> = Vec::new();
    let mut routed_rates: Vec<f64> = Vec::new();
    for f in &flows {
        let reference = match resolve_path(&fibs, &f.key) {
            Ok(p) if p.iter().all(|l| up.get(l).copied().unwrap_or(false)) => Some(p),
            _ => None,
        };
        assert_eq!(
            reference, f.path,
            "cached path of {} diverges from full recompute",
            f.id
        );
        let rate = ctx.flow_rate(f.id).expect("live");
        if let Some(p) = reference {
            routed.push((p, f.cap));
            routed_rates.push(rate);
        } else {
            assert_eq!(
                rate.to_bits(),
                0.0f64.to_bits(),
                "pathless flow {} has a rate",
                f.id
            );
        }
    }
    let (ref_rates, ref_loads) = max_min_keyed(&capacities, &routed);
    for (i, (got, want)) in routed_rates.iter().zip(ref_rates.iter()).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "rate of routed flow #{i} diverges: {got} vs {want}"
        );
    }
    for (key, want) in &ref_loads {
        let got = ctx.link_rate(*key).unwrap_or(0.0);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "load of {key} diverges: {got} vs {want}"
        );
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12_000, 0u32..16, proptest::option::of(1e4f64..2e5))
            .prop_map(|(at_ms, src, cap)| Op::Start { at_ms, src, cap }),
        (2_000u64..12_000, 0usize..16).prop_map(|(at_ms, nth)| Op::StopNth { at_ms, nth }),
        (
            2_000u64..12_000,
            0usize..16,
            proptest::option::of(1e4f64..2e5)
        )
            .prop_map(|(at_ms, nth, cap)| Op::CapNth { at_ms, nth, cap }),
        (1_000u64..8_000, 0u32..16, 0u32..16).prop_map(|(at_ms, a, b)| Op::FailLink {
            at_ms,
            a,
            b
        }),
        (8_000u64..12_000, 0u32..16, 0u32..16).prop_map(|(at_ms, a, b)| Op::RestoreLink {
            at_ms,
            a,
            b
        }),
        (1_000u64..12_000, 0u32..16, 0u32..16, 1e5f64..2e6)
            .prop_map(|(at_ms, a, b, cap)| Op::SetCapacity { at_ms, a, b, cap }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random event sequences: the incremental engine stays exactly
    /// equivalent to full recompute at every checkpoint, and the whole
    /// run is byte-deterministic per seed.
    #[test]
    fn prop_incremental_equals_full_recompute(
        n in 4u32..7,
        chords in proptest::collection::vec((0u32..16, 0u32..16, 0u32..8), 0..5),
        caps in proptest::collection::vec(2e5f64..2e6, 1..4),
        ops in proptest::collection::vec(op_strategy(), 1..14),
    ) {
        let a = run_and_verify(n, &chords, &caps, &ops);
        let b = run_and_verify(n, &chords, &caps, &ops);
        prop_assert_eq!(a, b);
    }
}
