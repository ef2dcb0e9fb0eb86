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
use fib_netsim::fib::{resolve_path, Fib};
use fib_netsim::flow::{FlowId, FlowSpec};
use fib_netsim::fluid::max_min_keyed;
use fib_netsim::link::{LinkInfo, LinkKey, LinkSpec};
use fib_netsim::sim::{Sim, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn r(n: u32) -> RouterId {
    RouterId(n)
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

impl Op {
    /// When the action is taken, in ms after the script's base.
    fn at_ms(&self) -> u64 {
        match *self {
            Op::Start { at_ms, .. }
            | Op::StopNth { at_ms, .. }
            | Op::CapNth { at_ms, .. }
            | Op::FailLink { at_ms, .. }
            | Op::RestoreLink { at_ms, .. }
            | Op::SetCapacity { at_ms, .. } => at_ms,
        }
    }
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

/// Take one action from host code, now; stops and caps name a flow
/// among those started so far.
fn apply(sim: &mut Sim, n: u32, op: &Op, flow_ids: &mut Vec<FlowId>) {
    let mut ctx = sim.ctx();
    match *op {
        Op::Start { src, cap, .. } => {
            let mut spec = FlowSpec::new(r(src % n + 1), Prefix::net24(1));
            spec.cap = cap;
            flow_ids.push(ctx.start_flow(spec));
        }
        Op::StopNth { nth, .. } => {
            if !flow_ids.is_empty() {
                ctx.stop_flow(flow_ids[nth % flow_ids.len()]);
            }
        }
        Op::CapNth { nth, cap, .. } => {
            if !flow_ids.is_empty() {
                ctx.set_flow_cap(flow_ids[nth % flow_ids.len()], cap);
            }
        }
        Op::FailLink { a, b, .. } => {
            ctx.fail_link(r(a % n + 1), r(b % n + 1));
        }
        Op::RestoreLink { a, b, .. } => {
            ctx.restore_link(r(a % n + 1), r(b % n + 1));
        }
        Op::SetCapacity { a, b, cap, .. } => {
            ctx.set_link_capacity(r(a % n + 1), r(b % n + 1), cap);
        }
    }
}

/// Take the ops in time order (script order on ties), run to each
/// checkpoint, and verify the live incremental state against the
/// from-scratch reference.
fn run_and_verify(n: u32, chords: &[(u32, u32, u32)], caps: &[f64], ops: &[Op]) -> String {
    let mut sim = build_sim(n, chords, caps);
    let mut flow_ids = Vec::new();
    let base = 12_000u64; // after IGP convergence
    let mut script: Vec<&Op> = ops.iter().collect();
    script.sort_by_key(|op| op.at_ms());
    let mut script = script.into_iter().peekable();
    sim.sample_link("probe", r(1), r(2));
    sim.start();

    let mut fingerprint = String::new();
    // Checkpoints: before the script, mid-script, after every action
    // has been taken, and after extra convergence time.
    for at_ms in [11_000u64, 14_000, 17_000, 20_000, 26_000] {
        while let Some(op) = script.next_if(|op| base + op.at_ms() <= at_ms) {
            sim.run_until(Timestamp::from_millis(base + op.at_ms()));
            apply(&mut sim, n, op, &mut flow_ids);
        }
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

/// A rate cap three times in four, `None` otherwise.
fn arb_cap(rng: &mut StdRng) -> Option<f64> {
    (rng.gen_range(0..4) != 0).then(|| rng.gen_range(1e4..2e5))
}

fn arb_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..6) {
        0 => Op::Start {
            at_ms: rng.gen_range(0..12_000),
            src: rng.gen_range(0..16),
            cap: arb_cap(rng),
        },
        1 => Op::StopNth {
            at_ms: rng.gen_range(2_000..12_000),
            nth: rng.gen_range(0..16),
        },
        2 => Op::CapNth {
            at_ms: rng.gen_range(2_000..12_000),
            nth: rng.gen_range(0..16),
            cap: arb_cap(rng),
        },
        3 => Op::FailLink {
            at_ms: rng.gen_range(1_000..8_000),
            a: rng.gen_range(0..16),
            b: rng.gen_range(0..16),
        },
        4 => Op::RestoreLink {
            at_ms: rng.gen_range(8_000..12_000),
            a: rng.gen_range(0..16),
            b: rng.gen_range(0..16),
        },
        _ => Op::SetCapacity {
            at_ms: rng.gen_range(1_000..12_000),
            a: rng.gen_range(0..16),
            b: rng.gen_range(0..16),
            cap: rng.gen_range(1e5..2e6),
        },
    }
}

/// Runs `check` on `n` cases, each on its own seeded generator, and
/// names the case and seed that fail.
fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
        assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
    }
}

/// Random event sequences: the incremental engine stays exactly
/// equivalent to full recompute at every checkpoint, and the whole run
/// is byte-deterministic per seed.
#[test]
fn prop_incremental_equals_full_recompute() {
    cases(24, |rng| {
        let n = rng.gen_range(4..7);
        let chords: Vec<(u32, u32, u32)> = (0..rng.gen_range(0..5))
            .map(|_| {
                (
                    rng.gen_range(0..16),
                    rng.gen_range(0..16),
                    rng.gen_range(0..8),
                )
            })
            .collect();
        let caps: Vec<f64> = (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(2e5..2e6))
            .collect();
        let ops: Vec<Op> = (0..rng.gen_range(1..14)).map(|_| arb_op(rng)).collect();
        let a = run_and_verify(n, &chords, &caps, &ops);
        let b = run_and_verify(n, &chords, &caps, &ops);
        assert_eq!(a, b);
    });
}
