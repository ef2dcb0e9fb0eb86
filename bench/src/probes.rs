//! The outside probes: timed direct calls into each layer's public
//! functions, on state captured from the live run at the checkpoint.
//!
//! The traced rep pauses, lifts its sink, and hands the paused
//! [`ScenarioRun`] here. Everything below either reads the run through
//! its public getters or works on copies, so the run resumes with its
//! observables untouched (the digest check after the rep proves it).

use crate::run::Values;
use crate::stats::median;
use crate::workloads::{self, Cell};
use fib_core::prelude::*;
use fib_igp::harness::Harness;
use fib_igp::prelude::*;
use fib_igp::wire::{self, LsUpdate, Packet};
use fib_netsim::fluid::Allocator;
use fib_netsim::link::LinkKey;
use fib_scenario::prelude::*;
use fib_sim_kernel::queue::EventQueue;
use fib_telemetry::alarm::Threshold;
use fib_telemetry::counters::CounterWidth;
use fib_telemetry::mib::oids;
use fib_telemetry::monitor::LoadMonitor;
use fib_video::prelude::{Player, PlayerConfig, Video};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls a probe makes at least.
const MIN_CALLS: usize = 20;
/// Host time after which a probe stops adding calls beyond the minimum.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Median host nanoseconds per call of `f`, each sample timing `batch`
/// back-to-back calls (so that sub-microsecond work is not swamped by
/// the clock reads).
fn per_call_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(MIN_CALLS);
    let start = Instant::now();
    while samples.len() < MIN_CALLS || (start.elapsed() < PROBE_BUDGET && samples.len() < 1000) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

fn call_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    per_call_ns(1, || {
        black_box(f());
    })
}

/// `EventQueue` push + pop with the queue held at `depth` entries (the
/// classic hold model: pop the earliest, push it back later).
fn queue_ns_per_op(depth: usize) -> f64 {
    let mut q: EventQueue<u64, u64> = EventQueue::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1_000_000
    };
    for i in 0..depth.max(1) as u64 {
        q.push(next(), i);
    }
    per_call_ns(256, || {
        let (t, ev) = q.pop().expect("held queue is never empty");
        q.push(t + 1 + next(), black_box(ev));
    })
}

/// Host time the cold-start probe may take. `metro_core`'s 200
/// routers need about 9 s to converge — a whole rep — so there the
/// probe reports the per-packet cost of the first two seconds only.
const COLD_BUDGET: Duration = Duration::from_secs(2);

/// Cold-start the IGP alone on `topo` and run it towards convergence:
/// `(host ms to converge, host ns per delivered packet)`. The first is
/// 0 when the budget ran out before the LSDBs agreed.
fn cold_converge(topo: &Topology) -> (f64, f64) {
    let t = Instant::now();
    let mut h = Harness::new();
    for r in topo.routers() {
        h.add_router(r);
    }
    for (a, b, metric) in topo.all_links() {
        if a < b {
            h.connect(a, b, metric, Dur::from_millis(1));
        }
    }
    for (router, prefix, metric) in topo.all_announcements() {
        h.instance_mut(router).announce(prefix, metric);
    }
    h.start_all();
    let mut converged = false;
    while !converged && t.elapsed() < COLD_BUDGET && h.now() < Timestamp::from_secs(60) {
        // One 200 ms step of simulated time per call.
        converged = h.run_until_converged(h.now() + Dur::from_millis(200));
    }
    let ns = t.elapsed().as_nanos() as f64;
    (
        if converged { ns / 1e6 } else { 0.0 },
        ns / h.delivered.max(1) as f64,
    )
}

/// Run every outside probe against the paused `run` of `cell`.
/// `queue_depth` is the deepest the event queue has been so far.
pub fn run_all(cell: &Cell, run: &mut ScenarioRun, queue_depth: usize) -> Values {
    let mut v = Values::new();
    v.insert("netsim.flows_at_checkpoint", run.sim.flow_count() as f64);
    v.insert("kernel.queue_ns_per_op", queue_ns_per_op(queue_depth));

    // The speaker whose LSDB stands for "what the network knows": the
    // controller's when there is one, else the first sink's.
    let sink = cell.spec.effective_sinks()[0];
    let speaker = if run.ctrl.is_some() {
        CONTROLLER_ID
    } else {
        sink
    };

    // --- igp ---
    let seed = cell.opts.seed.unwrap_or(cell.spec.seed);
    let graph = {
        let mut g = workloads::graph_of(&cell.spec, seed);
        for (i, s) in cell.spec.effective_sinks().iter().enumerate() {
            let _ = g.announce_prefix(*s, Prefix::net24((i + 1) as u8), Metric::ZERO);
        }
        g
    };
    let (cold_ms, cold_ns_per_pkt) = cold_converge(&graph);
    v.insert("igp.cold_converge_ms", cold_ms);
    v.insert("igp.cold_ns_per_pkt", cold_ns_per_pkt);

    let lsas: Vec<Lsa> = run
        .sim
        .instance(speaker)
        .map(|i| i.lsdb().iter().cloned().collect())
        .unwrap_or_default();
    let packets: Vec<Packet> = lsas
        .into_iter()
        .map(|lsa| Packet::LsUpdate(LsUpdate { lsas: vec![lsa] }))
        .collect();
    let encoded: Vec<bytes::Bytes> = packets.iter().map(|p| wire::encode(p, sink)).collect();
    let n = packets.len().max(1) as f64;
    v.insert(
        "igp.wire_encode_ns_per_pkt",
        call_ns(|| {
            for p in &packets {
                black_box(wire::encode(p, sink));
            }
        }) / n,
    );
    v.insert(
        "igp.wire_decode_ns_per_pkt",
        call_ns(|| {
            for b in &encoded {
                black_box(wire::decode(b.clone()).expect("own encoding decodes"));
            }
        }) / n,
    );

    let view = run
        .sim
        .ctx()
        .topology_view(speaker)
        .expect("the probed speaker exists");
    let real = view.without_fakes();
    v.insert(
        "igp.spf_full_probe_us",
        call_ns(|| compute_routes(&view, sink)) / 1e3,
    );
    let prefixes = view.all_prefixes();
    v.insert(
        "igp.prefix_routes_probe_us",
        match prefixes.first() {
            Some(p) => call_ns(|| prefix_routes(&view, *p)) / 1e3,
            None => 0.0,
        },
    );

    // Demands as the controller books them: per (ingress, prefix).
    let mut by_prefix: BTreeMap<Prefix, BTreeMap<RouterId, f64>> = BTreeMap::new();
    for f in run.sim.flows() {
        *by_prefix
            .entry(f.key.dst)
            .or_default()
            .entry(f.key.src)
            .or_insert(0.0) += f.cap.unwrap_or(125_000.0);
    }
    let demands: Vec<Demand> = by_prefix
        .iter()
        .flat_map(|(prefix, m)| {
            m.iter().map(|(src, rate)| Demand {
                src: *src,
                prefix: *prefix,
                rate: *rate,
            })
        })
        .collect();
    v.insert(
        "igp.spread_probe_us",
        call_ns(|| spread(&view, &demands)) / 1e3,
    );

    // --- netsim ---
    let links: Vec<_> = run.sim.ctx().links().collect();
    let up_caps: BTreeMap<LinkKey, f64> = links
        .iter()
        .filter(|l| l.up)
        .map(|l| (l.key, l.capacity))
        .collect();
    let routed: Vec<(Vec<LinkKey>, Option<f64>)> = run
        .sim
        .flows()
        .filter_map(|f| f.path.clone().map(|p| (p, f.cap)))
        .filter(|(p, _)| p.iter().all(|k| up_caps.contains_key(k)))
        .collect();
    let inputs = |n: usize| routed[..n].iter().map(|(p, c)| (p.as_slice(), *c));
    v.insert(
        "netsim.alloc_probe_cold_us",
        call_ns(|| {
            let mut a = Allocator::new();
            a.allocate(&up_caps, inputs(routed.len()));
            a
        }) / 1e3,
    );
    let mut warm = Allocator::new();
    let mut drop_one = false;
    v.insert(
        "netsim.alloc_probe_warm_us",
        call_ns(|| {
            drop_one = !drop_one;
            let n = routed.len() - usize::from(drop_one && !routed.is_empty());
            warm.allocate(&up_caps, inputs(n));
        }) / 1e3,
    );
    v.insert(
        "netsim.topology_view_probe_us",
        call_ns(|| run.sim.ctx().topology_view(speaker)) / 1e3,
    );

    // --- telemetry ---
    v.insert(
        "telemetry.snmp_walk_probe_us",
        call_ns(|| run.sim.ctx().snmp_walk(sink, &oids::if_out_octets())) / 1e3,
    );
    let mut monitor: LoadMonitor<LinkKey> = LoadMonitor::new(
        CounterWidth::C64,
        0.3,
        Threshold::new(0.8, 0.3, Dur::from_secs(2)),
    );
    for l in &links {
        monitor.add(l.key, l.capacity);
    }
    let mut tick = 0u64;
    v.insert(
        "telemetry.monitor_sample_ns",
        call_ns(|| {
            tick += 1;
            let at = Timestamp::from_secs(tick);
            for l in &links {
                black_box(monitor.on_sample(&l.key, at, tick * 1_000_000));
            }
        }) / links.len().max(1) as f64,
    );

    // --- core ---
    v.insert(
        "core.view_probe_us",
        call_ns(|| {
            run.sim
                .ctx()
                .topology_view(speaker)
                .map(|t| t.without_fakes())
        }) / 1e3,
    );
    let caps: BTreeMap<(RouterId, RouterId), f64> = links
        .iter()
        .filter(|l| l.key.from != CONTROLLER_ID && l.key.to != CONTROLLER_ID)
        .map(|l| ((l.key.from, l.key.to), l.capacity))
        .collect();
    let ctrl = cell.spec.controller.clone().unwrap_or_default();
    let busiest = by_prefix.iter().max_by(|a, b| {
        let total = |m: &BTreeMap<RouterId, f64>| m.values().sum::<f64>();
        total(a.1).total_cmp(&total(b.1))
    });
    let mut core = [0.0f64; 4];
    if let Some((prefix, m)) = busiest {
        let dem: Vec<(RouterId, f64)> = m.iter().map(|(r, x)| (*r, *x)).collect();
        let plan_once = || {
            plan_paths(
                &real,
                *prefix,
                &dem,
                &caps,
                ctrl.target_util,
                ctrl.slot_budget,
            )
        };
        if let Ok(plan) = plan_once() {
            core[0] = call_ns(plan_once) / 1e3;
            let augment_once = || augment(&real, &plan.dag, &mut LieAllocator::new());
            if let Ok(aug) = augment_once() {
                core[1] = call_ns(augment_once) / 1e3;
                core[2] = call_ns(|| reduce(&real, &plan.dag, &aug.lies)) / 1e3;
                let lies = reduce(&real, &plan.dag, &aug.lies);
                core[3] =
                    call_ns(|| check_preserving(&real, &apply_all(&real, &lies), &plan.dag)) / 1e3;
            }
        }
    }
    v.insert("core.plan_paths_probe_us", core[0]);
    v.insert("core.augment_probe_us", core[1]);
    v.insert("core.reduce_probe_us", core[2]);
    v.insert("core.verify_probe_us", core[3]);

    // --- video ---
    let rate = 125_000.0;
    let mut player = Player::new(
        Video::constant(1e9, rate),
        PlayerConfig::default(),
        Timestamp::ZERO,
    );
    let mut now = 0.0f64;
    v.insert(
        "video.player_advance_ns",
        per_call_ns(256, || {
            now += 0.1;
            player.advance(now, 0.1, rate * 0.1);
        }),
    );
    black_box(player.played_secs());
    v
}
