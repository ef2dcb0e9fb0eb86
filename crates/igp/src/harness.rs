//! A minimal event-driven harness wiring [`Instance`]s together.
//!
//! This is the IGP crate's own test/bench driver: a tiny discrete-event
//! loop that delivers packets between instances over fixed-delay links
//! and fires protocol timers in timestamp order. The full data-plane
//! simulator in `fib-netsim` supersedes it for real experiments; this
//! one exists so the protocol can be exercised (and benchmarked)
//! without any higher layer. It drives the protocol at the byte level:
//! every datagram an instance sends is encoded, and the bytes are what
//! loss strikes and what the receiver decodes.

use crate::instance::{Config, Instance, Output};
use crate::rib::RouteTable;
use crate::time::{Dur, Timestamp};
use crate::types::{IfaceId, Metric, RouterId};
use bytes::Bytes;
use std::collections::{BTreeMap, BinaryHeap};

#[derive(Debug)]
struct Wire {
    a: (RouterId, IfaceId),
    b: (RouterId, IfaceId),
    delay: Dur,
    up: bool,
}

#[derive(Debug, PartialEq, Eq)]
struct PendingPkt {
    at: Timestamp,
    seq: u64,
    to: RouterId,
    iface: IfaceId,
    data: Bytes,
}

impl Ord for PendingPkt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for min-heap on (at, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for PendingPkt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A network of protocol instances linked by fixed-delay wires.
pub struct Harness {
    instances: BTreeMap<RouterId, Instance>,
    wires: Vec<Wire>,
    pkts: BinaryHeap<PendingPkt>,
    seq: u64,
    now: Timestamp,
    loss: f64,
    loss_seed: u64,
    /// FIB downloads observed per router (latest wins).
    pub fibs: BTreeMap<RouterId, RouteTable>,
    /// Count of delivered packets (for convergence benchmarks).
    pub delivered: u64,
    /// Count of dropped packets (wire down or random loss).
    pub dropped: u64,
}

impl Harness {
    /// An empty harness at time zero.
    pub fn new() -> Harness {
        Harness {
            instances: BTreeMap::new(),
            wires: Vec::new(),
            pkts: BinaryHeap::new(),
            seq: 0,
            now: Timestamp::ZERO,
            loss: 0.0,
            loss_seed: 0,
            fibs: BTreeMap::new(),
            delivered: 0,
            dropped: 0,
        }
    }

    /// Fault injection: drop each packet with probability `loss`. The
    /// protocol's retransmission machinery must still converge the
    /// network — asserted by tests.
    ///
    /// Whether a packet is lost is a function of `seed`, the sending
    /// interface, the instant and the bytes alone, not of how many
    /// packets went before: two harnesses that send the same packet at
    /// the same instant lose it alike, so runs of two protocol rules
    /// under loss differ only where the rules do.
    pub fn set_loss(&mut self, loss: f64, seed: u64) {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        self.loss = loss;
        self.loss_seed = seed;
    }

    /// Whether loss takes `data`, sent by `from` on `iface` now: FNV-1a
    /// over the packet's identity, then a splitmix64 finish.
    fn lost(&self, from: RouterId, iface: IfaceId, data: &[u8]) -> bool {
        let who = [
            self.loss_seed,
            u64::from(from.0),
            u64::from(iface.0),
            self.now.0,
        ];
        let mut h = who
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .chain(data.iter().copied())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < self.loss
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Add a router with default configuration.
    pub fn add_router(&mut self, id: RouterId) {
        self.add_router_cfg(Config::new(id));
    }

    /// Add a router with explicit configuration.
    pub fn add_router_cfg(&mut self, cfg: Config) {
        let id = cfg.router_id;
        self.instances.insert(id, Instance::new(cfg));
    }

    /// Access an instance.
    pub fn instance(&self, id: RouterId) -> &Instance {
        &self.instances[&id]
    }

    /// Mutable access to an instance.
    pub fn instance_mut(&mut self, id: RouterId) -> &mut Instance {
        self.instances.get_mut(&id).expect("unknown router")
    }

    /// All router ids.
    pub fn routers(&self) -> Vec<RouterId> {
        self.instances.keys().copied().collect()
    }

    /// Connect two routers with a symmetric wire. Allocates the next
    /// free interface id on each side; returns them.
    pub fn connect(
        &mut self,
        a: RouterId,
        b: RouterId,
        cost: Metric,
        delay: Dur,
    ) -> (IfaceId, IfaceId) {
        let ia = self.next_iface(a);
        let ib = self.next_iface(b);
        self.instances.get_mut(&a).unwrap().add_iface(ia, cost);
        self.instances.get_mut(&b).unwrap().add_iface(ib, cost);
        self.wires.push(Wire {
            a: (a, ia),
            b: (b, ib),
            delay,
            up: true,
        });
        (ia, ib)
    }

    fn next_iface(&self, r: RouterId) -> IfaceId {
        let used = self
            .wires
            .iter()
            .flat_map(|w| [w.a, w.b])
            .filter(|(rid, _)| *rid == r)
            .count();
        IfaceId(used as u16)
    }

    /// Bring a wire down/up by endpoints (first matching wire).
    pub fn set_wire_up(&mut self, a: RouterId, b: RouterId, up: bool) -> bool {
        for w in &mut self.wires {
            let ends = (w.a.0, w.b.0);
            if ends == (a, b) || ends == (b, a) {
                w.up = up;
                return true;
            }
        }
        false
    }

    /// Start every instance at the current time.
    pub fn start_all(&mut self) {
        let now = self.now;
        for inst in self.instances.values_mut() {
            inst.start(now);
        }
        self.collect_outputs();
    }

    fn route_pkt(&self, from: RouterId, iface: IfaceId) -> Option<(RouterId, IfaceId, Dur)> {
        for w in &self.wires {
            if !w.up {
                continue;
            }
            if w.a == (from, iface) {
                return Some((w.b.0, w.b.1, w.delay));
            }
            if w.b == (from, iface) {
                return Some((w.a.0, w.a.1, w.delay));
            }
        }
        None
    }

    fn collect_outputs(&mut self) {
        let ids: Vec<RouterId> = self.instances.keys().copied().collect();
        let mut to_send: Vec<(RouterId, IfaceId, Bytes)> = Vec::new();
        for id in ids {
            let inst = self.instances.get_mut(&id).unwrap();
            for out in inst.drain_output() {
                match out {
                    Output::Send { iface, datagram } => {
                        to_send.push((id, iface, datagram.encode(id)))
                    }
                    Output::FibUpdate(table) => {
                        self.fibs.insert(id, table);
                    }
                }
            }
        }
        for (from, iface, data) in to_send {
            match self.route_pkt(from, iface) {
                Some((to, rif, delay)) => {
                    if self.loss > 0.0 && self.lost(from, iface, &data) {
                        self.dropped += 1;
                        continue;
                    }
                    self.seq += 1;
                    self.pkts.push(PendingPkt {
                        at: self.now + delay,
                        seq: self.seq,
                        to,
                        iface: rif,
                        data,
                    });
                }
                None => self.dropped += 1,
            }
        }
    }

    fn next_event_time(&self) -> Option<Timestamp> {
        let pkt = self.pkts.peek().map(|p| p.at);
        let timer = self.instances.values().filter_map(|i| i.next_timer()).min();
        match (pkt, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Advance simulated time to `until`, processing all events in
    /// order. Returns the number of events processed.
    pub fn run_until(&mut self, until: Timestamp) -> u64 {
        let mut events = 0;
        while let Some(t) = self.next_event_time() {
            if t > until {
                break;
            }
            self.now = self.now.max(t);
            // Deliver every packet due now.
            while self.pkts.peek().map(|p| p.at <= self.now).unwrap_or(false) {
                let p = self.pkts.pop().unwrap();
                events += 1;
                if let Some(inst) = self.instances.get_mut(&p.to) {
                    // Decode errors are the receiver's problem (they
                    // count them); the harness keeps running.
                    let _ = inst.handle_packet(p.iface, p.data, self.now);
                    self.delivered += 1;
                }
            }
            // Fire timers due now.
            let now = self.now;
            for inst in self.instances.values_mut() {
                if inst.next_timer().map(|t| t <= now).unwrap_or(false) {
                    inst.poll_timers(now);
                    events += 1;
                }
            }
            self.collect_outputs();
        }
        self.now = self.now.max(until);
        events
    }

    /// Run until no packets are in flight and the earliest timer is a
    /// periodic hello (i.e. the network is quiescent), or `deadline`
    /// passes. Returns `true` if quiescence was reached.
    pub fn run_until_converged(&mut self, deadline: Timestamp) -> bool {
        // Convergence check: every pair of adjacent started instances
        // has identical LSDB versions is too strong (versions are
        // per-instance); instead: no packets in flight and all
        // instances' LSDBs describe the same set of (key, seq).
        loop {
            // Process a chunk of events.
            let step = Dur::from_millis(200);
            let target = (self.now + step).min(deadline);
            self.run_until(target);
            if self.pkts.is_empty() && self.lsdbs_agree() {
                return true;
            }
            if self.now >= deadline {
                return self.pkts.is_empty() && self.lsdbs_agree();
            }
        }
    }

    /// `true` if every instance's LSDB holds exactly the same LSA
    /// headers (ignoring age).
    pub fn lsdbs_agree(&self) -> bool {
        let mut iter = self.instances.values();
        let Some(first) = iter.next() else {
            return true;
        };
        iter.all(|i| i.lsdb().same_instances(first.lsdb()))
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Prefix;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// `n` routers in a line, r1 - … - rn, prefix at rn.
    fn line(n: u32) -> Harness {
        let mut h = Harness::new();
        for i in 1..=n {
            h.add_router(r(i));
        }
        for i in 1..n {
            h.connect(r(i), r(i + 1), Metric(10), Dur::from_millis(1));
        }
        h.instance_mut(r(n)).announce(Prefix::net24(1), Metric(0));
        h
    }

    #[test]
    fn line_converges_and_routes() {
        let mut h = line(3);
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        let fib1 = h.fibs.get(&r(1)).expect("r1 has a FIB");
        let route = fib1.route(Prefix::net24(1)).expect("r1 routes to prefix");
        assert_eq!(route.dist, Metric(20));
        assert_eq!(route.nexthops, vec![crate::types::FwAddr::primary(r(2))]);
        // All LSDBs agree on content.
        assert!(h.lsdbs_agree());
    }

    #[test]
    fn fake_lsa_floods_to_every_router() {
        let mut h = line(3);
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        // Controller-style injection at r1: fake node attached to r3.
        let t = h.now();
        h.instance_mut(r(1))
            .inject_fake(
                RouterId::fake(0),
                r(3),
                Metric(1),
                Prefix::net24(1),
                Metric(1),
                crate::types::FwAddr::primary(r(2)),
                t,
            )
            .unwrap();
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        for id in [r(1), r(2), r(3)] {
            let has_fake = h
                .instance(id)
                .lsdb()
                .iter()
                .any(|l| l.key.origin == RouterId::fake(0));
            assert!(has_fake, "router {id} missing the fake LSA");
        }
    }

    #[test]
    fn retraction_purges_everywhere() {
        let mut h = line(3);
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        let t = h.now();
        h.instance_mut(r(1))
            .inject_fake(
                RouterId::fake(0),
                r(3),
                Metric(1),
                Prefix::net24(1),
                Metric(1),
                crate::types::FwAddr::primary(r(2)),
                t,
            )
            .unwrap();
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        let t = h.now();
        h.instance_mut(r(1))
            .retract_fake(RouterId::fake(0), t)
            .unwrap();
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        for id in [r(1), r(2), r(3)] {
            let has_fake = h
                .instance(id)
                .lsdb()
                .iter()
                .any(|l| l.key.origin == RouterId::fake(0));
            assert!(!has_fake, "router {id} still holds the purged fake LSA");
        }
    }

    #[test]
    fn convergence_survives_packet_loss() {
        // Random loss: hellos, DBDs, updates and acks all get dropped;
        // retransmissions must still converge the network. (This test
        // caught two real protocol bugs: a lost final DBD chunk
        // deadlocking the slave, and a database summary snapshot taken
        // before concurrently learned LSAs could flood.) Four routers,
        // not three: since floods are packed, three routers converge on
        // so few packets that seed 2 at 10 % dropped none of them.
        for seed in 1..=6u64 {
            for loss in [0.1, 0.25] {
                let mut h = line(4);
                h.set_loss(loss, seed);
                h.start_all();
                // Under heavy loss, dead intervals can legitimately
                // fire (4 consecutive hellos lost) and flap an
                // adjacency; wait for a window where the network is
                // both quiescent and fully routed.
                let mut routed = false;
                while h.now() < Timestamp::from_secs(240) {
                    let t = h.now();
                    h.run_until_converged(t + Dur::from_secs(2));
                    let ok = h.lsdbs_agree()
                        && h.fibs
                            .get(&r(1))
                            .map(|f| {
                                f.nexthops(Prefix::net24(1))
                                    == [crate::types::FwAddr::primary(r(2))]
                            })
                            .unwrap_or(false);
                    if ok {
                        routed = true;
                        break;
                    }
                }
                assert!(routed, "seed {seed} loss {loss}: never fully routed");
                assert!(h.dropped > 0, "seed {seed}: loss was never exercised");
            }
        }
    }

    #[test]
    fn a_lost_multi_lsa_update_is_recovered_by_retransmission() {
        let mut h = line(3);
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        // Three lies at once: r1 floods them to r2 in one LS Update.
        let t = h.now();
        for k in 0..3 {
            h.instance_mut(r(1))
                .inject_fake(
                    RouterId::fake(k),
                    r(3),
                    Metric(1),
                    Prefix::net24(1),
                    Metric(1),
                    crate::types::FwAddr::primary(r(2)),
                    t,
                )
                .unwrap();
        }
        h.collect_outputs();
        let (lost, kept): (Vec<PendingPkt>, Vec<PendingPkt>) =
            std::mem::take(&mut h.pkts).into_iter().partition(|p| {
                matches!(
                    crate::wire::decode(p.data.clone()),
                    Ok((_, crate::wire::Packet::LsUpdate(ref u))) if u.lsas.len() == 3
                )
            });
        assert_eq!(lost.len(), 1, "one update carries all three lies");
        h.pkts = kept.into_iter().collect();
        h.dropped += 1;
        let holds = |h: &Harness, id: RouterId, k: u32| {
            h.instance(id)
                .lsdb()
                .iter()
                .any(|l| l.key.origin == RouterId::fake(k))
        };
        // Nothing else carries them: until r1's retransmit interval runs
        // out, r2 has none of the three.
        h.run_until(t + Dur::from_millis(999));
        assert!((0..3).all(|k| !holds(&h, r(2), k)));
        // The retransmission brings every one of them, through r2 to r3.
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        for k in 0..3 {
            for id in [r(2), r(3)] {
                assert!(holds(&h, id, k), "router {id} missing lie {k}");
            }
        }
    }

    /// A stale copy crossing a fresher one whose flood was lost: the
    /// fresher instance sits on the sender's retransmit list, so no
    /// reply goes out, and retransmission repairs the neighbor one
    /// interval later. The rule that answered every stale copy repaired
    /// it at once.
    #[test]
    fn a_stale_copy_crossing_a_lost_flood_waits_for_the_retransmission() {
        let fake0 = crate::lsa::LsaKey {
            origin: RouterId::fake(0),
            kind: crate::lsa::LsaKind::Fake,
            id: 0,
        };
        for always_reply in [false, true] {
            let mut h = line(3);
            if always_reply {
                for id in h.routers() {
                    h.instance_mut(id).use_always_reply_rule();
                }
            }
            h.start_all();
            assert!(h.run_until_converged(Timestamp::from_secs(30)));
            // r3 tells fake0 at its first sequence number; r1 tells it
            // twice at once, so its flood to r2 carries the first two.
            let t = h.now();
            let inject = |h: &mut Harness, at: u32| {
                h.instance_mut(r(at))
                    .inject_fake(
                        RouterId::fake(0),
                        r(2),
                        Metric(1),
                        Prefix::net24(1),
                        Metric(1),
                        crate::types::FwAddr::primary(r(2)),
                        t,
                    )
                    .unwrap();
            };
            inject(&mut h, 3);
            inject(&mut h, 1);
            inject(&mut h, 1);
            let fresh = h.instance(r(1)).lsdb().get(&fake0).unwrap().seq;
            h.collect_outputs();
            // r1's flood to r2 is lost; r3's first instance reaches r2 at
            // 1 ms, and r2's flood of it reaches r1 at 2 ms, stale.
            let from_r1 = |p: &PendingPkt| {
                matches!(
                    crate::wire::decode(p.data.clone()),
                    Ok((sender, crate::wire::Packet::LsUpdate(_))) if sender == r(1)
                )
            };
            let before = h.pkts.len();
            h.pkts.retain(|p| !from_r1(p));
            assert_eq!(h.pkts.len(), before - 1, "r1 floods to r2 in one update");
            h.run_until(t + Dur::from_millis(2));
            let replies = h.pkts.iter().filter(|p| from_r1(p)).count();
            let held_by_r2 = |h: &Harness| h.instance(r(2)).lsdb().get(&fake0).unwrap().seq;
            if always_reply {
                assert_eq!(replies, 1, "the reference answers the stale copy");
                h.run_until(t + Dur::from_millis(3));
                assert_eq!(held_by_r2(&h), fresh);
                continue;
            }
            assert_eq!(replies, 0, "r1's retransmit list holds its copy for r2");
            // r1 retransmits one interval (1 s) after the flood.
            h.run_until(t + Dur::from_millis(999));
            assert!(
                held_by_r2(&h) < fresh,
                "nothing but the retransmission repairs r2"
            );
            h.run_until(t + Dur::from_millis(1001));
            assert_eq!(held_by_r2(&h), fresh, "the retransmission repaired r2");
        }
    }

    #[test]
    fn lie_injection_survives_packet_loss() {
        let mut h = line(3);
        h.set_loss(0.2, 7);
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(120)));
        let t = h.now();
        h.instance_mut(r(1))
            .inject_fake(
                RouterId::fake(0),
                r(3),
                Metric(1),
                Prefix::net24(1),
                Metric(1),
                crate::types::FwAddr::primary(r(2)),
                t,
            )
            .unwrap();
        assert!(h.run_until_converged(t + Dur::from_secs(120)));
        for id in [r(1), r(2), r(3)] {
            assert!(
                h.instance(id)
                    .lsdb()
                    .iter()
                    .any(|l| l.key.origin == RouterId::fake(0)),
                "router {id} missing the fake LSA despite retransmissions"
            );
        }
    }

    #[test]
    fn link_failure_reroutes() {
        // Square: r1-r2, r2-r4, r1-r3, r3-r4; prefix at r4.
        let mut h = Harness::new();
        for i in 1..=4 {
            h.add_router(r(i));
        }
        h.connect(r(1), r(2), Metric(1), Dur::from_millis(1));
        h.connect(r(2), r(4), Metric(1), Dur::from_millis(1));
        h.connect(r(1), r(3), Metric(5), Dur::from_millis(1));
        h.connect(r(3), r(4), Metric(5), Dur::from_millis(1));
        h.instance_mut(r(4)).announce(Prefix::net24(1), Metric(0));
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        let p = Prefix::net24(1);
        assert_eq!(
            h.fibs[&r(1)].nexthops(p),
            &[crate::types::FwAddr::primary(r(2))]
        );
        // Fail r1-r2; r1 must reroute via r3 once the dead interval
        // expires.
        assert!(h.set_wire_up(r(1), r(2), false));
        let t = h.now();
        h.run_until(t + Dur::from_secs(10));
        assert_eq!(
            h.fibs[&r(1)].nexthops(p),
            &[crate::types::FwAddr::primary(r(3))],
            "r1 should reroute via r3 after the failure"
        );
    }
}

/// Random scripts for lockstep differentials: two harnesses, identical
/// but for one rule their instances run, are driven through the same
/// script and compared after each step.
#[cfg(test)]
mod lockstep {
    use super::*;
    use crate::types::{FwAddr, Prefix};
    use proptest::prelude::*;

    /// One step of a script. Router and wire indices wrap around the
    /// harness's size; injecting an installed lie re-injects it, and
    /// retracting somebody else's is an (ignored) error. `Run` delivers
    /// updates and acks and polls timers for `ms` milliseconds.
    #[derive(Debug, Clone)]
    pub(super) enum Op {
        Inject { at: usize, fake: u32 },
        Retract { at: usize, fake: u32 },
        Announce { at: usize, net: u8 },
        Withdraw { at: usize, net: u8 },
        Wire { i: usize, up: bool },
        Run { ms: u64 },
    }

    pub(super) fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..6, 0u32..3).prop_map(|(at, fake)| Op::Inject { at, fake }),
            (0usize..6, 0u32..3).prop_map(|(at, fake)| Op::Retract { at, fake }),
            (0usize..6, 1u8..4).prop_map(|(at, net)| Op::Announce { at, net }),
            (0usize..6, 1u8..4).prop_map(|(at, net)| Op::Withdraw { at, net }),
            (0usize..8, any::<bool>()).prop_map(|(i, up)| Op::Wire { i, up }),
            (1u64..1500).prop_map(|ms| Op::Run { ms }),
            (1u64..1500).prop_map(|ms| Op::Run { ms }),
        ]
    }

    /// A ring of `n` routers with one chord, each instance set up by
    /// `rule` before it starts.
    pub(super) fn build(n: usize, loss: f64, seed: u64, rule: impl Fn(&mut Instance)) -> Harness {
        let mut h = Harness::new();
        let ids: Vec<RouterId> = (1..=n as u32).map(RouterId).collect();
        for &id in &ids {
            h.add_router(id);
            rule(h.instance_mut(id));
        }
        for i in 0..n {
            h.connect(ids[i], ids[(i + 1) % n], Metric(1), Dur::from_millis(1));
        }
        h.connect(ids[0], ids[n / 2], Metric(3), Dur::from_millis(2));
        h.instance_mut(ids[n - 1])
            .announce(Prefix::net24(1), Metric(0));
        h.set_loss(loss, seed);
        h.start_all();
        h
    }

    pub(super) fn apply(h: &mut Harness, op: &Op) {
        let ids = h.routers();
        let router = |at: usize| ids[at % ids.len()];
        let now = h.now();
        match *op {
            Op::Inject { at, fake } => {
                let attach = router(at + 1);
                let _ = h.instance_mut(router(at)).inject_fake(
                    RouterId::fake(fake),
                    attach,
                    Metric(1),
                    Prefix::net24(1),
                    Metric(1),
                    FwAddr::primary(router(at + 2)),
                    now,
                );
            }
            Op::Retract { at, fake } => {
                let _ = h
                    .instance_mut(router(at))
                    .retract_fake(RouterId::fake(fake), now);
            }
            Op::Announce { at, net } => {
                h.instance_mut(router(at))
                    .announce(Prefix::net24(net), Metric(0));
            }
            Op::Withdraw { at, net } => h.instance_mut(router(at)).withdraw(Prefix::net24(net)),
            Op::Wire { i, up } => {
                let w = &h.wires[i % h.wires.len()];
                let (a, b) = (w.a.0, w.b.0);
                h.set_wire_up(a, b, up);
            }
            Op::Run { ms } => {
                let t = h.now() + Dur::from_millis(ms);
                h.run_until(t);
            }
        }
        // Host-side mutations emit immediately; `run_until` collects
        // only after its own events.
        h.collect_outputs();
    }
}

/// The indexed MaxAge sweep against the full-scan one it replaced, on
/// lossy wires so retransmit lists stay populated while purges are in
/// flight.
#[cfg(test)]
mod sweep_equivalence {
    use super::lockstep::{apply, arb_op, build};
    use super::*;
    use crate::instance::Stats;
    use crate::lsa::Lsa;
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;
    use std::cell::Cell;

    /// Everything an observer can see of one harness.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Per instance: LSDB contents, pending SPF deadline, counters.
        instances: Vec<(RouterId, Vec<Lsa>, Option<Timestamp>, Stats)>,
        /// Drained `Send` outputs, as the packets still in flight.
        in_flight: Vec<(Timestamp, u64, RouterId, IfaceId, Bytes)>,
        /// Drained `FibUpdate` outputs.
        fibs: BTreeMap<RouterId, RouteTable>,
        delivered: u64,
        dropped: u64,
    }

    fn observe(h: &Harness) -> Observed {
        let mut in_flight: Vec<_> = h
            .pkts
            .iter()
            .map(|p| (p.at, p.seq, p.to, p.iface, p.data.clone()))
            .collect();
        in_flight.sort_by_key(|p| (p.0, p.1));
        Observed {
            instances: h
                .instances
                .iter()
                .map(|(id, i)| (*id, i.lsdb().iter().cloned().collect(), i.spf_at(), i.stats))
                .collect(),
            in_flight,
            fibs: h.fibs.clone(),
            delivered: h.delivered,
            dropped: h.dropped,
        }
    }

    #[test]
    fn indexed_sweep_matches_full_scan() {
        let script = (
            3usize..=6,
            prop_oneof![Just(0.0), Just(0.15), Just(0.3)],
            any::<u64>(),
            proptest::collection::vec(arb_op(), 1..40),
        );
        let sweep_visits = Cell::new(0);
        TestRunner::new(ProptestConfig::with_cases(48)).run(&script, |(n, loss, seed, ops)| {
            let mut indexed = build(n, loss, seed, |_| {});
            let mut reference = build(n, loss, seed, Instance::use_full_scan_sweep);
            prop_assert_eq!(observe(&indexed), observe(&reference));
            for (step, op) in ops.iter().enumerate() {
                apply(&mut indexed, op);
                apply(&mut reference, op);
                prop_assert!(
                    observe(&indexed) == observe(&reference),
                    "diverged at step {step} ({op:?}):\n indexed: {:?}\n full scan: {:?}",
                    observe(&indexed),
                    observe(&reference)
                );
            }
            let visits: u64 = indexed.instances.values().map(|i| i.sweep_visits()).sum();
            sweep_visits.set(sweep_visits.get() + visits);
            Ok(())
        });
        // The scripts must have put purges through the sweep, not
        // skirted it.
        assert!(sweep_visits.get() > 100, "{} visits", sweep_visits.get());
    }
}

/// A stale copy answered only when the neighbor's retransmit list lacks
/// ours, against the rule that answered every one.
#[cfg(test)]
mod stale_reply_equivalence {
    use super::lockstep::{apply, arb_op, build, Op};
    use super::*;
    use crate::lsa::{Lsa, LsaBody, LsaKey};
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;
    use std::cell::Cell;

    /// What the data plane sees of one harness: per instance its LSDB
    /// and pending SPF deadline, and every FIB download. Packets in
    /// flight and `Stats` are what the rule changes, so they are left
    /// out.
    #[derive(Debug, PartialEq)]
    struct Observed {
        instances: Vec<(RouterId, Vec<Lsa>, Option<Timestamp>)>,
        fibs: BTreeMap<RouterId, RouteTable>,
    }

    fn observe(h: &Harness) -> Observed {
        Observed {
            instances: h
                .instances
                .iter()
                .map(|(id, i)| (*id, i.lsdb().iter().cloned().collect(), i.spf_at()))
                .collect(),
            fibs: h.fibs.clone(),
        }
    }

    /// Packets the always-reply harness sent beyond the other.
    fn saved_pkts(held: &Harness, always: &Harness) -> i64 {
        let sent =
            |h: &Harness| -> i64 { h.instances.values().map(|i| i.stats.pkts_sent as i64).sum() };
        sent(always) - sent(held)
    }

    fn script(
        routers: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = (usize, u64, Vec<Op>)> {
        (
            routers,
            any::<u64>(),
            proptest::collection::vec(arb_op(), 1..40),
        )
    }

    /// On lossless wires the copy held back was already ahead of the
    /// reply on the same wire, so the two rules agree on everything but
    /// the packets, after every step.
    ///
    /// The scripts let two routers inject one fake id, and it is in such
    /// lie wars that a reply to a neighbor whose retransmit list lacks
    /// our instance is needed: a rule that held those back as well
    /// diverges on two of these 200 scripts (and on none of 2 000 whose
    /// lies each have one originator, as in the simulator). Lie wars are
    /// also where the equality is not universal: once in the first 3 000
    /// scripts an always-sent reply, overtaken by an ack, reaches a
    /// neighbor after it swept a purge and installs the older lie again.
    #[test]
    fn held_back_replies_change_no_lsdb_spf_or_fib_on_lossless_wires() {
        let saved = Cell::new(0);
        TestRunner::new(ProptestConfig::with_cases(200)).run(&script(3..=6), |(n, seed, ops)| {
            let mut held = build(n, 0.0, seed, |_| {});
            let mut always = build(n, 0.0, seed, Instance::use_always_reply_rule);
            for (step, op) in ops.iter().enumerate() {
                apply(&mut held, op);
                apply(&mut always, op);
                prop_assert!(
                    observe(&held) == observe(&always),
                    "diverged at step {step} ({op:?}):\n held back: {:?}\n always: {:?}",
                    observe(&held),
                    observe(&always)
                );
            }
            saved.set(saved.get() + saved_pkts(&held, &always));
            Ok(())
        });
        // The scripts must have made stale copies cross fresher ones,
        // and the rule held replies back.
        assert!(saved.get() > 1_000, "{} packets saved", saved.get());
    }

    /// Run `h` with every wire up and no loss for ten seconds (past a
    /// dead interval, so every adjacency has formed again), then until
    /// each instance is at rest; `false` if that takes another minute.
    fn heal(h: &mut Harness) -> bool {
        for w in &mut h.wires {
            w.up = true;
        }
        h.loss = 0.0;
        let start = h.now();
        h.run_until(start + Dur::from_secs(10));
        while !h.instances.values().all(Instance::at_rest) {
            if h.now() > start + Dur::from_secs(70) {
                return false;
            }
            let t = h.now() + Dur::from_millis(100);
            h.run_until(t);
        }
        true
    }

    /// Under loss the two rules send different packets and repair at
    /// different times (the rule that holds a reply back leaves the
    /// repair to the retransmit timer), but once healed they must hold
    /// the same LSAs — sequence numbers aside: an adjacency that loss
    /// flaps re-originates its ends — and the same FIBs. Loss strikes a
    /// packet both harnesses send alike in both (`Harness::set_loss`).
    ///
    /// The scripts start on a converged network and keep to prefixes:
    /// no lies and no wire flaps. Two order-sensitive faults of the
    /// protocol, independent of the rule, would otherwise make the
    /// outcome depend on which packet loss happened to take: an instance
    /// receiving its own current LSA back re-originates it (a lie: purges
    /// it), and a request for an LSA the neighbor has since swept leaves
    /// the adjacency in Loading.
    #[test]
    fn with_loss_both_rules_settle_to_the_same_lsas() {
        let script = (prop_oneof![Just(0.15), Just(0.3)], script(4..=6));
        let saved = Cell::new(0);
        TestRunner::new(ProptestConfig::with_cases(48)).run(&script, |(loss, (n, seed, ops))| {
            let ops: Vec<Op> = ops
                .into_iter()
                .filter(|op| {
                    !matches!(op, Op::Inject { .. } | Op::Retract { .. } | Op::Wire { .. })
                })
                .collect();
            let mut held = build(n, 0.0, seed, |_| {});
            let mut always = build(n, 0.0, seed, Instance::use_always_reply_rule);
            for h in [&mut held, &mut always] {
                prop_assert!(h.run_until_converged(Timestamp::from_secs(30)));
                h.set_loss(loss, seed);
                for op in &ops {
                    apply(h, op);
                }
                prop_assert!(heal(h), "never at rest");
                prop_assert!(h.lsdbs_agree());
            }
            let lsas = |h: &Harness| -> Vec<(LsaKey, LsaBody)> {
                let lsdb = h.instance(RouterId(1)).lsdb();
                lsdb.iter().map(|l| (l.key, l.body.clone())).collect()
            };
            prop_assert_eq!(lsas(&held), lsas(&always));
            prop_assert_eq!(&held.fibs, &always.fibs);
            saved.set(saved.get() + saved_pkts(&held, &always));
            Ok(())
        });
        assert!(saved.get() > 100, "{} packets saved", saved.get());
    }
}
