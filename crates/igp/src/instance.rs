//! A sans-IO link-state protocol speaker.
//!
//! [`Instance`] is one router's (or the Fibbing controller's) protocol
//! engine. It owns the interfaces, neighbor state machines, LSDB,
//! flooding/retransmission machinery, self-origination, and SPF
//! scheduling — but performs no IO and reads no clock. A harness (the
//! network simulator, or [`crate::harness`] in tests) drives it:
//!
//! * deliver received datagrams with [`Instance::receive`] (as another
//!   instance sent them) or [`Instance::handle_packet`] (as bytes, which
//!   it decodes first),
//! * fire due timers with [`Instance::poll_timers`] (next deadline via
//!   [`Instance::next_timer`]),
//! * collect emissions (datagrams to send, FIB downloads, adjacency
//!   events) with [`Instance::drain_output`].
//!
//! What an instance sends is a [`Datagram`], not bytes: an LS Update
//! holds the very `Arc<Lsa>` instances its LSDB holds, so a receiver
//! that installs one shares it too. A driver that needs bytes encodes
//! the datagram ([`Datagram::encode`]); [`Datagram::encoded_len`] is
//! their number without encoding.
//!
//! The Fibbing controller is *just another speaker*: it forms an
//! adjacency with one real router and floods fake LSAs through the
//! ordinary machinery via [`Instance::inject_fake`] /
//! [`Instance::retract_fake`] — exactly how the original system
//! piggybacks on OSPF.
//!
//! ## Packing
//!
//! What an instance sends between two [`Instance::drain_output`] calls
//! is packed per interface, as OSPF packs it (RFC 2328 §13.3, §13.5):
//!
//! * **Updates.** The LSAs `flood` sends onto one interface go out in
//!   LS Updates of at most `MAX_UPD_LSAS` (16), in flood order; each
//!   update sits at the output position of its first LSA. Any other
//!   packet on the interface — a DBD, request, hello, stale-copy reply
//!   or retransmission — closes the open update, so per-interface order
//!   is otherwise what it was.
//! * **Acks.** Every header `on_update` owes one interface goes out in
//!   one LS Ack (a second one past the 4 368 headers a 16-bit packet
//!   length holds), at the position of the first. An ack may overtake an
//!   update on the way (or fall behind one): the receiver's `on_ack`
//!   and the implicit ack in its `on_update` only ever strike an entry
//!   from the retransmit list of the neighbor the packets came from,
//!   each when what it carries is at least as fresh as the entry; an
//!   update from that neighbor never floods back onto it, and the only
//!   entries it can add there are our own new originations (a router
//!   LSA on reaching Full, out-originating a stale copy of ours), newer
//!   than any instance the neighbor can have acked. So the two orders
//!   leave the same lists.
//!
//! Both are handed over at drain, where `Stats::pkts_sent` counts them.
//! Nothing waits: a drain happens once per batch of simultaneous
//! events, so every LSA still leaves at the instant it was flooded and
//! only packet and byte counts move. The per-LSA steps of `on_update`
//! (Loading → Full, the MaxAge sweep) still run after each LSA of a
//! packed update, as they did when each came alone.
//!
//! ## Stale copies
//!
//! An LSA older than the instance we hold is not acked, and our copy is
//! sent back to the neighbor it came from (RFC 2328 §13 step (8), which
//! rate-limits that reply by MinLSArrival) — unless the neighbor's
//! retransmit list already holds its key. A retransmit list holds keys,
//! and a listed key always names the instance the LSDB stores: a flood
//! lists the key of an instance the LSDB stores (`install_and_flood`
//! asserts it in debug builds), and the LSDB takes a fresher one only
//! by installing it, which floods it onto the list too or, from that
//! very neighbor, acks the listed one implicitly. So a listed key means
//! our instance: the flood that listed it left earlier on the same FIFO
//! link, ahead of any reply, or, if it was lost, the retransmit timer
//! sends it again within `RXMT_INTERVAL`; a reply would land as a
//! duplicate, and holding it back also leaves the interface's open
//! update open. A neighbor whose list lacks our instance (it is still
//! loading, or it acked and then swept a purge) still gets exactly one
//! one-LSA LS Update. On a cold start nearly every stale copy crosses
//! our flood of the fresher one: they were three quarters of
//! `metro_core`'s IGP packets.

use crate::error::InstanceError;
use crate::lsa::{
    compare_freshness, Freshness, KeyHash, Lsa, LsaHeader, LsaKey, LsaKind, LsaLink, MAX_AGE,
};
use crate::lsdb::{Install, Lsdb};
use crate::rib::RouteTable;
use crate::spf::SpfEngine;
use crate::time::{Dur, Timestamp};
use crate::types::{FwAddr, IfaceId, Metric, Prefix, RouterId, SeqNum};
use crate::wire::{self, Datagram, Dbd, Hello, LsAck, LsRequest, Packet};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;

/// Maximum LSA headers per DBD packet.
const MAX_DBD_HEADERS: usize = 64;
/// Maximum keys per LS request packet.
const MAX_REQ_KEYS: usize = 64;
/// Maximum LSAs per flooded LS update packet.
const MAX_UPD_LSAS: usize = 16;
/// Maximum headers per LS Ack: as many as a packet's 16-bit length
/// field allows.
const MAX_ACK_HEADERS: usize = (u16::MAX as usize - wire::HEADER_LEN - 2) / wire::LSA_HEADER_LEN;

// Fast modern IGP timers.
/// Hello emission period.
const HELLO_INTERVAL: Dur = Dur::from_secs(1);
/// Silence after which a neighbor is declared dead.
const DEAD_INTERVAL: Dur = Dur::from_secs(4);
/// Retransmission period for unacked LSAs and DBDs.
const RXMT_INTERVAL: Dur = Dur::from_secs(1);
/// Delay between an LSDB change and the SPF run (batching).
const SPF_DELAY: Dur = Dur::from_millis(50);

/// Static configuration of an instance.
#[derive(Debug, Clone)]
pub struct Config {
    /// This speaker's router id.
    pub router_id: RouterId,
    /// If `false`, the instance computes no routes (controller mode —
    /// the Fibbing controller participates in flooding but needs no
    /// FIB).
    pub compute_routes: bool,
}

impl Config {
    /// A speaker that computes routes.
    pub fn new(router_id: RouterId) -> Config {
        Config {
            router_id,
            compute_routes: true,
        }
    }
}

/// Adjacency state (condensed OSPF neighbor FSM for p2p links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NbrState {
    /// Heard the neighbor, not yet seen ourselves in its hellos.
    Init,
    /// Bidirectional; negotiating exchange roles.
    ExStart,
    /// Database description exchange in progress.
    Exchange,
    /// Requesting LSAs the neighbor had fresher.
    Loading,
    /// Fully adjacent: flooding enabled, link advertised.
    Full,
}

/// Events and data an instance emits for its harness.
#[derive(Debug, Clone)]
pub enum Output {
    /// Transmit a datagram on an interface.
    Send {
        /// Egress interface.
        iface: IfaceId,
        /// The packet, as the receiving instance takes it.
        datagram: Datagram,
    },
    /// Download a freshly computed route table into the FIB.
    FibUpdate(RouteTable),
}

#[derive(Debug)]
struct NeighborSm {
    state: NbrState,
    id: RouterId,
    last_heard: Timestamp,
    /// `true` once we have appeared in the neighbor's hello `seen` list.
    two_way: bool,
    // --- database exchange ---
    master: bool,
    dd_seq: u32,
    snapshot: Vec<LsaHeader>,
    next_chunk: usize,
    peer_done: bool,
    self_done: bool,
    last_dbd: Option<Dbd>,
    last_dbd_at: Timestamp,
    // --- loading ---
    req_list: Vec<LsaKey>,
    last_req_at: Timestamp,
    // --- flooding ---
    /// Keys of the unacked LSAs. What each names is the instance the
    /// LSDB stores for it: a flood lists the key of an instance just
    /// installed, and the LSDB takes a fresher one only by installing
    /// it, which floods it here or (if it came from this neighbor)
    /// acks the listed one implicitly.
    rxmt: HashSet<LsaKey, KeyHash>,
    last_rxmt_at: Timestamp,
    /// The retransmit list as it was kept before it named keys: each
    /// flooded instance itself, in key order. `rxmt_matches_reference`
    /// holds `rxmt` and the LSDB to it.
    #[cfg(test)]
    rxmt_reference: BTreeMap<LsaKey, Arc<Lsa>>,
}

impl NeighborSm {
    fn new(id: RouterId, now: Timestamp) -> NeighborSm {
        NeighborSm {
            state: NbrState::Init,
            id,
            last_heard: now,
            two_way: false,
            master: false,
            dd_seq: 0,
            snapshot: Vec::new(),
            next_chunk: 0,
            peer_done: false,
            self_done: false,
            last_dbd: None,
            last_dbd_at: Timestamp::ZERO,
            req_list: Vec::new(),
            last_req_at: Timestamp::ZERO,
            rxmt: HashSet::default(),
            last_rxmt_at: Timestamp::ZERO,
            #[cfg(test)]
            rxmt_reference: BTreeMap::new(),
        }
    }
}

#[derive(Debug)]
struct Iface {
    id: IfaceId,
    cost: Metric,
    enabled: bool,
    neighbor: Option<NeighborSm>,
    /// Output position of the update still taking flooded LSAs on this
    /// interface, until the next drain (see the module docs).
    open_update: Option<usize>,
    /// Output position of the ack still taking headers on this
    /// interface, until the next drain.
    open_ack: Option<usize>,
}

/// One entry of the output queue: ready, or a packet still being
/// packed for one interface (handed over at drain).
#[derive(Debug)]
enum Pending {
    Ready(Output),
    Update(IfaceId, Vec<Arc<Lsa>>),
    Ack(IfaceId, Vec<LsaHeader>),
}

/// Counters exposed for benchmarks and the overhead tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Datagrams sent, by any type (counted as they are drained: a
    /// packed update or ack is one).
    pub pkts_sent: u64,
    /// Packets received and accepted.
    pub pkts_recv: u64,
    /// Bytes sent: each datagram's encoded length.
    pub bytes_sent: u64,
    /// LSAs this instance originated or re-originated.
    pub lsas_originated: u64,
    /// LSA instances flooded onward (per neighbor enqueue).
    pub lsas_flooded: u64,
    /// Packets dropped due to decode errors.
    pub decode_errors: u64,
}

/// A sans-IO protocol instance. See module docs.
pub struct Instance {
    cfg: Config,
    ifaces: BTreeMap<IfaceId, Iface>,
    lsdb: Lsdb,
    originated: HashMap<LsaKey, SeqNum, KeyHash>,
    announced: BTreeMap<Prefix, (u32, Metric)>,
    next_prefix_id: u32,
    spf: SpfEngine,
    spf_at: Option<Timestamp>,
    last_spf_version: Option<crate::lsdb::DbVersion>,
    last_table: Option<RouteTable>,
    next_hello: Timestamp,
    dd_seq_counter: u32,
    out: Vec<Pending>,
    /// The latest `now` a driver handed in: what a flood stamps a
    /// retransmit list it starts with.
    clock: Timestamp,
    started: bool,
    /// MaxAge LSDB entries examined by `try_sweep` so far (a cost
    /// tripwire for tests, not a protocol counter).
    sweep_visits: u64,
    /// Sweep by scanning the whole LSDB (see `try_sweep_full_scan`).
    #[cfg(test)]
    full_scan_sweep: bool,
    /// Answer every stale copy (see `use_always_reply_rule`).
    #[cfg(test)]
    always_reply_stale: bool,
    /// Observable counters.
    pub stats: Stats,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("router_id", &self.cfg.router_id)
            .field("ifaces", &self.ifaces.len())
            .field("lsdb_len", &self.lsdb.len())
            .finish_non_exhaustive()
    }
}

impl Instance {
    /// Create a stopped instance. Add interfaces and announcements,
    /// then call [`Instance::start`].
    pub fn new(cfg: Config) -> Instance {
        Instance {
            cfg,
            ifaces: BTreeMap::new(),
            lsdb: Lsdb::new(),
            originated: HashMap::default(),
            announced: BTreeMap::new(),
            next_prefix_id: 0,
            spf: SpfEngine::new(),
            spf_at: None,
            last_spf_version: None,
            last_table: None,
            next_hello: Timestamp::ZERO,
            dd_seq_counter: 1,
            out: Vec::new(),
            clock: Timestamp::ZERO,
            started: false,
            sweep_visits: 0,
            #[cfg(test)]
            full_scan_sweep: false,
            #[cfg(test)]
            always_reply_stale: false,
            stats: Stats::default(),
        }
    }

    /// This speaker's router id.
    pub fn router_id(&self) -> RouterId {
        self.cfg.router_id
    }

    /// `false` for a speaker that floods but computes no routes (see
    /// [`Config::compute_routes`]).
    pub fn computes_routes(&self) -> bool {
        self.cfg.compute_routes
    }

    /// `true` when nothing is under way: every adjacency is Full (or
    /// gone), no flooded LSA awaits an ack, no request is outstanding and
    /// no SPF run is pending. While every instance of a network is at
    /// rest, nothing in flight can change an LSDB or a FIB.
    pub fn at_rest(&self) -> bool {
        self.spf_at.is_none()
            && self
                .ifaces
                .values()
                .filter_map(|i| i.neighbor.as_ref())
                .all(|n| n.state == NbrState::Full && n.rxmt.is_empty() && n.req_list.is_empty())
    }

    /// Immutable view of the LSDB.
    pub fn lsdb(&self) -> &Lsdb {
        &self.lsdb
    }

    /// SPF engine ablation counters: `(full Dijkstra runs, partial
    /// route-phase-only runs)`. Lie-only (type-5-style) churn must
    /// land in the second bucket — the simulator aggregates these so
    /// scenarios can assert it.
    pub fn spf_run_counts(&self) -> (u64, u64) {
        (self.spf.full_runs, self.spf.partial_runs)
    }

    /// LSDB entries the MaxAge sweep has examined since creation. Test
    /// tripwire: it must grow with purges, not with packets received.
    #[doc(hidden)]
    pub fn sweep_visits(&self) -> u64 {
        self.sweep_visits
    }

    /// Add a point-to-point interface with the given cost.
    pub fn add_iface(&mut self, id: IfaceId, cost: Metric) {
        self.ifaces.insert(
            id,
            Iface {
                id,
                cost,
                enabled: true,
                neighbor: None,
                open_update: None,
                open_ack: None,
            },
        );
    }

    /// Administratively enable/disable an interface. Disabling kills
    /// the adjacency immediately.
    pub fn set_iface_enabled(
        &mut self,
        id: IfaceId,
        enabled: bool,
        now: Timestamp,
    ) -> Result<(), InstanceError> {
        let iface = self
            .ifaces
            .get_mut(&id)
            .ok_or(InstanceError::UnknownIface(id.0))?;
        self.clock = now;
        if iface.enabled == enabled {
            return Ok(());
        }
        iface.enabled = enabled;
        if !enabled {
            if let Some(n) = iface.neighbor.take() {
                if n.state == NbrState::Full {
                    self.originate_router_lsa();
                }
            }
        }
        Ok(())
    }

    /// Announce a prefix at the given metric (originates a prefix LSA
    /// once started; its retransmit timer runs from the latest time the
    /// instance was handed).
    pub fn announce(&mut self, prefix: Prefix, metric: Metric) {
        let id = match self.announced.get(&prefix) {
            Some((id, _)) => *id,
            None => {
                let id = self.next_prefix_id;
                self.next_prefix_id += 1;
                id
            }
        };
        self.announced.insert(prefix, (id, metric));
        if self.started {
            self.originate_prefix_lsa(prefix);
        }
    }

    /// Withdraw a prefix announcement (purges the LSA network-wide).
    pub fn withdraw(&mut self, prefix: Prefix) {
        if let Some((id, _)) = self.announced.remove(&prefix) {
            let key = LsaKey {
                origin: self.cfg.router_id,
                kind: LsaKind::Prefix,
                id,
            };
            self.purge_own(key);
        }
    }

    /// Inject a Fibbing lie at `now`: a fake node `fake_id` attached to
    /// `attach` announcing `prefix`, resolving to forwarding address
    /// `fw`.
    ///
    /// The LSA floods through normal machinery; re-injecting the same
    /// `fake_id` replaces the lie (fresher sequence number).
    #[allow(clippy::too_many_arguments)]
    pub fn inject_fake(
        &mut self,
        fake_id: RouterId,
        attach: RouterId,
        attach_metric: Metric,
        prefix: Prefix,
        prefix_metric: Metric,
        fw: FwAddr,
        now: Timestamp,
    ) -> Result<(), InstanceError> {
        if !fake_id.is_fake() {
            return Err(InstanceError::BadInjection {
                prefix,
                reason: "fake node id must be in the fake range",
            });
        }
        self.clock = now;
        let key = LsaKey {
            origin: fake_id,
            kind: LsaKind::Fake,
            id: 0,
        };
        let seq = self.next_seq(key);
        let lsa = Lsa::fake(
            fake_id,
            seq,
            attach,
            attach_metric,
            prefix,
            prefix_metric,
            fw,
        );
        self.originate(lsa);
        Ok(())
    }

    /// Retract a previously injected lie at `now` (floods a MaxAge
    /// purge).
    pub fn retract_fake(&mut self, fake_id: RouterId, now: Timestamp) -> Result<(), InstanceError> {
        let key = LsaKey {
            origin: fake_id,
            kind: LsaKind::Fake,
            id: 0,
        };
        if !self.originated.contains_key(&key) {
            return Err(InstanceError::NotOriginator { origin: fake_id });
        }
        self.clock = now;
        self.purge_own(key);
        Ok(())
    }

    /// Start the instance: originate own LSAs, arm the hello timer.
    pub fn start(&mut self, now: Timestamp) {
        self.clock = now;
        self.started = true;
        self.next_hello = now; // fire immediately on first poll
        self.originate_router_lsa();
        let prefixes: Vec<Prefix> = self.announced.keys().copied().collect();
        for p in prefixes {
            self.originate_prefix_lsa(p);
        }
        self.schedule_spf(now);
    }

    /// Earliest pending deadline, if any.
    pub fn next_timer(&self) -> Option<Timestamp> {
        if !self.started {
            return None;
        }
        let mut t = self.next_hello;
        if let Some(s) = self.spf_at {
            t = t.min(s);
        }
        for iface in self.ifaces.values() {
            let Some(n) = iface.neighbor.as_ref() else {
                continue;
            };
            // Dead timer.
            t = t.min(n.last_heard + DEAD_INTERVAL);
            // DBD retransmit (master only, mid-exchange).
            if n.last_dbd.is_some() && matches!(n.state, NbrState::ExStart | NbrState::Exchange) {
                t = t.min(n.last_dbd_at + RXMT_INTERVAL);
            }
            // Request retransmit.
            if n.state == NbrState::Loading && !n.req_list.is_empty() {
                t = t.min(n.last_req_at + RXMT_INTERVAL);
            }
            // LSA retransmit.
            if !n.rxmt.is_empty() {
                t = t.min(n.last_rxmt_at + RXMT_INTERVAL);
            }
        }
        Some(t)
    }

    /// Fire every timer due at `now`.
    pub fn poll_timers(&mut self, now: Timestamp) {
        if !self.started {
            return;
        }
        self.clock = now;
        // Hellos.
        if now >= self.next_hello {
            self.send_hellos(now);
            self.next_hello = now + HELLO_INTERVAL;
        }
        // SPF.
        if let Some(at) = self.spf_at {
            if now >= at {
                self.spf_at = None;
                self.run_spf();
            }
        }
        // Per-neighbor timers in id order; a cursor, because polling
        // one interface borrows the whole instance.
        let mut next = self.ifaces.keys().next().copied();
        while let Some(id) = next {
            self.poll_neighbor_timers(id, now);
            let after = (Excluded(id), Unbounded);
            next = self.ifaces.range(after).next().map(|(id, _)| *id);
        }
        // Opportunistic MaxAge sweep: purge LSAs no longer awaiting acks.
        self.try_sweep();
    }

    fn poll_neighbor_timers(&mut self, id: IfaceId, now: Timestamp) {
        let Some(iface) = self.ifaces.get_mut(&id) else {
            return;
        };
        if !iface.enabled {
            return;
        }
        let Some(n) = iface.neighbor.as_mut() else {
            return;
        };
        // Dead timer.
        if now >= n.last_heard + DEAD_INTERVAL {
            let was_full = n.state == NbrState::Full;
            iface.neighbor = None;
            if was_full {
                self.originate_router_lsa();
            }
            return;
        }
        // DBD retransmit.
        if matches!(n.state, NbrState::ExStart | NbrState::Exchange) {
            if let Some(dbd) = n.last_dbd.clone() {
                if now >= n.last_dbd_at + RXMT_INTERVAL {
                    n.last_dbd_at = now;
                    self.send_packet(id, Packet::Dbd(dbd));
                }
            }
        }
        // Request retransmit.
        if self.ifaces[&id]
            .neighbor
            .as_ref()
            .map(|n| n.state == NbrState::Loading && !n.req_list.is_empty())
            .unwrap_or(false)
        {
            let n = self.ifaces.get_mut(&id).unwrap().neighbor.as_mut().unwrap();
            if now >= n.last_req_at + RXMT_INTERVAL {
                n.last_req_at = now;
                let keys: Vec<LsaKey> = n.req_list.iter().take(MAX_REQ_KEYS).copied().collect();
                self.send_packet(id, Packet::LsRequest(LsRequest { keys }));
            }
        }
        // LSA retransmit: the lowest listed keys, in key order, each
        // as the LSDB stores it.
        if self.ifaces[&id]
            .neighbor
            .as_ref()
            .map(|n| !n.rxmt.is_empty())
            .unwrap_or(false)
        {
            let n = self.ifaces.get_mut(&id).unwrap().neighbor.as_mut().unwrap();
            if now >= n.last_rxmt_at + RXMT_INTERVAL {
                n.last_rxmt_at = now;
                let mut keys: Vec<LsaKey> = n.rxmt.iter().copied().collect();
                keys.sort_unstable();
                let lsdb = &self.lsdb;
                let stored = |k| Arc::clone(lsdb.get_shared(k).expect("a listed key is stored"));
                let lsas = keys.iter().take(MAX_UPD_LSAS).map(stored).collect();
                self.push_send(id, Datagram::Update(lsas));
            }
        }
    }

    /// Handle the bytes of a datagram received on `iface`: decode them,
    /// then [`Instance::receive`] what they carry.
    pub fn handle_packet(
        &mut self,
        iface: IfaceId,
        data: Bytes,
        now: Timestamp,
    ) -> Result<(), InstanceError> {
        if !self.accepts(iface)? {
            return Ok(()); // silently dropped, interface is down
        }
        self.clock = now;
        match wire::decode(data) {
            Ok((sender, packet)) => self.receive(iface, sender, packet.into(), now),
            Err(e) => {
                self.stats.decode_errors += 1;
                Err(e.into())
            }
        }
    }

    /// Handle a datagram `sender` sent us on `iface`.
    pub fn receive(
        &mut self,
        iface: IfaceId,
        sender: RouterId,
        datagram: Datagram,
        now: Timestamp,
    ) -> Result<(), InstanceError> {
        if !self.accepts(iface)? {
            return Ok(()); // silently dropped, interface is down
        }
        self.clock = now;
        self.stats.pkts_recv += 1;
        match datagram {
            Datagram::Update(lsas) => self.on_update(iface, sender, lsas, now),
            Datagram::Other(packet) => match packet {
                Packet::Hello(h) => self.on_hello(iface, sender, h, now),
                Packet::Dbd(d) => self.on_dbd(iface, sender, d, now),
                Packet::LsRequest(r) => self.on_request(iface, sender, r),
                Packet::LsUpdate(u) => {
                    let lsas = u.lsas.into_iter().map(Arc::new).collect();
                    self.on_update(iface, sender, lsas, now);
                }
                Packet::LsAck(a) => self.on_ack(iface, sender, a),
            },
        }
        Ok(())
    }

    /// Whether a datagram arriving on `iface` is processed: an error
    /// for an interface we lack, `false` while it is down.
    fn accepts(&self, iface: IfaceId) -> Result<bool, InstanceError> {
        self.ifaces
            .get(&iface)
            .map(|i| i.enabled)
            .ok_or(InstanceError::UnknownIface(iface.0))
    }

    /// Drain all pending outputs, oldest first, handing over the packed
    /// updates and acks; the next packet on any interface starts anew.
    pub fn drain_output(&mut self) -> impl Iterator<Item = Output> + '_ {
        for iface in self.ifaces.values_mut() {
            iface.open_update = None;
            iface.open_ack = None;
        }
        let stats = &mut self.stats;
        self.out.drain(..).map(move |p| {
            let out = match p {
                Pending::Ready(out) => out,
                Pending::Update(iface, lsas) => Output::Send {
                    iface,
                    datagram: Datagram::Update(lsas),
                },
                Pending::Ack(iface, headers) => Output::Send {
                    iface,
                    datagram: Datagram::Other(Packet::LsAck(LsAck { headers })),
                },
            };
            if let Output::Send { datagram, .. } = &out {
                stats.pkts_sent += 1;
                stats.bytes_sent += datagram.encoded_len() as u64;
            }
            out
        })
    }

    // ------------------------------------------------------------------
    // Packet handlers
    // ------------------------------------------------------------------

    fn on_hello(&mut self, iface_id: IfaceId, sender: RouterId, h: Hello, now: Timestamp) {
        let my_id = self.cfg.router_id;
        let iface = self.ifaces.get_mut(&iface_id).expect("checked");
        let n = iface
            .neighbor
            .get_or_insert_with(|| NeighborSm::new(sender, now));
        if n.id != sender {
            // Different router appeared on the p2p link: reset.
            *n = NeighborSm::new(sender, now);
        }
        n.last_heard = now;
        let sees_us = h.seen.contains(&my_id);
        if sees_us {
            n.two_way = true;
        }
        if n.state == NbrState::Init && n.two_way {
            // Bidirectional: begin database exchange.
            n.state = NbrState::ExStart;
            n.master = my_id > sender;
            n.dd_seq = self.dd_seq_counter;
            self.dd_seq_counter += 1;
            // The database summary snapshot is NOT taken here: LSAs
            // can still arrive during negotiation and would be neither
            // in the snapshot nor flooded (flooding requires state >=
            // Exchange). It is taken at the Exchange transition, as in
            // RFC 2328.
            n.snapshot.clear();
            n.next_chunk = 0;
            n.peer_done = false;
            n.self_done = false;
            if n.master {
                let dbd = Dbd {
                    init: true,
                    more: true,
                    master: true,
                    dd_seq: n.dd_seq,
                    headers: vec![],
                };
                n.last_dbd = Some(dbd.clone());
                n.last_dbd_at = now;
                self.send_packet(iface_id, Packet::Dbd(dbd));
            }
        } else if n.state != NbrState::Init && !sees_us {
            // Neighbor restarted and forgot us: fall back to Init.
            let was_full = n.state == NbrState::Full;
            *n = NeighborSm::new(sender, now);
            if was_full {
                self.originate_router_lsa();
            }
        }
    }

    fn chunk(snapshot: &[LsaHeader], idx: usize) -> (Vec<LsaHeader>, bool) {
        let start = idx * MAX_DBD_HEADERS;
        if start >= snapshot.len() {
            return (Vec::new(), false);
        }
        let end = (start + MAX_DBD_HEADERS).min(snapshot.len());
        let more = end < snapshot.len();
        (snapshot[start..end].to_vec(), more)
    }

    fn on_dbd(&mut self, iface_id: IfaceId, sender: RouterId, d: Dbd, now: Timestamp) {
        let my_id = self.cfg.router_id;
        // Plan inside a scoped borrow of the neighbor; act afterwards.
        enum Act {
            None,
            Send(Dbd),
            SendAndMaybeFinish(Dbd, bool),
            MasterReply,
        }
        let act = {
            let Some(n) = self
                .ifaces
                .get_mut(&iface_id)
                .and_then(|i| i.neighbor.as_mut())
            else {
                return;
            };
            if n.id != sender {
                return;
            }
            n.last_heard = now;
            match n.state {
                NbrState::ExStart => {
                    if d.init && d.master && sender > my_id {
                        // Peer is master; adopt its sequence and respond
                        // with our first chunk. The summary snapshot is
                        // taken now: anything installed later floods to
                        // this neighbor directly (state >= Exchange).
                        n.master = false;
                        n.dd_seq = d.dd_seq;
                        n.state = NbrState::Exchange;
                        n.snapshot = self.lsdb.headers();
                        let (headers, more) = Self::chunk(&n.snapshot, 0);
                        n.next_chunk = 1;
                        n.self_done = !more;
                        let reply = Dbd {
                            init: false,
                            more,
                            master: false,
                            dd_seq: d.dd_seq,
                            headers,
                        };
                        n.last_dbd = Some(reply.clone());
                        n.last_dbd_at = now;
                        Act::Send(reply)
                    } else if !d.init && n.master && d.dd_seq == n.dd_seq {
                        // Slave's reply to our init: move to Exchange
                        // and process as a normal reply. Snapshot the
                        // summary now (see above).
                        n.state = NbrState::Exchange;
                        n.snapshot = self.lsdb.headers();
                        Act::MasterReply
                    } else {
                        // Ignore (e.g. peer's init while we are master —
                        // our init packet will teach it).
                        Act::None
                    }
                }
                NbrState::Exchange => {
                    if n.master {
                        if !d.init && d.dd_seq == n.dd_seq {
                            Act::MasterReply
                        } else {
                            // Stale replies are ignored; the retransmit
                            // timer resends our last DBD if needed.
                            Act::None
                        }
                    } else {
                        // Slave: master sent the next chunk (or
                        // repeated the last one).
                        if d.dd_seq == n.dd_seq && !d.init {
                            // Duplicate of the chunk we already
                            // answered: resend last response.
                            match n.last_dbd.clone() {
                                Some(last) => {
                                    n.last_dbd_at = now;
                                    Act::Send(last)
                                }
                                None => Act::None,
                            }
                        } else if d.dd_seq != n.dd_seq + 1 {
                            Act::None // out-of-order
                        } else {
                            n.dd_seq = d.dd_seq;
                            for k in Self::headers_we_want(&self.lsdb, &d.headers) {
                                if !n.req_list.contains(&k) {
                                    n.req_list.push(k);
                                }
                            }
                            if !d.more {
                                n.peer_done = true;
                            }
                            let (headers, more) = Self::chunk(&n.snapshot, n.next_chunk);
                            n.next_chunk += 1;
                            n.self_done = !more;
                            let reply = Dbd {
                                init: false,
                                more,
                                master: false,
                                dd_seq: d.dd_seq,
                                headers,
                            };
                            n.last_dbd = Some(reply.clone());
                            n.last_dbd_at = now;
                            Act::SendAndMaybeFinish(reply, n.peer_done && n.self_done)
                        }
                    }
                }
                _ => {
                    // DBD after the exchange finished: a duplicate from
                    // a peer that missed our last packet. A slave
                    // re-answers the master's repeated chunk; a master
                    // re-sends its final chunk when the slave is still
                    // replying to the previous sequence number.
                    let slave_dup = !n.master && !d.init && d.dd_seq == n.dd_seq;
                    let master_dup = n.master && !d.init && d.dd_seq.wrapping_add(1) == n.dd_seq;
                    if slave_dup || master_dup {
                        match n.last_dbd.clone() {
                            Some(last) => {
                                n.last_dbd_at = now;
                                Act::Send(last)
                            }
                            None => Act::None,
                        }
                    } else {
                        Act::None
                    }
                }
            }
        };
        match act {
            Act::None => {}
            Act::Send(dbd) => self.send_packet(iface_id, Packet::Dbd(dbd)),
            Act::SendAndMaybeFinish(dbd, finish) => {
                self.send_packet(iface_id, Packet::Dbd(dbd));
                if finish {
                    self.finish_exchange(iface_id, now);
                }
            }
            Act::MasterReply => self.master_process_reply(iface_id, d, now),
        }
    }

    fn master_process_reply(&mut self, iface_id: IfaceId, d: Dbd, now: Timestamp) {
        let (next, done) = {
            let n = self
                .ifaces
                .get_mut(&iface_id)
                .and_then(|i| i.neighbor.as_mut())
                .expect("caller checked");
            let wanted = Self::headers_we_want(&self.lsdb, &d.headers);
            for k in wanted {
                if !n.req_list.contains(&k) {
                    n.req_list.push(k);
                }
            }
            if !d.more {
                n.peer_done = true;
            }
            // Send next chunk of ours.
            let (headers, more) = Self::chunk(&n.snapshot, n.next_chunk);
            n.next_chunk += 1;
            n.self_done = !more;
            n.dd_seq += 1;
            let done = n.peer_done && n.self_done;
            n.last_dbd = (!done || !headers.is_empty() || more).then_some(Dbd {
                init: false,
                more,
                master: true,
                dd_seq: n.dd_seq,
                headers,
            });
            if n.last_dbd.is_some() {
                n.last_dbd_at = now;
            }
            (n.last_dbd.clone(), done)
        };
        if let Some(dbd) = next {
            self.send_packet(iface_id, Packet::Dbd(dbd));
        }
        if done {
            self.finish_exchange(iface_id, now);
        }
    }

    fn headers_we_want(lsdb: &Lsdb, headers: &[LsaHeader]) -> Vec<LsaKey> {
        headers
            .iter()
            .filter(|h| h.age < MAX_AGE && lsdb.freshness_of(h) == Freshness::Newer)
            .map(|h| h.key)
            .collect()
    }

    fn finish_exchange(&mut self, iface_id: IfaceId, now: Timestamp) {
        let (reached_full, req) = {
            let n = self
                .ifaces
                .get_mut(&iface_id)
                .and_then(|i| i.neighbor.as_mut())
                .expect("caller checked");
            // Keep the last DBD: if our final chunk was lost, the
            // peer's duplicate reply must be answerable even after we
            // leave Exchange (RFC 2328 §10.8's lingering behaviour).
            if n.req_list.is_empty() {
                n.state = NbrState::Full;
                (true, Vec::new())
            } else {
                n.state = NbrState::Loading;
                n.last_req_at = now;
                let keys: Vec<LsaKey> = n.req_list.iter().take(MAX_REQ_KEYS).copied().collect();
                (false, keys)
            }
        };
        if reached_full {
            self.originate_router_lsa();
        } else {
            self.send_packet(iface_id, Packet::LsRequest(LsRequest { keys: req }));
        }
    }

    fn on_request(&mut self, iface_id: IfaceId, sender: RouterId, r: LsRequest) {
        let known = {
            let Some(n) = self.ifaces.get(&iface_id).and_then(|i| i.neighbor.as_ref()) else {
                return;
            };
            n.id == sender && n.state >= NbrState::Exchange
        };
        if !known {
            return;
        }
        let lsas: Vec<Arc<Lsa>> = r
            .keys
            .iter()
            .filter_map(|k| self.lsdb.get_shared(k).cloned())
            .collect();
        for batch in lsas.chunks(MAX_UPD_LSAS) {
            self.push_send(iface_id, Datagram::Update(batch.to_vec()));
        }
    }

    fn on_update(
        &mut self,
        iface_id: IfaceId,
        sender: RouterId,
        lsas: Vec<Arc<Lsa>>,
        now: Timestamp,
    ) {
        {
            let Some(n) = self
                .ifaces
                .get_mut(&iface_id)
                .and_then(|i| i.neighbor.as_mut())
            else {
                return;
            };
            if n.id != sender || n.state < NbrState::Exchange {
                return;
            }
            n.last_heard = now;
        }
        let mut acks: Vec<LsaHeader> = Vec::new();
        for lsa in lsas {
            if let Some(hdr) = self.on_update_lsa(iface_id, lsa, now) {
                acks.push(hdr);
            }
            // Loading complete?
            let became_full = self
                .ifaces
                .get_mut(&iface_id)
                .and_then(|i| i.neighbor.as_mut())
                .filter(|n| n.state == NbrState::Loading && n.req_list.is_empty())
                .map(|n| n.state = NbrState::Full)
                .is_some();
            if became_full {
                self.originate_router_lsa();
            }
            self.try_sweep();
        }
        self.push_acks(iface_id, acks);
    }

    /// Receive one LSA of an update from the neighbor on `iface_id`;
    /// returns the header to ack, if any.
    fn on_update_lsa(
        &mut self,
        iface_id: IfaceId,
        lsa: Arc<Lsa>,
        now: Timestamp,
    ) -> Option<LsaHeader> {
        let hdr = lsa.header();
        // Implicit ack: if this instance (or newer) sits on the
        // sender's retransmit list, it is now acknowledged. What the
        // list holds is the instance the LSDB stores.
        if let Some(n) = self
            .ifaces
            .get_mut(&iface_id)
            .and_then(|i| i.neighbor.as_mut())
        {
            let stored = self.lsdb.get(&hdr.key);
            if stored.is_some_and(|s| lsa.freshness_vs(s) != Freshness::Older) {
                n.rxmt.remove(&hdr.key);
            }
            #[cfg(test)]
            if let Some(pending) = n.rxmt_reference.get(&hdr.key) {
                if !matches!(lsa.freshness_vs(pending), Freshness::Older) {
                    n.rxmt_reference.remove(&hdr.key);
                }
            }
            // Loading: strike from request list.
            if n.state == NbrState::Loading {
                n.req_list.retain(|k| *k != hdr.key);
            }
        }

        // Self-originated LSA arriving from elsewhere, fresher than
        // our record: we must out-originate it (RFC 2328 §13.4).
        if self.is_self_originated(&hdr.key) {
            let our_seq = self.originated.get(&hdr.key).copied();
            if our_seq.map(|s| hdr.seq >= s).unwrap_or(false) && hdr.age < MAX_AGE {
                self.reoriginate_over(hdr);
                return Some(hdr);
            }
        }

        match self.lsdb.install(Arc::clone(&lsa)) {
            Install::New | Install::Updated => {
                self.flood(&lsa, Some(iface_id));
                self.schedule_spf(now);
                Some(hdr)
            }
            Install::Duplicate | Install::PurgeUnknown => Some(hdr),
            Install::Stale => {
                // Send our fresher copy straight back, unless the
                // sender's retransmit list holds its key, and so that
                // very instance (see the module docs).
                let ours = self.lsdb.get_shared(&hdr.key)?;
                let listed = self.ifaces[&iface_id]
                    .neighbor
                    .as_ref()
                    .is_some_and(|n| n.rxmt.contains(&hdr.key));
                #[cfg(test)]
                let listed = listed && !self.always_reply_stale;
                if !listed {
                    let reply = Datagram::Update(vec![Arc::clone(ours)]);
                    self.push_send(iface_id, reply);
                }
                None
            }
        }
    }

    fn on_ack(&mut self, iface_id: IfaceId, sender: RouterId, a: LsAck) {
        let Some(n) = self
            .ifaces
            .get_mut(&iface_id)
            .and_then(|i| i.neighbor.as_mut())
        else {
            return;
        };
        if n.id != sender {
            return;
        }
        for h in a.headers {
            // A listed key names the instance the LSDB stores.
            let stored = self.lsdb.get(&h.key);
            if stored
                .is_some_and(|s| compare_freshness(h.seq, h.age, s.seq, s.age) != Freshness::Older)
            {
                n.rxmt.remove(&h.key);
            }
            #[cfg(test)]
            if let Some(pending) = n.rxmt_reference.get(&h.key) {
                if compare_freshness(h.seq, h.age, pending.seq, pending.age) != Freshness::Older {
                    n.rxmt_reference.remove(&h.key);
                }
            }
        }
        self.try_sweep();
    }

    // ------------------------------------------------------------------
    // Origination & flooding
    // ------------------------------------------------------------------

    fn is_self_originated(&self, key: &LsaKey) -> bool {
        key.origin == self.cfg.router_id || self.originated.contains_key(key)
    }

    fn next_seq(&mut self, key: LsaKey) -> SeqNum {
        let seq = match self.originated.get(&key) {
            Some(s) => s.next(),
            None => {
                // If the network still holds an instance (e.g. we
                // restarted), continue above it.
                match self.lsdb.get(&key) {
                    Some(l) => l.seq.next(),
                    None => SeqNum::INITIAL,
                }
            }
        };
        self.originated.insert(key, seq);
        seq
    }

    fn reoriginate_over(&mut self, received: LsaHeader) {
        let key = received.key;
        self.originated.insert(key, received.seq);
        match key.kind {
            LsaKind::Router if key.origin == self.cfg.router_id => self.originate_router_lsa(),
            LsaKind::Prefix if key.origin == self.cfg.router_id => {
                let prefix = self
                    .announced
                    .iter()
                    .find(|(_, (id, _))| *id == key.id)
                    .map(|(p, _)| *p);
                match prefix {
                    Some(p) => self.originate_prefix_lsa(p),
                    None => self.purge_own(key),
                }
            }
            LsaKind::Fake => {
                // A fresher copy of a lie we no longer claim: purge it.
                if let Some(ours) = self.lsdb.get(&key).cloned() {
                    let mut p = ours.to_purge();
                    p.seq = received.seq.next();
                    self.originated.insert(key, p.seq);
                    self.install_and_flood(p);
                } else {
                    self.originated.remove(&key);
                }
            }
            _ => {}
        }
    }

    fn originate_router_lsa(&mut self) {
        if !self.started {
            return;
        }
        let links: Vec<LsaLink> = self
            .ifaces
            .values()
            .filter(|i| i.enabled)
            .filter_map(|i| {
                i.neighbor
                    .as_ref()
                    .filter(|n| n.state == NbrState::Full)
                    .map(|n| LsaLink {
                        to: n.id,
                        metric: i.cost,
                    })
            })
            .collect();
        let key = LsaKey {
            origin: self.cfg.router_id,
            kind: LsaKind::Router,
            id: 0,
        };
        let seq = self.next_seq(key);
        let lsa = Lsa::router(self.cfg.router_id, seq, links);
        self.originate(lsa);
    }

    fn originate_prefix_lsa(&mut self, prefix: Prefix) {
        let Some((id, metric)) = self.announced.get(&prefix).copied() else {
            return;
        };
        let key = LsaKey {
            origin: self.cfg.router_id,
            kind: LsaKind::Prefix,
            id,
        };
        let seq = self.next_seq(key);
        let lsa = Lsa::prefix(self.cfg.router_id, id, seq, prefix, metric);
        self.originate(lsa);
    }

    fn originate(&mut self, lsa: Lsa) {
        self.stats.lsas_originated += 1;
        self.install_and_flood(lsa);
    }

    fn purge_own(&mut self, key: LsaKey) {
        let Some(current) = self.lsdb.get(&key).cloned() else {
            self.originated.remove(&key);
            return;
        };
        // The purge is stored already (a retraction repeated before it
        // was swept): it went to every neighbour and is listed until
        // acked, and RFC 2328 floods no instance the database holds.
        if current.is_max_age() {
            return;
        }
        let purge = current.to_purge();
        self.originated.insert(key, purge.seq);
        self.install_and_flood(purge);
    }

    fn install_and_flood(&mut self, lsa: Lsa) {
        let lsa = Arc::new(lsa);
        let outcome = self.lsdb.install(Arc::clone(&lsa));
        // What a retransmit list names is the instance the LSDB stores,
        // so that is what this flood must send: every instance flooded
        // from here is fresher than the one stored (`purge_own` floods
        // no purge the LSDB already holds), or the flood would list a
        // key whose stored instance is not the one sent.
        debug_assert!(
            self.lsdb.get(&lsa.key) == Some(&*lsa),
            "flooding {:?} after a {outcome:?} install",
            lsa.header()
        );
        if matches!(outcome, Install::New | Install::Updated) {
            self.schedule_spf_now();
        }
        self.flood(&lsa, None);
        self.try_sweep();
    }

    /// Flood an LSA the LSDB stores (that instance, or one equal to
    /// it) to every sufficiently adjacent neighbor except the one it
    /// came from, listing its key
    /// for retransmission and putting it into the interface's open
    /// update (see the module docs). Every neighbor's update shares the
    /// LSA. A list it starts times its retransmit from the present: one
    /// interval after this flood, never at once.
    fn flood(&mut self, lsa: &Arc<Lsa>, except: Option<IfaceId>) {
        let now = self.clock;
        for iface in self.ifaces.values_mut() {
            if !iface.enabled || Some(iface.id) == except {
                continue;
            }
            let Some(n) = iface
                .neighbor
                .as_mut()
                .filter(|n| n.state >= NbrState::Exchange)
            else {
                continue;
            };
            if n.rxmt.is_empty() {
                n.last_rxmt_at = now;
            }
            n.rxmt.insert(lsa.key);
            #[cfg(test)]
            n.rxmt_reference.insert(lsa.key, Arc::clone(lsa));
            self.stats.lsas_flooded += 1;
            let at = *iface.open_update.get_or_insert_with(|| {
                self.out.push(Pending::Update(iface.id, Vec::new()));
                self.out.len() - 1
            });
            let Pending::Update(_, lsas) = &mut self.out[at] else {
                unreachable!("an open update is an update");
            };
            lsas.push(Arc::clone(lsa));
            if lsas.len() == MAX_UPD_LSAS {
                iface.open_update = None;
            }
        }
    }

    /// Owe the neighbor on `iface` acks for `headers`: into the
    /// interface's open ack, or a new one here (see the module docs).
    fn push_acks(&mut self, iface: IfaceId, mut headers: Vec<LsaHeader>) {
        if headers.is_empty() {
            return;
        }
        let Some(open) = self.ifaces.get_mut(&iface).map(|i| &mut i.open_ack) else {
            return;
        };
        if let Some(at) = *open {
            let Pending::Ack(_, owed) = &mut self.out[at] else {
                unreachable!("an open ack is an ack");
            };
            if owed.len() + headers.len() <= MAX_ACK_HEADERS {
                owed.append(&mut headers);
                return;
            }
        }
        *open = Some(self.out.len());
        self.out.push(Pending::Ack(iface, headers));
    }

    /// `true` while some neighbor still owes an ack for `key`.
    fn awaits_ack(&self, key: &LsaKey) -> bool {
        self.ifaces
            .values()
            .filter_map(|i| i.neighbor.as_ref())
            .any(|n| n.rxmt.contains(key))
    }

    /// Sweep MaxAge LSAs once no neighbor still owes an ack for them.
    /// Costs nothing while the LSDB holds no MaxAge instance (almost
    /// always), and otherwise looks only at those instances.
    fn try_sweep(&mut self) {
        #[cfg(test)]
        if self.full_scan_sweep {
            return self.try_sweep_full_scan();
        }
        if self.lsdb.max_age_count() == 0 {
            return;
        }
        let mut visits = 0;
        let dead: Vec<LsaKey> = self
            .lsdb
            .max_age_keys()
            .inspect(|_| visits += 1)
            .filter(|k| !self.awaits_ack(k))
            .collect();
        self.sweep_visits += visits;
        for k in dead {
            // The `originated` seq record is kept so a future
            // re-injection continues above the purged instance.
            self.lsdb.remove(&k);
            self.schedule_spf_now();
        }
    }

    // ------------------------------------------------------------------
    // SPF
    // ------------------------------------------------------------------

    fn schedule_spf(&mut self, now: Timestamp) {
        if !self.cfg.compute_routes {
            return;
        }
        let at = now + SPF_DELAY;
        self.spf_at = Some(match self.spf_at {
            Some(cur) => cur.min(at),
            None => at,
        });
    }

    /// Schedule SPF relative to an unknown "now": the harness will fire
    /// it on the next poll (deadline 0 = immediately due).
    fn schedule_spf_now(&mut self) {
        if !self.cfg.compute_routes {
            return;
        }
        if self.spf_at.is_none() {
            self.spf_at = Some(Timestamp::ZERO);
        }
    }

    fn run_spf(&mut self) {
        if !self.cfg.compute_routes {
            return;
        }
        let version = self.lsdb.version();
        if Some(version) == self.last_spf_version {
            return;
        }
        self.last_spf_version = Some(version);
        let table = self.spf.compute(&self.lsdb, self.cfg.router_id);
        if self.last_table.as_ref() != Some(&table) {
            self.last_table = Some(table.clone());
            self.push(Output::FibUpdate(table));
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn send_hellos(&mut self, _now: Timestamp) {
        let hello_interval = (HELLO_INTERVAL.0 / 1_000_000_000) as u16;
        let dead_interval = (DEAD_INTERVAL.0 / 1_000_000_000) as u16;
        let targets: Vec<(IfaceId, Vec<RouterId>)> = self
            .ifaces
            .values()
            .filter(|i| i.enabled)
            .map(|i| {
                let seen = i.neighbor.as_ref().map(|n| vec![n.id]).unwrap_or_default();
                (i.id, seen)
            })
            .collect();
        for (id, seen) in targets {
            let pkt = Packet::Hello(Hello {
                hello_interval,
                dead_interval,
                seen,
            });
            self.send_packet(id, pkt);
        }
    }

    fn send_packet(&mut self, iface: IfaceId, pkt: Packet) {
        self.push_send(iface, Datagram::Other(pkt));
    }

    /// Send a datagram as it is; it closes the interface's open update.
    fn push_send(&mut self, iface: IfaceId, datagram: Datagram) {
        if let Some(i) = self.ifaces.get_mut(&iface) {
            i.open_update = None;
        }
        self.push(Output::Send { iface, datagram });
    }

    fn push(&mut self, out: Output) {
        self.out.push(Pending::Ready(out));
    }
}

/// Two earlier rules and the retransmit list's earlier form, kept as
/// the references the harness's differentials hold the current ones to.
#[cfg(test)]
impl Instance {
    /// The sweep as it was before the LSDB indexed its MaxAge entries:
    /// every call gathers every neighbor's retransmit keys and walks the
    /// whole database (`harness::sweep_equivalence`).
    pub(crate) fn use_full_scan_sweep(&mut self) {
        self.full_scan_sweep = true;
    }

    /// Send our copy back for every stale one received, as before the
    /// reply was held back for a neighbor whose retransmit list already
    /// carries it (`harness::stale_reply_equivalence`).
    pub(crate) fn use_always_reply_rule(&mut self) {
        self.always_reply_stale = true;
    }

    pub(crate) fn spf_at(&self) -> Option<Timestamp> {
        self.spf_at
    }

    /// Checks every neighbor's retransmit list against the ordered map
    /// of flooded instances it replaced, kept beside it under the rules
    /// that map was kept by: the same keys, and each one's instance in
    /// that map equal to the one the LSDB stores, which is what a
    /// retransmission now sends. Returns the number of entries checked.
    pub(crate) fn rxmt_matches_reference(&self) -> Result<usize, String> {
        let mut checked = 0;
        for iface in self.ifaces.values() {
            let Some(n) = iface.neighbor.as_ref() else {
                continue;
            };
            let mut keys: Vec<LsaKey> = n.rxmt.iter().copied().collect();
            keys.sort_unstable();
            if !keys.iter().eq(n.rxmt_reference.keys()) {
                return Err(format!(
                    "{} toward {}: lists {keys:?}, the reference {:?}",
                    self.cfg.router_id,
                    n.id,
                    n.rxmt_reference.keys().collect::<Vec<_>>()
                ));
            }
            for (key, sent) in &n.rxmt_reference {
                if self.lsdb.get(key) != Some(&**sent) {
                    return Err(format!(
                        "{} toward {}: {key} was flooded as {:?}, the LSDB holds {:?}",
                        self.cfg.router_id,
                        n.id,
                        sent.header(),
                        self.lsdb.get(key).map(Lsa::header)
                    ));
                }
                checked += 1;
            }
        }
        Ok(checked)
    }

    fn try_sweep_full_scan(&mut self) {
        let pending: Vec<LsaKey> = self
            .ifaces
            .values()
            .filter_map(|i| i.neighbor.as_ref())
            .flat_map(|n| n.rxmt.iter().copied())
            .collect();
        let dead: Vec<LsaKey> = self
            .lsdb
            .iter()
            .filter(|l| l.is_max_age() && !pending.contains(&l.key))
            .map(|l| l.key)
            .collect();
        for k in dead {
            self.lsdb.remove(&k);
            self.schedule_spf_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_starts_and_emits_hellos() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.add_iface(IfaceId(0), Metric(10));
        inst.start(Timestamp::ZERO);
        inst.poll_timers(Timestamp::ZERO);
        let out: Vec<Output> = inst.drain_output().collect();
        let hellos = out
            .iter()
            .filter(|o| matches!(o, Output::Send { .. }))
            .count();
        assert!(hellos >= 1, "expected at least one hello, got {out:?}");
    }

    #[test]
    fn announce_before_start_is_originated_at_start() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.announce(Prefix::net24(1), Metric(0));
        inst.start(Timestamp::ZERO);
        assert!(inst
            .lsdb()
            .iter()
            .any(|l| matches!(l.body, crate::lsa::LsaBody::Prefix { .. })));
    }

    /// Inject lie `k` at `at`: fake node `k` behind router 2, toward
    /// 10.0.1.0/24.
    fn lie(inst: &mut Instance, k: u32, at: Timestamp) -> Result<(), InstanceError> {
        inst.inject_fake(
            RouterId::fake(k),
            RouterId(2),
            Metric(1),
            Prefix::net24(1),
            Metric(1),
            FwAddr::primary(RouterId(2)),
            at,
        )
    }

    #[test]
    fn inject_fake_requires_fake_id() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.start(Timestamp::ZERO);
        let err = inst.inject_fake(
            RouterId(5),
            RouterId(1),
            Metric(1),
            Prefix::net24(1),
            Metric(1),
            FwAddr::primary(RouterId(2)),
            Timestamp::ZERO,
        );
        assert!(err.is_err());
        assert!(lie(&mut inst, 0, Timestamp::ZERO).is_ok());
    }

    #[test]
    fn retract_unknown_fake_is_error() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.start(Timestamp::ZERO);
        assert!(matches!(
            inst.retract_fake(RouterId::fake(9), Timestamp::ZERO),
            Err(InstanceError::NotOriginator { .. })
        ));
    }

    #[test]
    fn reinjection_uses_fresher_sequence() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.start(Timestamp::ZERO);
        let key = LsaKey {
            origin: RouterId::fake(0),
            kind: LsaKind::Fake,
            id: 0,
        };
        lie(&mut inst, 0, Timestamp::ZERO).unwrap();
        let s1 = inst.lsdb().get(&key).unwrap().seq;
        lie(&mut inst, 0, Timestamp::ZERO).unwrap();
        let s2 = inst.lsdb().get(&key).unwrap().seq;
        assert!(s2 > s1);
    }

    /// A lie retracted twice, the second time while its purge is
    /// still stored and listed, floods once: the second retraction
    /// sends nothing and lists nothing, and the purge still reaches
    /// the neighbour and is swept on both sides.
    #[test]
    fn a_second_retraction_while_the_purge_is_stored_floods_nothing() {
        let mut h = crate::harness::Harness::new();
        h.add_router(RouterId(1));
        h.add_router(RouterId(2));
        h.connect(RouterId(1), RouterId(2), Metric(1), Dur::from_millis(1));
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        let t = h.now();
        lie(h.instance_mut(RouterId(1)), 0, t).unwrap();
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        let t = h.now();
        let inst = h.instance_mut(RouterId(1));
        let before = inst.stats.lsas_flooded;
        inst.retract_fake(RouterId::fake(0), t).unwrap();
        assert_eq!(inst.stats.lsas_flooded - before, 1, "the purge floods");
        inst.retract_fake(RouterId::fake(0), t).unwrap();
        assert_eq!(inst.stats.lsas_flooded - before, 1, "and only once");
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        for r in [RouterId(1), RouterId(2)] {
            let lies = h
                .instance(r)
                .lsdb()
                .iter()
                .filter(|l| l.key.origin.is_fake());
            assert_eq!(lies.count(), 0, "{r} swept the purge");
        }
    }

    /// Router 1, the hub, with spokes 2, 3 and 4 on its interfaces 0, 1
    /// and 2 (each spoke's interface 0 faces the hub), converged, with
    /// nothing left to drain.
    fn converged_hub() -> crate::harness::Harness {
        let mut h = crate::harness::Harness::new();
        for i in 1..=4 {
            h.add_router(RouterId(i));
        }
        for i in 2..=4 {
            h.connect(RouterId(1), RouterId(i), Metric(1), Dur::from_millis(1));
        }
        h.start_all();
        assert!(h.run_until_converged(Timestamp::from_secs(30)));
        h
    }

    /// Drain `inst`, decoding the bytes of every datagram it sends.
    fn sends(inst: &mut Instance) -> Vec<(IfaceId, Packet)> {
        let me = inst.router_id();
        datagrams(inst)
            .into_iter()
            .map(|(iface, datagram)| {
                let (_, pkt) = wire::decode(datagram.encode(me)).expect("own encoding decodes");
                (iface, pkt)
            })
            .collect()
    }

    /// Drain `inst`, keeping the datagrams it sends.
    fn datagrams(inst: &mut Instance) -> Vec<(IfaceId, Datagram)> {
        inst.drain_output()
            .filter_map(|o| match o {
                Output::Send { iface, datagram } => Some((iface, datagram)),
                _ => None,
            })
            .collect()
    }

    /// The fake node numbers an LS Update carries, in order.
    fn lies_in(pkt: &Packet) -> Vec<u32> {
        let Packet::LsUpdate(u) = pkt else {
            panic!("not an update: {pkt:?}");
        };
        u.lsas
            .iter()
            .map(|l| l.key.origin.fake_index().expect("a lie"))
            .collect()
    }

    #[test]
    fn floods_between_drains_pack_into_updates_of_sixteen_in_flood_order() {
        for k in [1, 2, 15, 16, 17, 40] {
            let mut h = converged_hub();
            let t = h.now();
            let inst = h.instance_mut(RouterId(1));
            let before = inst.stats;
            for i in 0..k {
                lie(inst, i, t).unwrap();
            }
            // Nothing is handed over or counted before the drain.
            assert_eq!(inst.stats.pkts_sent, before.pkts_sent);
            let drained: Vec<(IfaceId, Bytes)> = datagrams(inst)
                .into_iter()
                .map(|(i, datagram)| (i, datagram.encode(RouterId(1))))
                .collect();
            let sent: Vec<(IfaceId, Packet)> = drained
                .iter()
                .map(|(i, data)| (*i, wire::decode(data.clone()).unwrap().1))
                .collect();
            // ⌈k/16⌉ updates per neighbor, each at the position of its
            // first LSA: the three interfaces in turn, batch by batch.
            let batches = k.div_ceil(MAX_UPD_LSAS as u32);
            let order: Vec<IfaceId> = sent.iter().map(|(i, _)| *i).collect();
            let want: Vec<IfaceId> = (0..batches).flat_map(|_| (0..3).map(IfaceId)).collect();
            assert_eq!(order, want, "k = {k}");
            for iface in (0..3).map(IfaceId) {
                let updates: Vec<Vec<u32>> = sent
                    .iter()
                    .filter(|(i, _)| *i == iface)
                    .map(|(_, p)| lies_in(p))
                    .collect();
                assert!(updates.iter().all(|u| u.len() <= MAX_UPD_LSAS));
                assert_eq!(updates.concat(), (0..k).collect::<Vec<_>>(), "k = {k}");
            }
            // One datagram, one count; every LSA is one flood per
            // neighbor.
            let stats = inst.stats;
            assert_eq!(stats.pkts_sent - before.pkts_sent, 3 * u64::from(batches));
            let bytes: usize = drained.iter().map(|(_, d)| d.len()).sum();
            assert_eq!(stats.bytes_sent - before.bytes_sent, bytes as u64);
            assert_eq!(stats.lsas_flooded - before.lsas_flooded, 3 * u64::from(k));
            // Every neighbor's retransmit list names every lie.
            for i in 0..k {
                let key = LsaKey {
                    origin: RouterId::fake(i),
                    kind: LsaKind::Fake,
                    id: 0,
                };
                for iface in inst.ifaces.values() {
                    assert!(iface.neighbor.as_ref().unwrap().rxmt.contains(&key));
                }
            }
        }
    }

    #[test]
    fn any_other_packet_on_the_interface_closes_the_open_update() {
        let mut h = converged_hub();
        let t = h.now();
        let inst = h.instance_mut(RouterId(1));
        let on = IfaceId(1);
        lie(inst, 0, t).unwrap();
        lie(inst, 1, t).unwrap();
        let dbd = Packet::Dbd(Dbd {
            init: false,
            more: false,
            master: true,
            dd_seq: 7,
            headers: vec![],
        });
        inst.send_packet(on, dbd.clone());
        lie(inst, 2, t).unwrap();
        let req = Packet::LsRequest(LsRequest { keys: vec![] });
        inst.send_packet(on, req.clone());
        lie(inst, 3, t).unwrap();
        // Interface 1's retransmit comes due alone: the others' lists
        // were stamped later, the next hello is far off.
        let later = t + RXMT_INTERVAL;
        for iface in inst.ifaces.values_mut() {
            let n = iface.neighbor.as_mut().unwrap();
            if iface.id != on {
                n.last_rxmt_at = later;
            }
            n.last_heard = later;
        }
        inst.next_hello = later + HELLO_INTERVAL;
        inst.poll_timers(later);
        lie(inst, 4, later).unwrap();

        let sent = sends(inst);
        let shape: Vec<(u16, String)> = sent
            .iter()
            .map(|(i, p)| {
                let what = match p {
                    Packet::LsUpdate(_) => format!("update {:?}", lies_in(p)),
                    other => format!("{other:?}"),
                };
                (i.0, what)
            })
            .collect();
        let update = |i: u16, lies: &[u32]| (i, format!("update {lies:?}"));
        assert_eq!(
            shape,
            [
                update(0, &[0, 1, 2, 3, 4]),
                update(1, &[0, 1]),
                update(2, &[0, 1, 2, 3, 4]),
                (1, format!("{dbd:?}")),
                update(1, &[2]),
                (1, format!("{req:?}")),
                update(1, &[3]),
                // The retransmission: everything unacked, in key order.
                update(1, &[0, 1, 2, 3]),
                update(1, &[4]),
            ]
        );
    }

    /// A retransmission sends the lowest listed keys, sixteen at most,
    /// in key order, whatever order they were flooded in: what the
    /// ordered map of flooded instances sent before the lists held keys.
    #[test]
    fn a_retransmission_sends_the_sixteen_lowest_keys_in_key_order() {
        let mut h = converged_hub();
        let t = h.now();
        let inst = h.instance_mut(RouterId(1));
        // Forty lies, flooded in the order 0, 17, 34, 11, 28, …; the
        // floods are drained and never delivered, so nothing is acked.
        let flooded: Vec<u32> = (0..40).map(|i| i * 17 % 40).collect();
        for &k in &flooded {
            lie(inst, k, t).unwrap();
        }
        let floods = sends(inst);
        assert_eq!(lies_in(&floods[0].1), flooded[..MAX_UPD_LSAS]);
        let later = t + RXMT_INTERVAL;
        for iface in inst.ifaces.values_mut() {
            iface.neighbor.as_mut().unwrap().last_heard = later;
        }
        inst.next_hello = later + HELLO_INTERVAL;
        inst.poll_timers(later);
        let lowest: Vec<u32> = (0..MAX_UPD_LSAS as u32).collect();
        let mut resent = Vec::new();
        for (iface, datagram) in datagrams(inst) {
            let Datagram::Update(lsas) = datagram else {
                panic!("not an update: {datagram:?}");
            };
            // Each is the instance the LSDB stores.
            for lsa in &lsas {
                assert!(Arc::ptr_eq(lsa, inst.lsdb.get_shared(&lsa.key).unwrap()));
            }
            let lies = lsas.iter().map(|l| l.key.origin.fake_index().unwrap());
            resent.push((iface, lies.collect::<Vec<u32>>()));
        }
        let want: Vec<(IfaceId, Vec<u32>)> = (0..3).map(|i| (IfaceId(i), lowest.clone())).collect();
        assert_eq!(resent, want);
    }

    #[test]
    fn acks_owed_one_interface_go_out_in_one_ls_ack() {
        let mut h = converged_hub();
        let t = h.now();
        // Spoke 2 floods two lies, drained apart: two updates.
        let spoke = h.instance_mut(RouterId(2));
        let mut updates = Vec::new();
        for k in 0..2 {
            lie(spoke, k, t).unwrap();
            updates.extend(datagrams(spoke));
        }
        assert_eq!(updates.len(), 2);
        let hub = h.instance_mut(RouterId(1));
        let at = t + Dur::from_millis(1);
        for (_, datagram) in updates {
            hub.receive(IfaceId(0), RouterId(2), datagram, at).unwrap();
        }
        let sent = sends(hub);
        let keys = |k: &[u32]| -> Vec<LsaKey> {
            k.iter()
                .map(|&k| LsaKey {
                    origin: RouterId::fake(k),
                    kind: LsaKind::Fake,
                    id: 0,
                })
                .collect()
        };
        let acks: Vec<(IfaceId, Vec<LsaKey>)> = sent
            .iter()
            .filter_map(|(i, p)| match p {
                Packet::LsAck(a) => Some((*i, a.headers.iter().map(|h| h.key).collect())),
                _ => None,
            })
            .collect();
        assert_eq!(acks, [(IfaceId(0), keys(&[0, 1]))]);
        // Onward, both lies share one update per other spoke, and the
        // ack sits after them, where the first update's processing
        // left it.
        let order: Vec<(u16, bool)> = sent
            .iter()
            .map(|(i, p)| (i.0, matches!(p, Packet::LsAck(_))))
            .collect();
        assert_eq!(order, [(1, false), (2, false), (0, true)]);
        for (_, p) in sent.iter().filter(|(i, _)| i.0 != 0) {
            assert_eq!(lies_in(p), [0, 1]);
        }
    }

    #[test]
    fn an_ls_ack_never_outgrows_its_length_field() {
        let mut h = converged_hub();
        let t = h.now();
        // Spoke 2 floods ten lies more than one LS Ack has room for
        // headers: 274 updates, delivered to the hub at one instant.
        let n = MAX_ACK_HEADERS as u32 + 10;
        let spoke = h.instance_mut(RouterId(2));
        for k in 0..n {
            lie(spoke, k, t).unwrap();
        }
        let updates = datagrams(spoke);
        let hub = h.instance_mut(RouterId(1));
        for (_, datagram) in updates {
            hub.receive(IfaceId(0), RouterId(2), datagram, t + Dur::from_millis(1))
                .unwrap();
        }
        let acks: Vec<usize> = sends(hub)
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::LsAck(a) => Some(a.headers.len()),
                _ => None,
            })
            .collect();
        assert_eq!(acks, [MAX_ACK_HEADERS, 10]);
    }

    #[test]
    fn a_stale_copy_is_answered_only_while_the_neighbor_lacks_ours() {
        let mut h = converged_hub();
        let t = h.now();
        let hub = h.instance_mut(RouterId(1));
        lie(hub, 0, t).unwrap();
        let key = LsaKey {
            origin: RouterId::fake(0),
            kind: LsaKind::Fake,
            id: 0,
        };
        let stale = Arc::clone(hub.lsdb().get_shared(&key).unwrap());
        lie(hub, 0, t).unwrap();
        let from_spoke = || Datagram::Update(vec![Arc::clone(&stale)]);
        // Spoke 3's retransmit entry is the instance just flooded to it:
        // nothing goes back but that flood.
        hub.receive(IfaceId(1), RouterId(3), from_spoke(), t)
            .unwrap();
        let to_spoke3: Vec<Vec<u32>> = sends(hub)
            .iter()
            .filter(|(i, _)| *i == IfaceId(1))
            .map(|(_, p)| lies_in(p))
            .collect();
        assert_eq!(to_spoke3, [[0, 0]], "the flood alone, both instances");
        // Once every spoke has acked it (the drained flood never left:
        // retransmission delivers it), spoke 2's stale copy is answered
        // by exactly one LS Update carrying our one instance: the one
        // our LSDB holds, not a copy.
        assert!(h.run_until_converged(t + Dur::from_secs(30)));
        let now = h.now();
        let hub = h.instance_mut(RouterId(1));
        assert!(hub
            .ifaces
            .values()
            .all(|i| i.neighbor.as_ref().unwrap().rxmt.is_empty()));
        hub.receive(IfaceId(0), RouterId(2), from_spoke(), now)
            .unwrap();
        let sent = datagrams(hub);
        let [(IfaceId(0), Datagram::Update(reply))] = &sent[..] else {
            panic!("not one update to spoke 2: {sent:?}");
        };
        let ours = hub.lsdb().get_shared(&key).unwrap();
        assert!(ours.seq > stale.seq);
        assert!(matches!(&reply[..], [lsa] if Arc::ptr_eq(lsa, ours)));
    }

    /// What a delivered update carries is the sender's instance itself:
    /// the receiver's LSDB stores that `Arc`, so a network holds one
    /// copy of each LSA instance. Nothing mutates a stored instance in
    /// place.
    #[test]
    fn a_delivered_update_shares_the_senders_instance() {
        let mut h = converged_hub();
        let t = h.now();
        let spoke = h.instance_mut(RouterId(2));
        lie(spoke, 0, t).unwrap();
        let updates = datagrams(spoke);
        let key = LsaKey {
            origin: RouterId::fake(0),
            kind: LsaKind::Fake,
            id: 0,
        };
        let sent = Arc::clone(spoke.lsdb().get_shared(&key).unwrap());
        let hub = h.instance_mut(RouterId(1));
        for (_, datagram) in updates {
            hub.receive(IfaceId(0), RouterId(2), datagram, t + Dur::from_millis(1))
                .unwrap();
        }
        let stored = hub.lsdb().get_shared(&key).expect("installed");
        assert!(Arc::ptr_eq(stored, &sent));
        // The hub floods that same instance on to the other spokes.
        let onward: Vec<IfaceId> = datagrams(hub)
            .into_iter()
            .filter_map(|(i, datagram)| match datagram {
                Datagram::Update(lsas) => {
                    assert!(matches!(&lsas[..], [lsa] if Arc::ptr_eq(lsa, &sent)));
                    Some(i)
                }
                Datagram::Other(_) => None,
            })
            .collect();
        assert_eq!(onward, [IfaceId(1), IfaceId(2)]);
    }

    #[test]
    fn an_origination_acked_in_flight_is_not_retransmitted_within_the_interval() {
        let mut h = converged_hub();
        let t = Timestamp::from_secs(5);
        assert!(h.now() < t, "converged by {:?}", h.now());
        h.run_until(t);
        let hub = h.instance_mut(RouterId(1));
        assert!(sends(hub).is_empty());
        lie(hub, 0, t).unwrap();
        let mut sent = sends(hub);
        assert_eq!(sent.len(), 3, "one flood per spoke: {sent:?}");
        // The hub is polled at every deadline it names — never in the
        // past — until the spokes' acks arrive 1 ms later, then until
        // one retransmit interval after the origination.
        let acked = t + Dur::from_millis(1);
        let until = t + RXMT_INTERVAL;
        let poll_before =
            |hub: &mut Instance, end: Timestamp, sent: &mut Vec<(IfaceId, Packet)>| {
                while let Some(d) = hub.next_timer().filter(|d| *d < end) {
                    hub.poll_timers(d.max(t));
                    sent.extend(sends(hub));
                }
            };
        poll_before(hub, acked, &mut sent);
        let key = LsaKey {
            origin: RouterId::fake(0),
            kind: LsaKind::Fake,
            id: 0,
        };
        let header = hub.lsdb().get(&key).unwrap().header();
        for spoke in 2..=4u32 {
            let ack = wire::encode(
                &Packet::LsAck(LsAck {
                    headers: vec![header],
                }),
                RouterId(spoke),
            );
            hub.handle_packet(IfaceId(spoke as u16 - 2), ack, acked)
                .unwrap();
        }
        poll_before(hub, until, &mut sent);
        let updates = sent
            .iter()
            .filter(|(_, p)| matches!(p, Packet::LsUpdate(_)))
            .count();
        assert_eq!(updates, 3, "the lie went out more than once per spoke");
        assert!(hub
            .ifaces
            .values()
            .all(|i| i.neighbor.as_ref().unwrap().rxmt.is_empty()));
    }

    /// The largest packets an instance packs: the length computed
    /// without encoding is the encoding's, and fits the 16-bit length
    /// field (one more ack header would not).
    #[test]
    fn encoded_len_of_a_full_update_and_the_largest_ack() {
        let lsas: Vec<Lsa> = (0..MAX_UPD_LSAS as u32)
            .map(|i| match i % 3 {
                0 => Lsa::router(
                    RouterId(i),
                    SeqNum(1),
                    (0..i)
                        .map(|to| LsaLink {
                            to: RouterId(to),
                            metric: Metric(to),
                        })
                        .collect(),
                ),
                1 => Lsa::prefix(RouterId(i), i, SeqNum(2), Prefix::net24(i as u8), Metric(0)),
                _ => Lsa::fake(
                    RouterId::fake(i),
                    SeqNum(3),
                    RouterId(1),
                    Metric(1),
                    Prefix::net24(1),
                    Metric(1),
                    FwAddr::secondary(RouterId(2), i as u16),
                ),
            })
            .collect();
        let update = Packet::LsUpdate(wire::LsUpdate { lsas });
        let bytes = wire::encode(&update, RouterId(9));
        assert_eq!(wire::encoded_len(&update), bytes.len());

        let header = LsaHeader {
            key: LsaKey {
                origin: RouterId(7),
                kind: LsaKind::Router,
                id: 0,
            },
            seq: SeqNum(1),
            age: 0,
        };
        let ack = Packet::LsAck(LsAck {
            headers: vec![header; MAX_ACK_HEADERS],
        });
        let len = wire::encoded_len(&ack);
        assert_eq!(len, wire::encode(&ack, RouterId(9)).len());
        assert!(len <= usize::from(u16::MAX));
        assert!(len + wire::LSA_HEADER_LEN > usize::from(u16::MAX));
    }

    #[test]
    fn packet_on_unknown_iface_is_error() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.start(Timestamp::ZERO);
        let err = inst.handle_packet(IfaceId(7), Bytes::from_static(b"xx"), Timestamp::ZERO);
        assert!(matches!(err, Err(InstanceError::UnknownIface(7))));
    }

    #[test]
    fn garbage_packet_counts_decode_error() {
        let mut inst = Instance::new(Config::new(RouterId(1)));
        inst.add_iface(IfaceId(0), Metric(1));
        inst.start(Timestamp::ZERO);
        let err = inst.handle_packet(
            IfaceId(0),
            Bytes::from_static(b"not a packet at all"),
            Timestamp::ZERO,
        );
        assert!(err.is_err());
        assert_eq!(inst.stats.decode_errors, 1);
    }
}
