//! The co-simulation world.
//!
//! [`Sim`] binds everything together in one deterministic event loop
//! built on the `fib-sim-kernel` primitives:
//!
//! * one time-ordered [`EventQueue`] — a FIFO per instant, so ties
//!   pop in push order — carries every event: protocol packets in
//!   flight, link scripts, component ticks, trace samples;
//! * an IGP [`Instance`] per router exchanges protocol packets over the
//!   simulated links as typed [`Datagram`]s, each accounted at its exact
//!   encoded length (debug builds also encode, checksum and decode
//!   every one); their internal timer deadlines are tracked in a
//!   [`DeadlineHeap`] (`O(log n)` per instance touched in a batch, not
//!   `O(routers)`);
//! * FIB downloads from converged instances into data-plane [`Fib`]s;
//! * fluid traffic: flows resolve their paths through the FIBs (per
//!   hop ECMP hashing) and share link capacity max-min fairly; link
//!   octet counters integrate rates between events;
//! * SNMP agents per router whose `ifOutOctets` counters are fed by the
//!   data and control planes alike;
//! * pluggable components (the Fibbing controller, workload drivers,
//!   probes) behind the [`EventHandler`] trait, registered into a flat
//!   arena and addressed by [`ComponentId`].
//!
//! Routers, links, and flows live in dense arenas: hot paths index by
//! slot (`u32`/`usize`), never by name or map probe. The key-ordered
//! maps remain only as cold-path views (API lookups, provisioning
//! iteration) so observable iteration orders are unchanged from the
//! pre-kernel simulator — byte-determinism of every pinned artifact is
//! an invariant, asserted against pre-port reference traces in
//! `tests/kernel_pin.rs`.
//!
//! Settling is *incremental* (see [`crate::dirty`]) and follows one
//! rule: nobody observes unsettled state. Dirt is settled at the next
//! observation point — time about to advance (rate integration reads
//! the rates), components about to run (in a batch, or at the start
//! of `run_until` to hear of the flows host code started or stopped),
//! or the end of `start`/`run_until` (host code reads next). A
//! mutation therefore takes effect from its own instant, whether an
//! event, a component or host code between two `run_until` calls made
//! it, and the components hear of a flow at the instant it started or
//! stopped.

use crate::dirty::{DirtySet, FlowIndex};
use crate::ecmp::FlowKey;
use crate::events::Event;
use crate::fib::{resolve_path, Fib};
use crate::flow::{Flow, FlowColumns, FlowId, FlowInfo, FlowSpec, RateChange};
use crate::fluid::{ClassFill, ClassTable, Members, PathTable, STOPPED, UNROUTED};
use crate::handler::{AppEvent, EventHandler};
use crate::link::{LinkKey, LinkSpec, LinkState, LINK_DELAY};
use crate::trace::Recorder;
use fib_igp::instance::{Config as IgpConfig, Instance, Output};
use fib_igp::rib::find_cycle;
use fib_igp::time::{Dur, Timestamp};
use fib_igp::types::{IfaceId, Metric, Prefix, RouterId};
use fib_igp::wire::{self, Datagram};
pub use fib_sim_kernel::TieBreak;
use fib_sim_kernel::{ComponentId, DeadlineHeap, EventQueue, Registry};
use fib_telemetry::counters::{Counter, CounterWidth};
use fib_telemetry::mib::Agent;
use std::collections::{BTreeMap, VecDeque};

pub use crate::context::SimContext;

/// Trace sampling period.
const SAMPLE_INTERVAL: Dur = Dur::from_millis(100);
/// SNMP counter width exposed by agents.
const COUNTER_WIDTH: CounterWidth = CounterWidth::C64;

/// Simulator configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Run the forwarding loop-freedom probe at every settle point
    /// (see [`Sim::loop_violations`]). Off by default: the probe is a
    /// safety-invariant check for adversarial exploration, not part of
    /// the pinned simulation schedule (it reads, never mutates, so
    /// enabling it cannot change any artifact byte — it only costs
    /// time).
    pub check_loops: bool,
}

/// Aggregate world statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Control-plane packets delivered.
    pub ctrl_pkts: u64,
    /// Control-plane bytes delivered.
    pub ctrl_bytes: u64,
    /// Control packets dropped on down links.
    pub ctrl_dropped: u64,
    /// Fluid re-allocations performed.
    pub reallocs: u64,
    /// Simulation events dispatched (packets, ticks, samples, link
    /// scripts).
    pub events: u64,
    /// Flow paths re-resolved because the dirty set named them.
    pub paths_resolved: u64,
    /// Flow paths kept from cache across reallocations (what the old
    /// global recompute would have re-resolved; `paths_resolved +
    /// paths_skipped` is exactly the pre-refactor resolution count).
    pub paths_skipped: u64,
    /// Allocation fill passes: every settle fills, so this equals
    /// `reallocs`. Kept only because the ledger benchmark reads it
    /// (ROADMAP item 1 deletes it); not among [`SimStats::counters`].
    pub alloc_fills: u64,
    /// Always 0: no allocation is skipped. Kept, like `alloc_fills`,
    /// only because the ledger benchmark reads it.
    pub alloc_skips: u64,
    /// Flows whose rate a settle wrote or compared after the fill,
    /// summed over the settles; a walk over the live flows would make
    /// it `paths_resolved + paths_skipped`. Outside
    /// [`SimStats::counters`]: pinned sweep artifacts embed that key set.
    pub settle_visits: u64,
    /// Full Dijkstra runs across all IGP instances.
    pub spf_full_runs: u64,
    /// Route-phase-only (partial) SPF runs across all IGP instances:
    /// runs at which the LSDB's real version stood (lie and prefix
    /// churn).
    pub spf_partial_runs: u64,
    /// SNMP operations served.
    pub snmp_ops: u64,
    /// Dirty-flow re-resolutions that failed (flow found temporarily
    /// unroutable; counted per resolution attempt, not per realloc).
    pub unroutable: u64,
    /// Integrated flow-seconds spent without a usable path (1 flow
    /// stranded for 2 s contributes 2.0) — the scenario engine's
    /// blackout metric.
    pub unroutable_flow_secs: f64,
    /// Settle points at which the loop-freedom probe found at least
    /// one forwarding cycle (0 unless [`SimConfig::check_loops`] is
    /// on). Deliberately *not* part of [`SimStats::counters`]: pinned
    /// sweep artifacts embed that key set.
    pub fwd_loop_settles: u64,
    /// Control packets the receiving instance rejected (undecodable,
    /// or for an interface it does not have). Like
    /// `fwd_loop_settles`, outside [`SimStats::counters`].
    pub ctrl_pkt_errors: u64,
    /// Carrier changes an instance refused (no such interface).
    /// Outside [`SimStats::counters`].
    pub iface_admin_errors: u64,
}

/// One forwarding cycle caught by the loop-freedom probe
/// ([`SimConfig::check_loops`]): at a settle point, following every
/// ECMP slot of each router's FIB entry for `prefix` closed a cycle
/// through `cycle` (first router repeated implicitly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopViolation {
    /// Simulation time of the settle point.
    pub at: Timestamp,
    /// The destination prefix whose forwarding graph is cyclic.
    pub prefix: Prefix,
    /// The routers on the cycle, in forwarding order.
    pub cycle: Vec<RouterId>,
}

impl SimStats {
    /// The eleven integer machinery counters by name, in key order —
    /// the one list the sweep's CSV and JSON writers print from.
    /// `unroutable_flow_secs` is a float metric, not a counter,
    /// `fwd_loop_settles` is a probe result, `ctrl_pkt_errors` and
    /// `iface_admin_errors` count errors, and `alloc_fills` and
    /// `alloc_skips` repeat `reallocs` and 0; none is listed, because
    /// pinned sweep artifacts embed this key set.
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("ctrl_bytes", self.ctrl_bytes),
            ("ctrl_dropped", self.ctrl_dropped),
            ("ctrl_pkts", self.ctrl_pkts),
            ("events", self.events),
            ("paths_resolved", self.paths_resolved),
            ("paths_skipped", self.paths_skipped),
            ("reallocs", self.reallocs),
            ("snmp_ops", self.snmp_ops),
            ("spf_full_runs", self.spf_full_runs),
            ("spf_partial_runs", self.spf_partial_runs),
            ("unroutable_resolutions", self.unroutable),
        ]
    }
}

/// Fold another run's statistics into this one (the sweep's per-group
/// and whole-sweep totals). Saturating: a silent wraparound in a CI
/// artifact would be worse than a pinned ceiling.
impl std::ops::AddAssign for SimStats {
    fn add_assign(&mut self, o: SimStats) {
        self.ctrl_pkts = self.ctrl_pkts.saturating_add(o.ctrl_pkts);
        self.ctrl_bytes = self.ctrl_bytes.saturating_add(o.ctrl_bytes);
        self.ctrl_dropped = self.ctrl_dropped.saturating_add(o.ctrl_dropped);
        self.reallocs = self.reallocs.saturating_add(o.reallocs);
        self.events = self.events.saturating_add(o.events);
        self.paths_resolved = self.paths_resolved.saturating_add(o.paths_resolved);
        self.paths_skipped = self.paths_skipped.saturating_add(o.paths_skipped);
        self.alloc_fills = self.alloc_fills.saturating_add(o.alloc_fills);
        self.alloc_skips = self.alloc_skips.saturating_add(o.alloc_skips);
        self.settle_visits = self.settle_visits.saturating_add(o.settle_visits);
        self.spf_full_runs = self.spf_full_runs.saturating_add(o.spf_full_runs);
        self.spf_partial_runs = self.spf_partial_runs.saturating_add(o.spf_partial_runs);
        self.snmp_ops = self.snmp_ops.saturating_add(o.snmp_ops);
        self.unroutable = self.unroutable.saturating_add(o.unroutable);
        self.fwd_loop_settles = self.fwd_loop_settles.saturating_add(o.fwd_loop_settles);
        self.ctrl_pkt_errors = self.ctrl_pkt_errors.saturating_add(o.ctrl_pkt_errors);
        self.iface_admin_errors = self.iface_admin_errors.saturating_add(o.iface_admin_errors);
        self.unroutable_flow_secs += o.unroutable_flow_secs;
    }
}

#[derive(Debug)]
pub(crate) struct LinkRec {
    pub(crate) state: LinkState,
    /// Interface on `state.key.from` transmitting onto this direction.
    pub(crate) tx_iface: IfaceId,
    /// Interface on `state.key.to` receiving from this direction.
    pub(crate) rx_iface: IfaceId,
    /// Provisioned IGP cost (from the link spec — the operator's view,
    /// served without consulting any LSDB).
    pub(crate) cost: Metric,
    /// Fractional byte carry for counter integration.
    pub(crate) carry: f64,
    /// Router/agent arena slot of `state.key.from`.
    pub(crate) from_slot: u32,
    /// Router/agent arena slot of `state.key.to`.
    pub(crate) to_slot: u32,
}

// `accrue_to` sweeps every record at every instant that advances time:
// a record stays within one cache line.
const _: () = assert!(
    std::mem::size_of::<LinkRec>() <= 64,
    "a link record fits in 64 bytes"
);

/// Internal queue payload: the link script's [`Event`]s plus the
/// kernel's own traffic (packets in flight, component ticks, trace
/// samples).
pub(crate) enum Ev {
    /// A datagram in flight from router `from` to interface `iface` of
    /// router slot `to_slot`, with its encoded length.
    Pkt {
        to_slot: u32,
        iface: IfaceId,
        from: RouterId,
        len: u32,
        datagram: Datagram,
    },
    Tick(ComponentId),
    Sample,
    /// A scripted link event (no larger than a packet event, which
    /// sets the size of every queued one).
    User(Event),
}

/// Everything except the components (so components can borrow the
/// world mutably while being dispatched).
pub(crate) struct Core {
    pub(crate) cfg: SimConfig,
    pub(crate) now: Timestamp,
    pub(crate) queue: EventQueue<Timestamp, Ev>,
    // Router arena: slot = registration order; id-ordered views kept
    // for cold paths and observable iteration order.
    pub(crate) router_ids: Vec<RouterId>,
    pub(crate) router_slot: BTreeMap<RouterId, u32>,
    pub(crate) instances: Vec<Instance>,
    pub(crate) agents: Vec<Agent>,
    pub(crate) fibs: BTreeMap<RouterId, Fib>,
    pub(crate) deadlines: DeadlineHeap<Timestamp>,
    due_scratch: Vec<u32>,
    /// Instance slots touched since the last output collection, each
    /// once (`is_touched[slot]` says whether it is already listed).
    touched: Vec<u32>,
    is_touched: Vec<bool>,
    /// Instance slots touched since `deadlines` was last read, each
    /// once: marked where touched, recomputed where read (as `settle`).
    stale: Vec<u32>,
    is_stale: Vec<bool>,
    // Link arena: directed records in creation order (the two
    // directions of one symmetric link are adjacent: sibling = ix ^ 1)
    // plus the key-ordered index for lookups and stable iteration.
    pub(crate) link_recs: Vec<LinkRec>,
    pub(crate) link_idx: BTreeMap<LinkKey, u32>,
    /// Per router slot, indexed by `IfaceId` (interfaces are issued
    /// densely per router): the link record the interface transmits
    /// on; its receive direction is the sibling record.
    pub(crate) iface_links: Vec<Vec<u32>>,
    pub(crate) prefix_owners: Vec<(Prefix, RouterId)>,
    // Flow arena indexed by `FlowId.0` (ids are dense, issued as flows
    // start, from 1): one slot per flow ever started, empty once it
    // stops.
    pub(crate) flow_recs: Vec<Option<Flow>>,
    /// Each slot's class and rate, indexed like `flow_recs`: what the
    /// hot passes read instead of a record.
    pub(crate) hot: FlowColumns,
    /// The occupied slots of `flow_recs`, ascending — what every walk
    /// over the live flows iterates, so its cost follows concurrency
    /// and not history. A deque, because flows start at its high end
    /// and mostly stop near its low end: both shift the shorter side.
    pub(crate) live: VecDeque<usize>,
    /// Live flows currently without a usable path (incremental form of
    /// the per-batch stranded scan; feeds `unroutable_flow_secs`): the
    /// [`UNROUTED`] entries of the class column, counted where it is
    /// written.
    stranded: usize,
    pub(crate) flow_index: FlowIndex,
    /// Every distinct routed path resolved so far, as link arena
    /// positions: interned where `reallocate` resolves a flow, read by
    /// the allocator. It only grows (see [`PathTable`]).
    pub(crate) paths: PathTable,
    /// Every distinct (path id, cap) a routed flow has had: interned
    /// where `reallocate` resolves a flow and where its cap changes,
    /// named by the class column. It only grows (see [`ClassTable`]).
    pub(crate) classes: ClassTable,
    /// How many live flows each class has, counted where the class
    /// column is written: what a fill starts from.
    pub(crate) members: Members,
    pub(crate) alloc: ClassFill,
    /// Every rate change since the last drain, in settle order, once a
    /// component watches rates (`None` until then).
    pub(crate) rate_changes: Option<Vec<RateChange>>,
    last_accrue: Timestamp,
    pub(crate) dirty: DirtySet,
    pub(crate) started: bool,
    pub(crate) pending_flow_events: Vec<(bool, FlowInfo)>, // (started?, info)
    pub(crate) pending_ticks: Vec<ComponentId>,
    pub(crate) recorder: Recorder,
    /// Sampled link series, name-sorted (the recorder emission order).
    pub(crate) sampled: Vec<(String, LinkKey)>,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// Forwarding cycles found by the loop-freedom probe, capped at
    /// [`LOOP_LOG_CAP`] (the settle counter in [`SimStats`] keeps
    /// counting past the cap).
    pub(crate) loop_log: Vec<LoopViolation>,
}

/// Cap on retained [`LoopViolation`] records (deterministic prefix of
/// the detection sequence; the counter keeps the true total).
pub const LOOP_LOG_CAP: usize = 64;

/// The simulator: the world plus its registered components.
pub struct Sim {
    pub(crate) core: Core,
    apps: Registry<dyn EventHandler>,
    tick_intervals: Vec<Option<Dur>>,
    /// The ticks and flow events a dispatch round is handing out, kept
    /// for their allocations: each round swaps them with the core's
    /// pending lists, which components fill again meanwhile.
    round_ticks: Vec<ComponentId>,
    round_events: Vec<(bool, FlowInfo)>,
}

impl Core {
    fn new(cfg: SimConfig) -> Core {
        Core {
            cfg,
            now: Timestamp::ZERO,
            queue: EventQueue::new(),
            router_ids: Vec::new(),
            router_slot: BTreeMap::new(),
            instances: Vec::new(),
            agents: Vec::new(),
            fibs: BTreeMap::new(),
            deadlines: DeadlineHeap::new(),
            due_scratch: Vec::new(),
            touched: Vec::new(),
            is_touched: Vec::new(),
            stale: Vec::new(),
            is_stale: Vec::new(),
            link_recs: Vec::new(),
            link_idx: BTreeMap::new(),
            iface_links: Vec::new(),
            prefix_owners: Vec::new(),
            flow_recs: Vec::new(),
            hot: FlowColumns::default(),
            live: VecDeque::new(),
            stranded: 0,
            flow_index: FlowIndex::new(),
            paths: PathTable::default(),
            classes: ClassTable::default(),
            members: Members::default(),
            alloc: ClassFill::default(),
            rate_changes: None,
            last_accrue: Timestamp::ZERO,
            dirty: DirtySet::new(),
            started: false,
            pending_flow_events: Vec::new(),
            pending_ticks: Vec::new(),
            recorder: Recorder::new(),
            sampled: Vec::new(),
            stats: SimStats::default(),
            loop_log: Vec::new(),
        }
    }

    pub(crate) fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flow_recs.get(id.0 as usize).and_then(|o| o.as_ref())
    }

    /// A live flow's class id (`None` while unroutable).
    #[cfg(test)]
    pub(crate) fn class(&self, id: FlowId) -> Option<u32> {
        let slot = id.0 as usize;
        assert!(self.hot.live(slot), "{id} is live");
        Some(self.hot.class[slot]).filter(|c| *c != UNROUTED)
    }

    /// The path id of a live flow's class (`None` while unroutable).
    #[cfg(test)]
    pub(crate) fn path_id(&self, id: FlowId) -> Option<u32> {
        self.class(id).map(|c| self.classes.path(c))
    }

    /// Move the flow in `slot` to `class` — or to [`UNROUTED`], or out
    /// of the arena with [`STOPPED`] — and keep in step what counts
    /// the column: each class's members and the stranded flows, and the
    /// mark that sends the next settle to a flow whose class changed.
    /// Every write of the class column goes through here.
    fn set_class(&mut self, slot: usize, class: u32) {
        let old = std::mem::replace(&mut self.hot.class[slot], class);
        if old == class {
            return;
        }
        match old {
            STOPPED => {}
            UNROUTED => self.stranded -= 1,
            c => self.members.leave(c, slot),
        }
        match class {
            STOPPED => {}
            UNROUTED => self.stranded += 1,
            c => self.members.join(c, slot),
        }
        self.members.mark(slot);
    }

    /// All live flows in id order.
    pub(crate) fn flows(&self) -> impl Iterator<Item = &Flow> + '_ {
        self.live
            .iter()
            .map(|&slot| live_flow(&self.flow_recs, slot))
    }

    /// Record that `slot`'s instance may have new output and a new
    /// earliest deadline; neither is read here. Every `&mut Instance`
    /// access goes through here (or is followed by it).
    pub(crate) fn touch(&mut self, slot: u32) {
        if !std::mem::replace(&mut self.is_touched[slot as usize], true) {
            self.touched.push(slot);
        }
        if !std::mem::replace(&mut self.is_stale[slot as usize], true) {
            self.stale.push(slot);
        }
    }

    /// Recompute the deadline of every instance touched since the last
    /// read — once each, however many packets the instant brought it.
    /// The heap orders by `(deadline, slot)`: when an entry is written
    /// changes neither what comes due nor in which order.
    fn refresh_deadlines(&mut self) {
        for slot in self.stale.drain(..) {
            self.is_stale[slot as usize] = false;
            let next = self.instances[slot as usize].next_timer();
            self.deadlines.set(slot, next);
        }
    }

    /// The interface on router `slot` that faces `peer`, if any.
    pub(crate) fn iface_facing(&self, slot: u32, peer: RouterId) -> Option<IfaceId> {
        self.iface_links[slot as usize]
            .iter()
            .position(|&ix| self.link_recs[ix as usize].state.key.to == peer)
            .map(|i| IfaceId(i as u16))
    }

    /// Issue router `slot`'s next interface id, transmitting on link
    /// record `ix`.
    fn add_iface(&mut self, slot: u32, ix: u32) -> IfaceId {
        let links = &mut self.iface_links[slot as usize];
        links.push(ix);
        IfaceId((links.len() - 1) as u16)
    }

    pub(crate) fn add_router_inner(&mut self, id: RouterId, compute_routes: bool) {
        let mut cfg = IgpConfig::new(id);
        cfg.compute_routes = compute_routes;
        let slot = self.instances.len() as u32;
        assert!(
            self.router_slot.insert(id, slot).is_none(),
            "router {id} added twice"
        );
        self.router_ids.push(id);
        self.instances.push(Instance::new(cfg));
        self.agents.push(Agent::default());
        self.iface_links.push(Vec::new());
        self.is_touched.push(false);
        self.is_stale.push(false);
        self.fibs.insert(id, Fib::new());
        let heap_slot = self.deadlines.push_slot();
        debug_assert_eq!(heap_slot, slot);
    }

    pub(crate) fn add_link_inner(&mut self, spec: LinkSpec) {
        assert_ne!(spec.a, spec.b, "self-loop links are not supported");
        let a_slot = *self.router_slot.get(&spec.a).expect("add routers first");
        let b_slot = *self.router_slot.get(&spec.b).expect("add routers first");
        let kab = LinkKey::new(spec.a, spec.b);
        let kba = LinkKey::new(spec.b, spec.a);
        assert!(
            !self.link_idx.contains_key(&kab),
            "link {}-{} added twice",
            spec.a,
            spec.b
        );
        let ix_ab = self.link_recs.len() as u32;
        let ia = self.add_iface(a_slot, ix_ab);
        let ib = self.add_iface(b_slot, ix_ab + 1);

        self.instances[a_slot as usize].add_iface(ia, spec.cost);
        self.instances[b_slot as usize].add_iface(ib, spec.cost);

        let mk = |key: LinkKey| LinkState {
            key,
            capacity: spec.capacity,
            up: true,
            rate: 0.0,
        };
        self.link_recs.push(LinkRec {
            state: mk(kab),
            tx_iface: ia,
            rx_iface: ib,
            cost: spec.cost,
            carry: 0.0,
            from_slot: a_slot,
            to_slot: b_slot,
        });
        self.link_recs.push(LinkRec {
            state: mk(kba),
            tx_iface: ib,
            rx_iface: ia,
            cost: spec.cost,
            carry: 0.0,
            from_slot: b_slot,
            to_slot: a_slot,
        });
        self.link_idx.insert(kab, ix_ab);
        self.link_idx.insert(kba, ix_ab + 1);

        // SNMP: one ifOutOctets row per interface (ifIndex = iface + 1).
        let counter = || Counter::new(COUNTER_WIDTH);
        self.agents[a_slot as usize].add_iface(u32::from(ia.0) + 1, counter());
        self.agents[b_slot as usize].add_iface(u32::from(ib.0) + 1, counter());
    }

    /// Integrate link rates into the transmitting interfaces'
    /// `ifOutOctets` from `last_accrue` to `t`; no flow is visited.
    fn accrue_to(&mut self, t: Timestamp) {
        if t <= self.last_accrue {
            return;
        }
        // Time is about to advance over the rates: integration
        // observes them.
        self.settle();
        let dt = (t - self.last_accrue).as_secs_f64();
        self.last_accrue = t;
        // Link counters: dense sweep, direct agent-slot indexing, no
        // intermediate allocation.
        let Core {
            link_recs, agents, ..
        } = self;
        for rec in link_recs.iter_mut() {
            if rec.state.rate <= 0.0 {
                continue;
            }
            rec.carry += rec.state.rate * dt;
            let whole = rec.carry.floor();
            rec.carry -= whole;
            if whole > 0.0 {
                let tx_idx = u32::from(rec.tx_iface.0) + 1;
                if let Some(c) = agents[rec.from_slot as usize].out_octets_mut(tx_idx) {
                    c.add(whole as u64);
                }
            }
        }
        self.stats.unroutable_flow_secs += self.stranded as f64 * dt;
    }

    fn dispatch(&mut self, ev: Ev) {
        self.stats.events += 1;
        fib_trace::set_sim_now(self.now.0);
        let _span = fib_trace::span(fib_trace::Phase::KernelDispatch);
        match ev {
            Ev::Pkt {
                to_slot,
                iface,
                from,
                len,
                datagram,
            } => {
                // Drop on a down link.
                if let Some(&ix) = self.iface_links[to_slot as usize].get(usize::from(iface.0)) {
                    if !self.link_recs[(ix ^ 1) as usize].state.up {
                        self.stats.ctrl_dropped += 1;
                        return;
                    }
                }
                if self.instances[to_slot as usize]
                    .receive(iface, from, datagram, self.now)
                    .is_err()
                {
                    self.stats.ctrl_pkt_errors += 1;
                }
                self.stats.ctrl_pkts += 1;
                self.stats.ctrl_bytes += u64::from(len);
                self.touch(to_slot);
            }
            Ev::Tick(cid) => {
                self.pending_ticks.push(cid);
            }
            Ev::Sample => {
                let now = self.now;
                for i in 0..self.sampled.len() {
                    let rate = {
                        let key = self.sampled[i].1;
                        self.link_idx
                            .get(&key)
                            .map(|&ix| self.link_recs[ix as usize].state.rate)
                            .unwrap_or(0.0)
                    };
                    let name = &self.sampled[i].0;
                    self.recorder.record(name, now, rate);
                }
                self.queue.push(self.now + SAMPLE_INTERVAL, Ev::Sample);
            }
            Ev::User(ev) => self.apply_event(ev),
        }
    }

    /// Apply a scripted link [`Event`] now.
    fn apply_event(&mut self, ev: Event) {
        match ev {
            Event::LinkAdmin { a, b, up } => {
                self.set_link_up(a, b, up);
            }
            Event::LinkCapacity { a, b, capacity } => {
                self.set_link_capacity_inner(a, b, capacity);
            }
        }
    }

    /// Start a flow now under the next id, which is its slot: one past
    /// the arena's last (slot 0 is never issued), so it joins the live
    /// list at the back.
    pub(crate) fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        let slot = self.flow_recs.len().max(1);
        let id = FlowId(slot as u64);
        let key = FlowKey {
            src: spec.src,
            dst: spec.dst,
            id: spec.hash_id.unwrap_or(id.0),
        };
        let flow = Flow {
            id,
            key,
            cap: spec.cap,
            tag: spec.tag,
            started_at: self.now,
            path: None,
        };
        let info = flow.info();
        self.flow_recs.resize_with(slot, || None);
        self.flow_recs.push(Some(flow));
        self.hot.grow(slot + 1);
        self.live.push_back(slot);
        self.set_class(slot, UNROUTED);
        self.flow_index.insert(key.dst, id);
        self.dirty.mark_flow(id);
        self.pending_flow_events.push((true, info));
        id
    }

    pub(crate) fn stop_flow(&mut self, id: FlowId) -> bool {
        let Some(f) = self.flow_recs.get_mut(id.0 as usize).and_then(|o| o.take()) else {
            return false;
        };
        let at = self
            .live
            .binary_search(&(id.0 as usize))
            .expect("a live flow is listed");
        self.live.remove(at);
        self.set_class(id.0 as usize, STOPPED);
        self.flow_index.remove(f.key.dst, id);
        self.dirty.mark_realloc();
        self.pending_flow_events.push((false, f.info()));
        true
    }

    pub(crate) fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) -> bool {
        let slot = id.0 as usize;
        let Some(f) = self.flow_recs.get_mut(slot).and_then(|o| o.as_mut()) else {
            return false;
        };
        if f.cap != cap {
            f.cap = cap;
            // A cap moves rates, never paths: no re-resolution, only
            // the class on the path it has.
            let class = self.hot.class[slot];
            if class != UNROUTED {
                let moved = self.classes.intern(self.classes.path(class), cap);
                self.set_class(slot, moved);
            }
            self.dirty.mark_realloc();
        }
        true
    }

    pub(crate) fn set_link_up(&mut self, a: RouterId, b: RouterId, up: bool) -> bool {
        let mut found = false;
        let keys = [LinkKey::new(a, b), LinkKey::new(b, a)];
        for key in keys {
            if let Some(&ix) = self.link_idx.get(&key) {
                self.link_recs[ix as usize].state.up = up;
                self.dirty.mark_realloc();
                found = true;
            }
        }
        if found {
            // Re-resolve flows whose cached path crosses the link, and
            // — on restore — every stranded flow: its FIB path may now
            // be usable again even before the IGP reacts.
            for &slot in &self.live {
                let f = live_flow(&self.flow_recs, slot);
                match &f.path {
                    Some(p) if p.iter().any(|l| keys.contains(l)) => self.dirty.mark_flow(f.id),
                    None if up => self.dirty.mark_flow(f.id),
                    _ => {}
                }
            }
        }
        if found {
            // Carrier detect: both ends see the interface change now.
            for (r, peer) in [(a, b), (b, a)] {
                let Some(&slot) = self.router_slot.get(&r) else {
                    continue;
                };
                if let Some(iface) = self.iface_facing(slot, peer) {
                    let now = self.now;
                    if self.instances[slot as usize]
                        .set_iface_enabled(iface, up, now)
                        .is_err()
                    {
                        self.stats.iface_admin_errors += 1;
                    }
                    self.touch(slot);
                }
            }
        }
        found
    }

    pub(crate) fn set_link_capacity_inner(
        &mut self,
        a: RouterId,
        b: RouterId,
        capacity: f64,
    ) -> bool {
        if capacity <= 0.0 {
            return false;
        }
        let mut found = false;
        for key in [LinkKey::new(a, b), LinkKey::new(b, a)] {
            if let Some(&ix) = self.link_idx.get(&key) {
                let rec = &mut self.link_recs[ix as usize];
                if rec.state.capacity != capacity {
                    rec.state.capacity = capacity;
                    // Capacity moves rates, never paths.
                    self.dirty.mark_realloc();
                }
                found = true;
            }
        }
        found
    }

    /// Poll exactly the instances whose earliest deadline is due.
    fn poll_due(&mut self, t: Timestamp) {
        self.refresh_deadlines();
        let mut due = std::mem::take(&mut self.due_scratch);
        self.deadlines.pop_due(t, &mut due);
        for &slot in &due {
            self.instances[slot as usize].poll_timers(t);
            self.touch(slot);
        }
        self.due_scratch = due;
    }

    fn collect_outputs(&mut self) {
        if self.touched.is_empty() {
            return;
        }
        // Drain touched instances in RouterId order — the exact
        // iteration (and hence packet push) order of the old
        // scan-everyone collector; untouched instances have nothing.
        // Packets go onto the queue as they are drained: nothing else
        // pushes in between, so their push order is unchanged.
        let mut order = std::mem::take(&mut self.touched);
        order.sort_unstable_by_key(|&s| self.router_ids[s as usize]);
        let Core {
            now,
            queue,
            router_ids,
            instances,
            agents,
            fibs,
            is_touched,
            link_recs,
            iface_links,
            flow_recs,
            flow_index,
            dirty,
            stats,
            ..
        } = self;
        for &slot in &order {
            is_touched[slot as usize] = false;
            let id = router_ids[slot as usize];
            for out in instances[slot as usize].drain_output() {
                match out {
                    Output::Send { iface, datagram } => {
                        let rec = iface_links[slot as usize]
                            .get(usize::from(iface.0))
                            .map(|&ix| &link_recs[ix as usize]);
                        let Some(rec) = rec.filter(|rec| rec.state.up) else {
                            stats.ctrl_dropped += 1;
                            continue;
                        };
                        let len = datagram.encoded_len();
                        debug_round_trip(id, &datagram, len);
                        let len = u32::try_from(len).expect("a datagram is under 4 GiB");
                        // Account transmitted control bytes.
                        let idx = u32::from(rec.tx_iface.0) + 1;
                        if let Some(c) = agents[slot as usize].out_octets_mut(idx) {
                            c.add(u64::from(len));
                        }
                        queue.push(
                            *now + LINK_DELAY,
                            Ev::Pkt {
                                to_slot: rec.to_slot,
                                iface: rec.rx_iface,
                                from: id,
                                len,
                                datagram,
                            },
                        );
                    }
                    Output::FibUpdate(table) => {
                        let _span = fib_trace::span(fib_trace::Phase::FibInstall);
                        let changed = fibs.entry(id).or_default().install_diff(&table);
                        // The instance only emits on route-table change,
                        // so settle the allocation either way (pinned
                        // realloc instants); re-resolve exactly the
                        // flows this download can reroute.
                        dirty.mark_realloc();
                        invalidate_fib_change(dirty, flow_index, flow_recs, id, &changed);
                    }
                }
            }
        }
        order.clear();
        self.touched = order;
    }

    /// The one settle rule, called wherever state is about to be
    /// observed: settle iff something is dirty.
    fn settle(&mut self) {
        if self.dirty.needs_realloc() {
            self.reallocate();
        }
    }

    /// Settle the data plane: re-resolve exactly the dirty flows'
    /// paths, then hand the full routed set to the reusable allocator.
    fn reallocate(&mut self) {
        self.stats.reallocs += 1;
        let _span = fib_trace::span(fib_trace::Phase::Settle);
        let dirty_flows = self.dirty.take();
        let mut resolved = 0u64;
        let mut ixs: Vec<u32> = Vec::new();
        for id in &dirty_flows {
            // A flow may have been marked and then stopped in the same
            // batch (ids are never reused): it is not counted.
            let Some((key, cap)) = self.flow(*id).map(|f| (f.key, f.cap)) else {
                continue;
            };
            resolved += 1;
            // A path is usable iff every link of it is up; its link
            // arena positions are interned, and the id of its class —
            // those positions under this cap — is kept with it, so
            // staging below (and at every later settle) probes no map
            // and searches no class.
            let routed = resolve_path(&self.fibs, &key).ok().and_then(|path| {
                ixs.clear();
                for l in &path {
                    let ix = *self.link_idx.get(l)?;
                    ixs.push(self.link_recs[ix as usize].state.up.then_some(ix)?);
                }
                let path_id = self.paths.intern(&ixs);
                Some((path, self.classes.intern(path_id, cap)))
            });
            if routed.is_none() {
                self.stats.unroutable += 1;
            }
            let (path, class) = routed.unzip();
            self.flow_recs[id.0 as usize]
                .as_mut()
                .expect("known flow")
                .path = path;
            self.set_class(id.0 as usize, class.unwrap_or(UNROUTED));
        }
        fib_trace::observe("settle.dirty_flows", resolved);
        self.stats.paths_resolved += resolved;
        self.stats.paths_skipped += self.live.len() as u64 - resolved;
        // The new rates hold from the instant integration last reached,
        // which is the settle's own.
        debug_assert_eq!(self.now, self.last_accrue);
        let at = self.now;
        // The link universe is the arena in creation order, a capacity
        // present iff the link is up; the fill starts from the member
        // counts, and reads the class column only where it freezes a
        // flow alone.
        let Core {
            alloc,
            paths,
            classes,
            members,
            link_recs,
            hot,
            live,
            rate_changes,
            ..
        } = self;
        let FlowColumns { class, rate, .. } = hot;
        alloc.allocate(
            paths,
            classes,
            link_recs
                .iter()
                .map(|r| r.state.up.then_some(r.state.capacity)),
            members,
            live.len(),
            |i| class[live[i]],
        );
        fib_trace::observe("settle.classes", members.classes() as u64);
        // No walk over the live flows after the fill: the loads are
        // summed per class, and a rate goes into its column, and, if
        // watched, into the log where its bits change, only for the
        // flows whose rate may have moved.
        let put = |slot: usize, r: f64| {
            let moved = std::mem::replace(&mut rate[slot], r).to_bits() != r.to_bits();
            if let (true, Some(log)) = (moved, &mut *rate_changes) {
                let flow = FlowId(slot as u64);
                log.push(RateChange { flow, at, rate: r });
            }
        };
        let visits = alloc.spread(paths, classes, members, |i| live[i], |s| class[s], put);
        self.stats.settle_visits += visits as u64;
        for (rec, load) in link_recs.iter_mut().zip(alloc.loads()) {
            rec.state.rate = *load;
        }
        self.debug_check_live();
        if self.cfg.check_loops {
            self.check_forwarding_loops();
        }
    }

    /// What every walk over `live` and every read of the class column
    /// relies on, checked at the end of each settle of a debug build:
    /// the list is the occupied slots, ascending; a slot holds
    /// [`STOPPED`] iff it holds no flow; every routed flow's class names
    /// exactly its path's links and its cap's bits, and every unrouted
    /// flow has [`UNROUTED`] and a rate of 0.0; every routed flow holds
    /// its class's rate bits unless the last fill froze it alone, and
    /// then its own; each class's member list and the stranded count
    /// are what a recount over the live list finds; and no flow is
    /// left marked for the next settle.
    fn debug_check_live(&self) {
        // The walks below are not free: release builds skip them whole.
        if !cfg!(debug_assertions) {
            return;
        }
        debug_assert!(
            self.live
                .iter()
                .zip(self.live.iter().skip(1))
                .all(|(a, b)| a < b),
            "live list ascending"
        );
        debug_assert_eq!(
            self.live.len(),
            self.flow_recs.iter().flatten().count(),
            "live list covers the occupied slots"
        );
        debug_assert_eq!(self.hot.class.len(), self.flow_recs.len());
        for (slot, rec) in self.flow_recs.iter().enumerate() {
            debug_assert_eq!(
                rec.is_none(),
                self.hot.class[slot] == STOPPED,
                "slot {slot}: stopped iff empty"
            );
        }
        let mut recount: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut stranded = 0;
        for f in self.flows() {
            let slot = f.id.0 as usize;
            let class = self.hot.class[slot];
            if class == UNROUTED {
                stranded += 1;
                debug_assert_eq!(f.path, None, "{}: unrouted, and has a path", f.id);
                debug_assert_eq!(
                    self.hot.rate[slot].to_bits(),
                    0.0f64.to_bits(),
                    "{}: unrouted, and has a rate",
                    f.id
                );
                continue;
            }
            recount.entry(class).or_default().push(slot as u32);
            debug_assert_eq!(
                self.hot.rate[slot].to_bits(),
                self.alloc.rate(slot, class).to_bits(),
                "{}: holds the rate of class {class}, or its own if frozen alone",
                f.id
            );
            let (path, cap) = self.classes.get(class);
            let ixs = self.paths.links(path).iter();
            let links: Vec<LinkKey> = ixs
                .map(|ix| self.link_recs[*ix as usize].state.key)
                .collect();
            debug_assert_eq!(
                Some(links),
                f.path,
                "{}: the kept class names the path's links",
                f.id
            );
            debug_assert_eq!(
                cap.map(f64::to_bits),
                f.cap.map(f64::to_bits),
                "{}: the kept class names the flow's cap",
                f.id
            );
        }
        debug_assert_eq!(self.stranded, stranded, "stranded flows");
        debug_assert_eq!(
            self.members.classes(),
            recount.len(),
            "classes with members"
        );
        for (class, slots) in recount {
            let mut listed = self.members.slots(class).to_vec();
            listed.sort_unstable();
            debug_assert_eq!(listed, slots, "members of class {class}");
        }
        debug_assert!(!self.members.any_marked(), "a mark outlived its settle");
    }

    /// The loop-freedom probe: walk every announced prefix's live
    /// forwarding graph (each router's FIB entry contributes an edge
    /// per distinct ECMP next-hop router) and record any cycle. Pure
    /// read over the FIBs — it never dirties or mutates the world, so
    /// the settle schedule and all artifacts are unaffected.
    fn check_forwarding_loops(&mut self) {
        let mut prefixes: Vec<Prefix> = self.prefix_owners.iter().map(|(p, _)| *p).collect();
        prefixes.sort();
        prefixes.dedup();
        let mut found_any = false;
        for prefix in prefixes {
            // Edges in RouterId order (deterministic walk).
            let mut edges: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
            for (r, fib) in &self.fibs {
                if let Some(crate::fib::FibEntry::Via(slots)) = fib.lookup(prefix) {
                    let mut hops: Vec<RouterId> = slots.iter().map(|s| s.router).collect();
                    hops.sort();
                    hops.dedup();
                    edges.insert(*r, hops);
                }
            }
            if let Some(cycle) = find_cycle(&edges, |r| *r) {
                found_any = true;
                if self.loop_log.len() < LOOP_LOG_CAP {
                    self.loop_log.push(LoopViolation {
                        at: self.now,
                        prefix,
                        cycle,
                    });
                }
            }
        }
        if found_any {
            self.stats.fwd_loop_settles += 1;
        }
    }
}

/// The codec is checked, not run: a debug build encodes every datagram
/// `sender` queues, holds its length to the `len` accounted, and
/// decodes it back to the same sender and datagram. Release builds skip
/// it whole.
fn debug_round_trip(sender: RouterId, datagram: &Datagram, len: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    let bytes = datagram.encode(sender);
    assert_eq!(bytes.len(), len, "encoded length of {datagram:?}");
    let (from, packet) = wire::decode(bytes).expect("own encoding decodes");
    assert_eq!(from, sender);
    assert_eq!(&Datagram::from(packet), datagram);
}

/// The flow in a slot the live list names.
fn live_flow(flow_recs: &[Option<Flow>], slot: usize) -> &Flow {
    flow_recs[slot].as_ref().expect("listed slot is occupied")
}

/// Mark the flows a FIB download at `router` can actually reroute:
/// destined to a changed prefix (via the reverse index) *and* either
/// currently stranded or passing through `router` — a walk that never
/// visits the router cannot change when only that router's table did.
fn invalidate_fib_change(
    dirty: &mut DirtySet,
    flow_index: &FlowIndex,
    flow_recs: &[Option<Flow>],
    router: RouterId,
    changed: &[Prefix],
) {
    for p in changed {
        for id in flow_index.affected_by(*p) {
            let Some(f) = flow_recs.get(id.0 as usize).and_then(|o| o.as_ref()) else {
                continue;
            };
            let touched = match &f.path {
                None => true,
                Some(path) => f.key.src == router || path.iter().any(|l| l.to == router),
            };
            if touched {
                dirty.mark_flow(id);
            }
        }
    }
}

impl Sim {
    /// Create an empty world.
    pub fn new(cfg: SimConfig) -> Sim {
        Sim {
            core: Core::new(cfg),
            apps: Registry::new(),
            tick_intervals: Vec::new(),
            round_ticks: Vec::new(),
            round_events: Vec::new(),
        }
    }

    /// Add a forwarding router.
    pub fn add_router(&mut self, id: RouterId) {
        self.core.add_router_inner(id, true);
    }

    /// Add a controller speaker: participates in the IGP (flooding,
    /// injection) but computes no routes. Attach it to `attach` with a
    /// deliberately high cost so it never carries transit traffic.
    pub fn add_controller_speaker(&mut self, id: RouterId, attach: RouterId) {
        self.core.add_router_inner(id, false);
        self.core
            .add_link_inner(LinkSpec::new(id, attach, Metric(10_000), 1e7));
    }

    /// Add a symmetric link.
    pub fn add_link(&mut self, spec: LinkSpec) {
        self.core.add_link_inner(spec);
    }

    /// Announce a prefix at a router (metric 0).
    pub fn announce_prefix(&mut self, router: RouterId, prefix: Prefix) {
        let slot = *self.core.router_slot.get(&router).expect("router exists");
        self.core.instances[slot as usize].announce(prefix, Metric::ZERO);
        if self.core.started {
            self.core.touch(slot);
        }
        self.core.prefix_owners.push((prefix, router));
    }

    /// Register a component; its [`ComponentId`] is the next dense
    /// arena index (the handler's name is kept for tracing).
    pub fn add_app(&mut self, app: Box<dyn EventHandler>) -> ComponentId {
        self.tick_intervals.push(app.tick_interval());
        let name = app.name().to_string();
        self.apps.register(name, app)
    }

    /// Name a link direction for trace sampling.
    pub fn sample_link(&mut self, name: &str, from: RouterId, to: RouterId) {
        let key = LinkKey::new(from, to);
        match self
            .core
            .sampled
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.core.sampled[i].1 = key,
            Err(i) => self.core.sampled.insert(i, (name.to_string(), key)),
        }
    }

    /// Schedule a link event. It will fire: there is no unscheduling.
    pub fn schedule(&mut self, at: Timestamp, ev: Event) {
        self.core.queue.push(at, Ev::User(ev));
    }

    /// Arm (or disarm with `None`) the kernel queue's same-time
    /// [`TieBreak`] hook — the adversarial schedule explorer's
    /// injection point. Unarmed (the default), the queue is
    /// byte-identical to stock FIFO.
    pub fn set_tie_break(&mut self, hook: Option<Box<dyn TieBreak<Timestamp>>>) {
        self.core.queue.set_tie_break(hook);
    }

    /// The forwarding cycles caught so far by the loop-freedom probe
    /// (empty unless [`SimConfig::check_loops`] is set; capped at
    /// [`LOOP_LOG_CAP`] records while
    /// [`SimStats::fwd_loop_settles`] keeps counting).
    pub fn loop_violations(&self) -> &[LoopViolation] {
        &self.core.loop_log
    }

    /// Start the world: instances come up, components get
    /// [`AppEvent::Start`], the sampler begins.
    pub fn start(&mut self) {
        assert!(!self.core.started, "start() called twice");
        self.core.started = true;
        for slot in 0..self.core.instances.len() as u32 {
            let now = self.core.now;
            self.core.instances[slot as usize].start(now);
            self.core.touch(slot);
        }
        self.core.collect_outputs();
        self.core.queue.push(self.core.now, Ev::Sample);
        for (i, interval) in self.tick_intervals.iter().enumerate() {
            if let Some(d) = interval {
                let at = self.core.now + *d;
                self.core.queue.push(at, Ev::Tick(ComponentId(i as u32)));
            }
        }
        for i in 0..self.apps.len() {
            let cid = ComponentId(i as u32);
            let mut ctx = SimContext {
                core: &mut self.core,
            };
            if let Some(app) = self.apps.get_mut(cid) {
                app.on_event(&mut ctx, AppEvent::Start);
            }
        }
        self.core.collect_outputs();
        self.core.settle();
    }

    /// Run the world until `until` (inclusive of events at `until`).
    pub fn run_until(&mut self, until: Timestamp) {
        assert!(self.core.started, "call start() first");
        // What host code made an instance emit between two runs (a lie
        // injected through `ctx()`, a failed link) leaves at the instant
        // it was made, not with the next event; and the components hear
        // of a flow it started or stopped at that instant too.
        self.core.collect_outputs();
        if !self.core.pending_flow_events.is_empty() {
            self.core.settle();
            self.dispatch_apps();
        }
        loop {
            let next_pkt = self.core.queue.peek_time();
            // Polls, components and host code touch between two reads.
            self.core.refresh_deadlines();
            let next_timer = self.core.deadlines.peek_min();
            let next = match (next_pkt, next_timer) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > until {
                break;
            }
            let t = next.max(self.core.now);
            self.core.accrue_to(t);
            self.core.now = t;
            if fib_trace::enabled() {
                fib_trace::set_sim_now(t.0);
                fib_trace::counter("queue.depth", self.core.queue.len() as f64);
            }
            while let Some((_, ev)) = self.core.queue.pop_due(t) {
                self.core.dispatch(ev);
            }
            self.core.poll_due(t);
            self.core.collect_outputs();
            // Components observe the world: a capacity change or FIB
            // download in this batch must not be visible as stale rates
            // against new provisioning. What they dirty in turn settles
            // at the next observation point.
            if !self.core.pending_ticks.is_empty() || !self.core.pending_flow_events.is_empty() {
                self.core.settle();
            }
            self.dispatch_apps();
        }
        if until > self.core.now {
            self.core.accrue_to(until);
            self.core.now = until;
        }
        // Host code reads next.
        self.core.settle();
    }

    fn dispatch_apps(&mut self) {
        // Bounded ping-pong: components reacting to notifications may
        // create flows, which notify again within the same instant.
        for _round in 0..8 {
            std::mem::swap(&mut self.round_ticks, &mut self.core.pending_ticks);
            std::mem::swap(&mut self.round_events, &mut self.core.pending_flow_events);
            if self.round_ticks.is_empty() && self.round_events.is_empty() {
                break;
            }
            for cid in self.round_ticks.drain(..) {
                let mut ctx = SimContext {
                    core: &mut self.core,
                };
                if let Some(app) = self.apps.get_mut(cid) {
                    app.on_event(&mut ctx, AppEvent::Tick);
                }
                // Re-arm the periodic tick.
                if let Some(Some(d)) = self.tick_intervals.get(cid.index()) {
                    let at = self.core.now + *d;
                    self.core.queue.push(at, Ev::Tick(cid));
                }
            }
            for (started, info) in self.round_events.drain(..) {
                for i in 0..self.apps.len() {
                    let cid = ComponentId(i as u32);
                    let mut ctx = SimContext {
                        core: &mut self.core,
                    };
                    if let Some(app) = self.apps.get_mut(cid) {
                        let ev = if started {
                            AppEvent::FlowStarted(&info)
                        } else {
                            AppEvent::FlowStopped(&info)
                        };
                        app.on_event(&mut ctx, ev);
                    }
                }
            }
            self.core.collect_outputs();
        }
    }

    /// Current time.
    pub fn now(&self) -> Timestamp {
        self.core.now
    }

    /// The typed world handle (what components receive during
    /// dispatch; host code uses it between runs for the same reads,
    /// mutations, and scheduling).
    pub fn ctx(&mut self) -> SimContext<'_> {
        SimContext {
            core: &mut self.core,
        }
    }

    /// The trace recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// World statistics (per-instance SPF counters are folded in at
    /// read time).
    pub fn stats(&self) -> SimStats {
        let mut s = self.core.stats;
        s.alloc_fills = s.reallocs;
        for inst in &self.core.instances {
            let (full, partial) = inst.spf_run_counts();
            s.spf_full_runs += full;
            s.spf_partial_runs += partial;
        }
        s
    }

    /// A router's protocol instance (inspection).
    pub fn instance(&self, id: RouterId) -> Option<&Instance> {
        let slot = *self.core.router_slot.get(&id)?;
        self.core.instances.get(slot as usize)
    }

    /// A router's current FIB (inspection).
    pub fn fib(&self, id: RouterId) -> Option<&Fib> {
        self.core.fibs.get(&id)
    }

    /// Iterate all live flows in id order (no snapshot allocation).
    pub fn flows(&self) -> impl Iterator<Item = &Flow> + '_ {
        self.core.flows()
    }

    /// Number of live flows.
    pub fn flow_count(&self) -> usize {
        self.core.live.len()
    }

    /// Distinct routed paths resolved since the run began (the path
    /// table's length: it follows the forwarding state's variety, not
    /// the number of flows).
    pub fn distinct_paths(&self) -> usize {
        self.core.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::error::InstanceError;
    use fib_igp::types::FwAddr;
    use fib_telemetry::mib::oids;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// r1 - r2 - r3 line, prefix at r3, capacities 1 MB/s.
    fn line_sim() -> Sim {
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=3 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
        sim.announce_prefix(r(3), Prefix::net24(1));
        sim
    }

    /// Run to `at`, then start a flow there from host code.
    fn start_at(sim: &mut Sim, at: Timestamp, spec: FlowSpec) -> FlowId {
        sim.run_until(at);
        sim.ctx().start_flow(spec)
    }

    /// The `ifOutOctets` of `from`'s interface toward `to`, as a walk
    /// of the column reads it.
    fn out_octets(sim: &mut Sim, from: RouterId, to: RouterId) -> u64 {
        let mut ctx = sim.ctx();
        let column = oids::if_out_octets();
        let cell = column.child(ctx.ifindex_for(from, to).unwrap());
        let rows = ctx.snmp_walk(from, &column);
        rows.into_iter().find(|(oid, _)| *oid == cell).unwrap().1
    }

    /// A second link between the same two routers, in either
    /// direction, would leave the first one unreachable by key:
    /// refused, as `Topology::add_link` refuses it.
    #[test]
    #[should_panic(expected = "link r3-r2 added twice")]
    fn a_second_link_between_two_routers_is_refused() {
        let mut sim = line_sim();
        sim.add_link(LinkSpec::new(r(3), r(2), Metric(5), 1e6));
    }

    #[test]
    fn igp_converges_and_flow_routes() {
        let mut sim = line_sim();
        sim.start();
        let fid = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        sim.run_until(Timestamp::from_secs(12));
        // Flow should be at full capacity over both links.
        let ctx = sim.ctx();
        let rate = ctx.flow_rate(fid).unwrap();
        assert!((rate - 1e6).abs() < 1.0, "rate {rate}");
        let path = ctx.flow_path(fid).unwrap();
        assert_eq!(path, &[LinkKey::new(r(1), r(2)), LinkKey::new(r(2), r(3))]);
        let link = ctx.link_rate(LinkKey::new(r(1), r(2))).unwrap();
        assert!((link - 1e6).abs() < 1.0, "link rate {link}");
    }

    /// Watched rates are logged where their bits change, each with the
    /// instant its settle took effect: a flow's start, a second flow on
    /// its links, a cap, and a failure that strands both. A cap that
    /// leaves a rate where it was logs nothing, nor does a settle after
    /// the failure that leaves both at 0; and nothing is logged before
    /// somebody watches.
    #[test]
    fn watched_rate_changes_are_logged_at_their_settles_instant() {
        let at = Timestamp::from_millis;
        let mut log = Vec::new();
        let mut unwatched = line_sim();
        unwatched.start();
        start_at(
            &mut unwatched,
            at(10_000),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        unwatched.run_until(at(11_000));
        unwatched.ctx().take_rate_changes(&mut log);
        assert!(log.is_empty());

        let mut sim = line_sim();
        sim.start();
        sim.run_until(at(10_000));
        sim.ctx().watch_rates();
        let f1 = start_at(&mut sim, at(10_000), FlowSpec::new(r(1), Prefix::net24(1)));
        let f2 = start_at(&mut sim, at(10_250), FlowSpec::new(r(2), Prefix::net24(1)));
        sim.run_until(at(10_500));
        sim.ctx().set_flow_cap(f2, Some(1e5));
        sim.run_until(at(10_700));
        sim.ctx().set_flow_cap(f1, Some(9e5));
        sim.run_until(at(10_900));
        sim.ctx().fail_link(r(2), r(3));
        sim.run_until(at(12_000));
        sim.ctx().take_rate_changes(&mut log);
        let got: Vec<(FlowId, u64, f64)> = log
            .iter()
            .map(|c| (c.flow, c.at.0 / 1_000_000, c.rate))
            .collect();
        assert_eq!(
            got,
            [
                (f1, 10_000, 1e6),
                (f1, 10_250, 5e5),
                (f2, 10_250, 5e5),
                (f1, 10_500, 9e5),
                (f2, 10_500, 1e5),
                (f1, 10_900, 0.0),
                (f2, 10_900, 0.0),
            ]
        );
        sim.run_until(at(13_000));
        sim.ctx().take_rate_changes(&mut log);
        assert!(log.is_empty(), "drained, and nothing moved since: {log:?}");
    }

    #[test]
    fn two_flows_share_bottleneck() {
        let mut sim = line_sim();
        sim.start();
        let f1 = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        let f2 = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(2), Prefix::net24(1)),
        );
        sim.run_until(Timestamp::from_secs(12));
        let ctx = sim.ctx();
        let r1 = ctx.flow_rate(f1).unwrap();
        let r2 = ctx.flow_rate(f2).unwrap();
        assert!((r1 - 5e5).abs() < 1.0, "r1 {r1}");
        assert!((r2 - 5e5).abs() < 1.0, "r2 {r2}");
    }

    /// A capped flow's one rate change is to its cap, at the instant
    /// it is allocated, and it holds there.
    #[test]
    fn capped_flow_stays_capped() {
        let mut sim = line_sim();
        sim.ctx().watch_rates();
        sim.start();
        let f = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
        );
        sim.run_until(Timestamp::from_secs(15));
        let mut ctx = sim.ctx();
        assert_eq!(ctx.flow_rate(f), Some(1e5));
        let mut log = Vec::new();
        ctx.take_rate_changes(&mut log);
        let at = Timestamp::from_secs(10);
        let to_cap = RateChange {
            flow: f,
            at,
            rate: 1e5,
        };
        assert_eq!(log, [to_cap]);
    }

    #[test]
    fn counters_reflect_data_traffic() {
        let mut sim = line_sim();
        sim.start();
        start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
        );
        sim.run_until(Timestamp::from_secs(20));
        // r1's interface toward r2 should show ~1e6 bytes out.
        let c = out_octets(&mut sim, r(1), r(2));
        assert!((9e5..1.2e6).contains(&(c as f64)), "unexpected counter {c}");
    }

    /// With no flow, `ifOutOctets` counts control datagrams alone, each
    /// at its transmitting interface at its encoded length — what the
    /// instance counts as it drains it. With every link up none is
    /// dropped at send, so at every checkpoint each router's column
    /// sums to its instance's `bytes_sent`, through a cold start and a
    /// lie injected and retracted.
    #[test]
    fn out_octets_sum_to_the_bytes_each_instance_sent() {
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=3 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(1), r(3), Metric(5), 1e6));
        sim.announce_prefix(r(3), Prefix::net24(1));
        sim.add_controller_speaker(r(100), r(2));
        sim.start();
        let routers: Vec<RouterId> = sim.ctx().routers().collect();
        let fake = RouterId::fake(0);
        let mut checked = 0;
        for ms in (0..=40_000).step_by(100) {
            sim.run_until(Timestamp::from_millis(ms));
            for &router in &routers {
                let rows = sim.ctx().snmp_walk(router, &oids::if_out_octets());
                let out: u64 = rows.iter().map(|&(_, octets)| octets).sum();
                let sent = sim.instance(router).unwrap().stats.bytes_sent;
                assert_eq!(out, sent, "{router} at {ms} ms");
                checked += u64::from(sent > 0);
            }
            let mut ctx = sim.ctx();
            match ms {
                10_000 => {
                    let fw = FwAddr::secondary(r(3), 1);
                    let metric = Metric(1);
                    let net = Prefix::net24(1);
                    let lie = ctx.inject_fake(r(100), fake, r(1), metric, net, metric, fw);
                    lie.unwrap();
                }
                20_000 => ctx.retract_fake(r(100), fake).unwrap(),
                _ => {}
            }
        }
        assert!(
            checked >= 1_000,
            "{checked} router-checkpoints with bytes sent"
        );
    }

    /// A stopped flow leaves nothing behind: its slot holds
    /// [`STOPPED`], its class membership and its prefix-index entry go,
    /// and the accessors no longer know it.
    #[test]
    fn flow_stops_and_link_drains() {
        let mut sim = line_sim();
        sim.start();
        let f = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        sim.run_until(Timestamp::from_secs(20));
        let class = sim.core.class(f).expect("routed toward r3");
        assert_eq!(sim.core.members.count(class), 1);
        assert!(sim.ctx().stop_flow(f));
        assert_eq!(sim.core.hot.class[f.0 as usize], STOPPED);
        assert_eq!(sim.core.members.count(class), 0, "released");
        assert_eq!(sim.core.members.classes(), 0);
        assert_eq!(sim.core.flow_index.affected_by(Prefix::net24(1)).count(), 0);
        assert_eq!(sim.ctx().flow_rate(f), None);
        sim.run_until(Timestamp::from_secs(25));
        assert_eq!(sim.ctx().link_rate(LinkKey::new(r(1), r(2))), Some(0.0));
        assert!(sim.flows().next().is_none());
        assert_eq!(sim.flow_count(), 0);
    }

    #[test]
    fn link_failure_makes_flow_unroutable_then_recovers() {
        // Square topology with two paths.
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=4 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(4), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(1), r(3), Metric(10), 1e6));
        sim.add_link(LinkSpec::new(r(3), r(4), Metric(10), 1e6));
        sim.announce_prefix(r(4), Prefix::net24(1));
        sim.schedule(
            Timestamp::from_secs(20),
            Event::LinkAdmin {
                a: r(1),
                b: r(2),
                up: false,
            },
        );
        sim.start();
        let f = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        sim.run_until(Timestamp::from_secs(15));
        assert_eq!(
            sim.ctx().flow_path(f).unwrap()[0],
            LinkKey::new(r(1), r(2)),
            "initial path via r2"
        );
        sim.run_until(Timestamp::from_secs(30));
        let ctx = sim.ctx();
        let path = ctx.flow_path(f).expect("rerouted after failure");
        assert_eq!(path[0], LinkKey::new(r(1), r(3)), "rerouted via r3");
        assert!((ctx.flow_rate(f).unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn ctx_fail_and_restore_link() {
        let mut sim = line_sim();
        sim.start();
        let f = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        sim.run_until(Timestamp::from_secs(12));
        assert!(sim.ctx().flow_path(f).is_some());
        // Fail the only link out of r1: the flow strands and the
        // blackout clock runs.
        assert!(sim.ctx().fail_link(r(1), r(2)));
        assert!(!sim.ctx().fail_link(r(1), r(9)), "unknown link");
        sim.run_until(Timestamp::from_secs(20));
        assert!(sim.ctx().flow_path(f).is_none(), "no path while down");
        let stranded = sim.stats().unroutable_flow_secs;
        assert!(stranded > 7.0, "blackout seconds accrue: {stranded}");
        // Restore: the IGP re-converges and the flow routes again.
        assert!(sim.ctx().restore_link(r(1), r(2)));
        sim.run_until(Timestamp::from_secs(40));
        assert!(sim.ctx().flow_path(f).is_some(), "rerouted after restore");
        let after = sim.stats().unroutable_flow_secs;
        assert!(
            after - stranded < 15.0,
            "clock stops once routed: {after} vs {stranded}"
        );
    }

    #[test]
    fn capacity_change_rescales_allocation() {
        let mut sim = line_sim();
        sim.schedule(
            Timestamp::from_secs(20),
            Event::LinkCapacity {
                a: r(1),
                b: r(2),
                capacity: 2.5e5,
            },
        );
        sim.start();
        let f = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        sim.run_until(Timestamp::from_secs(15));
        assert!((sim.ctx().flow_rate(f).unwrap() - 1e6).abs() < 1.0);
        sim.run_until(Timestamp::from_secs(25));
        // The degraded link is now the bottleneck.
        assert!((sim.ctx().flow_rate(f).unwrap() - 2.5e5).abs() < 1.0);
        // Direct context variant, and validation of bad inputs.
        assert!(sim.ctx().set_link_capacity(r(1), r(2), 1e6));
        assert!(!sim.ctx().set_link_capacity(r(1), r(2), 0.0));
        assert!(!sim.ctx().set_link_capacity(r(1), r(9), 1e6));
        sim.run_until(Timestamp::from_secs(30));
        assert!((sim.ctx().flow_rate(f).unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn sampling_records_series() {
        let mut sim = line_sim();
        sim.sample_link("r1-r2", r(1), r(2));
        sim.start();
        start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)).with_cap(2e5),
        );
        sim.run_until(Timestamp::from_secs(15));
        let series = sim.recorder().series("r1-r2");
        assert!(!series.is_empty());
        let max = sim.recorder().max("r1-r2").unwrap();
        assert!((max - 2e5).abs() < 1.0, "max {max}");
        // Before the flow: zero.
        let before: Vec<f64> = series
            .iter()
            .take_while(|&&(t, _)| t <= 5.0)
            .map(|&(_, v)| v)
            .collect();
        assert!(!before.is_empty() && before.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut sim = line_sim();
            sim.sample_link("r1-r2", r(1), r(2));
            sim.start();
            for i in 0..10 {
                start_at(
                    &mut sim,
                    Timestamp::from_secs(10 + i),
                    FlowSpec::new(r(1), Prefix::net24(1)).with_cap(5e4),
                );
            }
            sim.run_until(Timestamp::from_secs(30));
            sim.recorder().to_csv()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fake_injection_changes_fib_via_flooding() {
        // Triangle: r1-r2 cost 1, r2-r3 cost 1, r1-r3 cost 5.
        // Prefix at r3. r1 routes via r2 (cost 2). A controller speaker
        // at r4 injects a fake node on r1 with cost 2 via the direct
        // r1→r3 link: r1 gains a second ECMP slot.
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=3 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(1), r(3), Metric(5), 1e6));
        sim.announce_prefix(r(3), Prefix::net24(1));
        sim.add_controller_speaker(r(100), r(2));
        sim.start();
        sim.run_until(Timestamp::from_secs(10));
        {
            let mut ctx = sim.ctx();
            assert_eq!(
                ctx.fib_nexthops(r(1), Prefix::net24(1)),
                vec![FwAddr::primary(r(2))]
            );
            ctx.inject_fake(
                r(100),
                RouterId::fake(0),
                r(1),
                Metric(1),
                Prefix::net24(1),
                Metric(1),
                FwAddr::secondary(r(3), 1),
            )
            .unwrap();
        }
        sim.run_until(Timestamp::from_secs(20));
        let ctx = sim.ctx();
        let hops = ctx.fib_nexthops(r(1), Prefix::net24(1));
        assert_eq!(
            hops,
            vec![FwAddr::primary(r(2)), FwAddr::secondary(r(3), 1)],
            "lie should add an ECMP slot at r1"
        );
    }

    #[test]
    fn a_lie_through_an_unknown_speaker_names_it() {
        let mut sim = line_sim();
        sim.start();
        let mut ctx = sim.ctx();
        let err = ctx.inject_fake(
            r(100),
            RouterId::fake(0),
            r(1),
            Metric(1),
            Prefix::net24(1),
            Metric(1),
            FwAddr::primary(r(2)),
        );
        assert_eq!(err, Err(InstanceError::UnknownSpeaker(r(100))));
        let err = ctx.retract_fake(r(100), RouterId::fake(0));
        assert_eq!(err, Err(InstanceError::UnknownSpeaker(r(100))));
    }

    /// A mutation host code makes between two `run_until` calls counts
    /// from its own instant: the gap up to the next event is
    /// integrated at the rates the changed network allows, not at the
    /// stale ones.
    #[test]
    fn host_mutation_takes_effect_from_its_instant() {
        let before = Timestamp::from_millis(13_010);
        let after = Timestamp::from_millis(13_060);
        // The octets r2 has sent toward r3.
        let octets = |sim: &mut Sim| out_octets(sim, r(2), r(3));
        let run_to_mutation = || {
            let mut sim = line_sim();
            sim.start();
            let f = start_at(
                &mut sim,
                Timestamp::from_secs(10),
                FlowSpec::new(r(1), Prefix::net24(1)),
            );
            sim.run_until(before);
            assert!((sim.ctx().flow_rate(f).unwrap() - 1e6).abs() < 1.0);
            let sent = octets(&mut sim);
            (sim, sent)
        };

        // Brown-out: 50 ms over a link that now carries 4e5/s.
        let (mut sim, sent) = run_to_mutation();
        assert!(sim.ctx().set_link_capacity(r(2), r(3), 4e5));
        sim.run_until(after);
        let credited = octets(&mut sim) - sent;
        assert!(credited.abs_diff(20_000) <= 1, "credited {credited}");
        let rate = sim.ctx().link_rate(LinkKey::new(r(2), r(3))).unwrap();
        assert!(rate <= 4e5, "link rate {rate} exceeds its capacity");

        // Failure: nothing crosses a link that is down.
        let (mut sim, sent) = run_to_mutation();
        assert!(sim.ctx().fail_link(r(2), r(3)));
        sim.run_until(after);
        assert_eq!(octets(&mut sim), sent);
        assert_eq!(sim.ctx().link_rate(LinkKey::new(r(2), r(3))), Some(0.0));
    }

    /// So does what host code makes a protocol instance emit: a lie
    /// injected through `ctx()` between two runs floods from its own
    /// instant, not with whatever event the run holds next (here the
    /// hellos, half a second away).
    #[test]
    fn host_injection_floods_from_its_instant() {
        let mut sim = line_sim();
        sim.add_controller_speaker(r(100), r(2));
        sim.start();
        let at = Timestamp::from_millis(10_500);
        sim.run_until(at);
        sim.ctx()
            .inject_fake(
                r(100),
                RouterId::fake(0),
                r(1),
                Metric(1),
                Prefix::net24(1),
                Metric(1),
                FwAddr::primary(r(2)),
            )
            .unwrap();
        let holds = |sim: &Sim| {
            sim.instance(r(2))
                .unwrap()
                .lsdb()
                .iter()
                .any(|l| l.key.origin == RouterId::fake(0))
        };
        assert!(!holds(&sim));
        // One millisecond down the speaker's link.
        sim.run_until(at + Dur::from_millis(1));
        assert!(holds(&sim), "the lie waited for the next event");
    }

    /// And so do the components: a flow host code starts or stops
    /// between two runs is notified at its own instant, not with the
    /// next event batch (here the trace sample 50 ms later).
    #[test]
    fn components_hear_a_host_started_flow_at_its_instant() {
        struct Listener(Rc<RefCell<Vec<(bool, Timestamp)>>>);
        impl EventHandler for Listener {
            fn name(&self) -> &str {
                "listener"
            }
            fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
                match ev {
                    AppEvent::FlowStarted(_) => self.0.borrow_mut().push((true, ctx.now())),
                    AppEvent::FlowStopped(_) => self.0.borrow_mut().push((false, ctx.now())),
                    _ => {}
                }
            }
        }
        let heard = Rc::new(RefCell::new(Vec::new()));
        let mut sim = line_sim();
        sim.add_app(Box::new(Listener(heard.clone())));
        sim.start();
        let (start, stop) = (
            Timestamp::from_millis(10_250),
            Timestamp::from_millis(10_750),
        );
        let f = start_at(&mut sim, start, FlowSpec::new(r(1), Prefix::net24(1)));
        sim.run_until(stop);
        assert!(sim.ctx().stop_flow(f));
        sim.run_until(Timestamp::from_secs(11));
        assert_eq!(*heard.borrow(), [(true, start), (false, stop)]);
    }

    /// A datagram the receiving instance rejects — here, one on an
    /// interface it does not have — is counted, not swallowed: still
    /// delivered and accounted as control traffic, and the run goes on.
    /// (Undecodable bytes cannot reach an instance here; `handle_packet`
    /// counts those in `decode_errors`.)
    #[test]
    fn rejected_control_packet_is_counted() {
        let mut sim = line_sim();
        sim.start();
        sim.run_until(Timestamp::from_secs(5));
        assert_eq!(sim.stats().ctrl_pkt_errors, 0, "a healthy run rejects none");
        let before = sim.stats();
        let hello = Datagram::Other(wire::Packet::Hello(wire::Hello {
            hello_interval: 1,
            dead_interval: 4,
            seen: vec![r(2)],
        }));
        let len = hello.encoded_len();
        let received = |sim: &Sim| sim.instance(r(2)).unwrap().stats.pkts_recv;
        let received_before = received(&sim);
        // r2 has two interfaces, 0 and 1.
        sim.core.queue.push(
            sim.now(),
            Ev::Pkt {
                to_slot: 1,
                iface: IfaceId(2),
                from: r(1),
                len: len as u32,
                datagram: hello,
            },
        );
        sim.run_until(sim.now());
        let stats = sim.stats();
        assert_eq!(stats.ctrl_pkt_errors, 1);
        assert_eq!(stats.ctrl_pkts, before.ctrl_pkts + 1);
        assert_eq!(stats.ctrl_bytes, before.ctrl_bytes + len as u64);
        assert_eq!(received(&sim), received_before, "not processed");
        assert_eq!(stats.iface_admin_errors, 0);
        // Both fold into sweep totals; neither is a pinned counter.
        let mut total = stats;
        total += stats;
        assert_eq!(total.ctrl_pkt_errors, 2);
        assert!(stats.counters().iter().all(|(k, _)| !k.contains("error")));
    }

    /// Path ids are interned by content: flows that a failure moved
    /// away and a restore brought back carry the id they had, and the
    /// table grows by the detour only.
    #[test]
    fn a_restored_link_brings_its_flows_back_to_the_same_path_id() {
        // Square: 1-2-4 is the short way, 1-3-4 the detour.
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=4 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(4), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(1), r(3), Metric(10), 1e6));
        sim.add_link(LinkSpec::new(r(3), r(4), Metric(10), 1e6));
        sim.announce_prefix(r(4), Prefix::net24(1));
        sim.start();
        let flows: Vec<FlowId> = (0..3)
            .map(|_| {
                start_at(
                    &mut sim,
                    Timestamp::from_secs(10),
                    FlowSpec::new(r(1), Prefix::net24(1)),
                )
            })
            .collect();
        sim.run_until(Timestamp::from_secs(12));
        let ids = |sim: &Sim| -> Vec<Option<u32>> {
            let id = |f: &FlowId| sim.core.path_id(*f);
            flows.iter().map(id).collect()
        };
        let short = ids(&sim);
        assert_eq!(short, [short[0]; 3], "one path, one id");
        assert!(short[0].is_some());
        assert_eq!(sim.distinct_paths(), 1);

        assert!(sim.ctx().fail_link(r(2), r(4)));
        sim.run_until(Timestamp::from_secs(20));
        let detour = ids(&sim);
        assert_eq!(detour, [detour[0]; 3]);
        assert!(detour[0].is_some() && detour[0] != short[0], "rerouted");
        assert_eq!(sim.distinct_paths(), 2);

        assert!(sim.ctx().restore_link(r(2), r(4)));
        sim.run_until(Timestamp::from_secs(40));
        assert_eq!(ids(&sim), short, "back on the same id");
        assert_eq!(sim.distinct_paths(), 2, "nothing new was interned");
    }

    /// The id names the links, not the flow: two flows toward
    /// different prefixes that resolve to the same links share it.
    #[test]
    fn flows_of_different_keys_over_the_same_links_share_a_path_id() {
        let mut sim = line_sim();
        sim.announce_prefix(r(3), Prefix::net24(2));
        sim.start();
        let a = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)),
        );
        let b = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(2)).with_cap(1e5),
        );
        let c = start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(2), Prefix::net24(2)),
        );
        sim.run_until(Timestamp::from_secs(12));
        let flow = |f: FlowId| sim.core.flow(f).expect("live");
        assert_ne!(flow(a).key.dst, flow(b).key.dst);
        assert_eq!(flow(a).path, flow(b).path);
        let path_id = |f: FlowId| sim.core.path_id(f);
        assert!(path_id(a).is_some());
        assert_eq!(path_id(a), path_id(b));
        assert_ne!(path_id(c), path_id(a), "r2 enters one link later");
        assert_ne!(sim.core.class(a), sim.core.class(b), "one path, two caps");
        assert_eq!(sim.distinct_paths(), 2);
    }

    /// A cap change moves a routed flow to the class of its path under
    /// the new cap, interned once: a flow paused and resumed comes back
    /// to the class it had, and shares it with the flows that never
    /// paused — so the allocator sees the same ids as before the pause.
    #[test]
    fn a_paused_and_resumed_flow_comes_back_to_its_class() {
        let mut sim = line_sim();
        let spec = || FlowSpec::new(r(1), Prefix::net24(1)).with_cap(125_000.0);
        sim.start();
        let (a, b) = (
            start_at(&mut sim, Timestamp::from_secs(10), spec()),
            start_at(&mut sim, Timestamp::from_secs(10), spec()),
        );
        sim.run_until(Timestamp::from_secs(12));
        let class = |sim: &Sim, f: FlowId| sim.core.class(f);
        let playing = class(&sim, a);
        assert!(playing.is_some());
        assert_eq!(class(&sim, b), playing);

        assert!(sim.ctx().set_flow_cap(a, Some(1.0)));
        let paused = class(&sim, a);
        assert!(paused.is_some() && paused != playing);
        assert_eq!(sim.core.path_id(a), sim.core.path_id(b), "same path");
        sim.run_until(Timestamp::from_secs(14));
        assert_eq!(
            sim.ctx().flow_rate(a).map(f64::to_bits),
            Some(1f64.to_bits())
        );

        assert!(sim.ctx().set_flow_cap(a, Some(125_000.0)));
        assert_eq!(class(&sim, a), playing, "back in its class");
        assert!(sim.ctx().set_flow_cap(a, Some(1.0)));
        assert_eq!(class(&sim, a), paused, "nothing new was interned");
        sim.run_until(Timestamp::from_secs(16));
        let rate = sim.ctx().flow_rate(b).map(f64::to_bits);
        assert_eq!(rate, Some(125_000f64.to_bits()));
    }

    /// A link's fluid bytes reach `ifOutOctets` through its carry: the
    /// same traffic integrated over more, shorter instants — some too
    /// short for whole bytes, so the carry keeps the fraction — counts
    /// the same octets.
    #[test]
    fn data_octets_do_not_depend_on_how_many_instants_the_bytes_took() {
        // 1e5 B/s for 10 s, in steps whose lengths are exact in
        // binary, so that both runs integrate the same 1 000 000 bytes.
        let counters = |steps_ns: &[u64]| {
            let mut sim = line_sim();
            let ix = sim.core.link_idx[&LinkKey::new(r(1), r(2))] as usize;
            sim.core.link_recs[ix].state.rate = 1e5;
            for &ns in steps_ns {
                sim.core.accrue_to(Timestamp(ns));
            }
            out_octets(&mut sim, r(1), r(2))
        };
        const SEC: u64 = 1_000_000_000;
        let once = counters(&[10 * SEC]);
        assert_eq!(once, 1_000_000);
        // Quarter seconds up to 5 s (25 000 bytes each), then 1/64 s
        // (1 562.5 bytes: the carry at work) up to 7.5 s, then 1/512 s
        // (195.3125 bytes) up to 10 s.
        let mut steps: Vec<u64> = (1..=20).map(|k| k * SEC / 4).collect();
        steps.extend((1..=160).map(|k| 5 * SEC + k * SEC / 64));
        steps.extend((1..=1280).map(|k| 7 * SEC + SEC / 2 + k * SEC / 512));
        assert_eq!(steps.last(), Some(&(10 * SEC)));
        assert_eq!(counters(&steps), once);
    }

    #[test]
    fn loop_probe_is_silent_on_a_healthy_world_and_changes_nothing() {
        let run = |check_loops: bool| {
            let mut sim = Sim::new(SimConfig { check_loops });
            for i in 1..=3 {
                sim.add_router(r(i));
            }
            sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
            sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
            sim.announce_prefix(r(3), Prefix::net24(1));
            sim.start();
            start_at(
                &mut sim,
                Timestamp::from_secs(10),
                FlowSpec::new(r(1), Prefix::net24(1)),
            );
            sim.run_until(Timestamp::from_secs(15));
            assert_eq!(sim.loop_violations(), &[] as &[LoopViolation]);
            (sim.recorder().to_csv(), sim.stats().events)
        };
        assert_eq!(run(false), run(true), "probe must be read-only");
    }

    #[test]
    fn armed_identity_tie_break_changes_nothing() {
        struct Identity;
        impl TieBreak<Timestamp> for Identity {
            fn permute(&mut self, _at: Timestamp, _n: usize, _out: &mut Vec<u32>) {}
        }
        let run = |armed: bool| {
            let mut sim = line_sim();
            if armed {
                sim.set_tie_break(Some(Box::new(Identity)));
            }
            sim.start();
            for i in 0..4 {
                start_at(
                    &mut sim,
                    Timestamp::from_secs(10),
                    FlowSpec::new(r(1 + i % 2), Prefix::net24(1)),
                );
            }
            sim.run_until(Timestamp::from_secs(20));
            let stats = sim.stats();
            (sim.recorder().to_csv(), stats.events, stats.ctrl_pkts)
        };
        assert_eq!(run(false), run(true));
    }
}
