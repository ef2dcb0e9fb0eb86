//! The typed world handle.
//!
//! [`SimContext`] replaces the old `Sim::api() -> &mut dyn SimApi`
//! object-safety indirection with a concrete handle carrying typed
//! accessors: components receive `&mut SimContext` during dispatch,
//! and host code obtains the same handle between runs via
//! [`crate::sim::Sim::ctx`]. Reads that used to return snapshot
//! `Vec`s ([`routers`](SimContext::routers),
//! [`links`](SimContext::links), [`flows`](SimContext::flows)) are
//! iterators over the arenas. A flow starts, stops or changes its cap
//! at the instant it is asked for, and its id is issued when it starts.

use crate::flow::{ClassChange, Flow, FlowId, FlowSpec, RateChange};
use crate::link::{LinkInfo, LinkKey};
use crate::sim::Core;
use fib_igp::error::InstanceError;
use fib_igp::lsdb::DbVersion;
use fib_igp::time::Timestamp;
use fib_igp::topology::Topology;
use fib_igp::types::{FwAddr, Metric, Prefix, RouterId};
use fib_telemetry::mib::Oid;

/// Everything a component (or host code between runs) may do to the
/// simulated world.
pub struct SimContext<'a> {
    pub(crate) core: &'a mut Core,
}

impl SimContext<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.core.now
    }

    /// All real routers (controller speakers included), ascending.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.core.router_slot.keys().copied()
    }

    /// All directed links with provisioning data (and the current
    /// offered rate), in key order.
    pub fn links(&self) -> impl Iterator<Item = LinkInfo> + '_ {
        // The IGP cost is provisioning data (the operator configured
        // it), so it is recorded on the link itself at creation time —
        // no LSDB consultation, no per-link topology materialization.
        self.core.link_idx.iter().map(|(k, &ix)| {
            let r = &self.core.link_recs[ix as usize];
            LinkInfo {
                key: *k,
                capacity: r.state.capacity,
                cost: r.cost,
                up: r.state.up,
                rate: r.state.rate,
            }
        })
    }

    /// Which router announces each prefix (static provisioning view).
    pub fn prefix_owners(&self) -> &[(Prefix, RouterId)] {
        &self.core.prefix_owners
    }

    /// The topology as learned by `speaker`'s LSDB (what a controller
    /// actually knows — including every currently installed lie).
    pub fn topology_view(&self, speaker: RouterId) -> Option<Topology> {
        let slot = *self.core.router_slot.get(&speaker)?;
        Some(self.core.instances[slot as usize].lsdb().to_topology())
    }

    /// Versions of `speaker`'s LSDB: of its whole content, and of
    /// everything in it but the lies
    /// ([`fib_igp::lsdb::Lsdb::lie_free_version`]).
    /// [`topology_view`](Self::topology_view) changes only when the
    /// first moves, its `without_fakes()` only when the second does.
    pub fn lsdb_versions(&self, speaker: RouterId) -> Option<(DbVersion, u64)> {
        let slot = *self.core.router_slot.get(&speaker)?;
        let lsdb = self.core.instances[slot as usize].lsdb();
        Some((lsdb.version(), lsdb.lie_free_version()))
    }

    /// SNMP WALK under an OID prefix against a router's agent (counts
    /// as management traffic): the `ifOutOctets` rows in ifIndex order
    /// if `prefix` is that column or above it, nothing otherwise.
    pub fn snmp_walk(&mut self, router: RouterId, prefix: &Oid) -> Vec<(Oid, u64)> {
        self.core.stats.snmp_ops += 1;
        match self.core.router_slot.get(&router) {
            Some(&slot) => self.core.agents[slot as usize].walk(prefix),
            None => Vec::new(),
        }
    }

    /// The SNMP ifIndex of the interface on `from` facing `to`.
    pub fn ifindex_for(&self, from: RouterId, to: RouterId) -> Option<u32> {
        let slot = *self.core.router_slot.get(&from)?;
        self.core.iface_facing(slot, to).map(|i| u32::from(i.0) + 1)
    }

    /// Inject a lie through `speaker`'s protocol instance.
    #[allow(clippy::too_many_arguments)]
    pub fn inject_fake(
        &mut self,
        speaker: RouterId,
        fake: RouterId,
        attach: RouterId,
        attach_metric: Metric,
        prefix: Prefix,
        prefix_metric: Metric,
        fw: FwAddr,
    ) -> Result<(), InstanceError> {
        let slot = *self
            .core
            .router_slot
            .get(&speaker)
            .ok_or(InstanceError::UnknownSpeaker(speaker))?;
        let r = self.core.instances[slot as usize].inject_fake(
            fake,
            attach,
            attach_metric,
            prefix,
            prefix_metric,
            fw,
            self.core.now,
        );
        self.core.touch(slot);
        r
    }

    /// Retract a lie previously injected through `speaker`.
    pub fn retract_fake(&mut self, speaker: RouterId, fake: RouterId) -> Result<(), InstanceError> {
        let slot = *self
            .core
            .router_slot
            .get(&speaker)
            .ok_or(InstanceError::UnknownSpeaker(speaker))?;
        let r = self.core.instances[slot as usize].retract_fake(fake, self.core.now);
        self.core.touch(slot);
        r
    }

    /// Start a flow now; returns its id, the next one issued.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.core.start_flow(spec)
    }

    /// Stop a flow; `false` if unknown.
    pub fn stop_flow(&mut self, id: FlowId) -> bool {
        self.core.stop_flow(id)
    }

    /// Change a flow's application rate cap; `false` if unknown.
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) -> bool {
        self.core.set_flow_cap(id, cap)
    }

    /// A live flow by id.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.core.flow(id)
    }

    /// Iterate all live flows in id order (no snapshot allocation).
    pub fn flows(&self) -> impl Iterator<Item = &Flow> + '_ {
        self.core.flows()
    }

    /// Current allocated rate of a flow (bytes/s).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        let (hot, slot) = (&self.core.hot, id.0 as usize);
        hot.live(slot).then(|| hot.rate[slot])
    }

    /// Start logging every live flow's rate change (a no-op once
    /// started): from the next settle on, each flow whose rate moves
    /// in any bit is logged with its new rate and the instant it takes
    /// effect, for [`take_rate_changes`](Self::take_rate_changes). The
    /// settle finds those flows by class, not by a walk over the live
    /// ones, so a batch is in member-list order, not flow order. The
    /// log has one reader: whoever drains it takes every entry. A
    /// flow's bytes delivered are the integral of its entries.
    pub fn watch_rates(&mut self) {
        self.core.rate_changes.get_or_insert_with(Vec::new);
    }

    /// Move the rate changes logged since the last call into `into`
    /// (cleared first), in the order the settles made them: ascending
    /// instants, and within one settle the order the settle met its
    /// flows in — class by class along its member lists, then the
    /// flows whose class changed or that the fill froze alone, by id —
    /// not flow order. One settle logs a flow at most once, so a
    /// reader that keys on the flow, as the video driver does, sees
    /// the same thing in any order. Empty unless
    /// [`watch_rates`](Self::watch_rates) was called.
    pub fn take_rate_changes(&mut self, into: &mut Vec<RateChange>) {
        into.clear();
        if let Some(log) = &mut self.core.rate_changes {
            std::mem::swap(log, into);
        }
    }

    /// Start the class-level rate-change log (a no-op once started):
    /// from the next settle on, one [`ClassChange::Rate`] per class
    /// whose rate bits moved, then, by flow id, one entry per flow that
    /// changed class (an unrouted one runs at 0.0 of its own) or was
    /// frozen alone at this settle or the one before. Expanded over the
    /// classes' members, it gives the rates
    /// [`take_rate_changes`](Self::take_rate_changes) gives, at the
    /// same instants; but a class's rate change is one entry, however
    /// many members it has. Start it before the flows it is to cover.
    pub fn watch_classes(&mut self) {
        self.core.class_changes.get_or_insert_with(Vec::new);
    }

    /// Move the class-level entries logged since the last call, each
    /// with its settle's instant, into `into` (cleared first), in the
    /// order the settles made them.
    pub fn take_class_changes(&mut self, into: &mut Vec<(Timestamp, ClassChange)>) {
        into.clear();
        if let Some(log) = &mut self.core.class_changes {
            std::mem::swap(log, into);
        }
    }

    /// Current path of a flow (directed links), if routed.
    pub fn flow_path(&self, id: FlowId) -> Option<&[LinkKey]> {
        self.core.flow(id).and_then(|f| f.path.as_deref())
    }

    /// Current offered rate on a directed link (bytes/s).
    pub fn link_rate(&self, key: LinkKey) -> Option<f64> {
        self.core
            .link_idx
            .get(&key)
            .map(|&ix| self.core.link_recs[ix as usize].state.rate)
    }

    /// Administratively fail a symmetric link (both directions) now.
    ///
    /// With carrier detection enabled the IGP instances at both ends
    /// are notified immediately and re-converge around the failure;
    /// data flows re-resolve their paths at the next settlement.
    /// Returns `false` if no such link exists.
    pub fn fail_link(&mut self, a: RouterId, b: RouterId) -> bool {
        self.core.set_link_up(a, b, false)
    }

    /// Restore a previously failed symmetric link. Counterpart of
    /// [`SimContext::fail_link`]; returns `false` if no such link
    /// exists.
    pub fn restore_link(&mut self, a: RouterId, b: RouterId) -> bool {
        self.core.set_link_up(a, b, true)
    }

    /// Change a symmetric link's per-direction capacity (bytes/s) now.
    ///
    /// The fluid allocation is recomputed at the next settlement; the
    /// IGP is *not* involved (capacity is not part of the link-state
    /// database). Returns `false` if no such link exists or `capacity`
    /// is not positive.
    pub fn set_link_capacity(&mut self, a: RouterId, b: RouterId, capacity: f64) -> bool {
        self.core.set_link_capacity_inner(a, b, capacity)
    }

    /// A router's installed ECMP next-hops toward a prefix (empty if
    /// none — used by verification and experiments, not by the
    /// controller's decision logic).
    pub fn fib_nexthops(&self, router: RouterId, prefix: Prefix) -> Vec<FwAddr> {
        match self.core.fibs.get(&router).and_then(|f| f.lookup(prefix)) {
            Some(crate::fib::FibEntry::Via(v)) => v.clone(),
            _ => Vec::new(),
        }
    }

    /// Append a point to a named trace series at the current time.
    pub fn record(&mut self, series: &str, value: f64) {
        let now = self.core.now;
        self.core.recorder.record(series, now, value);
    }
}
