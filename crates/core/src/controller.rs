//! The Fibbing controller of the demo (Sec. 3 of the paper).
//!
//! The controller is an ordinary IGP speaker attached to one router
//! (R3 in the demo). It:
//!
//! 1. **monitors link loads using SNMP** — polling ifOutOctets at a
//!    fixed interval through the telemetry pipeline (EWMA rates,
//!    hysteresis alarms), and
//! 2. **is notified by the servers when they have a new client** —
//!    flow notifications feed a demand book, letting the controller
//!    react *predictively*: it spreads the known demands over the
//!    forwarding state in its own LSDB and acts when the predicted
//!    utilization crosses the threshold, typically before queues
//!    build.
//!
//! An evaluation gathers, decides and applies. The component gathers
//! the speaker's view, the demand book and the SNMP readings;
//! `plan::react` decides, as a function of those alone: per prefix, a
//! path plan (min-cost flow at the utilization budget,
//! [`crate::optimizer::plan_paths`]) realized with lies
//! ([`crate::augmentation::augment`]) and reduced, or, when the
//! *natural* (lie-free) routing would stay below the low watermark,
//! every lie retracted. The component applies: it reconciles each plan
//! with what is installed (naming and injecting new lies, retracting
//! obsolete ones), audits and publishes. Planning spends no name.
//!
//! The loop runs once per viewer start and stop, and nine reactions in
//! ten ask for the plan that is already installed, so an evaluation is
//! made to cost what changed since the last one: the two topologies it
//! reads and their per-prefix forwarding state are kept until the
//! speaker's LSDB version moves, and a reaction whose planned DAG and
//! real topology equal the previous one's is answered from a memo (all
//! in `plan::Kept`). Neither changes a decision: the code a miss runs
//! is the whole computation.

use crate::lie::{Lie, LieAllocator};
use crate::plan::{self, Caps, Decision, DemandBook, Derived, Kept, Pass, Trigger};
use fib_igp::loadmodel::max_utilization;
use fib_igp::time::Dur;
use fib_igp::types::{Prefix, RouterId};
use fib_netsim::flow::{FlowId, FlowInfo};
use fib_netsim::handler::{AppEvent, EventHandler};
use fib_netsim::link::LinkKey;
use fib_netsim::sim::SimContext;
use fib_telemetry::alarm::{Edge, Threshold};
use fib_telemetry::counters::CounterWidth;
use fib_telemetry::mib::oids;
use fib_telemetry::monitor::LoadMonitor;
use fib_trace::{AuditAction, AuditRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tick/poll cadence.
const POLL_INTERVAL: Dur = Dur::from_secs(1);

/// EWMA weight for SNMP rates.
const EWMA_ALPHA: f64 = 0.5;

/// Hold-down of the SNMP alarm path: none, an edge counts at once.
const ALARM_HOLD: Dur = Dur::ZERO;

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// The controller's IGP speaker id (added to the simulation via
    /// [`fib_netsim::sim::Sim::add_controller_speaker`]).
    pub speaker: RouterId,
    /// Utilization (predicted or measured) that triggers a reaction.
    pub util_hi: f64,
    /// Natural utilization below which lies are retracted.
    pub util_lo: f64,
    /// Utilization budget handed to the optimizer.
    pub target_util: f64,
    /// Max ECMP slots per router when rounding splits.
    pub slot_budget: u32,
    /// Demand assumed for flows announcing no rate cap.
    pub default_flow_rate: f64,
    /// React to flow notifications immediately (predictive mode); if
    /// `false` the controller only reacts to SNMP alarms — the
    /// ablation the reaction-time table quantifies.
    pub predictive: bool,
    /// Poll SNMP counters (can be disabled for pure-predictive runs).
    pub use_snmp: bool,
}

impl ControllerConfig {
    /// Defaults mirroring the demo: 1 s polling, react at 80%
    /// predicted utilization, optimize to 70%, retract below 30%.
    pub fn new(speaker: RouterId) -> ControllerConfig {
        ControllerConfig {
            speaker,
            util_hi: 0.8,
            util_lo: 0.3,
            target_util: 0.7,
            slot_budget: 8,
            default_flow_rate: 125_000.0, // 1 Mb/s video
            predictive: true,
            use_snmp: true,
        }
    }
}

/// Observable controller counters (reaction-time and overhead tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Reactions computed (plan attempts on congestion).
    pub reactions: u64,
    /// Lies injected.
    pub injections: u64,
    /// Lies retracted.
    pub retractions: u64,
    /// SNMP poll sweeps performed.
    pub snmp_sweeps: u64,
    /// Evaluations (trigger checks) performed.
    pub evaluations: u64,
    /// Plans that failed (optimizer or augmentation error), plus
    /// planned lies that could not be named and so were not injected
    /// (their router is out of secondary addresses of the gateway),
    /// plus injections and retractions the speaker refused.
    pub failures: u64,
    /// Evaluations cut short because the demand could not be spread
    /// over the speaker's view of the network (a demand's ingress
    /// without a route, or a forwarding loop: convergence in
    /// progress).
    pub spread_failures: u64,
    /// Reactions (counted in `reactions` too) answered from the memo
    /// of the previous reaction for the prefix.
    pub replayed: u64,
}

/// A live view of the controller, published through
/// [`FibbingController::watch`] after every evaluation — how the
/// scenario engine reads reaction counts out of a running simulation
/// (the controller itself is owned by the simulator once added).
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerSnapshot {
    /// Counters at the last evaluation.
    pub stats: ControllerStats,
    /// Lies currently installed across all prefixes.
    pub installed_lies: usize,
}

/// Shared handle to the latest [`ControllerSnapshot`].
pub type ControllerHandle = Arc<Mutex<ControllerSnapshot>>;

/// The demo's Fibbing controller (a netsim [`EventHandler`]
/// component).
pub struct FibbingController {
    cfg: ControllerConfig,
    monitor: LoadMonitor<LinkKey>,
    /// What one SNMP sweep reads, worked out at start: every router a
    /// data link leaves, ascending, with its `(ifIndex, link)` pairs in
    /// ifIndex order.
    poll_plan: Vec<(RouterId, Vec<(u32, LinkKey)>)>,
    caps: Caps,
    book: BTreeMap<FlowId, FlowInfo>,
    installed: BTreeMap<Prefix, Vec<Lie>>,
    alloc: LieAllocator,
    /// The topologies and reactions kept from one pass to the next.
    kept: Kept,
    watch: Option<ControllerHandle>,
    /// The most recent plan failure not yet reported: the next audited
    /// action names it in its trigger text. Only rendered when a trace
    /// sink is installed.
    last_failure: Option<String>,
    /// Observable counters.
    pub stats: ControllerStats,
}

impl FibbingController {
    /// Build a controller with the given configuration.
    pub fn new(cfg: ControllerConfig) -> FibbingController {
        let monitor = LoadMonitor::new(
            CounterWidth::C64,
            EWMA_ALPHA,
            Threshold::new(cfg.util_hi, cfg.util_lo, ALARM_HOLD),
        );
        FibbingController {
            cfg,
            monitor,
            poll_plan: Vec::new(),
            caps: BTreeMap::new(),
            book: BTreeMap::new(),
            installed: BTreeMap::new(),
            alloc: LieAllocator::new(),
            kept: Kept::default(),
            watch: None,
            last_failure: None,
            stats: ControllerStats::default(),
        }
    }

    /// A shared handle that tracks the controller live: the snapshot
    /// behind it is refreshed after every evaluation, so harnesses can
    /// read stats and the installed-lie count mid-run and after the
    /// simulator has taken ownership of the app.
    pub fn watch(&mut self) -> ControllerHandle {
        let handle = self
            .watch
            .get_or_insert_with(|| Arc::new(Mutex::new(ControllerSnapshot::default())));
        Arc::clone(handle)
    }

    fn publish(&mut self, api: &mut SimContext<'_>) {
        if let Some(w) = &self.watch {
            *w.lock() = ControllerSnapshot {
                stats: self.stats,
                installed_lies: self.installed_count(),
            };
        }
        api.record("ctrl.lies", self.installed_count() as f64);
    }

    /// Lies currently installed for a prefix.
    pub fn installed_lies(&self, prefix: Prefix) -> &[Lie] {
        self.installed
            .get(&prefix)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of installed lies.
    pub fn installed_count(&self) -> usize {
        self.installed.values().map(|v| v.len()).sum()
    }

    fn demands_by_prefix(&self) -> DemandBook {
        let mut agg: BTreeMap<Prefix, BTreeMap<RouterId, f64>> = BTreeMap::new();
        for info in self.book.values() {
            let rate = info.cap.unwrap_or(self.cfg.default_flow_rate);
            *agg.entry(info.dst)
                .or_default()
                .entry(info.src)
                .or_insert(0.0) += rate;
        }
        agg.into_iter()
            .map(|(p, m)| (p, m.into_iter().collect()))
            .collect()
    }

    fn poll_snmp(&mut self, api: &mut SimContext<'_>) {
        self.stats.snmp_sweeps += 1;
        let _span = fib_trace::span(fib_trace::Phase::CtrlPoll);
        let now = api.now();
        let if_out_octets = oids::if_out_octets();
        for (r, pairs) in &self.poll_plan {
            // The column comes back in ifIndex order, as the pairs are:
            // one merge pairs each monitored row with its link.
            let mut pairs = pairs.iter().peekable();
            for (oid, octets) in api.snmp_walk(*r, &if_out_octets) {
                let Some(&idx) = oid.0.last() else { continue };
                while pairs.next_if(|&&(i, _)| i < idx).is_some() {}
                let Some(&(_, key)) = pairs.next_if(|&&(i, _)| i == idx) else {
                    continue;
                };
                // Besides feeding the monitor's alarms, every edge lands
                // in the run's trace: the `alarm.<from>-<to>` series
                // steps to the edge utilization on raise, back to 0 on
                // clear.
                if let Some((edge, util)) = self.monitor.on_sample(&key, now, octets) {
                    let level = match edge {
                        Edge::Raised => util,
                        Edge::Cleared => 0.0,
                    };
                    api.record(&format!("alarm.{}-{}", key.from, key.to), level);
                }
            }
        }
    }

    /// Emit one lie-lifecycle audit record for `decision` of `pass`
    /// (free when tracing is off; the formatting only happens with a
    /// sink installed).
    fn audit(
        &mut self,
        api: &SimContext<'_>,
        action: AuditAction,
        prefix: Prefix,
        lie: &Lie,
        pass: &Pass,
        decision: &Decision,
    ) {
        if !fib_trace::enabled() {
            return;
        }
        let (trigger, candidates, loads) = match decision {
            Decision::Install {
                candidates, loads, ..
            } => (pass.trigger, *candidates, Some(loads)),
            _ => (Trigger::Natural(pass.natural, self.cfg.util_lo), 0, None),
        };
        let predicted_max_util = loads.map_or(pass.natural, |l| max_utilization(l, &self.caps));
        let trigger = match self.last_failure.take() {
            Some(failure) => format!("{trigger}; after {failure}"),
            None => trigger.to_string(),
        };
        fib_trace::audit(AuditRecord {
            sim_ns: api.now().0,
            action,
            prefix: prefix.to_string(),
            lie: lie.to_string(),
            trigger,
            candidates,
            predicted_max_util,
            measured_max_util: pass.measured,
        });
    }

    /// Count a failed plan (or part of one) and keep why, for the next
    /// audit record.
    fn plan_failed(&mut self, prefix: Prefix, why: &dyn std::fmt::Display) {
        self.stats.failures += 1;
        if fib_trace::enabled() {
            self.last_failure = Some(format!("failed plan for {prefix}: {why}"));
        }
    }

    /// Carry out a decided pass, prefix by prefix. A lie is in
    /// `installed` from the moment the speaker took it until the
    /// speaker took it back: one it refuses to take back stays, so the
    /// next pass tries again.
    fn apply(&mut self, api: &mut SimContext<'_>, pass: &Pass) {
        self.stats.replayed += pass.replayed;
        for &(prefix, ref decision) in &pass.decisions {
            self.stats.reactions += u64::from(!matches!(decision, Decision::RetractAll));
            let (mut kept, obsolete, to_inject) = match decision {
                Decision::RetractAll => {
                    let lies = self.installed.remove(&prefix).unwrap_or_default();
                    (Vec::new(), lies, Vec::new())
                }
                Decision::Install { lies, .. } => self.reconcile(prefix, lies),
                Decision::Failed(e) => {
                    self.plan_failed(prefix, e);
                    continue;
                }
            };
            for l in obsolete {
                match api.retract_fake(self.cfg.speaker, l.fake_id) {
                    Ok(()) => {
                        self.stats.retractions += 1;
                        self.audit(api, AuditAction::Retract, prefix, &l, pass, decision);
                    }
                    Err(e) => {
                        self.plan_failed(prefix, &format_args!("retract of {l}: {e}"));
                        kept.push(l);
                    }
                }
            }
            for l in &to_inject {
                match api.inject_fake(
                    self.cfg.speaker,
                    l.fake_id,
                    l.attach,
                    l.attach_metric,
                    l.prefix,
                    l.prefix_metric,
                    l.fw,
                ) {
                    Ok(()) => {
                        self.stats.injections += 1;
                        self.audit(api, AuditAction::Inject, prefix, l, pass, decision);
                    }
                    Err(e) => {
                        self.plan_failed(prefix, &format_args!("inject of {l}: {e}"));
                        kept.retain(|k| k.fake_id != l.fake_id);
                    }
                }
            }
            if !kept.is_empty() {
                self.installed.insert(prefix, kept);
            }
        }
    }

    /// Match `planned` against the lies `prefix` has installed, by
    /// signature. Returns the set to keep (installed lies the plan
    /// still wants, and new ones), the installed lies it no longer
    /// wants (in signature order), and the new lies, to inject.
    fn reconcile(&mut self, prefix: Prefix, planned: &[Lie]) -> (Vec<Lie>, Vec<Lie>, Vec<Lie>) {
        let mut old_by_sig: BTreeMap<_, Vec<Lie>> = BTreeMap::new();
        for l in self.installed.remove(&prefix).unwrap_or_default() {
            old_by_sig.entry(l.sig()).or_default().push(l);
        }
        let (mut kept, mut to_inject) = (Vec::new(), Vec::new());
        for &l in planned {
            match old_by_sig.get_mut(&l.sig()).and_then(|v| v.pop()) {
                Some(old) => kept.push(old), // already installed
                // A planned lie becomes one to install: only here is a
                // name spent. Without an address there is no slot to
                // buy, so the lie is left out and the next pass asks
                // again.
                None => match self.alloc.fw_addr(l.attach, l.fw.router) {
                    Ok(fw) => {
                        let fake_id = self.alloc.fake_id();
                        let named = Lie { fake_id, fw, ..l };
                        to_inject.push(named);
                        kept.push(named);
                    }
                    Err(e) => self.plan_failed(prefix, &e),
                },
            }
        }
        let obsolete = old_by_sig.into_values().flatten().collect();
        (kept, obsolete, to_inject)
    }

    /// One evaluation pass: gather, [`plan::react`], apply. It ends
    /// with a publish even when a transient makes the pass bail early —
    /// the watch snapshot and the `ctrl.lies` trace must not skip
    /// exactly the disrupted ticks a scenario wants to measure.
    fn evaluate(&mut self, api: &mut SimContext<'_>) {
        let _span = fib_trace::span(fib_trace::Phase::CtrlOptimize);
        self.stats.evaluations += 1;
        if self.refresh_topologies(api) {
            let book = self.demands_by_prefix();
            let snmp = self.cfg.use_snmp.then_some(&self.monitor);
            let (caps, cfg) = (&self.caps, &self.cfg);
            match plan::react(&book, caps, &self.installed, snmp, cfg, &mut self.kept) {
                Ok(pass) => self.apply(api, &pass),
                Err(_) => self.stats.spread_failures += 1,
            }
        }
        self.publish(api);
    }

    /// Bring the kept `view` and `real` up to the speaker's LSDB.
    /// `false` if the speaker is gone.
    fn refresh_topologies(&mut self, api: &SimContext<'_>) -> bool {
        let Some((all, lie_free)) = api.lsdb_versions(self.cfg.speaker) else {
            return false;
        };
        let kept = &mut self.kept;
        if kept.view.as_ref().is_some_and(|v| v.version == all.0) {
            // The lie-free version cannot move without this one.
            return true;
        }
        let Some(view) = api.topology_view(self.cfg.speaker) else {
            return false;
        };
        if !kept.real.as_ref().is_some_and(|r| r.version == lie_free) {
            kept.real = Some(Derived::new(lie_free, view.without_fakes()));
            kept.memo.clear();
        }
        kept.view = Some(Derived::new(all.0, view));
        true
    }

    /// Pick up scripted capacity changes on links learned at start.
    ///
    /// Capacity is provisioning data, not link-state, so the IGP never
    /// tells the controller about it; an operator would push the new
    /// value into the management plane. A changed capacity re-seeds
    /// that link's monitor entry (the rate estimator restarts from the
    /// next sample).
    fn refresh_capacities(&mut self, api: &mut SimContext<'_>) {
        for info in api.links() {
            let k = (info.key.from, info.key.to);
            if let Some(cap) = self.caps.get_mut(&k) {
                if *cap != info.capacity {
                    *cap = info.capacity;
                    self.monitor.add(info.key, info.capacity);
                }
            }
        }
    }
}

impl FibbingController {
    fn on_start(&mut self, api: &mut SimContext<'_>) {
        // Learn the provisioning: every data link's capacity and its
        // SNMP interface index, which make the poll plan. Management
        // links (touching the speaker) are excluded from optimization
        // and monitoring.
        let mut plan: BTreeMap<RouterId, Vec<(u32, LinkKey)>> = BTreeMap::new();
        for info in api.links() {
            if info.key.from == self.cfg.speaker || info.key.to == self.cfg.speaker {
                continue;
            }
            self.caps
                .insert((info.key.from, info.key.to), info.capacity);
            self.monitor.add(info.key, info.capacity);
            let pairs = plan.entry(info.key.from).or_default();
            if let Some(idx) = api.ifindex_for(info.key.from, info.key.to) {
                pairs.push((idx, info.key));
            }
        }
        self.poll_plan = plan
            .into_iter()
            .map(|(r, mut pairs)| {
                pairs.sort_unstable_by_key(|&(idx, _)| idx);
                (r, pairs)
            })
            .collect();
    }

    fn on_tick(&mut self, api: &mut SimContext<'_>) {
        self.refresh_capacities(api);
        if self.cfg.use_snmp {
            self.poll_snmp(api);
        }
        self.evaluate(api);
    }

    fn on_flow_started(&mut self, api: &mut SimContext<'_>, info: &FlowInfo) {
        self.book.insert(info.id, info.clone());
        if self.cfg.predictive {
            self.evaluate(api);
        }
    }

    fn on_flow_stopped(&mut self, api: &mut SimContext<'_>, info: &FlowInfo) {
        self.book.remove(&info.id);
        if self.cfg.predictive {
            self.evaluate(api);
        }
    }
}

impl EventHandler for FibbingController {
    fn name(&self) -> &str {
        "fibbing-controller"
    }

    fn tick_interval(&self) -> Option<Dur> {
        Some(POLL_INTERVAL)
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
        match ev {
            AppEvent::Start => self.on_start(ctx),
            AppEvent::Tick => self.on_tick(ctx),
            AppEvent::FlowStarted(info) => self.on_flow_started(ctx, info),
            AppEvent::FlowStopped(info) => self.on_flow_stopped(ctx, info),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::time::Timestamp;
    use fib_igp::types::Metric;
    use fib_netsim::events::Event;
    use fib_netsim::flow::FlowSpec;
    use fib_netsim::link::LinkSpec;
    use fib_netsim::sim::{Sim, SimConfig};

    /// Start `n` viewers of 100 kB/s at r1 for the prefix, from host
    /// code, 10 ms apart from t = 10 s.
    fn crowd(sim: &mut Sim, n: u64) -> Vec<FlowId> {
        let spec = FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5);
        (0..n)
            .map(|i| {
                sim.run_until(Timestamp::from_secs(10) + Dur::from_millis(i * 10));
                sim.ctx().start_flow(spec.clone())
            })
            .collect()
    }

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Triangle with a slow alternative: 1-2 (1), 2-3 (1), 1-3 (5).
    /// Prefix at r3; capacity 1 MB/s per link. Controller at r100 on
    /// r2, and a watch on it.
    fn sim_with_controller(cfg: ControllerConfig) -> (Sim, ControllerHandle) {
        let mut ctl = FibbingController::new(cfg);
        let watch = ctl.watch();
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=3 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(1), r(3), Metric(5), 1e6));
        sim.announce_prefix(r(3), Prefix::net24(1));
        sim.add_controller_speaker(r(100), r(2));
        sim.add_app(Box::new(ctl));
        (sim, watch)
    }

    #[test]
    fn controller_reacts_to_predicted_congestion() {
        let (mut sim, watch) = sim_with_controller(ControllerConfig::new(r(100)));
        // 12 video flows of 100 kB/s from r1: 1.2 MB/s > 1 MB/s link.
        sim.start();
        sim.run_until(Timestamp::from_secs(9));
        assert_eq!(watch.lock().installed_lies, 0);
        crowd(&mut sim, 12);
        sim.run_until(Timestamp::from_secs(30));
        // r1 must have gained an extra ECMP slot toward r3.
        let hops = sim.ctx().fib_nexthops(r(1), Prefix::net24(1));
        assert!(
            hops.len() >= 2,
            "expected extra ECMP slots at r1, got {hops:?}"
        );
        assert!(hops.iter().any(|h| h.router == r(3)));
        // No link should be overloaded any more.
        let l12 = sim.ctx().link_rate(LinkKey::new(r(1), r(2))).unwrap();
        let l13 = sim.ctx().link_rate(LinkKey::new(r(1), r(3))).unwrap();
        assert!(l12 <= 1e6 + 1.0 && l13 <= 1e6 + 1.0);
        assert!(
            (l12 + l13 - 1.2e6).abs() < 1.0,
            "all traffic must be delivered: {l12} + {l13}"
        );
        // The watch sees it, and the traced series steps from 0 to the
        // installed count.
        let snap = *watch.lock();
        assert!(snap.installed_lies >= 1, "lies visible through the watch");
        assert!(snap.stats.injections >= 1 && snap.stats.evaluations > 0);
        let series = sim.recorder().series("ctrl.lies");
        assert_eq!(series.first().map(|(_, v)| *v), Some(0.0));
        assert!(series.iter().any(|(_, v)| *v >= 1.0));
    }

    #[test]
    fn controller_retracts_when_demand_subsides() {
        let (mut sim, _) = sim_with_controller(ControllerConfig::new(r(100)));
        sim.start();
        let ids = crowd(&mut sim, 12);
        sim.run_until(Timestamp::from_secs(35));
        assert!(
            sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len() >= 2,
            "lies installed during the crowd"
        );
        // Stop all flows at t=40.
        sim.run_until(Timestamp::from_secs(40));
        for id in &ids {
            assert!(sim.ctx().stop_flow(*id));
        }
        sim.run_until(Timestamp::from_secs(60));
        // After retraction, r1 falls back to the single natural hop.
        let hops = sim.ctx().fib_nexthops(r(1), Prefix::net24(1));
        assert_eq!(hops.len(), 1, "lies must be retracted, got {hops:?}");
        assert_eq!(hops[0].router, r(2));
    }

    #[test]
    fn capacity_degradation_is_noticed_on_refresh() {
        // One flow of 500 kB/s over a 1 MB/s shortest path: fine —
        // until the path's capacity is scripted down to 600 kB/s and
        // predicted utilization crosses the threshold.
        let (mut sim, _) = sim_with_controller(ControllerConfig::new(r(100)));
        sim.schedule(
            Timestamp::from_secs(20),
            Event::LinkCapacity {
                a: r(1),
                b: r(2),
                capacity: 6e5,
            },
        );
        sim.start();
        crowd(&mut sim, 5);
        sim.run_until(Timestamp::from_secs(18));
        assert_eq!(
            sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len(),
            1,
            "0.5 utilization: no reaction before the degradation"
        );
        sim.run_until(Timestamp::from_secs(40));
        assert!(
            sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len() >= 2,
            "controller reacts to the degraded capacity"
        );
    }

    #[test]
    fn small_demand_triggers_no_reaction() {
        let (mut sim, _) = sim_with_controller(ControllerConfig::new(r(100)));
        sim.start();
        crowd(&mut sim, 1);
        sim.run_until(Timestamp::from_secs(30));
        let hops = sim.ctx().fib_nexthops(r(1), Prefix::net24(1));
        assert_eq!(hops.len(), 1, "no lies expected, got {hops:?}");
    }

    #[test]
    fn snmp_only_controller_reacts_later_but_reacts() {
        let mut cfg = ControllerConfig::new(r(100));
        cfg.predictive = false; // only the SNMP path
        let (mut sim, _) = sim_with_controller(cfg);
        sim.start();
        crowd(&mut sim, 12);
        sim.run_until(Timestamp::from_secs(13));
        // Too early: counters haven't shown sustained overload yet.
        assert_eq!(sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len(), 1);
        sim.run_until(Timestamp::from_secs(40));
        assert!(
            sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len() >= 2,
            "SNMP path must eventually react"
        );
    }

    /// The audit triggers written while `f` runs under a trace sink.
    fn triggers(f: impl FnOnce()) -> Vec<String> {
        fib_trace::install(Box::new(fib_trace::AggSink::new()));
        f();
        let sink = fib_trace::take().expect("installed above").into_any();
        let sink = sink.downcast::<fib_trace::AggSink>().expect("the sink");
        sink.audits().iter().map(|a| a.trigger.clone()).collect()
    }

    // ---- the caches: what is kept, and what drops it ----

    const P1: Prefix = Prefix::net24(1);
    const P2: Prefix = Prefix::net24(2);

    /// A controller driven by hand. The simulator runs the IGP, so the
    /// speaker's LSDB is the real thing, floods and all; but the
    /// controller is not one of its apps, so a test chooses when it
    /// evaluates and can read what it keeps.
    struct ByHand {
        sim: Sim,
        ctl: FibbingController,
        next_flow: u64,
    }

    impl ByHand {
        /// The triangle plus a spur (2-4 and 4-3 at metric 5, on no
        /// shortest path and in no plan — there to be failed), both
        /// prefixes at r3, speaker on r2; converged.
        fn new() -> ByHand {
            let mut cfg = ControllerConfig::new(r(100));
            cfg.use_snmp = false;
            let mut sim = Sim::new(SimConfig::default());
            for i in 1..=4 {
                sim.add_router(r(i));
            }
            sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
            sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
            sim.add_link(LinkSpec::new(r(1), r(3), Metric(5), 1e6));
            sim.add_link(LinkSpec::new(r(2), r(4), Metric(5), 1e6));
            sim.add_link(LinkSpec::new(r(4), r(3), Metric(5), 1e6));
            sim.announce_prefix(r(3), P1);
            sim.announce_prefix(r(3), P2);
            sim.add_controller_speaker(r(100), r(2));
            sim.start();
            sim.run_until(Timestamp::from_secs(5));
            let mut ctl = FibbingController::new(cfg);
            ctl.on_start(&mut sim.ctx());
            ByHand {
                sim,
                ctl,
                next_flow: 0,
            }
        }

        /// Book `n` viewers of 100 kB/s at r1 for `dst`.
        fn book(&mut self, n: u64, dst: Prefix) {
            for _ in 0..n {
                let id = FlowId(self.next_flow);
                self.next_flow += 1;
                self.ctl.book.insert(
                    id,
                    FlowInfo {
                        id,
                        src: r(1),
                        dst,
                        cap: Some(1e5),
                        tag: 0,
                    },
                );
            }
        }

        /// The crowd every test starts from: 1.2 MB/s for P1 (more
        /// than the shortest path carries) and 0.3 MB/s for P2.
        fn crowded() -> ByHand {
            let mut h = ByHand::new();
            h.book(12, P1);
            h.book(3, P2);
            h
        }

        /// Let the IGP settle for two seconds, then evaluate once;
        /// returns `(reactions computed, reactions replayed)` of that
        /// evaluation.
        fn evaluate(&mut self) -> (u64, u64) {
            let until = self.sim.now() + Dur::from_secs(2);
            self.sim.run_until(until);
            let before = self.ctl.stats;
            self.ctl.evaluate(&mut self.sim.ctx());
            let reactions = self.ctl.stats.reactions - before.reactions;
            let replayed = self.ctl.stats.replayed - before.replayed;
            (reactions - replayed, replayed)
        }

        /// `(view, real)` versions the kept topologies were derived at.
        fn versions(&self) -> (u64, u64) {
            (
                self.ctl.kept.view.as_ref().expect("evaluated").version,
                self.ctl.kept.real.as_ref().expect("evaluated").version,
            )
        }
    }

    #[test]
    fn own_lies_rebuild_the_view_and_keep_the_real_side() {
        let mut h = ByHand::crowded();
        // First pass: nothing kept yet, both prefixes are computed, P1
        // gets its lies.
        assert_eq!(h.evaluate(), (2, 0));
        assert!(h.ctl.stats.injections >= 1);
        let (view0, real0) = h.versions();
        // The lies are in the speaker's LSDB now: the view is stale,
        // the lie-free topology and the reactions computed on it are
        // not. P2's demand still rides the shortest path next to P1's
        // share, so the pass is congested and re-plans both.
        assert_eq!(h.evaluate(), (0, 2));
        let (view1, real1) = h.versions();
        assert_ne!(view1, view0, "injecting moved the LSDB version");
        assert_eq!(real1, real0, "lies are not part of the lie-free topology");
        assert!(!h.ctl.kept.real.as_ref().unwrap().forwarding.is_empty());
        // Nothing was injected this time: nothing at all is rebuilt.
        assert_eq!(h.evaluate(), (0, 2));
        assert_eq!(h.versions(), (view1, real1));
        assert_eq!(h.ctl.stats.failures + h.ctl.stats.spread_failures, 0);
    }

    #[test]
    fn a_prefix_announcement_alone_drops_the_real_side() {
        let mut h = ByHand::crowded();
        h.evaluate();
        assert_eq!(h.evaluate(), (0, 2));
        let lsdb = |h: &ByHand| {
            let db = h.sim.instance(r(100)).expect("speaker").lsdb();
            (db.real_version(), db.lie_free_version())
        };
        let (routers0, lie_free0) = lsdb(&h);
        // r4 starts announcing a third prefix. No router LSA changes —
        // the router-only version would call the real topology
        // unchanged — but the lie-free topology did change.
        h.sim.announce_prefix(r(4), Prefix::net24(3));
        assert_eq!(h.evaluate(), (2, 0));
        let (routers1, lie_free1) = lsdb(&h);
        assert_eq!(routers1, routers0);
        assert_ne!(lie_free1, lie_free0);
        assert_eq!(h.versions().1, lie_free1);
        assert_eq!(h.evaluate(), (0, 2));
    }

    #[test]
    fn a_link_failure_drops_the_real_side() {
        let mut h = ByHand::crowded();
        h.evaluate();
        assert_eq!(h.evaluate(), (0, 2));
        let real0 = h.versions().1;
        assert!(h.sim.ctx().fail_link(r(2), r(4)));
        assert_eq!(h.evaluate(), (2, 0));
        assert_ne!(h.versions().1, real0);
        assert_eq!(h.evaluate(), (0, 2));
        // No lie moved: the plans are the ones already installed.
        assert_eq!(h.ctl.stats.retractions, 0);
    }

    #[test]
    fn capacity_matters_only_through_the_dag() {
        let mut h = ByHand::crowded();
        h.evaluate();
        assert_eq!(h.evaluate(), (0, 2));
        // The spur carries nothing in either plan: halving it changes
        // no DAG, so both reactions are still the remembered ones.
        for k in [(r(2), r(4)), (r(4), r(2))] {
            *h.ctl.caps.get_mut(&k).expect("data link") = 5e5;
        }
        assert_eq!(h.evaluate(), (0, 2));
        // The shortest path's first link does: P1's split changes.
        *h.ctl.caps.get_mut(&(r(1), r(2))).expect("data link") = 8e5;
        assert_eq!(h.evaluate(), (1, 1));
    }

    #[test]
    fn a_retracted_plan_comes_back_from_the_memo_with_fresh_ids() {
        let mut h = ByHand::crowded();
        h.evaluate();
        let first: Vec<Lie> = h.ctl.installed_lies(P1).to_vec();
        assert!(!first.is_empty());
        let book = std::mem::take(&mut h.ctl.book);
        // Everyone left: natural utilization is 0, every lie goes.
        assert_eq!(h.evaluate(), (0, 0));
        assert_eq!(h.ctl.installed_count(), 0);
        assert_eq!(h.ctl.stats.retractions, first.len() as u64);
        // Everyone is back: the same DAG on the same real topology.
        h.ctl.book = book;
        let spent = first.iter().map(|l| l.fake_id).max().expect("not empty");
        assert_eq!(h.evaluate(), (0, 2));
        let again = h.ctl.installed_lies(P1);
        assert_eq!(again.len(), first.len());
        assert_eq!(h.ctl.stats.injections, 2 * first.len() as u64);
        for (a, b) in again.iter().zip(&first) {
            assert_eq!(a.sig(), b.sig());
            assert!(a.fake_id > spent, "{a} reuses an id");
            assert!(a.fw.addr > b.fw.addr, "{a} reuses an address of {b}");
        }
    }

    #[test]
    fn replanning_what_is_installed_spends_no_name() {
        let mut h = ByHand::crowded();
        h.evaluate();
        let (alloc, installed) = (h.ctl.alloc.clone(), h.ctl.installed_count());
        assert!(installed >= 1);
        for _ in 0..1000 {
            assert_eq!(h.evaluate(), (0, 2));
        }
        assert_eq!(h.ctl.alloc, alloc);
        assert_eq!(h.ctl.installed_count(), installed);
        assert_eq!(h.ctl.stats.failures, 0);
    }

    #[test]
    fn a_lie_that_cannot_be_named_is_refused_counted_and_asked_for_again() {
        // The crowd's plan for P1 is six lies at r1, three through r2
        // and three through r3. Leave r1 two addresses of r3.
        let mut h = ByHand::crowded();
        for _ in 0..u16::MAX - 2 {
            h.ctl.alloc.fw_addr(r(1), r(3)).expect("address left");
        }
        let triggers = triggers(|| {
            h.evaluate();
        });
        assert_eq!((h.ctl.stats.injections, h.ctl.stats.failures), (5, 1));
        assert_eq!(h.ctl.installed_count(), 5, "no phantom in the books");
        let via_r3 = |l: &&Lie| l.fw.router == r(3);
        assert_eq!(h.ctl.installed_lies(P1).iter().filter(via_r3).count(), 2);
        assert_eq!(triggers.len(), 5, "{triggers:?}");
        assert_eq!(
            triggers[0],
            "predicted 1.500 >= hi 0.800; after failed plan for 10.0.1.0/24: \
             r1 has no unused secondary address of r3 left"
        );
        assert_eq!(triggers[1], "predicted 1.500 >= hi 0.800");
        // The next pass finds five of the six installed, asks for the
        // sixth again and is refused again; nothing else moves.
        assert_eq!(h.evaluate(), (0, 2));
        assert_eq!((h.ctl.stats.injections, h.ctl.stats.failures), (5, 2));
        assert_eq!((h.ctl.stats.retractions, h.ctl.installed_count()), (0, 5));
    }

    #[test]
    fn a_refused_injection_is_counted_and_kept_out_of_the_books() {
        let mut h = ByHand::new();
        h.book(12, P1);
        // An evaluation stops at the LSDB it cannot read long before it
        // injects, so decide a pass the way an evaluation does and apply
        // it under a speaker id the simulator does not know.
        assert!(h.ctl.refresh_topologies(&h.sim.ctx()));
        let book = h.ctl.demands_by_prefix();
        let c = &mut h.ctl;
        let pass = plan::react(&book, &c.caps, &c.installed, None, &c.cfg, &mut c.kept).unwrap();
        let [(P1, Decision::Install { lies, .. })] = &pass.decisions[..] else {
            panic!("{pass:?}");
        };
        let planned = lies.len() as u64;
        assert!(planned > 0);
        h.ctl.cfg.speaker = r(101);
        h.ctl.apply(&mut h.sim.ctx(), &pass);
        assert_eq!(h.ctl.installed_count(), 0, "no lie was told");
        assert_eq!(h.ctl.stats.failures, planned);
        assert_eq!(h.ctl.stats.injections, 0);
    }

    #[test]
    fn a_refused_retraction_is_counted_named_and_tried_again() {
        let mut h = ByHand::crowded();
        h.evaluate();
        let told = h.ctl.installed_count() as u64;
        // A lie in the books that the speaker never originated, first
        // in line; then every viewer leaves and all lies are to go.
        let phantom = Lie {
            fake_id: h.ctl.alloc.fake_id(),
            ..h.ctl.installed_lies(P1)[0]
        };
        h.ctl.installed.get_mut(&P1).unwrap().insert(0, phantom);
        h.ctl.book.clear();
        let triggers = triggers(|| assert_eq!(h.evaluate(), (0, 0)));
        assert_eq!(h.ctl.installed_lies(P1), [phantom], "still in the books");
        assert_eq!((h.ctl.stats.retractions, h.ctl.stats.failures), (told, 1));
        assert_eq!(
            triggers[0],
            format!(
                "natural 0.000 <= lo 0.300; after failed plan for 10.0.1.0/24: \
                 retract of {phantom}: not the originator of LSAs from {}",
                phantom.fake_id
            )
        );
        assert_eq!(triggers[1], "natural 0.000 <= lo 0.300");
        // The next pass asks again and is refused again.
        assert_eq!(h.evaluate(), (0, 0));
        assert_eq!((h.ctl.stats.retractions, h.ctl.stats.failures), (told, 2));
        assert_eq!(h.ctl.installed_count(), 1);
    }

    #[test]
    fn a_demand_that_cannot_be_spread_is_counted() {
        let mut h = ByHand::new();
        // A viewer of a prefix nobody announces, next to the crowd: no
        // route for it, so the pass cannot even predict.
        h.book(12, P1);
        h.book(1, Prefix::net24(77));
        assert_eq!(h.evaluate(), (0, 0));
        assert_eq!(h.ctl.stats.spread_failures, 1);
        assert_eq!((h.ctl.stats.failures, h.ctl.stats.injections), (0, 0));
        // The viewer leaves: the next pass works.
        h.ctl.book.retain(|_, info| info.dst == P1);
        assert_eq!(h.evaluate(), (1, 0));
        assert_eq!(h.ctl.stats.spread_failures, 1);
        assert!(h.ctl.stats.injections >= 1);
    }

    #[test]
    fn a_failed_plan_is_named_by_the_next_audit_record_only() {
        let mut h = ByHand::crowded();
        // Without a sink the failure is counted and nothing is kept.
        h.ctl.plan_failed(P2, &"boom");
        assert_eq!(h.ctl.stats.failures, 1);
        assert_eq!(h.ctl.last_failure, None);

        let triggers = triggers(|| {
            h.ctl
                .plan_failed(P2, &crate::augmentation::AugmentError::NoFixpoint);
            h.evaluate();
        });
        assert!(triggers.len() >= 2, "{triggers:?}");
        assert_eq!(
            triggers[0],
            "predicted 1.500 >= hi 0.800; after failed plan for 10.0.2.0/24: \
             pin cascade did not stabilize"
        );
        assert_eq!(triggers[1], "predicted 1.500 >= hi 0.800");
        assert_eq!(h.ctl.stats.failures, 2);
    }
}
