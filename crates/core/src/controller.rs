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
//! Reaction: compute a path plan (min-cost flow at the utilization
//! budget, [`crate::optimizer::plan_paths`]), realize it with lies
//! ([`crate::augmentation::augment`]), reduce the lie set, and reconcile
//! with what is already installed (inject new lies, retract obsolete
//! ones). A lie gets its name — fake id and gateway address — there,
//! when it is injected; planning is a function of the real topology
//! and the DAG alone and spends none. When demand subsides so the
//! *natural* (lie-free) routing would stay below the low watermark,
//! every lie is retracted and the network falls back to its original
//! state.
//!
//! The loop runs once per viewer start and stop, and nine reactions in
//! ten ask for the plan that is already installed, so an evaluation is
//! made to cost what changed since the last one: the two topologies it
//! reads and their per-prefix forwarding state are kept until the
//! speaker's LSDB version moves (`Derived`), and a reaction whose
//! planned DAG and real topology equal the previous one's is answered
//! from a memo (`Reaction`). Neither changes a decision: the code a
//! miss runs is the whole computation.

use crate::augmentation::{augment, reduce, AugmentError};
use crate::lie::{Lie, LieAllocator};
use crate::requirements::WeightedDag;
use fib_igp::loadmodel::{max_utilization, Forwarding, LinkLoads, LoadModelError};
use fib_igp::time::Dur;
use fib_igp::topology::Topology;
use fib_igp::types::{Prefix, RouterId};
use fib_netsim::flow::{FlowId, FlowInfo};
use fib_netsim::handler::{AppEvent, EventHandler};
use fib_netsim::link::LinkKey;
use fib_netsim::sim::SimContext;
use fib_telemetry::alarm::{Edge, Threshold};
use fib_telemetry::counters::CounterWidth;
use fib_telemetry::mib::{oids, Value};
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
    caps: BTreeMap<(RouterId, RouterId), f64>,
    book: BTreeMap<FlowId, FlowInfo>,
    installed: BTreeMap<Prefix, Vec<Lie>>,
    alloc: LieAllocator,
    /// The speaker's view of the network, lies included.
    view: Option<Derived>,
    /// The view without the lies: what planning works on.
    real: Option<Derived>,
    /// The last reaction per prefix, all computed on `real`.
    memo: BTreeMap<Prefix, Reaction>,
    watch: Option<ControllerHandle>,
    /// Most recent alarm edge seen this run, rendered for the audit
    /// log (cross-reference into the `alarm.*` trace series).
    last_alarm: Option<String>,
    /// The most recent plan failure not yet reported: the next audited
    /// action names it in its trigger text. Only rendered when a trace
    /// sink is installed.
    last_failure: Option<String>,
    /// Observable counters.
    pub stats: ControllerStats,
}

/// Demands as the controller books them: per prefix, `(ingress, rate)`
/// in ingress order.
type DemandBook = BTreeMap<Prefix, Vec<(RouterId, f64)>>;

/// A topology derived from the speaker's LSDB, with the per-prefix
/// forwarding state worked out on it so far. Good for as long as the
/// LSDB version it was derived at stands.
struct Derived {
    version: u64,
    topo: Topology,
    forwarding: BTreeMap<Prefix, Forwarding>,
}

impl Derived {
    fn new(version: u64, topo: Topology) -> Derived {
        Derived {
            version,
            topo,
            forwarding: BTreeMap::new(),
        }
    }

    /// [`fib_igp::loadmodel::spread`] of `book` over the topology,
    /// working out only the forwarding state no earlier call has.
    fn spread(&mut self, book: &DemandBook) -> Result<LinkLoads, LoadModelError> {
        let mut loads = LinkLoads::new();
        for (prefix, demands) in book {
            self.forwarding
                .entry(*prefix)
                .or_insert_with(|| Forwarding::new(&self.topo, *prefix))
                .push(demands, &mut loads)?;
        }
        Ok(loads)
    }
}

/// What realizing a DAG came to: the size of the candidate lie set the
/// reducer chose from, and the lies to install, in injection order and
/// under plan-local names (`reconcile` gives the real ones).
type Realized = Result<(usize, Vec<Lie>), AugmentError>;

/// [`augment`] then the Merger-style [`reduce`]: a function of the real
/// topology and the DAG alone.
fn realize_from_scratch(real: &Topology, dag: &WeightedDag) -> Realized {
    let aug = augment(real, dag, &mut LieAllocator::new())?;
    Ok((aug.lies.len(), reduce(real, dag, &aug.lies)))
}

/// One run of [`realize_from_scratch`], remembered.
struct Reaction {
    dag: WeightedDag,
    realized: Realized,
}

/// Decision context threaded into reconcile/retract so every audited
/// injection/retraction carries its trigger provenance.
struct AuditCtx {
    trigger: String,
    candidates: usize,
    predicted_max_util: f64,
    measured_max_util: f64,
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
            view: None,
            real: None,
            memo: BTreeMap::new(),
            watch: None,
            last_alarm: None,
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
            for (oid, value) in api.snmp_walk(*r, &if_out_octets) {
                let Some(&idx) = oid.0.last() else { continue };
                while pairs.next_if(|&&(i, _)| i < idx).is_some() {}
                let Some(&(_, key)) = pairs.next_if(|&&(i, _)| i == idx) else {
                    continue;
                };
                if let Value::Counter(c) = value {
                    // Besides feeding is_alarmed()/any_alarmed(),
                    // every edge lands in the run's trace (the
                    // `alarm.<from>-<to>` series steps to the edge
                    // utilization on raise, back to 0 on clear) and is
                    // remembered for audit-log cross-referencing.
                    if let Some(ev) = self.monitor.on_sample(&key, now, c) {
                        let (verb, level) = match ev.edge {
                            Edge::Raised => ("raised", ev.utilization),
                            Edge::Cleared => ("cleared", 0.0),
                        };
                        api.record(&format!("alarm.{}-{}", key.from, key.to), level);
                        self.last_alarm = Some(format!(
                            "{}->{} {verb} @{:.3}",
                            key.from, key.to, ev.utilization
                        ));
                    }
                }
            }
        }
    }

    /// Emit one lie-lifecycle audit record (free when tracing is off;
    /// the formatting only happens with a sink installed).
    fn audit(
        &mut self,
        api: &SimContext<'_>,
        action: AuditAction,
        prefix: Prefix,
        lie: &Lie,
        ctx: &AuditCtx,
    ) {
        if !fib_trace::enabled() {
            return;
        }
        let trigger = match self.last_failure.take() {
            Some(failure) => format!("{}; after {failure}", ctx.trigger),
            None => ctx.trigger.clone(),
        };
        fib_trace::audit(AuditRecord {
            sim_ns: api.now().0,
            action,
            prefix: prefix.to_string(),
            lie: lie.to_string(),
            trigger,
            candidates: ctx.candidates,
            predicted_max_util: ctx.predicted_max_util,
            measured_max_util: ctx.measured_max_util,
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

    fn reconcile(
        &mut self,
        api: &mut SimContext<'_>,
        prefix: Prefix,
        new_lies: Vec<Lie>,
        actx: &AuditCtx,
    ) {
        let old = self.installed.remove(&prefix).unwrap_or_default();
        let mut old_by_sig: BTreeMap<_, Vec<Lie>> = BTreeMap::new();
        for l in old {
            old_by_sig.entry(l.sig()).or_default().push(l);
        }
        // What `installed` will hold: a lie is in it from the moment
        // the speaker took it until the speaker took it back.
        let mut final_set: Vec<Lie> = Vec::new();
        let mut to_inject: Vec<Lie> = Vec::new();
        for l in new_lies {
            match old_by_sig.get_mut(&l.sig()).and_then(|v| v.pop()) {
                Some(kept) => final_set.push(kept), // already installed
                // A planned lie becomes one to install: only here is a
                // name spent. Without an address there is no slot to
                // buy, so the lie is left out and the next pass asks
                // again.
                None => match self.alloc.fw_addr(l.attach, l.fw.router) {
                    Ok(fw) => {
                        let fake_id = self.alloc.fake_id();
                        let named = Lie { fake_id, fw, ..l };
                        to_inject.push(named);
                        final_set.push(named);
                    }
                    Err(e) => self.plan_failed(prefix, &e),
                },
            }
        }
        // Whatever remains in old_by_sig is obsolete.
        for (_, leftovers) in old_by_sig {
            for l in leftovers {
                if !self.retract(api, prefix, &l, actx) {
                    final_set.push(l);
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
                    self.audit(api, AuditAction::Inject, prefix, l, actx);
                }
                Err(e) => {
                    self.plan_failed(prefix, &format_args!("inject of {l}: {e}"));
                    final_set.retain(|kept| kept.fake_id != l.fake_id);
                }
            }
        }
        if !final_set.is_empty() {
            self.installed.insert(prefix, final_set);
        }
    }

    /// Retract one installed lie. `false` if the speaker refused: the
    /// lie is then still installed, and the refusal is counted and
    /// named by the next audit record.
    fn retract(
        &mut self,
        api: &mut SimContext<'_>,
        prefix: Prefix,
        l: &Lie,
        actx: &AuditCtx,
    ) -> bool {
        match api.retract_fake(self.cfg.speaker, l.fake_id) {
            Ok(()) => {
                self.stats.retractions += 1;
                self.audit(api, AuditAction::Retract, prefix, l, actx);
                true
            }
            Err(e) => {
                self.plan_failed(prefix, &format_args!("retract of {l}: {e}"));
                false
            }
        }
    }

    /// Retract every lie of `prefix`; one the speaker refuses to take
    /// back stays installed, so the next pass tries again.
    fn retract_all(&mut self, api: &mut SimContext<'_>, prefix: Prefix, actx: &AuditCtx) {
        let mut lies = self.installed.remove(&prefix).unwrap_or_default();
        lies.retain(|l| !self.retract(api, prefix, l, actx));
        if !lies.is_empty() {
            self.installed.insert(prefix, lies);
        }
    }

    /// One evaluation pass, ending with a publish even when a
    /// transient makes the pass bail early — the watch snapshot and
    /// the `ctrl.lies` trace must not skip exactly the disrupted
    /// ticks a scenario wants to measure.
    fn evaluate(&mut self, api: &mut SimContext<'_>) {
        let _span = fib_trace::span(fib_trace::Phase::CtrlOptimize);
        self.evaluate_inner(api);
        self.publish(api);
    }

    /// Bring `view` and `real` up to the speaker's LSDB. `false` if
    /// the speaker is gone.
    fn refresh_topologies(&mut self, api: &SimContext<'_>) -> bool {
        let Some((all, lie_free)) = api.lsdb_versions(self.cfg.speaker) else {
            return false;
        };
        if self.view.as_ref().is_some_and(|v| v.version == all.0) {
            // The lie-free version cannot move without this one.
            return true;
        }
        let Some(view) = api.topology_view(self.cfg.speaker) else {
            return false;
        };
        if !self.real.as_ref().is_some_and(|r| r.version == lie_free) {
            self.real = Some(Derived::new(lie_free, view.without_fakes()));
            self.memo.clear();
        }
        self.view = Some(Derived::new(all.0, view));
        true
    }

    /// The lies realizing `dag` on the real topology: from the memo
    /// when the prefix's previous reaction was for this DAG (the memo
    /// never outlives the real topology it was computed on), else
    /// computed and remembered.
    fn realize(&mut self, dag: &WeightedDag) -> Realized {
        let real = &self.real.as_ref().expect("refreshed by the caller").topo;
        if let Some(reaction) = self.memo.get(&dag.prefix).filter(|m| m.dag == *dag) {
            self.stats.replayed += 1;
            // Debug builds check every hit against the computation it
            // stands for. Not under a trace sink: a trace shows, span
            // for span, what a release build does.
            if cfg!(debug_assertions) && !fib_trace::enabled() {
                let expected = realize_from_scratch(real, dag);
                assert_eq!(reaction.realized, expected, "memoised reaction for {dag}");
            }
            return reaction.realized.clone();
        }
        let realized = realize_from_scratch(real, dag);
        let reaction = Reaction {
            dag: dag.clone(),
            realized: realized.clone(),
        };
        self.memo.insert(dag.prefix, reaction);
        realized
    }

    fn evaluate_inner(&mut self, api: &mut SimContext<'_>) {
        self.stats.evaluations += 1;
        if !self.refresh_topologies(api) {
            return;
        }
        let by_prefix = self.demands_by_prefix();
        let (Some(view), Some(real)) = (&mut self.view, &mut self.real) else {
            return;
        };

        // Predicted utilization on the *current* forwarding state (the
        // controller's LSDB already contains its own lies).
        let predicted = match view.spread(&by_prefix) {
            Ok(loads) => max_utilization(&loads, &self.caps),
            Err(_) => {
                // Transient (convergence in progress).
                self.stats.spread_failures += 1;
                return;
            }
        };
        // Natural (lie-free) utilization decides retraction. It does
        // not depend on the prefix under consideration, so compute it
        // once per pass, not once per prefix.
        let natural = match real.spread(&by_prefix) {
            Ok(loads) => max_utilization(&loads, &self.caps),
            Err(_) => {
                self.stats.spread_failures += 1;
                return;
            }
        };
        let measured = if self.cfg.use_snmp {
            self.monitor.max_utilization()
        } else {
            0.0
        };
        let alarmed = self.cfg.use_snmp && self.monitor.any_alarmed();
        let congested = (self.cfg.predictive && predicted >= self.cfg.util_hi)
            || alarmed
            || measured >= self.cfg.util_hi;
        // Trigger provenance for the audit log: which condition made
        // this pass act, in precedence order. Only rendered when a
        // trace sink is installed.
        let trigger = if congested && fib_trace::enabled() {
            if self.cfg.predictive && predicted >= self.cfg.util_hi {
                format!("predicted {predicted:.3} >= hi {:.3}", self.cfg.util_hi)
            } else if alarmed {
                format!(
                    "alarm {}",
                    self.last_alarm.as_deref().unwrap_or("(edge before start)")
                )
            } else {
                format!("measured {measured:.3} >= hi {:.3}", self.cfg.util_hi)
            }
        } else {
            String::new()
        };

        let prefixes: Vec<Prefix> = {
            let mut v: Vec<Prefix> = by_prefix.keys().copied().collect();
            for p in self.installed.keys() {
                if !v.contains(p) {
                    v.push(*p);
                }
            }
            v.sort();
            v
        };

        for prefix in prefixes {
            if self.installed.contains_key(&prefix) && natural <= self.cfg.util_lo {
                let actx = AuditCtx {
                    trigger: if fib_trace::enabled() {
                        format!("natural {natural:.3} <= lo {:.3}", self.cfg.util_lo)
                    } else {
                        String::new()
                    },
                    candidates: 0,
                    predicted_max_util: natural,
                    measured_max_util: measured,
                };
                self.retract_all(api, prefix, &actx);
                continue;
            }
            let Some(dem) = by_prefix.get(&prefix).filter(|_| congested) else {
                continue;
            };
            self.stats.reactions += 1;
            let real = &self.real.as_ref().expect("refreshed above").topo;
            let plan = match crate::optimizer::plan_paths(
                real,
                prefix,
                dem,
                &self.caps,
                self.cfg.target_util,
                self.cfg.slot_budget,
            ) {
                Ok(p) => p,
                Err(e) => {
                    self.plan_failed(prefix, &e);
                    continue;
                }
            };
            // The augmentation's full lie set is the candidate set the
            // reducer chooses from; the plan's own load map gives the
            // predicted post-action max-utilization.
            let (candidates, lies) = match self.realize(&plan.dag) {
                Ok(r) => r,
                Err(e) => {
                    self.plan_failed(prefix, &e);
                    continue;
                }
            };
            let actx = AuditCtx {
                trigger: trigger.clone(),
                candidates,
                predicted_max_util: max_utilization(&plan.loads, &self.caps),
                measured_max_util: measured,
            };
            self.reconcile(api, prefix, lies, &actx);
        }
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

    /// Run to `at`, then start a flow there from host code.
    fn start_at(sim: &mut Sim, at: Timestamp, spec: FlowSpec) -> fib_netsim::flow::FlowId {
        sim.run_until(at);
        sim.ctx().start_flow(spec)
    }

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Triangle with a slow alternative: 1-2 (1), 2-3 (1), 1-3 (5).
    /// Prefix at r3; capacity 1 MB/s per link. Controller at r100 on
    /// r2.
    fn sim_with_controller(cfg: ControllerConfig) -> Sim {
        let mut sim = Sim::new(SimConfig::default());
        for i in 1..=3 {
            sim.add_router(r(i));
        }
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(2), r(3), Metric(1), 1e6));
        sim.add_link(LinkSpec::new(r(1), r(3), Metric(5), 1e6));
        sim.announce_prefix(r(3), Prefix::net24(1));
        sim.add_controller_speaker(r(100), r(2));
        sim.add_app(Box::new(FibbingController::new(cfg)));
        sim
    }

    #[test]
    fn controller_reacts_to_predicted_congestion() {
        let cfg = ControllerConfig::new(r(100));
        let mut sim = sim_with_controller(cfg);
        // 12 video flows of 100 kB/s from r1: 1.2 MB/s > 1 MB/s link.
        sim.start();
        for i in 0..12 {
            start_at(
                &mut sim,
                Timestamp::from_secs(10) + Dur::from_millis(i * 10),
                FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
            );
        }
        sim.run_until(Timestamp::from_secs(30));
        // r1 must have gained an extra ECMP slot toward r3.
        let hops = sim.ctx().fib_nexthops(r(1), Prefix::net24(1));
        assert!(
            hops.len() >= 2,
            "expected extra ECMP slots at r1, got {hops:?}"
        );
        assert!(hops.iter().any(|h| h.router == r(3)));
        // No link should be overloaded any more.
        let l12 = sim.link_rate(r(1), r(2)).unwrap();
        let l13 = sim.link_rate(r(1), r(3)).unwrap();
        assert!(l12 <= 1e6 + 1.0 && l13 <= 1e6 + 1.0);
        assert!(
            (l12 + l13 - 1.2e6).abs() < 1.0,
            "all traffic must be delivered: {l12} + {l13}"
        );
    }

    #[test]
    fn controller_retracts_when_demand_subsides() {
        let cfg = ControllerConfig::new(r(100));
        let mut sim = sim_with_controller(cfg);
        sim.start();
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(start_at(
                &mut sim,
                Timestamp::from_secs(10) + Dur::from_millis(i * 10),
                FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
            ));
        }
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
    fn watch_handle_tracks_reactions_and_lies() {
        let cfg = ControllerConfig::new(r(100));
        let mut ctl = FibbingController::new(cfg.clone());
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
        sim.start();
        sim.run_until(Timestamp::from_secs(9));
        assert_eq!(watch.lock().installed_lies, 0);
        for i in 0..12 {
            start_at(
                &mut sim,
                Timestamp::from_secs(10) + Dur::from_millis(i * 10),
                FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
            );
        }
        sim.run_until(Timestamp::from_secs(30));
        let snap = *watch.lock();
        assert!(snap.installed_lies >= 1, "lies visible through the watch");
        assert!(snap.stats.injections >= 1);
        assert!(snap.stats.evaluations > 0);
        // The traced series steps from 0 to the installed count.
        let series = sim.recorder().series("ctrl.lies");
        assert!(!series.is_empty());
        assert_eq!(series.first().map(|(_, v)| *v), Some(0.0));
        assert!(series.iter().any(|(_, v)| *v >= 1.0));
    }

    #[test]
    fn capacity_degradation_is_noticed_on_refresh() {
        // One flow of 500 kB/s over a 1 MB/s shortest path: fine —
        // until the path's capacity is scripted down to 600 kB/s and
        // predicted utilization crosses the threshold.
        let cfg = ControllerConfig::new(r(100));
        let mut sim = sim_with_controller(cfg);
        sim.schedule(
            Timestamp::from_secs(20),
            Event::LinkCapacity {
                a: r(1),
                b: r(2),
                capacity: 6e5,
            },
        );
        sim.start();
        for i in 0..5 {
            start_at(
                &mut sim,
                Timestamp::from_secs(10) + Dur::from_millis(i * 10),
                FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
            );
        }
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
        let cfg = ControllerConfig::new(r(100));
        let mut sim = sim_with_controller(cfg);
        sim.start();
        start_at(
            &mut sim,
            Timestamp::from_secs(10),
            FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
        );
        sim.run_until(Timestamp::from_secs(30));
        let hops = sim.ctx().fib_nexthops(r(1), Prefix::net24(1));
        assert_eq!(hops.len(), 1, "no lies expected, got {hops:?}");
    }

    #[test]
    fn snmp_only_controller_reacts_later_but_reacts() {
        let mut cfg = ControllerConfig::new(r(100));
        cfg.predictive = false; // only the SNMP path
        let mut sim = sim_with_controller(cfg);
        sim.start();
        for i in 0..12 {
            start_at(
                &mut sim,
                Timestamp::from_secs(10) + Dur::from_millis(i * 10),
                FlowSpec::new(r(1), Prefix::net24(1)).with_cap(1e5),
            );
        }
        sim.run_until(Timestamp::from_secs(13));
        // Too early: counters haven't shown sustained overload yet.
        assert_eq!(sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len(), 1);
        sim.run_until(Timestamp::from_secs(40));
        assert!(
            sim.ctx().fib_nexthops(r(1), Prefix::net24(1)).len() >= 2,
            "SNMP path must eventually react"
        );
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
                self.ctl.view.as_ref().expect("evaluated").version,
                self.ctl.real.as_ref().expect("evaluated").version,
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
        assert!(!h.ctl.real.as_ref().unwrap().forwarding.is_empty());
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
        fib_trace::install(Box::new(fib_trace::AggSink::new()));
        h.evaluate();
        let sink = fib_trace::take()
            .expect("installed above")
            .into_any()
            .downcast::<fib_trace::AggSink>()
            .expect("the sink that was installed");
        assert_eq!((h.ctl.stats.injections, h.ctl.stats.failures), (5, 1));
        assert_eq!(h.ctl.installed_count(), 5, "no phantom in the books");
        let via_r3 = |l: &&Lie| l.fw.router == r(3);
        assert_eq!(h.ctl.installed_lies(P1).iter().filter(via_r3).count(), 2);
        let triggers: Vec<&str> = sink.audits().iter().map(|a| a.trigger.as_str()).collect();
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
        let mut h = ByHand::crowded();
        // An evaluation stops at the LSDB it cannot read long before it
        // injects, so plan P1 the way a pass would and hand the lies to
        // `reconcile` under a speaker id the simulator does not know.
        let real = h.sim.ctx().topology_view(r(100)).expect("speaker");
        let dem = [(r(1), 1.2e6)];
        let plan = crate::optimizer::plan_paths(&real, P1, &dem, &h.ctl.caps, 0.7, 8).unwrap();
        let (candidates, lies) = realize_from_scratch(&real, &plan.dag).unwrap();
        let planned = lies.len() as u64;
        assert!(planned > 0);
        h.ctl.cfg.speaker = r(101);
        let actx = AuditCtx {
            trigger: String::new(),
            candidates,
            predicted_max_util: 0.0,
            measured_max_util: 0.0,
        };
        h.ctl.reconcile(&mut h.sim.ctx(), P1, lies, &actx);
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
        fib_trace::install(Box::new(fib_trace::AggSink::new()));
        assert_eq!(h.evaluate(), (0, 0));
        let sink = fib_trace::take()
            .expect("installed above")
            .into_any()
            .downcast::<fib_trace::AggSink>()
            .expect("the sink that was installed");
        assert_eq!(h.ctl.installed_lies(P1), [phantom], "still in the books");
        assert_eq!((h.ctl.stats.retractions, h.ctl.stats.failures), (told, 1));
        let triggers: Vec<&str> = sink.audits().iter().map(|a| a.trigger.as_str()).collect();
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

        fib_trace::install(Box::new(fib_trace::AggSink::new()));
        h.ctl.plan_failed(P2, &AugmentError::NoFixpoint);
        h.evaluate();
        let sink = fib_trace::take()
            .expect("installed above")
            .into_any()
            .downcast::<fib_trace::AggSink>()
            .expect("the sink that was installed");
        let triggers: Vec<&str> = sink.audits().iter().map(|a| a.trigger.as_str()).collect();
        assert!(triggers.len() >= 2, "{triggers:?}");
        assert_eq!(
            triggers[0],
            "predicted 1.500 >= hi 0.800; after failed plan for 10.0.2.0/24: \
             pin cascade did not stabilize"
        );
        assert_eq!(triggers[1], "predicted 1.500 >= hi 0.800");
        assert_eq!(h.ctl.stats.failures, 2);
    }

    #[test]
    fn a_memoised_failure_is_answered_from_the_memo_and_spends_nothing() {
        // Line 1 - 2 - 3 - 4, prefix at 4; r2 is also to use r1, whose
        // own path returns through r2. The augmentation makes r2's lies
        // and only then finds the composed loop.
        let mut topo = Topology::new();
        for i in 1..=4 {
            topo.add_router(r(i));
        }
        for i in 1..=3 {
            topo.add_link_sym(r(i), r(i + 1), Metric(1)).unwrap();
        }
        topo.announce_prefix(r(4), P1, Metric::ZERO).unwrap();
        let mut dag = WeightedDag::new(P1);
        dag.require(r(2), &[(r(3), 1), (r(1), 1)]);

        let mut ctl = FibbingController::new(ControllerConfig::new(r(100)));
        ctl.real = Some(Derived::new(0, topo));
        let computed = ctl.realize(&dag);
        assert!(matches!(computed, Err(AugmentError::VerificationFailed(_))));
        let replayed = ctl.realize(&dag);
        assert_eq!(replayed, computed);
        assert_eq!(ctl.stats.replayed, 1);
        assert_eq!(ctl.alloc, LieAllocator::new());
    }

    #[test]
    fn memoised_reactions_match_the_computation_on_random_graphs() {
        // Random Waxman graphs, two prefixes, viewers starting and
        // stopping at random ingresses; after each the controller
        // re-plans every prefix with demand, as a congested pass does.
        // Whatever `realize` answers — computed or replayed, plan or
        // failure — must equal augment + reduce run from scratch, and
        // must not touch the controller's allocator. (Debug builds
        // repeat the comparison inside `realize`, for every test that
        // drives a controller.)
        use fib_igp::builders::waxman;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2016);
        let (mut reactions, mut replayed, mut failed) = (0u64, 0u64, 0u64);
        for _case in 0..10 {
            let n = rng.gen_range(10..=16u32);
            let mut topo = waxman(&mut rng, n, 0.5, 0.3, 6);
            let prefixes = [P1, P2];
            for p in prefixes {
                let sink = RouterId(rng.gen_range(1..=n));
                topo.announce_prefix(sink, p, Metric::ZERO).unwrap();
            }
            let caps: BTreeMap<(RouterId, RouterId), f64> =
                topo.all_links().map(|(a, b, _)| ((a, b), 1e6)).collect();
            let mut ctl = FibbingController::new(ControllerConfig::new(r(100)));
            ctl.real = Some(Derived::new(0, topo.clone()));
            let mut viewers: Vec<(Prefix, RouterId)> = Vec::new();
            for _step in 0..40 {
                if viewers.is_empty() || rng.gen_bool(0.6) {
                    let dst = prefixes[rng.gen_range(0..2usize)];
                    viewers.push((dst, RouterId(rng.gen_range(1..=n))));
                } else {
                    viewers.swap_remove(rng.gen_range(0..viewers.len()));
                }
                for prefix in prefixes {
                    let mut dem: BTreeMap<RouterId, f64> = BTreeMap::new();
                    for (_, src) in viewers.iter().filter(|(dst, _)| *dst == prefix) {
                        *dem.entry(*src).or_insert(0.0) += 2.5e5;
                    }
                    let dem: Vec<(RouterId, f64)> = dem.into_iter().collect();
                    let Ok(plan) = crate::optimizer::plan_paths(&topo, prefix, &dem, &caps, 0.6, 8)
                    else {
                        continue;
                    };
                    let expected = realize_from_scratch(&topo, &plan.dag);
                    let got = ctl.realize(&plan.dag);
                    assert_eq!(got, expected, "{}", plan.dag);
                    assert_eq!(ctl.alloc, LieAllocator::new(), "after {}", plan.dag);
                    reactions += 1;
                    failed += u64::from(got.is_err());
                }
            }
            replayed += ctl.stats.replayed;
        }
        println!("{reactions} reactions, {replayed} replayed, {failed} failed");
        assert!(reactions >= 400, "{reactions} reactions");
        assert!(
            replayed * 4 >= reactions && replayed < reactions,
            "{replayed} of {reactions} replayed: both paths must be exercised"
        );
    }
}
