//! Composing and executing a scenario.
//!
//! [`build`] turns a validated [`ScenarioSpec`] into a ready
//! [`ScenarioRun`]: a [`Sim`] populated with the topology, an optional
//! Fibbing controller, the video session schedule, a utilization
//! probe, and the scripted link faults. [`ScenarioRun`] then drives
//! the deterministic event loop and condenses the outcome into a
//! [`ScenarioReport`].
//!
//! Sessions are *streamed*, not materialized: each workload entry
//! becomes one compact [`Wave`] (server, prefix, asset, and the
//! arrival instants drawn from the seeded RNG), and the driver builds
//! a player as its start time arrives. A 2 000-session flash crowd
//! costs sixteen bytes per pending session — the difference that lets
//! `metro_core`-scale scenarios run.
//!
//! Determinism: the only RNG streams are derived from the scenario
//! seed (one for the topology, one for the workloads), every arrival
//! instant is drawn before the simulation starts, in spec order, and
//! the simulator itself is a deterministic discrete-event system.

use crate::report::ScenarioReport;
use crate::spec::{ControllerSpec, EventKind, ScenarioSpec, SpecError, WorkloadSpec};
use crate::topo::build_topology;
use fib_core::prelude::{ControllerConfig, ControllerHandle, FibbingController};
use fib_igp::time::{Dur, Timestamp};
use fib_igp::topology::Topology;
use fib_igp::types::{Prefix, RouterId};
use fib_netsim::events::Event;
use fib_netsim::handler::{AppEvent, EventHandler};
use fib_netsim::link::LinkSpec;
use fib_netsim::sim::{Sim, SimConfig, SimContext};
use fib_video::prelude::{
    batch_starts, diurnal_starts, paper_schedule, poisson_starts, summarize, QoeHandle,
    VideoWorkload, Wave,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Router id of the scenario's controller speaker (outside the id
/// range any generator produces).
pub const CONTROLLER_ID: RouterId = RouterId(10_000);

/// Residue of a deleted option: the simulator has one settle rule
/// (see `fib_netsim::sim`), so there is nothing left to select. The
/// type and [`RunOptions::settle`] stay only because `bench/`, which
/// changes in `benchmark` PRs alone, names `SettleMode::Lazy`; both go
/// in the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleMode {
    /// The one settle rule.
    #[default]
    Lazy,
}

/// Options overriding spec defaults at run time (CLI flags, sweep
/// cells).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Override the spec's seed.
    pub seed: Option<u64>,
    /// Override the spec's horizon (seconds).
    pub horizon_secs: Option<f64>,
    /// Run without the controller even if the spec declares one (the
    /// sweep engine's paired-baseline cells; everything else — seed,
    /// topology, workload draws — stays identical, so a report delta
    /// against the controller-on twin isolates the controller).
    pub disable_controller: bool,
    /// Inert: read by nothing (see [`SettleMode`]).
    pub settle: SettleMode,
    /// Arm the per-settle forwarding-loop probe (read-only — it never
    /// changes run artifacts, only fills `fwd_loop_settles` and the
    /// sim's violation log). Armed automatically for specs carrying an
    /// `[expect]` stanza; the adversary explorer arms it explicitly.
    pub check_loops: bool,
}

/// A composed, started scenario, ready to advance.
pub struct ScenarioRun {
    /// The underlying simulator (mid-run inspection welcome).
    pub sim: Sim,
    /// Live per-session QoE reports.
    pub qoe: QoeHandle,
    /// Live controller snapshot (`None` for baselines).
    pub ctrl: Option<ControllerHandle>,
    name: String,
    seed: u64,
    horizon_secs: f64,
    routers: usize,
    links: usize,
    sessions: usize,
    stimuli: Vec<f64>,
}

fn fail<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// Derive the workload RNG stream from the scenario seed (decoupled
/// from the topology stream so adding a workload never reshapes the
/// graph).
fn workload_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

fn at_secs(s: f64) -> Timestamp {
    Timestamp::ZERO + Dur::from_secs_f64(s)
}

/// The sampling probe: an [`EventHandler`] recording aggregate link
/// utilization (`util.max`, `util.mean`) every tick, data links only.
struct UtilProbe {
    exclude: Option<RouterId>,
}

impl UtilProbe {
    fn sample(&mut self, api: &mut SimContext<'_>) {
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        // `links()` carries the offered rate inline, so one arena pass
        // yields the whole utilization picture — no per-link lookups,
        // no snapshot Vec.
        for info in api.links() {
            if let Some(x) = self.exclude {
                if info.key.from == x || info.key.to == x {
                    continue;
                }
            }
            if !info.up || info.capacity <= 0.0 {
                continue;
            }
            let util = info.rate / info.capacity;
            max = max.max(util);
            sum += util;
            count += 1;
        }
        api.record("util.max", max);
        api.record(
            "util.mean",
            if count > 0 { sum / count as f64 } else { 0.0 },
        );
    }
}

impl EventHandler for UtilProbe {
    fn name(&self) -> &str {
        "util-probe"
    }

    fn tick_interval(&self) -> Option<Dur> {
        Some(Dur::from_millis(100))
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
        if let AppEvent::Tick = ev {
            self.sample(ctx);
        }
    }
}

/// Check every router a spec references exists in the topology.
fn check_router(topo: &Topology, id: u32, what: &str) -> Result<RouterId, SpecError> {
    let r = RouterId(id);
    if topo.contains(r) && r.is_real() {
        Ok(r)
    } else {
        fail(format!("{what} references unknown router {id}"))
    }
}

fn check_link(topo: &Topology, a: u32, b: u32, what: &str) -> Result<(), SpecError> {
    check_router(topo, a, what)?;
    check_router(topo, b, what)?;
    if topo.has_link(RouterId(a), RouterId(b)) {
        Ok(())
    } else {
        fail(format!("{what} references unknown link {a}-{b}"))
    }
}

/// Compose a scenario into a started [`ScenarioRun`].
pub fn build(spec: &ScenarioSpec, opts: RunOptions) -> Result<ScenarioRun, SpecError> {
    let seed = opts.seed.unwrap_or(spec.seed);
    if spec.pin_seed && seed != spec.seed {
        return fail(format!(
            "scenario `{}` pins seed {} (its fault script names links of \
             that seed's graph); run it without --seed",
            spec.name, spec.seed
        ));
    }
    let horizon_secs = opts.horizon_secs.unwrap_or(spec.horizon_secs);
    if horizon_secs <= 0.0 {
        return fail("horizon must be positive");
    }

    let mut topo_rng = StdRng::seed_from_u64(seed);
    let topo = build_topology(&spec.topology, &mut topo_rng);
    topo.validate()
        .map_err(|e| SpecError(format!("generated topology invalid: {e:?}")))?;

    // Sinks and their prefixes.
    let sinks = spec.effective_sinks();
    if sinks.is_empty() {
        return fail("scenario needs at least one sink");
    }
    if sinks.len() > u8::MAX as usize {
        return fail("at most 255 sinks are supported");
    }
    for s in &sinks {
        check_router(&topo, s.0, "sinks")?;
    }
    let prefix_of = |dst: usize| -> Result<Prefix, SpecError> {
        if dst < sinks.len() {
            Ok(Prefix::net24((dst + 1) as u8))
        } else {
            fail(format!(
                "dst index {dst} out of range (scenario has {} sinks)",
                sinks.len()
            ))
        }
    };

    // World: routers in ascending id order, links as sorted symmetric
    // pairs, uniform capacity.
    let mut sim = Sim::new(SimConfig {
        check_loops: opts.check_loops || spec.expect.is_some(),
    });
    for r in topo.routers() {
        if r == CONTROLLER_ID {
            return fail(format!("router id {} is reserved for the controller", r.0));
        }
        sim.add_router(r);
    }
    let mut links = 0usize;
    for (a, b, m) in topo.all_links() {
        if a < b {
            sim.add_link(LinkSpec::new(a, b, m, spec.capacity));
            links += 1;
        }
    }
    for (i, sink) in sinks.iter().enumerate() {
        sim.announce_prefix(*sink, Prefix::net24((i + 1) as u8));
    }
    for (a, b) in &spec.trace_links {
        check_link(&topo, *a, *b, "trace_links")?;
        sim.sample_link(&format!("r{a}-r{b}"), RouterId(*a), RouterId(*b));
    }

    // Controller (before the workload driver: apps hear a flow
    // notification in the order they were added).
    let controller = if opts.disable_controller {
        None
    } else {
        spec.controller.as_ref()
    };
    let ctrl = match controller {
        None => None,
        Some(c) => {
            let attach = check_router(&topo, c.attach, "controller.attach")?;
            sim.add_controller_speaker(CONTROLLER_ID, attach);
            let mut app = FibbingController::new(controller_config(c));
            let handle = app.watch();
            sim.add_app(Box::new(app));
            Some(handle)
        }
    };

    // The session schedule: one [`Wave`] per workload entry / demand
    // event (three for the paper's). Arrival instants are drawn from
    // the workload RNG stream here, in spec order, before the
    // simulation starts.
    let mut wl_rng = StdRng::seed_from_u64(workload_seed(seed));
    let mut waves: Vec<Wave> = Vec::new();
    let mut stimuli: Vec<f64> = Vec::new();
    for w in &spec.workloads {
        match w {
            WorkloadSpec::Paper {
                src1,
                src2,
                rate,
                video_secs,
            } => {
                let s1 = check_router(&topo, *src1, "workload.src1")?;
                let s2 = check_router(&topo, *src2, "workload.src2")?;
                let paper = paper_schedule(s1, s2, prefix_of(0)?, *rate, *video_secs);
                stimuli.extend(paper.iter().map(|w| w.starts[0].as_secs_f64()));
                waves.extend(paper);
            }
            WorkloadSpec::Constant {
                at,
                src,
                n,
                rate,
                video_secs,
                dst,
            } => {
                let src = check_router(&topo, *src, "workload.src")?;
                let dst = prefix_of(*dst)?;
                let starts = batch_starts(at_secs(*at), *n);
                waves.push(Wave::constant(src, dst, *rate, *video_secs, starts));
                stimuli.push(*at);
            }
            WorkloadSpec::Poisson {
                start,
                mean_gap_secs,
                n,
                src,
                rate,
                video_secs,
                dst,
            } => {
                let src = check_router(&topo, *src, "workload.src")?;
                let dst = prefix_of(*dst)?;
                let gap = Dur::from_secs_f64(*mean_gap_secs);
                let starts = poisson_starts(&mut wl_rng, at_secs(*start), gap, *n);
                waves.push(Wave::constant(src, dst, *rate, *video_secs, starts));
                stimuli.push(*start);
            }
            WorkloadSpec::Diurnal {
                period_secs,
                peak_per_sec,
                trough_per_sec,
                src,
                rate,
                video_secs,
                dst,
            } => {
                let src = check_router(&topo, *src, "workload.src")?;
                let dst = prefix_of(*dst)?;
                let starts = diurnal_starts(
                    &mut wl_rng,
                    horizon_secs,
                    *period_secs,
                    *peak_per_sec,
                    *trough_per_sec,
                );
                waves.push(Wave::constant(src, dst, *rate, *video_secs, starts));
                // A continuous process, not a discrete stimulus.
            }
        }
    }
    for e in &spec.events {
        match &e.kind {
            EventKind::FailLink { a, b } => {
                check_link(&topo, *a, *b, "fail_link event")?;
                sim.schedule(
                    at_secs(e.at),
                    Event::LinkAdmin {
                        a: RouterId(*a),
                        b: RouterId(*b),
                        up: false,
                    },
                );
            }
            EventKind::RestoreLink { a, b } => {
                check_link(&topo, *a, *b, "restore_link event")?;
                sim.schedule(
                    at_secs(e.at),
                    Event::LinkAdmin {
                        a: RouterId(*a),
                        b: RouterId(*b),
                        up: true,
                    },
                );
            }
            EventKind::SetCapacity { a, b, capacity } => {
                check_link(&topo, *a, *b, "set_capacity event")?;
                sim.schedule(
                    at_secs(e.at),
                    Event::LinkCapacity {
                        a: RouterId(*a),
                        b: RouterId(*b),
                        capacity: *capacity,
                    },
                );
            }
            EventKind::Surge {
                src,
                n,
                rate,
                video_secs,
                dst,
            } => {
                let src = check_router(&topo, *src, "surge event")?;
                let dst = prefix_of(*dst)?;
                let starts = batch_starts(at_secs(e.at), *n);
                waves.push(Wave::constant(src, dst, *rate, *video_secs, starts));
            }
            EventKind::FlashCrowd {
                src,
                n,
                mean_gap_secs,
                rate,
                video_secs,
                dst,
            } => {
                let src = check_router(&topo, *src, "flash_crowd event")?;
                let dst = prefix_of(*dst)?;
                let gap = Dur::from_secs_f64(*mean_gap_secs);
                let starts = poisson_starts(&mut wl_rng, at_secs(e.at), gap, *n);
                waves.push(Wave::constant(src, dst, *rate, *video_secs, starts));
            }
        }
        // Every scripted event is a stimulus.
        stimuli.push(e.at);
    }
    let sessions = waves.iter().map(|w| w.starts.len()).sum();
    let (driver, qoe) = VideoWorkload::new(waves);
    sim.add_app(Box::new(driver));
    sim.add_app(Box::new(UtilProbe {
        exclude: ctrl.as_ref().map(|_| CONTROLLER_ID),
    }));

    stimuli.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    stimuli.dedup();

    sim.start();
    Ok(ScenarioRun {
        sim,
        qoe,
        ctrl,
        name: spec.name.clone(),
        seed,
        horizon_secs,
        routers: topo.router_count(),
        links,
        sessions,
        stimuli,
    })
}

fn controller_config(c: &ControllerSpec) -> ControllerConfig {
    let mut cfg = ControllerConfig::new(CONTROLLER_ID);
    cfg.target_util = c.target_util;
    cfg.util_hi = c.util_hi;
    cfg.util_lo = c.util_lo;
    cfg.slot_budget = c.slot_budget;
    cfg.default_flow_rate = c.default_flow_rate;
    cfg.predictive = c.predictive;
    cfg.use_snmp = c.use_snmp;
    cfg
}

impl ScenarioRun {
    /// Advance simulated time to `secs` (for mid-run inspection, e.g.
    /// checking installed plans at a milestone).
    pub fn run_until_secs(&mut self, secs: f64) {
        self.sim.run_until(at_secs(secs));
    }

    /// Seed in effect (after overrides).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Horizon in effect (after overrides).
    pub fn horizon_secs(&self) -> f64 {
        self.horizon_secs
    }

    /// Run to the horizon and condense the outcome.
    pub fn finish(self) -> ScenarioReport {
        self.condense(true)
    }

    /// [`finish`](Self::finish), rendering the recorder into `trace_csv`
    /// only `with_trace` (a sweep cell keeps no trace, so it renders
    /// none).
    pub(crate) fn condense(mut self, with_trace: bool) -> ScenarioReport {
        self.run_until_secs(self.horizon_secs);
        let stats = self.sim.stats();
        let rec = self.sim.recorder();
        let max_util = rec.max("util.max").unwrap_or(0.0);
        let mean_util = {
            let pts = rec.series("util.mean");
            if pts.is_empty() {
                0.0
            } else {
                pts.iter().map(|(_, v)| *v).sum::<f64>() / pts.len() as f64
            }
        };
        let lies = rec.series("ctrl.lies");
        let peak_lies = lies.iter().map(|(_, v)| *v).fold(0.0f64, f64::max) as u64;
        let final_lies = lies.last().map(|(_, v)| *v).unwrap_or(0.0) as u64;
        // Reaction latency: first moment a lie is installed, measured
        // from the most recent stimulus at or before it.
        let reaction_secs = lies.iter().find(|(_, v)| *v > 0.0).map(|(t, _)| {
            let stim = self
                .stimuli
                .iter()
                .copied()
                .filter(|s| *s <= *t)
                .fold(0.0f64, f64::max);
            t - stim
        });
        let snap = self.ctrl.as_ref().map(|h| *h.lock());
        let qoe = summarize(&self.qoe.reports());
        ScenarioReport {
            name: self.name.clone(),
            seed: self.seed,
            horizon_secs: self.horizon_secs,
            routers: self.routers,
            links: self.links,
            sessions: self.sessions,
            max_util,
            mean_util,
            peak_lies,
            final_lies,
            injections: snap.map(|s| s.stats.injections).unwrap_or(0),
            retractions: snap.map(|s| s.stats.retractions).unwrap_or(0),
            reactions: snap.map(|s| s.stats.reactions).unwrap_or(0),
            reaction_secs,
            unroutable_flow_secs: stats.unroutable_flow_secs,
            fwd_loop_settles: stats.fwd_loop_settles,
            ctrl_pkts: stats.ctrl_pkts,
            ctrl_bytes: stats.ctrl_bytes,
            qoe,
            trace_csv: if with_trace {
                rec.to_csv()
            } else {
                String::new()
            },
        }
    }
}

/// Build and run a scenario end to end.
pub fn run(spec: &ScenarioSpec, opts: RunOptions) -> Result<ScenarioReport, SpecError> {
    Ok(build(spec, opts)?.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    /// A deliberately tiny scenario: 3-router triangle with a slow
    /// detour, a surge that overloads the shortest path, controller
    /// on. Fast enough for debug-mode tests.
    const TINY: &str = r#"
name = "tiny"
description = "triangle overload"
horizon_secs = 30.0
seed = 1
capacity = 1e6
sinks = [3]
trace_links = ["1-2"]

[topology]
kind = "ring"
n = 3

[controller]
attach = 2
default_flow_rate = 100000.0

[[workload]]
kind = "constant"
at = 10.0
src = 1
n = 12
rate = 1e5
video_secs = 60.0
"#;

    #[test]
    fn tiny_scenario_runs_and_reports() {
        let spec = ScenarioSpec::from_toml_str(TINY).unwrap();
        let report = run(&spec, RunOptions::default()).unwrap();
        assert_eq!(report.name, "tiny");
        assert_eq!(report.routers, 3);
        assert_eq!(report.links, 3);
        assert_eq!(report.sessions, 12);
        assert!(report.max_util > 0.5, "load visible: {}", report.max_util);
        assert!(report.peak_lies >= 1, "controller reacted");
        assert!(report.reaction_secs.is_some());
        assert!(report.qoe.sessions == 12);
        assert!(report.trace_csv.contains("r1-r2"));
        assert!(report.trace_csv.contains("ctrl.lies"));
        assert!(report.trace_csv.contains("util.max"));
    }

    #[test]
    fn same_seed_byte_identical_reports() {
        let spec = ScenarioSpec::from_toml_str(TINY).unwrap();
        let a = run(&spec, RunOptions::default()).unwrap();
        let b = run(&spec, RunOptions::default()).unwrap();
        assert_eq!(a.summary_csv(), b.summary_csv());
        assert_eq!(a.trace_csv, b.trace_csv);
    }

    #[test]
    fn overrides_apply() {
        let spec = ScenarioSpec::from_toml_str(TINY).unwrap();
        let run = build(
            &spec,
            RunOptions {
                seed: Some(99),
                horizon_secs: Some(12.0),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.seed(), 99);
        assert!((run.horizon_secs() - 12.0).abs() < 1e-12);
        let report = run.finish();
        assert_eq!(report.seed, 99);
        assert!((report.horizon_secs - 12.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_without_controller() {
        let src = TINY
            .replace("[controller]\nattach = 2\ndefault_flow_rate = 100000.0", "")
            .replace("name = \"tiny\"", "name = \"tiny-base\"");
        let spec = ScenarioSpec::from_toml_str(&src).unwrap();
        let report = run(&spec, RunOptions::default()).unwrap();
        assert_eq!(report.peak_lies, 0);
        assert_eq!(report.injections, 0);
        assert!(report.reaction_secs.is_none());
        assert!(report.max_util > 0.9, "uncontrolled overload saturates");
    }

    #[test]
    fn pinned_seed_rejects_overrides() {
        let pinned = TINY.replace("seed = 1", "seed = 1\npin_seed = true");
        let spec = ScenarioSpec::from_toml_str(&pinned).unwrap();
        // The spec's own seed (explicit or defaulted) is fine.
        assert!(build(
            &spec,
            RunOptions {
                seed: Some(1),
                horizon_secs: Some(5.0),
                ..RunOptions::default()
            },
        )
        .is_ok());
        // Any other seed is rejected, loudly.
        let err = match build(
            &spec,
            RunOptions {
                seed: Some(2),
                ..RunOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("pinned seed must reject overrides"),
        };
        assert!(err.to_string().contains("pins seed"), "{err}");
        // Unpinned specs still take overrides.
        let spec = ScenarioSpec::from_toml_str(TINY).unwrap();
        assert!(build(
            &spec,
            RunOptions {
                seed: Some(2),
                horizon_secs: Some(5.0),
                ..RunOptions::default()
            },
        )
        .is_ok());
    }

    #[test]
    fn disable_controller_builds_a_true_baseline_twin() {
        let spec = ScenarioSpec::from_toml_str(TINY).unwrap();
        let opts = RunOptions {
            disable_controller: true,
            ..RunOptions::default()
        };
        let base = run(&spec, opts).unwrap();
        assert_eq!(base.peak_lies, 0, "no controller, no lies");
        assert_eq!(base.injections, 0);
        // Same seed, same workload draws: the twin sees the identical
        // schedule, so the delta against the controller-on run is
        // attributable to the controller alone.
        let on = run(&spec, RunOptions::default()).unwrap();
        assert_eq!(base.sessions, on.sessions);
        assert!(
            on.qoe.mean_score >= base.qoe.mean_score,
            "controller must not hurt QoE here: on={} base={}",
            on.qoe.mean_score,
            base.qoe.mean_score
        );
    }

    #[test]
    fn bad_references_are_caught_at_build() {
        let bad_sink = TINY.replace("sinks = [3]", "sinks = [9]");
        let spec = ScenarioSpec::from_toml_str(&bad_sink).unwrap();
        assert!(build(&spec, RunOptions::default()).is_err());
        let bad_trace = TINY.replace("trace_links = [\"1-2\"]", "trace_links = [\"1-9\"]");
        let spec = ScenarioSpec::from_toml_str(&bad_trace).unwrap();
        assert!(build(&spec, RunOptions::default()).is_err());
    }

    #[test]
    fn fault_script_strands_flows() {
        let src = r#"
name = "cut"
horizon_secs = 25.0
seed = 2
capacity = 1e6
sinks = [2]

[topology]
kind = "line"
n = 2

[[workload]]
kind = "constant"
at = 5.0
src = 1
n = 2
rate = 1e5
video_secs = 60.0

[[event]]
at = 10.0
action = "fail_link"
a = 1
b = 2

[[event]]
at = 20.0
action = "restore_link"
a = 1
b = 2
"#;
        let spec = ScenarioSpec::from_toml_str(src).unwrap();
        let report = run(&spec, RunOptions::default()).unwrap();
        // Two flows stranded for ~10 s.
        assert!(
            report.unroutable_flow_secs > 15.0,
            "blackout recorded: {}",
            report.unroutable_flow_secs
        );
    }
}
