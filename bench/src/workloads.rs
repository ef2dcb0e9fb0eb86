//! The four workloads, generated by rule from `--seed`.
//!
//! A workload is the spec *text* the program is handed (a scenario, or
//! for `crowd_grid` a sweep over shipped scenarios) plus the resolved
//! cells — `(spec, options)` pairs — that text expands to. Same seed,
//! same bytes of text; the program only ever receives that text.
//!
//! The generated scenarios follow `sim_scale::generated_case`: sinks
//! are the best-connected routers, crowds enter at well-connected
//! routers at least two hops from their sink, and only non-bridge sink
//! uplinks are faulted. The seed moves what a viewer population would
//! move — when each crowd starts and how fast it arrives, and the order
//! `crowd_grid`'s cells are swept in — while the
//! graph is drawn once from [`GRAPH_SEED`] and the ingresses follow
//! from it by rule. Re-drawing the graph, or even moving one crowd to
//! another eligible ingress, changes host seconds by integer factors
//! (0.7 s to 7 s on `predictive_storm`), which would bury any
//! regression bound the benchmark could state; see README.md.

use fib_igp::topology::Topology;
use fib_igp::types::RouterId;
use fib_scenario::prelude::*;
use fib_scenario::sweep::spec::resolve_cell;
use fib_scenario::sweep::GridEntry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Seed every generated workload draws its graph from (it is also the
/// spec seed, which the runner uses for the topology stream).
pub const GRAPH_SEED: u64 = 2016;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "metro_core",
    "predictive_storm",
    "dataplane_churn",
    "crowd_grid",
];

/// Why each workload exists, one line each (`BENCHMARK.json` carries
/// these; README.md has the long form).
pub const WHY: [(&str, &str); 4] = [
    (
        "metro_core",
        "shipped 200-router flagship cut to 30 simulated s: IGP cold-start flood dominates, so flood, codec and queue work shows here",
    ),
    (
        "predictive_storm",
        "60 routers, 3 prefixes, predictive controller re-planning per viewer start/stop: controller and single-prefix SPF dominate, IGP does not",
    ),
    (
        "dataplane_churn",
        "no controller: 36000 sessions through link failures and a brown-out, so the fluid allocator, path resolution and players dominate",
    ),
    (
        "crowd_grid",
        "150 tiny cold starts through the 2-job sweep executor: set-up, finish and per-call fixed costs dominate, parallelism matters",
    ),
];

/// The shipped flagship spec, compiled in so the workload cannot drift
/// from the file the rest of the repository runs.
const METRO_CORE_TOML: &str = include_str!("../../scenarios/metro_core.toml");

/// The shipped flash-crowd grid (see [`crowd_grid_sweep`]).
const FLASHCROWD_GRID_TOML: &str = include_str!("../../sweeps/flashcrowd_grid.toml");

/// Simulated horizon `metro_core` is cut to. The cold-start flood
/// (1.15 of its 1.32 million events), all four crowd waves, the uplink
/// failure at t=25 and the controller's reaction to it are kept; the
/// quiet tail is not, so that a run of the benchmark fits three reps.
pub const METRO_CORE_HORIZON: f64 = 30.0;

/// Worker threads `crowd_grid` sweeps with (never more than the host
/// has).
pub fn grid_jobs() -> usize {
    crate::machine::nproc().min(2)
}

/// One scenario run the workload expands to.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable label (the workload name, or the sweep's cell label).
    pub label: String,
    /// The resolved spec.
    pub spec: ScenarioSpec,
    /// The options it runs under.
    pub opts: RunOptions,
    /// Sessions the spec schedules, where the spec fixes the count
    /// (diurnal demand draws it).
    pub sessions: Option<usize>,
}

/// The text a workload hands the program.
#[derive(Debug, Clone)]
pub enum Input {
    /// One scenario spec, run under `opts`.
    Scenario {
        /// Spec text.
        toml: String,
        /// Options the single cell runs under.
        opts: RunOptions,
    },
    /// A sweep over shipped scenarios.
    Sweep {
        /// Sweep text.
        toml: String,
    },
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// What the program is handed.
    pub input: Input,
    /// What that input expands to, in execution order.
    pub cells: Vec<Cell>,
    /// Index of the cell the traced rep pauses in.
    pub probe_cell: usize,
    /// Simulated second at which it pauses for the outside probes.
    pub checkpoint_secs: f64,
}

impl Workload {
    /// Cut every cell to `horizon_secs` simulated seconds (smoke use:
    /// `--quick` runs `metro_core` this way); the checkpoint moves in
    /// with it.
    pub fn cut_horizon(&mut self, horizon_secs: f64) {
        for cell in &mut self.cells {
            cell.opts.horizon_secs = Some(horizon_secs);
        }
        if let Input::Scenario { opts, .. } = &mut self.input {
            opts.horizon_secs = Some(horizon_secs);
        }
        self.checkpoint_secs = self.checkpoint_secs.min(0.75 * horizon_secs);
    }
}

/// Options every single-scenario rep runs under.
fn single_opts(horizon_secs: Option<f64>) -> RunOptions {
    RunOptions {
        seed: None,
        horizon_secs,
        disable_controller: false,
        settle: SettleMode::Lazy,
        check_loops: false,
    }
}

/// Routers by descending degree, ties by ascending id.
fn by_degree(topo: &Topology) -> Vec<RouterId> {
    let mut v: Vec<RouterId> = topo.routers().collect();
    v.sort_by_key(|r| (std::cmp::Reverse(topo.links(*r).len()), r.0));
    v
}

/// Hop counts from `from` (unit-cost BFS; unreachable routers absent).
fn hops_from(topo: &Topology, from: RouterId) -> BTreeMap<RouterId, u32> {
    let mut dist = BTreeMap::from([(from, 0u32)]);
    let mut queue = VecDeque::from([from]);
    while let Some(r) = queue.pop_front() {
        let d = dist[&r];
        for l in topo.links(r) {
            if let std::collections::btree_map::Entry::Vacant(slot) = dist.entry(l.to) {
                slot.insert(d + 1);
                queue.push_back(l.to);
            }
        }
    }
    dist
}

/// Whether removing the symmetric link `a`-`b` disconnects the graph.
pub fn is_bridge(topo: &Topology, a: RouterId, b: RouterId) -> bool {
    let mut cut = topo.clone();
    cut.remove_link(a, b);
    cut.remove_link(b, a);
    hops_from(&cut, a).len() < cut.router_count()
}

/// Peers of `sink` whose uplink may fail without partitioning the
/// graph, best-connected first.
fn non_bridge_uplinks(topo: &Topology, sink: RouterId) -> Vec<RouterId> {
    let mut peers: Vec<RouterId> = topo.links(sink).iter().map(|l| l.to).collect();
    peers.sort_by_key(|p| (std::cmp::Reverse(topo.links(*p).len()), p.0));
    peers.retain(|p| !is_bridge(topo, sink, *p));
    peers
}

/// The best-connected routers at least two hops from `sink` that are
/// not sinks themselves: where a crowd enters so that it crosses the
/// network.
fn ingresses(topo: &Topology, sink: RouterId, sinks: &[RouterId]) -> Vec<RouterId> {
    let hops = hops_from(topo, sink);
    let v: Vec<RouterId> = by_degree(topo)
        .into_iter()
        .filter(|r| !sinks.contains(r) && hops.get(r).is_some_and(|h| *h >= 2))
        .collect();
    assert!(
        !v.is_empty(),
        "graph has a router two hops from sink {sink}"
    );
    v
}

/// The graph the runner builds for `spec` under `seed` (same seed,
/// same stream).
pub fn graph_of(spec: &ScenarioSpec, seed: u64) -> Topology {
    build_topology(&spec.topology, &mut StdRng::seed_from_u64(seed))
}

/// `base` plus a draw from `[0, width)`, rounded to microseconds so the
/// emitted TOML stays short and exact.
fn after(rng: &mut StdRng, base: f64, width: f64) -> f64 {
    micros(base + width * rng.gen::<f64>())
}

/// `x` scaled by a factor drawn uniformly from `1 ± frac`.
fn jitter(rng: &mut StdRng, x: f64, frac: f64) -> f64 {
    micros(x * (1.0 + frac * (2.0 * rng.gen::<f64>() - 1.0)))
}

fn micros(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Sessions a spec schedules, if the spec alone fixes the count.
fn scheduled_sessions(spec: &ScenarioSpec) -> Option<usize> {
    let mut total = 0usize;
    for w in &spec.workloads {
        total += match w {
            // The paper's schedule: 1 + 30 + 31 sessions.
            WorkloadSpec::Paper { .. } => 62,
            WorkloadSpec::Constant { n, .. } | WorkloadSpec::Poisson { n, .. } => *n as usize,
            WorkloadSpec::Diurnal { .. } => return None,
        };
    }
    for e in &spec.events {
        if let EventKind::FlashCrowd { n, .. } | EventKind::Surge { n, .. } = e.kind {
            total += n as usize;
        }
    }
    Some(total)
}

/// A workload made of one scenario, handed to the program as `toml`.
pub fn scenario_workload(
    name: &'static str,
    toml: String,
    horizon_secs: Option<f64>,
    checkpoint_secs: f64,
) -> Workload {
    let spec = ScenarioSpec::from_toml_str(&toml).expect("workload spec text parses");
    let opts = single_opts(horizon_secs);
    Workload {
        name,
        cells: vec![Cell {
            label: name.to_string(),
            sessions: scheduled_sessions(&spec),
            spec,
            opts,
        }],
        input: Input::Scenario { toml, opts },
        probe_cell: 0,
        checkpoint_secs,
    }
}

/// `metro_core`: the shipped flagship, unchanged but for the horizon
/// cut. Its fault script names links of its own pinned graph, so the
/// seed has nothing to move here: every seed gives the same input.
pub fn metro_core(_seed: u64) -> Workload {
    scenario_workload(
        "metro_core",
        METRO_CORE_TOML.to_string(),
        Some(METRO_CORE_HORIZON),
        // All four waves are in; the uplink has not failed yet.
        22.0,
    )
}

/// `predictive_storm`: the paper's server-notification loop at scale.
/// A 60-router Waxman graph, three prefixes at its best-connected
/// routers, and a predictive controller that re-plans on every viewer
/// start and stop through six flash crowds cycling over the prefixes.
/// Each crowd alone fills one link (40 viewers x 2.5 Mb/s on 100 Mb/s
/// links), so shortest paths saturate and the controller has to lie.
pub fn predictive_storm(seed: u64) -> Workload {
    let mut spec = ScenarioSpec {
        name: "predictive_storm".into(),
        description: format!(
            "ledger workload, seed {seed}: predictive controller, six crowds over three prefixes"
        ),
        horizon_secs: 100.0,
        seed: GRAPH_SEED,
        // The crowd ingresses are routers of this seed's graph.
        pin_seed: true,
        capacity: 1.25e7,
        topology: TopologySpec::Waxman {
            n: 60,
            alpha: 0.22,
            beta: 0.2,
            max_metric: 6,
        },
        sinks: Vec::new(),
        controller: None,
        workloads: Vec::new(),
        events: Vec::new(),
        trace_links: Vec::new(),
        expect: None,
    };
    let topo = graph_of(&spec, GRAPH_SEED);
    let sinks: Vec<RouterId> = by_degree(&topo).into_iter().take(3).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5107_1234);
    for wave in 0..6usize {
        let dst = wave % sinks.len();
        let pool = ingresses(&topo, sinks[dst], &sinks);
        spec.events.push(EventSpec {
            at: after(&mut rng, 10.0 * (wave + 1) as f64, 1.0),
            kind: EventKind::FlashCrowd {
                // The k-th crowd of a prefix enters at its k-th ingress.
                src: pool[(wave / sinks.len()) % pool.len()].0,
                n: 40,
                mean_gap_secs: jitter(&mut rng, 0.1, 0.1),
                rate: 312_500.0,
                video_secs: 20.0,
                dst,
            },
        });
    }
    spec.sinks = sinks.iter().map(|s| s.0).collect();
    spec.controller = Some(ControllerSpec {
        attach: sinks[0].0,
        target_util: 0.6,
        predictive: true,
        use_snmp: true,
        ..ControllerSpec::default()
    });
    // Three crowds are playing, lies are installed.
    scenario_workload("predictive_storm", spec.to_toml_string(), None, 35.0)
}

/// `dataplane_churn`: no controller at all. Four long Poisson session
/// streams (36 000 sessions) over a 30-router Waxman graph while each
/// sink loses and regains an uplink and the first sink's whole site
/// browns out to a third of its capacity: the fluid allocator,
/// dirty-set path resolution and the video players do the work.
pub fn dataplane_churn(seed: u64) -> Workload {
    let capacity = 4e8;
    let mut spec = ScenarioSpec {
        name: "dataplane_churn".into(),
        description: format!(
            "ledger workload, seed {seed}: 36000 sessions, uplink failures and a brown-out, no controller"
        ),
        horizon_secs: 120.0,
        seed: GRAPH_SEED,
        // The ingresses and faulted links are of this seed's graph.
        pin_seed: true,
        capacity,
        topology: TopologySpec::Waxman {
            n: 30,
            alpha: 0.3,
            beta: 0.25,
            max_metric: 5,
        },
        sinks: Vec::new(),
        controller: None,
        workloads: Vec::new(),
        events: Vec::new(),
        trace_links: Vec::new(),
        expect: None,
    };
    let topo = graph_of(&spec, GRAPH_SEED);
    let sinks: Vec<RouterId> = by_degree(&topo).into_iter().take(2).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A_0001);
    for stream in 0..4usize {
        let dst = stream % sinks.len();
        let pool = ingresses(&topo, sinks[dst], &sinks);
        spec.workloads.push(WorkloadSpec::Poisson {
            start: after(&mut rng, 1.0 + stream as f64, 1.0),
            mean_gap_secs: jitter(&mut rng, 0.01, 0.05),
            n: 9000,
            src: pool[(stream / sinks.len()) % pool.len()].0,
            rate: 125_000.0,
            video_secs: 20.0,
            dst,
        });
    }
    let up0 = non_bridge_uplinks(&topo, sinks[0]);
    let up1 = non_bridge_uplinks(&topo, sinks[1]);
    assert!(
        !up0.is_empty() && !up1.is_empty(),
        "both sinks have an uplink that is not a bridge"
    );
    let (s0, s1) = (sinks[0].0, sinks[1].0);
    let (f0, f1) = (up0[0].0, up1[0].0);
    let at = |t: f64, kind: EventKind| EventSpec { at: t, kind };
    spec.events
        .push(at(20.0, EventKind::FailLink { a: f0, b: s0 }));
    spec.events
        .push(at(35.0, EventKind::RestoreLink { a: f0, b: s0 }));
    // The brown-out hits the first sink's whole site: every uplink
    // drops to a third of its capacity for fifteen seconds, so the
    // players there run their buffers down and some stall.
    for (t, c) in [(45.0, capacity / 3.0), (60.0, capacity)] {
        for l in topo.links(sinks[0]) {
            spec.events.push(at(
                t,
                EventKind::SetCapacity {
                    a: l.to.0,
                    b: s0,
                    capacity: c,
                },
            ));
        }
    }
    spec.events
        .push(at(70.0, EventKind::FailLink { a: f1, b: s1 }));
    spec.events
        .push(at(85.0, EventKind::RestoreLink { a: f1, b: s1 }));
    spec.sinks = vec![s0, s1];
    // Mid brown-out: about 8 000 flows are live.
    scenario_workload("dataplane_churn", spec.to_toml_string(), None, 50.0)
}

/// The sweep `crowd_grid` runs: the three entries of the shipped
/// flash-crowd grid plus the paper's demo, every cell with its
/// controller-off twin. The cells are the shipped ones for every
/// `--seed`: offsetting the seed ranges, as first tried, redraws the
/// small graphs and moved the controller's work by 18 % between seed 1
/// and seed 10 (60 254 against 49 228 `prefix_routes` calls). The seed
/// shuffles the order the grid seeds are swept in, so what reaches the
/// work-stealing executor, and when, differs while the work does not.
pub fn crowd_grid_sweep(seed: u64) -> SweepSpec {
    let mut sweep =
        SweepSpec::from_toml_str(FLASHCROWD_GRID_TOML).expect("shipped flashcrowd_grid parses");
    sweep.name = "crowd_grid".into();
    sweep.description = format!("ledger workload, seed {seed}: flashcrowd_grid + paper_demo");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6121_D000);
    for entry in &mut sweep.grid {
        entry.seeds.shuffle(&mut rng);
    }
    sweep.grid.push(GridEntry {
        scenario: "paper_demo".into(),
        seeds: vec![7],
        horizon_secs: None,
        capacity_scale: vec![1.0],
        crowd_scale: vec![1.0],
        baseline: true,
    });
    sweep
}

/// The sweep cut into one sub-sweep per grid entry and seed, so that a
/// timed rep can run calibration bursts between them (each part is
/// 2 to 16 cells, some tens of milliseconds at two jobs).
pub fn split_by_seed(sweep: &SweepSpec) -> Vec<SweepSpec> {
    let mut parts = Vec::new();
    for g in &sweep.grid {
        for seed in &g.seeds {
            parts.push(SweepSpec {
                grid: vec![GridEntry {
                    seeds: vec![*seed],
                    ..g.clone()
                }],
                ..sweep.clone()
            });
        }
    }
    parts
}

/// Render a sweep as the TOML subset `SweepSpec::from_toml_str` reads.
pub fn sweep_toml(sweep: &SweepSpec) -> String {
    fn list<T>(items: &[T], show: impl Fn(&T) -> String) -> String {
        items.iter().map(show).collect::<Vec<_>>().join(", ")
    }
    let mut out = String::new();
    let _ = writeln!(out, "name = \"{}\"", sweep.name);
    let _ = writeln!(out, "description = \"{}\"", sweep.description);
    for g in &sweep.grid {
        let _ = writeln!(out, "\n[[grid]]\nscenario = \"{}\"", g.scenario);
        let _ = writeln!(out, "seeds = [{}]", list(&g.seeds, u64::to_string));
        if let Some(h) = g.horizon_secs {
            let _ = writeln!(out, "horizon_secs = {h:?}");
        }
        let scale = |s: &f64| format!("{s:?}");
        let _ = writeln!(out, "capacity_scale = [{}]", list(&g.capacity_scale, scale));
        let _ = writeln!(out, "crowd_scale = [{}]", list(&g.crowd_scale, scale));
        let _ = writeln!(out, "baseline = {}", g.baseline);
    }
    out
}

/// Expand sweep text into cells the way `run_sweep` does: load each
/// base scenario once, expand the grid, resolve every cell.
pub fn resolve_sweep(toml: &str) -> Result<(SweepSpec, Vec<Cell>), SpecError> {
    let sweep = SweepSpec::from_toml_str(toml)?;
    let mut bases: BTreeMap<&str, ScenarioSpec> = BTreeMap::new();
    for entry in &sweep.grid {
        if !bases.contains_key(entry.scenario.as_str()) {
            bases.insert(&entry.scenario, load_scenario(&entry.scenario)?);
        }
    }
    let cells = sweep
        .expand()
        .iter()
        .map(|cell| {
            let (spec, opts) = resolve_cell(&bases[cell.scenario.as_str()], cell, None);
            Cell {
                label: cell.label(),
                sessions: scheduled_sessions(&spec),
                spec,
                opts,
            }
        })
        .collect();
    Ok((sweep, cells))
}

/// `crowd_grid`: 150 tiny cold starts (75 controller-on cells on 7- to
/// 12-router graphs and their baseline twins) through the product's
/// own work-stealing sweep executor, in a seeded order.
pub fn crowd_grid(seed: u64) -> Workload {
    let toml = sweep_toml(&crowd_grid_sweep(seed));
    let (_, cells) = resolve_sweep(&toml).expect("generated sweep resolves");
    let probe_cell = cells
        .iter()
        .position(|c| c.spec.name == "paper_demo" && !c.opts.disable_controller)
        .expect("the grid has a paper_demo cell");
    Workload {
        name: "crowd_grid",
        input: Input::Sweep { toml },
        cells,
        probe_cell,
        // After the t=35 wave: the paper's two-lie plan is installed.
        checkpoint_secs: 40.0,
    }
}

/// The workload called `name`, generated from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "metro_core" => Some(metro_core(seed)),
        "predictive_storm" => Some(predictive_storm(seed)),
        "dataplane_churn" => Some(dataplane_churn(seed)),
        "crowd_grid" => Some(crowd_grid(seed)),
        _ => None,
    }
}
