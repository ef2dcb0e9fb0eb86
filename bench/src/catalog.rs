//! The metric catalogue: every name the ledger emits, with its unit,
//! direction, where the number comes from and what it measures.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a
//! test holds the two together. README.md's glossary is this table.

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// End-to-end: what a user of the system sees (untraced reps).
    E,
    /// Counter: deterministic, read through public getters after an
    /// untraced rep. Repeats exactly for a given seed.
    C,
    /// Trace: a span, gauge or observation the program already emits,
    /// seen by the benchmark's own sink during the traced rep.
    T,
    /// Probe: a timed direct call into a layer's public function on
    /// state captured from the live run at the checkpoint (median of
    /// at least twenty calls unless noted).
    P,
    /// Wall clock: the ledger's own timer around one phase of a rep.
    W,
}

impl Source {
    /// One-letter tag used in the glossary.
    pub fn tag(self) -> &'static str {
        match self {
            Source::E => "E",
            Source::C => "C",
            Source::T => "T",
            Source::P => "P",
            Source::W => "W",
        }
    }
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue row.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`; the part before the first dot
    /// of a per-layer name is its layer).
    pub name: &'static str,
    /// Unit. `sim_s` is simulated seconds; `s`, `ms`, `us`, `ns` are
    /// host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Source.
    pub source: Source,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// What is measured, naming the public function or span.
    pub what: &'static str,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source: Source::E,
        bound: Some(bound),
        what,
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};
use Source::{C, P, T, W};

/// End-to-end metrics, emitted by every `--trace 0` run.
pub const END_TO_END: &[Metric] = &[
    e("run_cal_s", "s", Lower, 0.20,
      "calibrated host seconds of one rep, `ScenarioRun::run_until_secs` to the horizon + `finish()`, median over the run's reps (crowd_grid: `SweepRun.wall_secs` of `run_sweep_with` at 2 jobs, one call per grid seed); host seconds divided by how much slower than nominal the interleaved calibration bursts ran"),
    e("setup_s", "s", Lower, 0.25,
      "calibrated host seconds from spec text to a started run: `ScenarioSpec::from_toml_str` + `runner::build` (crowd_grid: `SweepSpec::from_toml_str`, `load_scenario` per base, `expand`, `resolve_cell` per cell), median of 25 set-ups"),
    e("peak_rss_mb", "MB", Lower, 0.20,
      "`VmHWM` of the benchmark process after its set-ups and first rep (one workload per process)"),
    e("qoe_score", "score", Higher, 0.05,
      "`ScenarioReport.qoe.mean_score`, the viewers' 1-5 experience score (crowd_grid: mean over controller-on cells); simulated, repeats exactly per seed"),
];

/// Per-layer metrics, emitted by every `--trace 1` run. On
/// `crowd_grid` counters and trace sums run over all cells; probes run
/// at the checkpoint of its `paper_demo` cell.
pub const PER_LAYER: &[Metric] = &[
    // sim-kernel
    m("kernel.events", "count", Lower, C, "`SimStats.events`: events dispatched by the netsim loop"),
    m("kernel.queue_depth_peak", "count", Lower, T, "largest `queue.depth` gauge sample (`EventQueue::len` per batch)"),
    m("kernel.queue_ns_per_op", "ns", Lower, P, "`EventQueue::push` + `pop` pair on a queue held at `kernel.queue_depth_peak` entries"),
    // igp
    m("igp.rx_pkts", "count", Lower, C, "`SimStats.ctrl_pkts`: control packets delivered"),
    m("igp.rx_bytes", "B", Lower, C, "`SimStats.ctrl_bytes`"),
    m("igp.pkts_dropped", "count", Lower, C, "`SimStats.ctrl_dropped`: control packets lost to down links"),
    m("igp.decode_errors", "count", Lower, C, "sum of `Instance.stats.decode_errors`; must be 0"),
    m("igp.lsas_originated", "count", Lower, C, "sum of `Instance.stats.lsas_originated`"),
    m("igp.lsas_flooded", "count", Lower, C, "sum of `Instance.stats.lsas_flooded` (per-neighbour enqueues)"),
    m("igp.spf_full_runs", "count", Lower, C, "`SimStats.spf_full_runs`"),
    m("igp.spf_partial_runs", "count", Lower, C, "`SimStats.spf_partial_runs`"),
    m("igp.rx_dispatch_ms_total", "ms", Lower, T, "self time of all `kernel.dispatch` spans: despite the label, `Instance::handle_packet` (decode, checksum, LSDB install, flood)"),
    m("igp.rx_dispatch_ns_per_event", "ns", Lower, T, "`kernel.dispatch` self time per span"),
    m("igp.spf_full_us", "us", Lower, T, "mean `spf.full` span (`SpfEngine::compute_versioned`, Dijkstra re-run)"),
    m("igp.spf_partial_us", "us", Lower, T, "mean `spf.partial` span (route phase only)"),
    m("igp.prefix_routes_calls", "count", Lower, T, "`spf.prefix_routes` spans"),
    m("igp.prefix_routes_us", "us", Lower, T, "mean `spf.prefix_routes` span (`spf::prefix_routes`)"),
    m("igp.cold_converge_ms", "ms", Lower, P, "`harness::Harness` cold start to `run_until_converged` on the probed cell's topology: IGP alone, no netsim (one call; 0 = not converged within the probe's 2 s of host time, as on metro_core)"),
    m("igp.cold_ns_per_pkt", "ns", Lower, P, "that cold start's host time per `Harness.delivered` packet (over the part that ran)"),
    m("igp.wire_encode_ns_per_pkt", "ns", Lower, P, "`wire::encode` of one LS Update per LSA of the live LSDB"),
    m("igp.wire_decode_ns_per_pkt", "ns", Lower, P, "`wire::decode` of those packets"),
    m("igp.spf_full_probe_us", "us", Lower, P, "`spf::compute_routes` on the live LSDB's topology"),
    m("igp.prefix_routes_probe_us", "us", Lower, P, "`spf::prefix_routes` on it, first announced prefix"),
    m("igp.spread_probe_us", "us", Lower, P, "`loadmodel::spread` of the live flows' demands over it"),
    // netsim
    m("netsim.reallocs", "count", Lower, C, "`SimStats.reallocs`: fluid settlements"),
    m("netsim.paths_resolved", "count", Lower, C, "`SimStats.paths_resolved`: dirty-set path re-resolutions"),
    m("netsim.paths_skipped", "count", Lower, C, "`SimStats.paths_skipped`: paths kept from cache"),
    m("netsim.resolve_ratio", "ratio", Higher, C, "(resolved + skipped) / resolved: the incremental saving"),
    m("netsim.alloc_fills", "count", Lower, C, "`SimStats.alloc_fills`: progressive-filling passes run"),
    m("netsim.alloc_skips", "count", Lower, C, "`SimStats.alloc_skips`: allocations answered from the unchanged-input cache"),
    m("netsim.unroutable_resolutions", "count", Lower, C, "`SimStats.unroutable`: resolutions that found no usable path"),
    m("netsim.unroutable_flow_s", "flow.sim_s", Lower, C, "`SimStats.unroutable_flow_secs`: blackout flow-seconds"),
    m("netsim.snmp_ops", "count", Lower, C, "`SimStats.snmp_ops`"),
    m("netsim.flows_at_checkpoint", "count", Lower, C, "`Sim::flow_count` at the checkpoint of the probed cell"),
    m("netsim.settle_ms_total", "ms", Lower, T, "inclusive time of all `fluid.settle` spans (`Core::reallocate`)"),
    m("netsim.settle_us_p50", "us", Lower, T, "median `fluid.settle` span"),
    m("netsim.settle_us_tail", "us", Lower, T, "`fluid.settle` span at the highest percentile with ten samples beyond it"),
    m("netsim.settle_tail_pct", "%", Higher, T, "which percentile `netsim.settle_us_tail` is (50 = too few spans for a tail)"),
    m("netsim.dirty_flows_mean", "count", Lower, T, "mean `settle.dirty_flows` observation"),
    m("netsim.fib_installs", "count", Lower, T, "`fib.install` spans"),
    m("netsim.fib_install_us", "us", Lower, T, "mean `fib.install` span (`Fib::install_diff` + invalidation)"),
    m("netsim.alloc_probe_cold_us", "us", Lower, P, "`fluid::Allocator::new` + `allocate` over the live flows' paths and up-link capacities"),
    m("netsim.alloc_probe_warm_us", "us", Lower, P, "`allocate` on a reused allocator whose input changes by one flow per call (a fill, never a skip)"),
    m("netsim.topology_view_probe_us", "us", Lower, P, "`SimContext::topology_view` of the probed speaker"),
    // telemetry
    m("telemetry.poll_rounds", "count", Lower, C, "`ControllerStats.snmp_sweeps`"),
    m("telemetry.poll_ms", "ms", Lower, T, "mean `ctrl.poll` span (one SNMP sweep of every router)"),
    m("telemetry.snmp_walk_probe_us", "us", Lower, P, "`SimContext::snmp_walk(router, ifOutOctets)` on the best-connected router"),
    m("telemetry.monitor_sample_ns", "ns", Lower, P, "`LoadMonitor::on_sample` on a monitor holding the live links"),
    // core
    m("core.evaluations", "count", Lower, C, "`ControllerStats.evaluations`"),
    m("core.reactions", "count", Lower, C, "`ControllerStats.reactions`: per-prefix plan attempts"),
    m("core.plan_failures", "count", Lower, C, "`ControllerStats.failures`"),
    m("core.injections", "count", Lower, C, "`ControllerStats.injections`"),
    m("core.retractions", "count", Lower, C, "`ControllerStats.retractions`"),
    m("core.peak_lies", "count", Lower, C, "`ScenarioReport.peak_lies` (crowd_grid: sum of cell peaks)"),
    m("core.reaction_sim_s", "sim_s", Lower, C, "`ScenarioReport.reaction_secs`: last stimulus to first installed lie (crowd_grid: median over reacting cells; 0 = never reacted)"),
    m("core.eval_ms_total", "ms", Lower, T, "inclusive time of all `ctrl.optimize` spans (`FibbingController::evaluate`)"),
    m("core.eval_ms_p50", "ms", Lower, T, "median `ctrl.optimize` span"),
    m("core.eval_ms_tail", "ms", Lower, T, "`ctrl.optimize` span at the highest percentile with ten samples beyond it"),
    m("core.eval_tail_pct", "%", Higher, T, "which percentile `core.eval_ms_tail` is"),
    m("core.solver_probes", "count", Lower, T, "`solver.probe` spans (`MinMaxSolver::is_feasible`)"),
    m("core.solver_probe_us", "us", Lower, T, "mean `solver.probe` span"),
    m("core.view_probe_us", "us", Lower, P, "`SimContext::topology_view` + `Topology::without_fakes`"),
    m("core.plan_paths_probe_us", "us", Lower, P, "`optimizer::plan_paths` for the busiest prefix's live demands (0 = no plan exists)"),
    m("core.augment_probe_us", "us", Lower, P, "`augmentation::augment` of that plan's DAG"),
    m("core.reduce_probe_us", "us", Lower, P, "`augmentation::reduce` of the augmentation's lies"),
    m("core.verify_probe_us", "us", Lower, P, "`lie::apply_all` + `verify::check_preserving` of the reduced lies"),
    // video
    m("video.sessions", "count", Higher, C, "`QoeSummary.sessions`"),
    m("video.smooth_sessions", "count", Higher, C, "`QoeSummary.smooth`: started, never stalled, finished"),
    m("video.stalls", "count", Lower, C, "`QoeSummary.stalls`"),
    m("video.stall_s", "sim_s", Lower, C, "`QoeSummary.stall_secs`"),
    m("video.mean_startup_s", "sim_s", Lower, C, "`QoeSummary.mean_startup` (crowd_grid: session-weighted mean)"),
    m("video.player_advance_ns", "ns", Lower, P, "`Player::advance` of one 100 ms tick at the clip's bitrate"),
    // scenario
    m("scenario.parse_us", "us", Lower, W, "spec text to resolved specs (`from_toml_str`; crowd_grid: sweep text to resolved cells)"),
    m("scenario.build_ms", "ms", Lower, W, "`runner::build`, summed over cells"),
    m("scenario.finish_ms", "ms", Lower, W, "`ScenarioRun::finish`, summed over cells"),
    m("scenario.trace_csv_bytes", "B", Lower, C, "`ScenarioReport.trace_csv` length, summed over cells"),
    m("scenario.sim_s_per_wall_s", "sim_s/s", Higher, W, "simulated seconds (summed over cells) per host second of the untraced rep"),
    m("scenario.cells", "count", Higher, C, "scenario runs in one rep (1 unless crowd_grid)"),
    m("scenario.cells_per_s", "1/s", Higher, W, "cells per host second of the rep (crowd_grid: of the sweep)"),
    m("scenario.cell_ms_p50", "ms", Lower, W, "median cell wall time (crowd_grid: `CellOutcome.wall_secs`)"),
    m("scenario.cell_ms_tail", "ms", Lower, W, "cell wall time at the highest percentile with ten cells beyond it"),
    m("scenario.cell_tail_pct", "%", Higher, W, "which percentile `scenario.cell_ms_tail` is"),
    m("scenario.sweep_parallel_efficiency", "ratio", Higher, W, "sum of cell wall / (jobs x sweep wall); 1 on single-cell workloads"),
    // trace
    m("trace.spans_total", "count", Lower, T, "spans closed during the traced rep"),
    m("trace.traced_pct", "%", Higher, T, "sum of span self times / traced rep wall: how much of the clock the spine sees"),
    m("trace.untraced_ms", "ms", Lower, T, "traced rep wall not inside any span (`accrue_to`, `poll_due`, `collect_outputs`, component handlers, `finish`)"),
    m("trace.overhead_pct", "%", Lower, T, "traced rep wall over untraced rep wall, minus one"),
    // bench
    m("bench.calib_ms", "ms", Lower, W, "median of twenty calibration bursts (`calib::burst`; nominal 3 ms): how fast this host ran during the per-layer run, whose timings are raw host time"),
];
