//! The two kinds of benchmark run: end-to-end (untraced, timed reps)
//! and per-layer (one untraced pass for counters, one traced pass that
//! pauses for the outside probes).

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::run::{self, check_digests, run_cell, CellRun, Drive, Ops, Rep, Values};
use crate::sink::{self, LedgerSink};
use crate::stats::{median, summarize};
use crate::workloads::{self, Input, Workload};
use crate::{calib, machine, probes};
use fib_scenario::prelude::*;
use fib_trace::Phase;
use std::time::Instant;

/// Set-ups timed before the reps start, so `setup_s` is a median of at
/// least this many samples however few reps fit the run.
const SETUP_SAMPLES: usize = 25;

/// Result of one run of the benchmark on one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// `(catalogue row, value)` in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Extra facts for the human report and `BENCH_ledger.json`.
    pub detail: Value,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && self.ops.attempted > 0
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::obj();
        for (m, value) in &self.metrics {
            metrics.set(
                m.name,
                Value::obj().with("value", *value).with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.ops.attempted.max(1))
            .with("failed", self.ops.failed)
            .with("metrics", metrics)
            .to_line()
    }
}

/// Pair every catalogue row with its value; a value the run did not
/// produce is a failed check, not a silent zero.
fn in_catalogue_order(
    rows: &'static [Metric],
    values: &Values,
    ops: &mut Ops,
) -> Vec<(&'static Metric, f64)> {
    rows.iter()
        .map(|m| {
            let v = values.get(m.name).copied().filter(|v| v.is_finite());
            if v.is_none() {
                ops.fail(format!("metric {} was not produced", m.name));
            }
            (m, v.unwrap_or(0.0))
        })
        .collect()
}

/// End-to-end run: time set-ups, then untraced calibrated reps until
/// `seconds` have passed since `start` (always at least one rep).
pub fn end_to_end(w: &Workload, seconds: f64, start: Instant) -> Outcome {
    let mut ops = Ops::default();
    let mut setups: Vec<(f64, f64)> = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        match run::setup_once(w) {
            Ok(s) => setups.push(s),
            Err(e) => {
                ops.attempt();
                ops.fail(e);
                break;
            }
        }
    }
    let mut reps: Vec<Rep> = Vec::new();
    let mut rep_costs: Vec<f64> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let t = Instant::now();
        let Some(rep) = run::rep(w, &mut ops) else {
            break;
        };
        if let Some(first) = reps.first() {
            check_digests(w, &first.digests, &rep.digests, &mut ops);
        }
        if reps.is_empty() {
            // Read after the first rep, so the figure does not depend
            // on how many reps the host's speed let into the run (the
            // high-water mark creeps up a few percent per rep).
            peak_rss_mb = machine::peak_rss_mb();
        }
        reps.push(rep);
        rep_costs.push(t.elapsed().as_secs_f64());
        // Another rep only if at least half of it fits the budget, so
        // a run overshoots `seconds` by at most half a rep.
        if start.elapsed().as_secs_f64() + 0.5 * median(&rep_costs) >= seconds {
            break;
        }
    }
    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (walls, cals) = (column(|r| r.wall_s), column(|r| r.cal_s));
    let mut values = Values::new();
    if let Some(first) = reps.first() {
        values.insert("run_cal_s", median(&cals));
        values.insert(
            "setup_s",
            median(&setups.iter().map(|(_, cal)| *cal).collect::<Vec<_>>()),
        );
        values.insert("peak_rss_mb", peak_rss_mb);
        values.insert("qoe_score", first.qoe_score);
    }
    let numbers = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
    let detail = Value::obj()
        .with("reps", reps.len())
        .with("rep_wall_s", numbers(&walls))
        .with("rep_cal_s", numbers(&cals))
        .with("run_wall_s", median(&walls))
        .with(
            "setup_wall_s",
            median(&setups.iter().map(|(raw, _)| *raw).collect::<Vec<_>>()),
        )
        .with("setup_samples", setups.len());
    let metrics = in_catalogue_order(END_TO_END, &values, &mut ops);
    Outcome {
        ops,
        metrics,
        detail,
    }
}

/// Everything one pass over a workload's cells adds up to.
#[derive(Debug, Default)]
struct Pass {
    runs: Vec<Option<CellRun>>,
}

impl Pass {
    fn done(&self) -> impl Iterator<Item = &CellRun> {
        self.runs.iter().flatten()
    }

    fn sum(&self, f: impl Fn(&CellRun) -> f64) -> f64 {
        self.done().map(f).sum()
    }

    fn digests(&self, f: impl Fn(&CellRun) -> u64) -> Vec<Option<u64>> {
        self.runs.iter().map(|r| r.as_ref().map(&f)).collect()
    }
}

/// Run every cell in order on this thread; the probed cell pauses at
/// the checkpoint when `pause` is given.
fn pass(w: &Workload, ops: &mut Ops, mut pause: Option<run::Pause<'_>>) -> Pass {
    let mut out = Pass::default();
    for (i, cell) in w.cells.iter().enumerate() {
        ops.attempt();
        let drive = match pause.as_mut() {
            Some(p) if i == w.probe_cell => Drive::Paused(w.checkpoint_secs, &mut **p),
            _ => Drive::Plain,
        };
        match run_cell(cell, drive) {
            Ok(r) => {
                ops.fail_all(r.insane.clone());
                out.runs.push(Some(r));
            }
            Err(e) => {
                ops.fail(e);
                out.runs.push(None);
            }
        }
    }
    let reports = out.runs.iter().map(|r| r.as_ref().map(|r| &r.report));
    ops.fail_all(run::paper_claim(&w.cells, reports));
    out
}

/// Counter-sourced metrics of an untraced pass, summed over its cells.
fn counter_metrics(w: &Workload, p: &Pass, values: &mut Values) {
    for r in p.done() {
        for (name, v) in &r.counters {
            *values.entry(name).or_insert(0.0) += v;
        }
    }
    let resolved = values.get("netsim.paths_resolved").copied().unwrap_or(0.0);
    let skipped = values.get("netsim.paths_skipped").copied().unwrap_or(0.0);
    values.insert(
        "netsim.resolve_ratio",
        if resolved > 0.0 {
            (resolved + skipped) / resolved
        } else {
            0.0
        },
    );
    values.insert("core.peak_lies", p.sum(|r| r.report.peak_lies as f64));
    let reactions: Vec<f64> = p.done().filter_map(|r| r.report.reaction_secs).collect();
    values.insert("core.reaction_sim_s", median(&reactions));
    values.insert("video.sessions", p.sum(|r| r.report.qoe.sessions as f64));
    values.insert(
        "video.smooth_sessions",
        p.sum(|r| r.report.qoe.smooth as f64),
    );
    values.insert("video.stalls", p.sum(|r| f64::from(r.report.qoe.stalls)));
    values.insert("video.stall_s", p.sum(|r| r.report.qoe.stall_secs));
    let started = |r: &CellRun| {
        if r.report.qoe.mean_startup.is_finite() {
            r.report.qoe.sessions as f64
        } else {
            0.0
        }
    };
    let weight = p.sum(started);
    values.insert(
        "video.mean_startup_s",
        if weight > 0.0 {
            p.sum(|r| {
                if started(r) > 0.0 {
                    r.report.qoe.mean_startup * started(r)
                } else {
                    0.0
                }
            }) / weight
        } else {
            0.0
        },
    );
    values.insert("scenario.cells", w.cells.len() as f64);
}

/// Trace-sourced metrics from the sink of the traced pass.
fn trace_metrics(s: &LedgerSink, traced_wall_s: f64, untraced_wall_s: f64, values: &mut Values) {
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    values.insert("kernel.queue_depth_peak", s.gauge_max("queue.depth"));
    let dispatch = Phase::KernelDispatch;
    values.insert("igp.rx_dispatch_ms_total", ms(s.self_ns(dispatch) as f64));
    values.insert(
        "igp.rx_dispatch_ns_per_event",
        match s.spans(dispatch) {
            0 => 0.0,
            n => s.self_ns(dispatch) as f64 / n as f64,
        },
    );
    values.insert("igp.spf_full_us", us(s.mean_ns(Phase::SpfFull)));
    values.insert("igp.spf_partial_us", us(s.mean_ns(Phase::SpfPartial)));
    values.insert(
        "igp.prefix_routes_calls",
        s.spans(Phase::PrefixRoutes) as f64,
    );
    values.insert("igp.prefix_routes_us", us(s.mean_ns(Phase::PrefixRoutes)));
    let settle = summarize(&s.samples_ns(Phase::Settle));
    values.insert(
        "netsim.settle_ms_total",
        ms(s.total_ns(Phase::Settle) as f64),
    );
    values.insert("netsim.settle_us_p50", us(settle.p50));
    values.insert("netsim.settle_us_tail", us(settle.tail));
    values.insert("netsim.settle_tail_pct", settle.tail_pct);
    values.insert(
        "netsim.dirty_flows_mean",
        s.observed_mean("settle.dirty_flows"),
    );
    values.insert("netsim.fib_installs", s.spans(Phase::FibInstall) as f64);
    values.insert("netsim.fib_install_us", us(s.mean_ns(Phase::FibInstall)));
    values.insert("telemetry.poll_ms", ms(s.mean_ns(Phase::CtrlPoll)));
    let eval = summarize(&s.samples_ns(Phase::CtrlOptimize));
    values.insert(
        "core.eval_ms_total",
        ms(s.total_ns(Phase::CtrlOptimize) as f64),
    );
    values.insert("core.eval_ms_p50", ms(eval.p50));
    values.insert("core.eval_ms_tail", ms(eval.tail));
    values.insert("core.eval_tail_pct", eval.tail_pct);
    values.insert("core.solver_probes", s.spans(Phase::SolverProbe) as f64);
    values.insert("core.solver_probe_us", us(s.mean_ns(Phase::SolverProbe)));
    values.insert("trace.spans_total", s.spans_total() as f64);
    let traced_ns = traced_wall_s * 1e9;
    let seen_ns = s.self_ns_total() as f64;
    values.insert("trace.traced_pct", seen_ns / traced_ns * 100.0);
    values.insert("trace.untraced_ms", ms((traced_ns - seen_ns).max(0.0)));
    values.insert(
        "trace.overhead_pct",
        (traced_wall_s / untraced_wall_s - 1.0) * 100.0,
    );
}

/// Host microseconds to turn the workload's text into resolved specs.
fn parse_us(w: &Workload) -> f64 {
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            match &w.input {
                Input::Scenario { toml, .. } => {
                    std::hint::black_box(ScenarioSpec::from_toml_str(toml).ok());
                }
                Input::Sweep { toml } => {
                    std::hint::black_box(workloads::resolve_sweep(toml).ok());
                }
            }
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// The layer-separation property each workload was designed for,
/// checked on the traced pass (share of span self time).
fn separation(w: &Workload, s: &LedgerSink) -> Vec<String> {
    let total = s.self_ns_total().max(1) as f64;
    let share =
        |phases: &[Phase]| phases.iter().map(|p| s.self_ns(*p)).sum::<u64>() as f64 / total * 100.0;
    let ctrl_spans = s.spans(Phase::CtrlOptimize) + s.spans(Phase::CtrlPoll);
    let mut bad = Vec::new();
    let mut need = |what: &str, got: f64, floor: f64| {
        if got < floor {
            bad.push(format!(
                "{}: {what} is {got:.1}% of traced self time, designed for >= {floor}%",
                w.name
            ));
        }
    };
    match w.name {
        "metro_core" => need(
            "IGP rx (kernel.dispatch)",
            share(&[Phase::KernelDispatch]),
            50.0,
        ),
        "predictive_storm" => need(
            "controller (ctrl.* + solver.probe + spf.prefix_routes)",
            share(&[
                Phase::CtrlOptimize,
                Phase::CtrlPoll,
                Phase::SolverProbe,
                Phase::PrefixRoutes,
            ]),
            70.0,
        ),
        "dataplane_churn" => {
            need("fluid.settle", share(&[Phase::Settle]), 60.0);
            if ctrl_spans != 0 {
                bad.push(format!(
                    "{}: {ctrl_spans} controller spans on a workload without a controller",
                    w.name
                ));
            }
        }
        _ => {}
    }
    bad
}

/// Per-layer run: counters from an untraced pass, spans from a traced
/// pass that pauses at the checkpoint for the outside probes.
pub fn per_layer(w: &Workload) -> Outcome {
    let mut ops = Ops::default();
    let mut values = Values::new();
    values.insert("bench.calib_ms", calib::calib_ms());
    values.insert("scenario.parse_us", parse_us(w));

    // crowd_grid: the product's own sweep once, for the executor's
    // numbers and the digests its cells must reproduce in-process.
    let swept = run::sweep_whole(w, &mut ops);

    let untraced = pass(w, &mut ops, None);
    counter_metrics(w, &untraced, &mut values);
    let untraced_wall = untraced.sum(CellRun::wall_s);
    values.insert("scenario.build_ms", untraced.sum(|r| r.build_s) * 1e3);
    values.insert("scenario.finish_ms", untraced.sum(|r| r.finish_s) * 1e3);
    values.insert(
        "scenario.sim_s_per_wall_s",
        untraced.sum(|r| r.report.horizon_secs) / untraced_wall,
    );
    let (cell_walls, rep_wall, jobs) = match &swept {
        Some(rep) => {
            check_digests(
                w,
                &rep.digests,
                &untraced.digests(|r| r.summary_digest),
                &mut ops,
            );
            (rep.cell_walls.clone(), rep.wall_s, workloads::grid_jobs())
        }
        None => (
            untraced.done().map(CellRun::wall_s).collect(),
            untraced_wall,
            1,
        ),
    };
    let cells = summarize(&cell_walls);
    values.insert("scenario.cells_per_s", w.cells.len() as f64 / rep_wall);
    values.insert("scenario.cell_ms_p50", cells.p50 * 1e3);
    values.insert("scenario.cell_ms_tail", cells.tail * 1e3);
    values.insert("scenario.cell_tail_pct", cells.tail_pct);
    values.insert(
        "scenario.sweep_parallel_efficiency",
        cell_walls.iter().sum::<f64>() / (jobs as f64 * rep_wall),
    );

    // The traced pass. At the checkpoint the sink is lifted, so the
    // probes' own calls into instrumented functions leave no spans.
    let probed = &w.cells[w.probe_cell];
    let mut probe_values = Values::new();
    let mut at_checkpoint = |live: &mut ScenarioRun| {
        let lifted = sink::lift();
        let depth = lifted.as_ref().map_or(0.0, |s| s.gauge_max("queue.depth"));
        probe_values = probes::run_all(probed, live, depth as usize);
        if let Some(s) = lifted {
            sink::reinstall(s);
        }
    };
    sink::install();
    let traced = pass(w, &mut ops, Some(&mut at_checkpoint));
    let lifted = sink::lift();
    values.append(&mut probe_values);
    check_digests(
        w,
        &untraced.digests(|r| r.digest),
        &traced.digests(|r| r.digest),
        &mut ops,
    );
    match &lifted {
        Some(s) => {
            trace_metrics(s, traced.sum(CellRun::wall_s), untraced_wall, &mut values);
            ops.fail_all(separation(w, s));
        }
        None => ops.fail(format!("{}: the traced pass lost its sink", w.name)),
    }

    let detail = Value::obj()
        .with("untraced_wall_s", untraced_wall)
        .with("traced_wall_s", traced.sum(CellRun::wall_s))
        .with(
            "phase_self_ms",
            match &lifted {
                Some(s) => fib_trace::PHASES.iter().fold(Value::obj(), |o, p| {
                    o.with(p.name(), s.self_ns(*p) as f64 / 1e6)
                }),
                None => Value::Null,
            },
        );
    let metrics = in_catalogue_order(PER_LAYER, &values, &mut ops);
    Outcome {
        ops,
        metrics,
        detail,
    }
}
