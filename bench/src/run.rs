//! Running cells and reps, harvesting counters, checking outputs.
//!
//! An *operation* is one scenario run: a rep of a single-scenario
//! workload, or one cell of a `crowd_grid` sweep. It fails on an error
//! or panic, on a digest that differs from the first run of the same
//! cell, or on a sanity check.

use crate::calib::Calibrator;
use crate::workloads::{self, Cell, Input, Workload};
use fib_scenario::prelude::*;
use fib_scenario::sweep::{run_sweep_with, CellOutcome};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Named values (metric name → number).
pub type Values = BTreeMap<&'static str, f64>;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host seconds in `runner::build`.
    pub build_s: f64,
    /// Host seconds in `run_until_secs` (a probe pause excluded).
    pub run_s: f64,
    /// Host seconds in `finish`.
    pub finish_s: f64,
    /// The cell's deterministic counters (catalogue names, source C).
    pub counters: Values,
    /// The report, its trace CSV dropped once digested.
    pub report: ScenarioReport,
    /// FNV-1a of `summary_csv` (what a sweep keeps of a cell).
    pub summary_digest: u64,
    /// FNV-1a of `summary_csv` + `trace_csv`.
    pub digest: u64,
    /// Sanity checks this run failed (empty = sane).
    pub insane: Vec<String>,
}

impl CellRun {
    /// Host seconds of the rep proper: run + finish.
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.finish_s
    }
}

/// Called at the checkpoint with the paused run.
pub type Pause<'a> = &'a mut dyn FnMut(&mut ScenarioRun);

/// How a cell is driven to its horizon.
pub enum Drive<'a> {
    /// One `run_until_secs(horizon)` call, as every other binary of
    /// the repository runs a scenario.
    Plain,
    /// Stop at the given simulated second, hand the live run to the
    /// probe, resume; the time spent paused is not counted.
    Paused(f64, Pause<'a>),
    /// In small steps of simulated time with calibration bursts
    /// between them (see [`crate::calib`] and [`slice_ends`]).
    Sliced(&'a mut Calibrator),
}

/// Simulated seconds per step of a sliced run: the instants the
/// workload driver and the utilization probe tick at anyway.
pub const SLICE_SIM_SECS: f64 = 0.1;

/// Simulated seconds at the start that are stepped a millisecond (one
/// link delay) at a time. The IGP's cold start lives there: on
/// `metro_core` 1.1 million events — six of a rep's seven host seconds
/// — fall between t=1.007 and t=1.014, so no coarser step would let a
/// single calibration burst in while they run.
pub const COLD_START_SIM_SECS: f64 = 2.0;

/// The instants a sliced run stops at on its way to `horizon`: the
/// same fixed schedule in every rep, so that every rep integrates its
/// rates over the same intervals and ends with the same bytes.
pub fn slice_ends(horizon: f64) -> impl Iterator<Item = f64> {
    let fine = (COLD_START_SIM_SECS.min(horizon) * 1e3).floor() as u64;
    let coarse_from = (COLD_START_SIM_SECS / SLICE_SIM_SECS).round() as u64 + 1;
    let coarse_to = (horizon / SLICE_SIM_SECS).floor() as u64;
    (1..=fine)
        .map(|i| i as f64 * 1e-3)
        .chain((coarse_from..=coarse_to).map(|i| i as f64 * SLICE_SIM_SECS))
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The deterministic counters of a run that has reached its horizon.
fn harvest(run: &mut ScenarioRun) -> Values {
    let s = run.sim.stats();
    let mut c = Values::new();
    c.insert("kernel.events", s.events as f64);
    c.insert("igp.rx_pkts", s.ctrl_pkts as f64);
    c.insert("igp.rx_bytes", s.ctrl_bytes as f64);
    c.insert("igp.pkts_dropped", s.ctrl_dropped as f64);
    c.insert("igp.spf_full_runs", s.spf_full_runs as f64);
    c.insert("igp.spf_partial_runs", s.spf_partial_runs as f64);
    let routers: Vec<_> = run.sim.ctx().routers().collect();
    let (mut decode_errors, mut originated, mut flooded) = (0u64, 0u64, 0u64);
    for inst in routers.iter().filter_map(|r| run.sim.instance(*r)) {
        decode_errors += inst.stats.decode_errors;
        originated += inst.stats.lsas_originated;
        flooded += inst.stats.lsas_flooded;
    }
    c.insert("igp.decode_errors", decode_errors as f64);
    c.insert("igp.lsas_originated", originated as f64);
    c.insert("igp.lsas_flooded", flooded as f64);
    c.insert("netsim.reallocs", s.reallocs as f64);
    c.insert("netsim.paths_resolved", s.paths_resolved as f64);
    c.insert("netsim.paths_skipped", s.paths_skipped as f64);
    c.insert("netsim.alloc_fills", s.alloc_fills as f64);
    c.insert("netsim.alloc_skips", s.alloc_skips as f64);
    c.insert("netsim.unroutable_resolutions", s.unroutable as f64);
    c.insert("netsim.unroutable_flow_s", s.unroutable_flow_secs);
    c.insert("netsim.snmp_ops", s.snmp_ops as f64);
    let ctrl = run
        .ctrl
        .as_ref()
        .map(|h| h.lock().stats)
        .unwrap_or_default();
    c.insert("telemetry.poll_rounds", ctrl.snmp_sweeps as f64);
    c.insert("core.evaluations", ctrl.evaluations as f64);
    c.insert("core.reactions", ctrl.reactions as f64);
    c.insert("core.plan_failures", ctrl.failures as f64);
    c.insert("core.injections", ctrl.injections as f64);
    c.insert("core.retractions", ctrl.retractions as f64);
    c
}

/// Sanity checks on one finished run.
fn sanity(cell: &Cell, counters: &Values, report: &ScenarioReport) -> Vec<String> {
    let mut bad = Vec::new();
    if let Some(expected) = cell.sessions {
        if report.sessions != expected {
            bad.push(format!(
                "{}: {} sessions scheduled, spec says {expected}",
                cell.label, report.sessions
            ));
        }
    }
    if report.qoe.sessions > report.sessions {
        bad.push(format!(
            "{}: {} sessions reported QoE, only {} were scheduled",
            cell.label, report.qoe.sessions, report.sessions
        ));
    }
    if counters["igp.decode_errors"] != 0.0 {
        bad.push(format!(
            "{}: {} IGP decode errors",
            cell.label, counters["igp.decode_errors"]
        ));
    }
    bad
}

/// Build, run and finish one cell on this thread.
pub fn run_cell(cell: &Cell, drive: Drive<'_>) -> Result<CellRun, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<CellRun, SpecError> {
        let t = Instant::now();
        let mut run = build(&cell.spec, cell.opts)?;
        let build_s = t.elapsed().as_secs_f64();
        let horizon = run.horizon_secs();
        let mut run_s = 0.0;
        let mut advance = |run: &mut ScenarioRun, to: f64| {
            let t = Instant::now();
            run.run_until_secs(to);
            let secs = t.elapsed().as_secs_f64();
            run_s += secs;
            secs
        };
        let mut calib = None;
        match drive {
            Drive::Plain => {}
            Drive::Paused(at, probe) => {
                advance(&mut run, at.min(horizon));
                probe(&mut run);
            }
            Drive::Sliced(c) => {
                for end in slice_ends(horizon) {
                    c.worked(advance(&mut run, end));
                }
                calib = Some(c);
            }
        }
        let last = advance(&mut run, horizon);
        let mut counters = harvest(&mut run);
        let t = Instant::now();
        let mut report = run.finish();
        let finish_s = t.elapsed().as_secs_f64();
        if let Some(c) = calib {
            c.worked(last + finish_s);
        }
        let summary_digest = fnv1a(FNV_OFFSET, report.summary_csv().as_bytes());
        let digest = fnv1a(summary_digest, report.trace_csv.as_bytes());
        counters.insert("scenario.trace_csv_bytes", report.trace_csv.len() as f64);
        report.trace_csv = String::new();
        let insane = sanity(cell, &counters, &report);
        Ok(CellRun {
            build_s,
            run_s,
            finish_s,
            counters,
            report,
            summary_digest,
            digest,
            insane,
        })
    }));
    match outcome {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(format!("{}: {e}", cell.label)),
        Err(payload) => Err(format!("{}: panic: {}", cell.label, panic_text(payload))),
    }
}

/// The paper's smooth-versus-stutter claim, checked on the `paper_demo`
/// cells of a rep: with the controller every playback is smooth and at
/// least three lies went in; without it viewers stall.
pub fn paper_claim<'a>(
    cells: &[Cell],
    reports: impl Iterator<Item = Option<&'a ScenarioReport>>,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (cell, report) in cells.iter().zip(reports) {
        let Some(r) = report else { continue };
        if cell.spec.name != "paper_demo" {
            continue;
        }
        if cell.opts.disable_controller {
            if r.qoe.stalls == 0 {
                bad.push(format!("{}: baseline twin never stalled", cell.label));
            }
        } else if r.qoe.stalls != 0 || r.injections < 3 {
            bad.push(format!(
                "{}: controller on, yet {} stalls and {} injections (want 0 and >= 3)",
                cell.label, r.qoe.stalls, r.injections
            ));
        }
    }
    bad
}

/// Tally of operations across a run of the benchmark.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why (one line per failure; capped where it is printed).
    pub why: Vec<String>,
}

impl Ops {
    /// Count one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.why.push(why);
    }

    /// Count a failed check that is not tied to one operation.
    pub fn fail_all(&mut self, why: Vec<String>) {
        for w in why {
            self.fail(w);
        }
    }
}

/// One timed rep of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The rep proper, host seconds.
    pub wall_s: f64,
    /// The same in calibrated seconds (equal to `wall_s` for a rep that
    /// was not sliced).
    pub cal_s: f64,
    /// Host seconds each cell took (one entry per cell).
    pub cell_walls: Vec<f64>,
    /// Per-cell digests (`None` = the cell failed): of summary and
    /// trace for a scenario, of the summary a sweep keeps for its cells.
    pub digests: Vec<Option<u64>>,
    /// Mean QoE score over controller-on cells.
    pub qoe_score: f64,
}

/// Mean QoE score over the controller-on cells among `reports`.
fn qoe_over<'a>(cells: &[Cell], reports: impl Iterator<Item = Option<&'a ScenarioReport>>) -> f64 {
    let scores: Vec<f64> = cells
        .iter()
        .zip(reports)
        .filter(|(c, _)| !c.opts.disable_controller)
        .filter_map(|(_, r)| r.map(|r| r.qoe.mean_score))
        .collect();
    if scores.is_empty() {
        0.0
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    }
}

/// Set up a workload from its text once, without running it: host
/// seconds and calibrated seconds (a burst on either side).
pub fn setup_once(w: &Workload) -> Result<(f64, f64), String> {
    let mut calib = Calibrator::start(1);
    let t = Instant::now();
    let secs = match &w.input {
        Input::Scenario { toml, opts } => {
            let spec = ScenarioSpec::from_toml_str(toml).map_err(|e| e.to_string())?;
            let run = build(&spec, *opts).map_err(|e| e.to_string())?;
            let secs = t.elapsed().as_secs_f64();
            drop(run);
            secs
        }
        Input::Sweep { toml } => {
            let resolved = workloads::resolve_sweep(toml).map_err(|e| e.to_string())?;
            let secs = t.elapsed().as_secs_f64();
            drop(resolved);
            secs
        }
    };
    calib.worked(secs);
    Ok(calib.finish())
}

/// Check a sweep's outcomes against the workload's cells (matched by
/// label, so sub-sweeps may arrive in any order) and fold them into a
/// [`Rep`] whose times the caller fills in.
fn fold_outcomes(w: &Workload, outcomes: Vec<CellOutcome>, ops: &mut Ops) -> Rep {
    let by_label: BTreeMap<String, CellOutcome> =
        outcomes.into_iter().map(|o| (o.cell.label(), o)).collect();
    let mut reports: Vec<Option<&ScenarioReport>> = Vec::new();
    let mut cell_walls = Vec::new();
    for cell in &w.cells {
        ops.attempt();
        let outcome = by_label.get(&cell.label);
        cell_walls.push(outcome.map_or(0.0, |o| o.wall_secs));
        let report = match outcome.map(|o| &o.result) {
            None => {
                ops.fail(format!("{}: the sweep never ran this cell", cell.label));
                None
            }
            Some(Err(e)) => {
                ops.fail(format!("{}: {e}", cell.label));
                None
            }
            Some(Ok(m)) => {
                if cell.sessions.is_some_and(|n| n != m.report.sessions) {
                    ops.fail(format!(
                        "{}: {} sessions scheduled, spec says {:?}",
                        cell.label, m.report.sessions, cell.sessions
                    ));
                }
                Some(&m.report)
            }
        };
        reports.push(report);
    }
    ops.fail_all(paper_claim(&w.cells, reports.iter().copied()));
    Rep {
        wall_s: 0.0,
        cal_s: 0.0,
        cell_walls,
        digests: reports
            .iter()
            .map(|r| r.map(|r| fnv1a(FNV_OFFSET, r.summary_csv().as_bytes())))
            .collect(),
        qoe_score: qoe_over(&w.cells, reports.iter().copied()),
    }
}

/// The workload's sweep in one `run_sweep_with` call, as the `sweep`
/// binary would run it (crowd_grid's per-layer run takes the
/// executor's numbers from this).
pub fn sweep_whole(w: &Workload, ops: &mut Ops) -> Option<Rep> {
    let Input::Sweep { toml } = &w.input else {
        return None;
    };
    let swept = workloads::resolve_sweep(toml).and_then(|(sweep, _)| {
        run_sweep_with(&sweep, workloads::grid_jobs(), None, &load_scenario)
    });
    match swept {
        Ok(run) => {
            let wall_s = run.wall_secs;
            Some(Rep {
                wall_s,
                cal_s: wall_s,
                ..fold_outcomes(w, run.outcomes, ops)
            })
        }
        Err(e) => {
            ops.attempt();
            ops.fail(e.to_string());
            None
        }
    }
}

/// One untraced, timed, calibrated rep from the workload's text. A
/// scenario is driven in slices; a sweep is swept one seed at a time
/// (see [`workloads::split_by_seed`]), with bursts between.
pub fn rep(w: &Workload, ops: &mut Ops) -> Option<Rep> {
    let spans_before = fib_trace::spans_started();
    let mut calib = Calibrator::start(match w.input {
        Input::Scenario { .. } => 1,
        Input::Sweep { .. } => workloads::grid_jobs(),
    });
    let rep = match &w.input {
        Input::Scenario { toml, .. } => {
            ops.attempt();
            let cell = match ScenarioSpec::from_toml_str(toml) {
                Ok(spec) => Cell {
                    spec,
                    ..w.cells[0].clone()
                },
                Err(e) => {
                    ops.fail(e.to_string());
                    return None;
                }
            };
            match run_cell(&cell, Drive::Sliced(&mut calib)) {
                Ok(r) => {
                    ops.fail_all(r.insane.clone());
                    Some(Rep {
                        wall_s: 0.0,
                        cal_s: 0.0,
                        cell_walls: vec![r.wall_s()],
                        digests: vec![Some(r.digest)],
                        qoe_score: r.report.qoe.mean_score,
                    })
                }
                Err(e) => {
                    ops.fail(e);
                    None
                }
            }
        }
        Input::Sweep { toml } => {
            let swept = workloads::resolve_sweep(toml).and_then(|(sweep, _)| {
                let mut outcomes = Vec::new();
                for part in workloads::split_by_seed(&sweep) {
                    let run = run_sweep_with(&part, workloads::grid_jobs(), None, &load_scenario)?;
                    calib.worked(run.wall_secs);
                    outcomes.extend(run.outcomes);
                }
                Ok(outcomes)
            });
            match swept {
                Ok(outcomes) => Some(fold_outcomes(w, outcomes, ops)),
                Err(e) => {
                    ops.attempt();
                    ops.fail(e.to_string());
                    None
                }
            }
        }
    };
    if fib_trace::spans_started() != spans_before {
        ops.fail(format!("{}: an untraced rep armed spans", w.name));
    }
    let (wall_s, cal_s) = calib.finish();
    rep.map(|r| Rep { wall_s, cal_s, ..r })
}

/// Compare a rep's digests with the first rep's; every differing cell
/// is a failed operation.
pub fn check_digests(w: &Workload, first: &[Option<u64>], other: &[Option<u64>], ops: &mut Ops) {
    for ((cell, a), b) in w.cells.iter().zip(first).zip(other) {
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                ops.fail(format!(
                    "{}: outputs differ between reps (digest {a:016x} vs {b:016x})",
                    cell.label
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_fine_through_the_cold_start_then_coarse() {
        let ends: Vec<f64> = slice_ends(30.0).collect();
        assert_eq!(ends.len(), 2000 + 280);
        assert!((ends[0] - 0.001).abs() < 1e-12);
        assert!((ends[1999] - 2.0).abs() < 1e-12);
        assert!((ends[2000] - 2.1).abs() < 1e-12);
        assert!((ends.last().unwrap() - 30.0).abs() < 1e-9);
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        // A horizon inside the cold start is cut short, not overrun.
        let short: Vec<f64> = slice_ends(0.0105).collect();
        assert_eq!(short.len(), 10);
        assert!(short.iter().all(|t| *t <= 0.0105));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
