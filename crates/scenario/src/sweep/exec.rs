//! The work-stealing cell executor.
//!
//! ## Dataflow
//!
//! The expanded cell list is immutable and shared; a single atomic
//! cursor is the whole scheduling policy. Each worker thread loops:
//! claim the next unclaimed index (`fetch_add`), run that cell to
//! completion, send `(index, outcome)` down a channel, repeat. The
//! collector owns a slot vector and files every outcome under its
//! index. No locks, no per-worker queues — cells are coarse enough
//! (whole simulator runs, tens of milliseconds to minutes) that one
//! shared cursor never contends measurably, and dynamic claiming
//! gives the load balancing a static shard split would lose when cell
//! runtimes vary by 100x across grid axes.
//!
//! ## Why the merged output is byte-identical at any `--jobs`
//!
//! * each cell is an independent, deterministic simulation: its
//!   outcome is a pure function of (scenario spec, seed, overrides) —
//!   no shared mutable state, no time-of-day, no cross-cell RNG;
//! * workers only *race for indices*, never for data: claiming order
//!   affects which thread runs a cell, not what the cell computes;
//! * the collector files outcomes by index, so the final vector is in
//!   cell order regardless of completion order.
//!
//! Wall-clock fields (`wall_secs`) are the one exception; the stats
//! layer keeps them out of the JSON record's deterministic view.
//!
//! Panics inside a cell are caught (`catch_unwind`) and recorded as
//! that cell's failure, so one diverging simulation cannot take down
//! the other few hundred — and the `sweep` binary can end with a
//! readable one-line summary instead of a mid-sweep abort.

use super::spec::{resolve_cell, scales_crowd, SweepCell, SweepSpec};
use crate::report::ScenarioReport;
use crate::runner::{build, RunOptions};
use crate::spec::{ScenarioSpec, SpecError};
use crate::suite::load_scenario;
use fib_netsim::sim::SimStats;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailure {
    /// The spec/build layer rejected the cell (unknown router, a
    /// `pin_seed` scenario swept with a foreign seed, …).
    Spec(String),
    /// The simulation panicked; the payload message is preserved.
    Panic(String),
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Spec(m) => write!(f, "{m}"),
            CellFailure::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

/// What a successful cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// The condensed scenario report. The full trace CSV is dropped
    /// (emptied) — a sweep keeps hundreds of these alive at once and
    /// only the condensed metrics feed the distributions.
    pub report: ScenarioReport,
    /// The run's machinery counters (events, SPF runs, …), summed
    /// into per-group and sweep totals by the stats layer.
    pub stats: SimStats,
    /// Per-phase attribution of the cell's wall clock (each worker
    /// thread runs its cells under a thread-local
    /// [`fib_trace::AggSink`]); span counts are deterministic, wall
    /// percentages are not. The stats layer merges
    /// these into the sweep-level `phase_attribution` section.
    pub phases: Vec<fib_trace::PhaseAttribution>,
}

/// One cell's outcome, failure or not.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// Metrics, or why there are none.
    pub result: Result<CellMetrics, CellFailure>,
    /// Wall-clock seconds the cell took (not deterministic).
    pub wall_secs: f64,
    /// Wall-clock seconds from sweep start to this cell starting (not
    /// deterministic; only consumed by `--trace-out` timeline export,
    /// never printed into pinned artifacts).
    pub start_secs: f64,
}

/// A completed sweep: every cell's outcome, in cell order.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The sweep that ran.
    pub spec: SweepSpec,
    /// Outcomes, index-aligned with [`SweepSpec::expand`].
    pub outcomes: Vec<CellOutcome>,
    /// Worker threads used.
    pub jobs: usize,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
}

impl SweepRun {
    /// Cells that failed, as `(cell index, label, error)`.
    pub fn failures(&self) -> Vec<(usize, String, String)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.result
                    .as_ref()
                    .err()
                    .map(|e| (i, o.cell.label(), e.to_string()))
            })
            .collect()
    }
}

/// Run one resolved cell (the worker body). Each cell runs under its
/// own thread-local [`fib_trace::AggSink`], so the sweep rolls up a
/// per-phase attribution of where its wall clock went; the sink is
/// always removed again, even when the cell panics.
fn run_one(spec: &ScenarioSpec, opts: RunOptions) -> Result<CellMetrics, CellFailure> {
    fib_trace::install(Box::new(fib_trace::AggSink::new()));
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<CellMetrics, SpecError> {
        let _span = fib_trace::span(fib_trace::Phase::ScenarioRun);
        let mut run = build(spec, opts)?;
        let horizon = run.horizon_secs();
        run.run_until_secs(horizon);
        let stats = run.sim.stats();
        let report = run.condense(false);
        Ok(CellMetrics {
            report,
            stats,
            phases: Vec::new(),
        })
    }));
    let phases = fib_trace::take()
        .and_then(|s| s.into_any().downcast::<fib_trace::AggSink>().ok())
        .map(|agg| agg.attribution())
        .unwrap_or_default();
    match outcome {
        Ok(Ok(mut m)) => {
            m.phases = phases;
            Ok(m)
        }
        Ok(Err(e)) => Err(CellFailure::Spec(e.to_string())),
        Err(payload) => Err(CellFailure::Panic(panic_message(payload))),
    }
}

/// Extract a readable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One job's report: its result plus the wall-clock duration and the
/// start offset from the executor's epoch (both seconds, both
/// non-deterministic; timeline export only).
pub(crate) type Timed<T> = (Result<T, String>, f64, f64);

/// The generic ordered executor: run `n` jobs across `jobs` workers,
/// collect results **in index order**. Panics in `work` are caught
/// and surface as `Err(message)` for that index only. Each result
/// carries its wall duration and its start offset from the executor's
/// own start (both non-deterministic; timeline export only).
pub(crate) fn execute_ordered<T, F>(n: usize, jobs: usize, work: F) -> Vec<Timed<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(jobs >= 1, "at least one worker");
    let epoch = Instant::now();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Timed<T>)>();
    let workers = jobs.min(n.max(1));
    let mut slots: Vec<Option<Timed<T>>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let work = &work;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let started = Instant::now();
                let start_off = started.duration_since(epoch).as_secs_f64();
                let result = catch_unwind(AssertUnwindSafe(|| work(i))).map_err(panic_message);
                let wall = started.elapsed().as_secs_f64();
                if tx.send((i, (result, wall, start_off))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, timed) in rx {
            slots[i] = Some(timed);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index reports exactly once"))
        .collect()
}

/// Load each distinct scenario of `spec` exactly once, before any worker
/// starts: a missing file fails the whole sweep up front, loudly,
/// instead of failing every cell of one entry. So does a grid entry
/// whose `crowd_scale` points would all be the same unscaled run, each
/// labelled with a crowd it does not have.
fn load_bases<'a>(
    spec: &'a SweepSpec,
    loader: &dyn Fn(&str) -> Result<ScenarioSpec, SpecError>,
) -> Result<BTreeMap<&'a str, ScenarioSpec>, SpecError> {
    let mut bases: BTreeMap<&str, ScenarioSpec> = BTreeMap::new();
    for (i, entry) in spec.grid.iter().enumerate() {
        let name = entry.scenario.as_str();
        if !bases.contains_key(name) {
            bases.insert(name, loader(name)?);
        }
        if entry.crowd_scale.iter().any(|&s| s != 1.0) && !scales_crowd(&bases[name]) {
            return Err(SpecError(format!(
                "grid entry {i} (`{name}`) sets crowd_scale {:?}, but `{name}` has no \
                 sessions it scales",
                entry.crowd_scale
            )));
        }
    }
    Ok(bases)
}

/// Run a sweep with a custom scenario loader (tests inject in-memory
/// specs; [`run_sweep`] uses the shipped `scenarios/` files).
pub fn run_sweep_with(
    spec: &SweepSpec,
    jobs: usize,
    cli_horizon_secs: Option<f64>,
    loader: &dyn Fn(&str) -> Result<ScenarioSpec, SpecError>,
) -> Result<SweepRun, SpecError> {
    if jobs == 0 {
        return Err(SpecError("--jobs must be at least 1".into()));
    }
    let started = Instant::now();
    let bases = load_bases(spec, loader)?;
    let cells = spec.expand();
    // Resolve every cell's (scaled spec, options) pair up front; the
    // workers then only simulate.
    let resolved: Vec<(ScenarioSpec, RunOptions)> = cells
        .iter()
        .map(|cell| {
            let base = &bases[cell.scenario.as_str()];
            resolve_cell(base, cell, cli_horizon_secs)
        })
        .collect();
    let raw = execute_ordered(cells.len(), jobs, |i| {
        let (spec, opts) = &resolved[i];
        run_one(spec, *opts)
    });
    let outcomes = cells
        .into_iter()
        .zip(raw)
        .map(|(cell, (result, wall_secs, start_secs))| CellOutcome {
            cell,
            // `run_one` already catches panics; a panic reaching
            // `execute_ordered`'s own guard (the outer Err) is folded
            // into the same failure channel.
            result: match result {
                Ok(r) => r,
                Err(msg) => Err(CellFailure::Panic(msg)),
            },
            wall_secs,
            start_secs,
        })
        .collect();
    Ok(SweepRun {
        spec: spec.clone(),
        outcomes,
        jobs,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

/// Run a sweep against the shipped `scenarios/` directory.
pub fn run_sweep(
    spec: &SweepSpec,
    jobs: usize,
    cli_horizon_secs: Option<f64>,
) -> Result<SweepRun, SpecError> {
    run_sweep_with(spec, jobs, cli_horizon_secs, &load_scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_execution_at_any_worker_count() {
        // Work that finishes wildly out of order: earlier indices
        // sleep longer.
        let n = 17;
        let work = |i: usize| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis((4 - i as u64) * 20));
            }
            i * i
        };
        let single: Vec<usize> = execute_ordered(n, 1, work)
            .into_iter()
            .map(|(r, _, _)| r.unwrap())
            .collect();
        for jobs in [2, 4, 8, 32] {
            let multi: Vec<usize> = execute_ordered(n, jobs, work)
                .into_iter()
                .map(|(r, _, _)| r.unwrap())
                .collect();
            assert_eq!(single, multi, "jobs={jobs} must not reorder results");
        }
        assert_eq!(single[16], 256);
    }

    #[test]
    fn zero_cells_is_fine() {
        let out = execute_ordered(0, 4, |_| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let out = execute_ordered(5, 3, |i| {
            if i == 2 {
                panic!("cell {i} diverged");
            }
            i
        });
        assert_eq!(out.len(), 5);
        for (i, (r, _, _)) in out.iter().enumerate() {
            if i == 2 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("cell 2 diverged"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    /// A one-entry grid on `paper_demo` over the crowd scales listed.
    fn paper_grid(crowd_scale: &str) -> SweepSpec {
        let toml = format!(
            "name = \"t\"\n[[grid]]\nscenario = \"paper_demo\"\nseeds = [1]\n\
             crowd_scale = {crowd_scale}\n"
        );
        SweepSpec::from_toml_str(&toml).unwrap()
    }

    #[test]
    fn a_crowd_scale_on_a_scenario_without_a_crowd_is_rejected() {
        let err = load_bases(&paper_grid("[1.0, 1.2]"), &load_scenario).unwrap_err();
        assert!(
            err.to_string().contains("grid entry 0 (`paper_demo`)"),
            "{err}"
        );
        // The unscaled point is the paper run, as the ledger's grid has it.
        assert!(load_bases(&paper_grid("[1.0]"), &load_scenario).is_ok());
    }

    #[test]
    fn every_shipped_grid_loads() {
        let mut grids = 0;
        for file in std::fs::read_dir(crate::sweep::sweeps_dir()).unwrap() {
            let path = file.unwrap().path();
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let sweep = crate::sweep::load_sweep(name).unwrap();
            load_bases(&sweep, &load_scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
            grids += 1;
        }
        assert!(grids >= 2, "{grids} grids");
    }
}
