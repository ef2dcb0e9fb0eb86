//! Run a parallel multi-seed sweep grid and aggregate distributions.
//!
//! A sweep grid (`sweeps/*.toml`, see `docs/SWEEP_FORMAT.md`) declares
//! scenarios × seed ranges × parameter overrides; this binary expands
//! it into cells, shards them across a worker pool, and writes:
//!
//! * `results/BENCH_sweep.json` — distributions, per-cell rollups,
//!   failures, and wall-clock timing (with the worker counts, the only
//!   non-deterministic values; `BENCH_sweep.det.json` next to it is
//!   the same record without them);
//! * `results/sweep_<name>_cells.csv` — one row per run;
//! * `results/sweep_<name>_dist.csv` — per-group QoE/utilization/
//!   reaction/unroutable distributions with controller-on vs baseline
//!   QoE deltas.
//!
//! Both CSVs are byte-identical at any `--jobs` (ordered collection
//! over deterministic cells — see the executor docs in
//! `fib_scenario::sweep::exec`).
//!
//! Run: `cargo run --release -p fib-bench --bin sweep -- \
//!         sweeps/flashcrowd_grid.toml --jobs 4`
//!
//! Flags: `--jobs N` (worker threads; default: available
//! parallelism), `--horizon SECS` (override every cell's horizon —
//! the strongest layer of the spec < grid < CLI precedence chain),
//! `--trace-out PATH` (Chrome trace-event timeline of the sweep's own
//! scheduling: one `"X"` span per cell, laid out in worker-style lanes
//! from each cell's measured start offset and duration — unlike the
//! simulator traces this is a wall-clock *scheduling* visualization
//! and is not deterministic).
//!
//! Exit status: non-zero if any cell failed a spec/`pin_seed` check or
//! panicked, with a one-line `sweep FAILED:` summary naming **every**
//! failed cell with its error — panic *messages* included, so a CI log
//! diagnoses the failure without re-running 200 cells.

use fib_bench::cli::Cli;
use fib_bench::{f, results_dir, Table};
use fib_scenario::prelude::*;
use fib_scenario::sweep::stats::{cells_csv, to_doc};
use fib_scenario::sweep::SweepRun;
use fib_trace::artifact::{save, volatile, Value};
use std::path::Path;

/// The sweep's cell-scheduling timeline as a Chrome trace-event
/// document: one complete (`"X"`) span per cell, named by its label,
/// with cells packed greedily into non-overlapping lanes (`tid`). Start
/// offsets, durations and therefore lanes are wall-clock measurements:
/// a visualization aid whose deterministic view is just the cell list.
fn cell_timeline(run: &SweepRun) -> Value {
    let mut lane_end: Vec<f64> = Vec::new();
    let events = run
        .outcomes
        .iter()
        .map(|o| {
            let lane = match lane_end.iter().position(|end| *end <= o.start_secs + 1e-12) {
                Some(l) => l,
                None => {
                    lane_end.push(0.0);
                    lane_end.len() - 1
                }
            };
            lane_end[lane] = o.start_secs + o.wall_secs;
            fib_trace::trace_event(
                o.cell.label(),
                "X",
                volatile(lane + 1),
                (o.start_secs * 1e6) as u64,
                Some((o.wall_secs * 1e6) as u64),
                vec![
                    ("seed", o.cell.seed.into()),
                    (
                        "variant",
                        if o.cell.baseline { "base" } else { "on" }.into(),
                    ),
                    (
                        "status",
                        if o.result.is_ok() { "ok" } else { "failed" }.into(),
                    ),
                ],
            )
        })
        .collect();
    fib_trace::trace_doc(0, events)
}

fn main() {
    let cli =
        Cli::from_env_with_positionals(&["jobs", "horizon", "trace-out"], &["sweep-spec.toml"]);
    let Some(arg) = cli.positionals().first() else {
        eprintln!("error: missing sweep spec (a sweeps/*.toml path or bare name)");
        std::process::exit(2);
    };
    let spec = match load_sweep(arg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let jobs = cli
        .u64_flag("jobs")
        .map(|j| j as usize)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let horizon = cli.f64_flag("horizon");
    let cells = spec.expand().len();
    println!(
        "== sweep {}: {} cells over {} grid entries, {jobs} worker(s) ==",
        spec.name,
        cells,
        spec.grid.len()
    );

    let run = match run_sweep(&spec, jobs, horizon) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let summary = SweepSummary::from_run(&run);
    let per_cell = cells_csv(&run);

    let doc = to_doc(&run, &summary);
    let json_path = results_dir().join("BENCH_sweep.json");
    save(&json_path, &doc).expect("write BENCH json");
    let cells_path = results_dir().join(format!("sweep_{}_cells.csv", spec.name));
    std::fs::write(&cells_path, &per_cell).expect("write cells csv");
    let dist_path = results_dir().join(format!("sweep_{}_dist.csv", spec.name));
    std::fs::write(&dist_path, summary.dist_csv()).expect("write dist csv");
    if let Some(out) = cli.get("trace-out") {
        save(Path::new(out), &cell_timeline(&run))
            .unwrap_or_else(|e| panic!("--trace-out {out}: {e}"));
        println!("[saved {out}: {} cell spans]", run.outcomes.len());
    }

    let mut table = Table::new(&[
        "group",
        "cells",
        "sess",
        "QoE p5",
        "QoE p50",
        "QoE p95",
        "dQoE p50",
        "util p95",
        "unroutable p95",
        "react p95",
        "stalls",
    ]);
    let dash = || "-".to_string();
    for g in &summary.groups {
        table.row(&[
            g.label.clone(),
            format!(
                "{}{}",
                g.cells,
                if g.failed > 0 {
                    format!(" ({} failed)", g.failed)
                } else {
                    String::new()
                }
            ),
            g.sessions.to_string(),
            g.qoe.map(|d| f(d.p5)).unwrap_or_else(dash),
            g.qoe.map(|d| f(d.p50)).unwrap_or_else(dash),
            g.qoe.map(|d| f(d.p95)).unwrap_or_else(dash),
            g.qoe_delta.map(|d| f(d.p50)).unwrap_or_else(dash),
            g.max_util.map(|d| f(d.p95)).unwrap_or_else(dash),
            g.unroutable.map(|d| f(d.p95)).unwrap_or_else(dash),
            g.reaction.map(|d| f(d.p95)).unwrap_or_else(dash),
            g.stalls.to_string(),
        ]);
    }
    table.emit(&format!("sweep_{}", spec.name));
    println!(
        "[sweep] {} cells in {:.2}s at --jobs {} ({:.1} cells/s)",
        summary.cells,
        run.wall_secs,
        run.jobs,
        summary.cells as f64 / run.wall_secs.max(1e-9),
    );
    println!(
        "[saved {} + {} + {}]",
        json_path.display(),
        cells_path.display(),
        dist_path.display()
    );
    println!(
        "Reading: each group row is one grid configuration aggregated across\n\
         its seeds. `dQoE p50` is the median paired controller-on minus\n\
         controller-off QoE delta — positive means Fibbing helped on the\n\
         median seed, and the p5..p95 spread in the CSVs shows how reliably."
    );

    if summary.failed > 0 {
        eprintln!("{}", failure_summary(summary.cells, &summary.failures));
        std::process::exit(1);
    }
}

/// The one-line exit summary naming every failed cell *with its
/// error* — for panicking cells that is the caught panic message, not
/// just the cell id, so CI logs are diagnosable without a re-run.
fn failure_summary(cells: usize, failures: &[(usize, String, String)]) -> String {
    let list: Vec<String> = failures
        .iter()
        .map(|(idx, label, error)| format!("cell {idx} {label} ({error})"))
        .collect();
    format!(
        "sweep FAILED: {}/{cells} cells failed: {}",
        failures.len(),
        list.join("; ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_summary_carries_every_panic_message() {
        let failures = vec![
            (
                1,
                "grid_a/s7".to_string(),
                "panic: index out of bounds: the len is 3".to_string(),
            ),
            (
                3,
                "grid_b/s9".to_string(),
                "spec error: bad link".to_string(),
            ),
        ];
        let line = failure_summary(4, &failures);
        assert!(line.starts_with("sweep FAILED: 2/4 cells failed: "));
        assert!(
            line.contains("cell 1 grid_a/s7 (panic: index out of bounds: the len is 3)"),
            "panic message must survive into the summary: {line}"
        );
        assert!(line.contains("cell 3 grid_b/s9 (spec error: bad link)"));
    }
}
