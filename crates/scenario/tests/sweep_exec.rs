//! Integration tests for the sweep engine: byte-identical merged
//! output at any worker count, override precedence, pin_seed
//! rejection surfacing as readable per-cell failures, and failure
//! isolation.

use fib_scenario::prelude::*;
use fib_scenario::sweep::stats::{cells_csv, to_doc};
use fib_scenario::sweep::{run_sweep_with, CellFailure};
use fib_trace::artifact::View;

/// A small in-memory scenario: ring with a detour, one overloading
/// batch, controller on. Fast enough to fan out in debug tests.
const TINY: &str = r#"
name = "tiny"
horizon_secs = 25.0
seed = 1
capacity = 1e6
sinks = [3]
[topology]
kind = "ring"
n = 3
[controller]
attach = 2
default_flow_rate = 100000.0
[[workload]]
kind = "constant"
at = 8.0
src = 1
n = 12
rate = 1e5
video_secs = 60.0
"#;

const PINNED: &str = r#"
name = "pinned"
horizon_secs = 10.0
seed = 5
pin_seed = true
capacity = 1e6
sinks = [3]
[topology]
kind = "ring"
n = 3
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 2
rate = 1e5
video_secs = 5.0
"#;

fn loader(name: &str) -> Result<ScenarioSpec, SpecError> {
    match name {
        "tiny" => ScenarioSpec::from_toml_str(TINY),
        "pinned" => ScenarioSpec::from_toml_str(PINNED),
        other => Err(SpecError(format!("no such test scenario `{other}`"))),
    }
}

const GRID: &str = r#"
name = "t"
[[grid]]
scenario = "tiny"
seeds = [1, 2, 3, 4]
capacity_scale = [1.0, 0.9]
"#;

#[test]
fn merged_output_is_byte_identical_at_any_jobs() {
    let sweep = SweepSpec::from_toml_str(GRID).unwrap();
    let reference = run_sweep_with(&sweep, 1, None, &loader).unwrap();
    assert_eq!(reference.outcomes.len(), 16, "4 seeds x 2 caps x twins");
    assert!(reference.failures().is_empty());
    let ref_cells = cells_csv(&reference);
    let ref_summary = SweepSummary::from_run(&reference);
    let ref_dist = ref_summary.dist_csv();
    for jobs in [2, 4, 8] {
        let run = run_sweep_with(&sweep, jobs, None, &loader).unwrap();
        assert_eq!(
            cells_csv(&run),
            ref_cells,
            "per-cell CSV must be byte-identical at jobs={jobs}"
        );
        let summary = SweepSummary::from_run(&run);
        assert_eq!(
            summary.dist_csv(),
            ref_dist,
            "distribution CSV must be byte-identical at jobs={jobs}"
        );
        // The JSON differs only in its wall-clock/jobs values; compare
        // its deterministic view (what CI's `cmp` of the
        // `.det.json` twins compares).
        assert_eq!(
            to_doc(&run, &summary).render(View::Deterministic),
            to_doc(&reference, &ref_summary).render(View::Deterministic),
            "deterministic JSON view must match at jobs={jobs}"
        );
        assert_ne!(
            to_doc(&run, &summary).render(View::Full),
            to_doc(&reference, &ref_summary).render(View::Full),
            "the full views carry the differing worker counts"
        );
    }
    // The deterministic view carries every per-cell counter, the ones
    // no CSV column prints included: one skipped path more in one cell
    // and the comparison fails.
    let mut drifted = reference.clone();
    let cell = drifted.outcomes[0].result.as_mut().unwrap();
    cell.stats.paths_skipped += 1;
    assert_eq!(cells_csv(&drifted), ref_cells);
    assert_ne!(
        to_doc(&drifted, &SweepSummary::from_run(&drifted)).render(View::Deterministic),
        to_doc(&reference, &ref_summary).render(View::Deterministic),
    );
}

#[test]
fn distributions_aggregate_on_and_baseline_cells() {
    let sweep = SweepSpec::from_toml_str(GRID).unwrap();
    let run = run_sweep_with(&sweep, 4, None, &loader).unwrap();
    let summary = SweepSummary::from_run(&run);
    assert_eq!(summary.cells, 16);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.groups.len(), 2, "one group per capacity point");
    for g in &summary.groups {
        assert_eq!(g.cells, 8);
        let qoe = g.qoe.expect("controller-on distribution");
        assert_eq!(qoe.n, 4, "one sample per seed");
        assert!(qoe.p5 <= qoe.p50 && qoe.p50 <= qoe.p95);
        let delta = g.qoe_delta.expect("paired deltas");
        assert_eq!(delta.n, 4);
        assert!(
            delta.p50 >= 0.0,
            "controller should not hurt the median seed: {delta:?}"
        );
        assert!(g.stats.events > 0, "counters summed");
    }
    // The overload is real: the baseline saturates where the
    // controller spreads.
    let g = &summary.groups[0];
    let on = g.qoe.unwrap();
    let base = g.baseline_qoe.unwrap();
    assert!(
        on.mean > base.mean,
        "controller-on QoE must beat baseline: {} vs {}",
        on.mean,
        base.mean
    );
}

#[test]
fn pin_seed_violations_fail_the_cell_not_the_sweep() {
    let sweep = SweepSpec::from_toml_str(
        r#"
name = "t"
[[grid]]
scenario = "pinned"
seeds = [5, 6]
baseline = false
"#,
    )
    .unwrap();
    let run = run_sweep_with(&sweep, 2, None, &loader).unwrap();
    assert_eq!(run.outcomes.len(), 2);
    // Seed 5 is the pinned seed: it runs.
    assert!(run.outcomes[0].result.is_ok(), "pinned seed itself is fine");
    // Seed 6 violates the pin: that cell fails with the runner's
    // loud message, the sweep keeps going.
    match &run.outcomes[1].result {
        Err(CellFailure::Spec(msg)) => {
            assert!(msg.contains("pins seed"), "{msg}");
        }
        other => panic!("expected a pin_seed Spec failure, got {other:?}"),
    }
    let failures = run.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 1);
    assert!(failures[0].1.contains("pinned#s6"), "{}", failures[0].1);
    // And the summary carries it into the artifacts.
    let summary = SweepSummary::from_run(&run);
    assert_eq!(summary.failed, 1);
    let csv = cells_csv(&run);
    assert!(csv.contains("pinned#s6,pinned,6,on,failed"), "{csv}");
    assert!(to_doc(&run, &summary)
        .render(View::Full)
        .contains("pins seed"));
}

#[test]
fn cli_horizon_overrides_grid_horizon() {
    // Grid horizon 12 s (beats the spec's 25 s), CLI 6 s (beats both).
    let sweep = SweepSpec::from_toml_str(
        r#"
name = "t"
[[grid]]
scenario = "tiny"
seeds = [1]
horizon_secs = 12.0
baseline = false
"#,
    )
    .unwrap();
    let grid_run = run_sweep_with(&sweep, 1, None, &loader).unwrap();
    let report = grid_run.outcomes[0].result.as_ref().unwrap();
    assert!((report.report.horizon_secs - 12.0).abs() < 1e-12);
    let cli_run = run_sweep_with(&sweep, 1, Some(6.0), &loader).unwrap();
    let report = cli_run.outcomes[0].result.as_ref().unwrap();
    assert!((report.report.horizon_secs - 6.0).abs() < 1e-12);
}

#[test]
fn unknown_scenarios_fail_the_sweep_up_front() {
    let sweep = SweepSpec::from_toml_str(
        r#"
name = "t"
[[grid]]
scenario = "no_such_scenario"
seeds = [1]
"#,
    )
    .unwrap();
    let err = run_sweep_with(&sweep, 1, None, &loader).unwrap_err();
    assert!(err.to_string().contains("no_such_scenario"), "{err}");
}

#[test]
fn shipped_sweep_grids_parse_and_reference_shipped_scenarios() {
    for name in ["smoke", "flashcrowd_grid"] {
        let sweep = load_sweep(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sweep.name, name);
        assert!(!sweep.expand().is_empty());
        for entry in &sweep.grid {
            assert!(
                ALL_SCENARIOS.contains(&entry.scenario.as_str()),
                "sweep {name} references unknown scenario {}",
                entry.scenario
            );
            let spec = load_scenario(&entry.scenario).unwrap();
            if spec.pin_seed {
                assert!(
                    entry.seeds.iter().all(|s| *s == spec.seed),
                    "sweep {name} would sweep pinned scenario {} across foreign seeds",
                    entry.scenario
                );
            }
        }
    }
    // The flagship grid is the acceptance surface: at least 60
    // controller-on scenario x seed cells.
    let grid = load_sweep("flashcrowd_grid").unwrap();
    let on_cells = grid.expand().iter().filter(|c| !c.baseline).count();
    assert!(on_cells >= 60, "flagship grid too small: {on_cells}");
}
