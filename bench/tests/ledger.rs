//! Integration tests of the ledger: the generators, the catalogue
//! against `BENCHMARK.json`, and both kinds of run end to end on a
//! scenario small enough for a debug build.

use fib_igp::types::RouterId;
use fib_ledger::catalog::{END_TO_END, PER_LAYER};
use fib_ledger::json::{self, Value};
use fib_ledger::measure;
use fib_ledger::report;
use fib_ledger::workloads::{self, Input, Workload, WORKLOADS};
use fib_scenario::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

fn text(w: &Workload) -> &str {
    match &w.input {
        Input::Scenario { toml, .. } | Input::Sweep { toml } => toml,
    }
}

#[test]
fn generators_are_byte_deterministic_per_seed_and_differ_across_seeds() {
    for name in WORKLOADS {
        let a = workloads::generate(name, 7).unwrap();
        let b = workloads::generate(name, 7).unwrap();
        assert_eq!(text(&a), text(&b), "{name}: same seed, same bytes");
        assert_eq!(a.cells.len(), b.cells.len());
        let other = workloads::generate(name, 8).unwrap();
        if name == "metro_core" {
            // The shipped spec pins its seed: nothing for ours to move.
            assert_eq!(text(&a), text(&other));
        } else {
            assert_ne!(text(&a), text(&other), "{name}: seeds must differ");
        }
    }
    assert!(workloads::generate("no_such_workload", 1).is_none());
}

#[test]
fn generated_text_parses_back_to_the_cells() {
    for seed in [1, 2016] {
        for name in ["metro_core", "predictive_storm", "dataplane_churn"] {
            let w = workloads::generate(name, seed).unwrap();
            let spec = ScenarioSpec::from_toml_str(text(&w)).unwrap();
            assert_eq!(spec, w.cells[0].spec, "{name}");
        }
        let w = workloads::generate("crowd_grid", seed).unwrap();
        let sweep = workloads::crowd_grid_sweep(seed);
        assert_eq!(
            SweepSpec::from_toml_str(&workloads::sweep_toml(&sweep)).unwrap(),
            sweep,
            "sweep text round-trips"
        );
        assert_eq!(w.cells.len(), sweep.expand().len());
        assert_eq!(
            w.cells.len(),
            150,
            "74 grid cells + paper_demo, each with a twin"
        );
    }
}

#[test]
fn scheduled_sessions_follow_from_the_spec() {
    let sessions = |name: &str| workloads::generate(name, 3).unwrap().cells[0].sessions;
    assert_eq!(sessions("metro_core"), Some(2000));
    assert_eq!(sessions("predictive_storm"), Some(240));
    assert_eq!(sessions("dataplane_churn"), Some(36_000));
    let grid = workloads::generate("crowd_grid", 3).unwrap();
    let probed = &grid.cells[grid.probe_cell];
    assert_eq!(probed.spec.name, "paper_demo");
    assert!(!probed.opts.disable_controller);
    assert_eq!(probed.sessions, Some(62));
    // Diurnal demand draws its session count; no fixed expectation.
    assert!(grid
        .cells
        .iter()
        .any(|c| c.spec.name == "diurnal_mix" && c.sessions.is_none()));
}

#[test]
fn no_workload_ever_faults_a_bridge() {
    for seed in 1..=12 {
        for name in ["metro_core", "predictive_storm", "dataplane_churn"] {
            let w = workloads::generate(name, seed).unwrap();
            let spec = &w.cells[0].spec;
            let topo = workloads::graph_of(spec, spec.seed);
            for e in &spec.events {
                if let EventKind::FailLink { a, b } = e.kind {
                    assert!(
                        topo.has_link(RouterId(a), RouterId(b)),
                        "{name}: {a}-{b} exists"
                    );
                    assert!(
                        !workloads::is_bridge(&topo, RouterId(a), RouterId(b)),
                        "{name} seed {seed}: failing {a}-{b} would partition the graph"
                    );
                }
            }
        }
    }
    // The helper itself: a line's links are all bridges, a ring's none.
    let line = fib_igp::builders::line(4);
    assert!(workloads::is_bridge(&line, RouterId(2), RouterId(3)));
    let ring = fib_igp::builders::ring(4);
    assert!(!workloads::is_bridge(&ring, RouterId(2), RouterId(3)));
}

#[test]
fn sweeping_seed_by_seed_covers_every_cell_once() {
    let sweep = workloads::crowd_grid_sweep(5);
    let whole: Vec<String> = sweep.expand().iter().map(|c| c.label()).collect();
    let mut parts: Vec<String> = workloads::split_by_seed(&sweep)
        .iter()
        .flat_map(|p| p.expand())
        .map(|c| c.label())
        .collect();
    assert_eq!(parts.len(), whole.len());
    parts.sort();
    let mut sorted = whole.clone();
    sorted.sort();
    assert_eq!(parts, sorted);
    assert_eq!(
        sorted.iter().collect::<BTreeSet<_>>().len(),
        whole.len(),
        "labels are unique"
    );
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn catalogue_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        assert!(m.what.len() > 10, "{} says what it measures", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    for name in WORKLOADS {
        assert!(valid_name(name));
    }
}

#[test]
fn benchmark_json_is_exactly_what_the_catalogue_generates() {
    let committed = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    assert_eq!(
        committed,
        report::benchmark_json(),
        "regenerate with `ledger --print benchmark-json > BENCHMARK.json`"
    );
    let keys: Vec<&str> = committed
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = committed
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in committed.get("workloads").and_then(Value::as_arr).unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why is one short line"
        );
    }
    assert!(include_str!("../../BENCHMARK.json").len() < 64 * 1024);
}

/// A triangle with a slow detour, a surge that overloads the direct
/// link, controller on: every layer does something, in milliseconds.
const TINY: &str = r#"
name = "tiny"
horizon_secs = 30.0
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
at = 10.0
src = 1
n = 12
rate = 1e5
video_secs = 60.0
"#;

fn names(outcome: &measure::Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|(m, _)| m.name).collect()
}

#[test]
fn an_end_to_end_run_emits_exactly_the_end_to_end_catalogue() {
    let w = workloads::scenario_workload("tiny", TINY.to_string(), None, 15.0);
    let outcome = measure::end_to_end(&w, 0.0, Instant::now());
    assert_eq!(outcome.ops.why, Vec::<String>::new());
    assert!(outcome.correct());
    assert_eq!(outcome.ops.attempted, 1, "zero seconds still runs one rep");
    assert_eq!(
        names(&outcome),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (m, v) in &outcome.metrics {
        assert!(
            v.is_finite() && *v > 0.0,
            "{} = {v} must be positive",
            m.name
        );
    }
    // The result line is the contract's object, nothing more.
    let line = json::parse(&outcome.result_line()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    for ((name, entry), m) in metrics.iter().zip(END_TO_END) {
        assert_eq!(name, m.name);
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
        assert!(entry.get("value").and_then(Value::as_f64).is_some());
    }
}

#[test]
fn a_per_layer_run_emits_exactly_the_per_layer_catalogue() {
    let w = workloads::scenario_workload("tiny", TINY.to_string(), None, 15.0);
    let outcome = measure::per_layer(&w);
    assert_eq!(outcome.ops.why, Vec::<String>::new());
    assert!(outcome.correct());
    assert_eq!(
        names(&outcome),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .unwrap()
            .1
    };
    for (m, v) in &outcome.metrics {
        assert!(v.is_finite(), "{} = {v}", m.name);
    }
    // Every layer left a mark.
    assert!(value("kernel.events") > 0.0);
    assert!(value("igp.rx_pkts") > 0.0);
    assert_eq!(value("igp.decode_errors"), 0.0);
    assert!(value("netsim.reallocs") > 0.0);
    assert!(value("telemetry.poll_rounds") > 0.0);
    assert!(value("core.evaluations") > 0.0);
    assert!(value("core.injections") >= 1.0, "the surge forces a lie");
    assert_eq!(value("video.sessions"), 12.0);
    assert_eq!(value("netsim.flows_at_checkpoint"), 12.0);
    assert_eq!(value("scenario.cells"), 1.0);
    assert!(value("igp.cold_converge_ms") > 0.0);
    assert!(value("core.plan_paths_probe_us") > 0.0);
    assert!(value("trace.spans_total") > 0.0);
    assert!(value("trace.traced_pct") > 0.0 && value("trace.traced_pct") <= 100.0);
    // Tracing and pausing for probes must not have changed an output:
    // `correct()` above already covers the digest comparison.
}

#[test]
fn a_wrong_expectation_is_a_failed_operation_not_a_crash() {
    let mut w = workloads::scenario_workload("tiny", TINY.to_string(), None, 15.0);
    w.cells[0].sessions = Some(13);
    let outcome = measure::end_to_end(&w, 0.0, Instant::now());
    assert!(!outcome.correct());
    assert_eq!(outcome.ops.failed, 1);
    assert!(
        outcome.ops.why[0].contains("sessions"),
        "{:?}",
        outcome.ops.why
    );
    let line = json::parse(&outcome.result_line()).unwrap();
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn slicing_a_run_for_calibration_changes_no_output() {
    use fib_ledger::calib::Calibrator;
    use fib_ledger::run::{run_cell, Drive};
    let w = workloads::scenario_workload("tiny", TINY.to_string(), None, 15.0);
    let plain = run_cell(&w.cells[0], Drive::Plain).unwrap();
    let mut calib = Calibrator::start(1);
    let sliced = run_cell(&w.cells[0], Drive::Sliced(&mut calib)).unwrap();
    assert_eq!(plain.digest, sliced.digest, "summary and trace bytes agree");
    assert_eq!(plain.counters, sliced.counters, "and so does every counter");
    let (raw, cal) = calib.finish();
    assert!(raw > 0.0 && cal > 0.0);
    // A pause for probes is just as invisible.
    let mut seen_at = 0.0;
    let mut probe = |run: &mut ScenarioRun| seen_at = run.sim.now().as_secs_f64();
    let paused = run_cell(&w.cells[0], Drive::Paused(15.0, &mut probe)).unwrap();
    assert_eq!(plain.digest, paused.digest);
    assert!((seen_at - 15.0).abs() < 1e-9);
}
