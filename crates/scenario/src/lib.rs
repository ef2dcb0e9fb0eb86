//! # fib-scenario — the declarative what-if harness
//!
//! The paper evaluates one topology under one flash-crowd storyline;
//! this crate makes "as many scenarios as you can imagine" cheap to
//! declare, run, and compare. A scenario is a `.toml` file (parsed by
//! the zero-dependency subset parser in [`toml`]) composing:
//!
//! * a **topology** — the paper's Fig. 1a graph or a seeded generator
//!   (line/ring/grid/mesh, random connected, Waxman, fat tree);
//! * a **controller** configuration (or none, for baselines);
//! * a **video workload mix** — the paper's exact schedule, constant
//!   batches, Poisson flash crowds, diurnal demand;
//! * a timed **event script** — link failures and recoveries, capacity
//!   changes, demand surges, flash crowds.
//!
//! The [`runner`] composes `fib_netsim::sim::Sim`,
//! `fib_core`'s Fibbing controller, `fib_telemetry`'s monitoring (via
//! the controller's SNMP path), and `fib_video` workloads; executes
//! the script deterministically from a seed; and condenses the run
//! into a [`report::ScenarioReport`] (peak/mean utilization, lie
//! churn, reaction latency, QoE, blackout seconds) plus the full
//! trace recorded through `fib_netsim::trace::Recorder`.
//!
//! ## Example
//!
//! ```
//! use fib_scenario::prelude::*;
//!
//! let spec = ScenarioSpec::from_toml_str(r#"
//! name = "two-flows"
//! horizon_secs = 15.0
//! capacity = 1e6
//! [topology]
//! kind = "line"
//! n = 3
//! [[workload]]
//! kind = "constant"
//! at = 5.0
//! src = 1
//! n = 2
//! rate = 1e5
//! video_secs = 60.0
//! "#).unwrap();
//! let report = run(&spec, RunOptions::default()).unwrap();
//! assert_eq!(report.sessions, 2);
//! assert!(report.max_util > 0.0);
//! ```
//!
//! Shipped scenarios live under `scenarios/` at the workspace root;
//! `cargo run -p fib-bench --bin scenario_suite -- --suite all`
//! runs them and writes per-scenario CSVs into `results/`.
//!
//! To fan scenarios out across seed ranges and parameter overrides —
//! hundreds of cells in parallel, reported as distributions — declare
//! a grid under `sweeps/` and run it through the [`sweep`] engine
//! (`cargo run -p fib-bench --bin sweep -- sweeps/smoke.toml`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod emit;
mod fields;
pub mod report;
pub mod runner;
pub mod spec;
pub mod suite;
pub mod sweep;
pub mod toml;
pub mod topo;

pub use runner::RunOptions;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::report::ScenarioReport;
    pub use crate::runner::{build, run, RunOptions, ScenarioRun, SettleMode, CONTROLLER_ID};
    pub use crate::spec::{
        ControllerSpec, EventKind, EventSpec, ExpectSpec, ScenarioSpec, SpecError, TopologySpec,
        WorkloadSpec,
    };
    pub use crate::suite::{
        check_paper_milestones, find_suite, found_dir, found_scenarios, load_found, load_scenario,
        scenarios_dir, Suite, ALL_SCENARIOS, PREDICTIVE_PIN, SUITES,
    };
    pub use crate::sweep::{
        load_sweep, run_sweep, sweeps_dir, CellFailure, CellOutcome, SweepCell, SweepRun,
        SweepSpec, SweepSummary,
    };
    pub use crate::topo::build_topology;
}
