//! # The parallel multi-seed sweep engine
//!
//! One scenario run answers "what happened on this seed?"; the paper's
//! claim — Fibbing keeps playbacks smooth *across* flash crowds — is
//! statistical, so the unit of evidence has to be a **distribution**.
//! This module turns a declarative grid (scenarios × seed ranges ×
//! parameter overrides) into hundreds of independent cells, runs them
//! across a thread pool, and aggregates the reports into per-scenario
//! quantiles with controller-on vs controller-off deltas.
//!
//! * [`spec`] — the `SweepSpec` TOML model (reusing [`crate::toml`]),
//!   grid expansion into [`spec::SweepCell`]s, and the override
//!   precedence rule: *scenario-spec default < sweep-grid value < CLI
//!   flag*;
//! * [`exec`] — the work-stealing executor: a shared atomic cursor
//!   over the cell list, `std::thread` workers, results sent back over
//!   a channel and **collected in cell order**, so the merged output
//!   is byte-identical at any `--jobs` (each cell is an independent,
//!   already byte-deterministic [`crate::runner`] run);
//! * [`stats`] — the distribution layer: p5/p50/p95 quantiles over
//!   QoE, peak utilization, reaction latency and unroutable-flow-secs
//!   tails, paired controller-on vs baseline QoE deltas, and
//!   per-cell machinery counters ([`fib_netsim::sim::SimStats`])
//!   summed per group and per sweep.
//!
//! Sweep grids ship under `sweeps/` at the workspace root;
//! `cargo run --release -p fib-bench --bin sweep -- sweeps/smoke.toml`
//! runs one and writes `results/BENCH_sweep.json` plus byte-diffable
//! CSVs.

pub mod exec;
pub mod spec;
pub mod stats;

pub use exec::{
    panic_message, run_sweep, run_sweep_with, CellFailure, CellMetrics, CellOutcome, SweepRun,
};
pub use spec::{load_sweep, sweeps_dir, GridEntry, SweepCell, SweepSpec};
pub use stats::{Dist, GroupDist, SweepSummary};
