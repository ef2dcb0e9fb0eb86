//! `ledger`: the repository's benchmark.
//!
//! Four workloads, each measured end to end (untraced, timed reps) and
//! layer by layer (deterministic counters, the program's own spans
//! seen through a benchmark-owned sink, and outside probes into each
//! layer's public functions). `../BENCHMARK.json` is the contract the
//! driver reads; `README.md` explains every number.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calib;
pub mod catalog;
pub mod json;
pub mod machine;
pub mod measure;
pub mod probes;
pub mod report;
pub mod run;
pub mod sink;
pub mod stats;
pub mod workloads;
