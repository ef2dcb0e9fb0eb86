//! Regenerates every figure and table of the paper: Fig. 1, Fig. 2,
//! the QoE table and T1–T4 (see `fib_bench::paper`). Prints each and
//! writes its CSV under `results/`, plus T3's perf record.
//!
//! Run: `cargo run --release -p fib-bench --bin paper` (it takes no
//! flags).

use fib_bench::cli::Cli;
use fib_bench::paper;

fn main() {
    Cli::from_env(&[]);
    paper::fig1();
    println!();
    paper::paper_demo();
    paper::table1_control_overhead();
    paper::table2_dataplane_overhead();
    paper::table3_minmax_gap();
}
