//! QoE table — "the video playbacks are smooth when the Fibbing
//! controller is in use and stutter when disabled" (Sec. 3),
//! quantified per session.
//!
//! Run: `cargo run --release -p fib-bench --bin table_qoe`

use fib_bench::{f, Table};
use fibbing::demo::{self, DemoConfig};
use fibbing::prelude::*;

fn run(controller: bool) -> (QoeSummary, usize) {
    let cfg = DemoConfig {
        controller,
        ..DemoConfig::default()
    };
    let run = demo::run(&cfg, 55);
    let reports = run.qoe.reports();
    let stalled = reports.iter().filter(|r| r.stalls > 0).count();
    (summarize(&reports), stalled)
}

fn main() {
    println!("== QoE: the demo's observable, per session ==\n");
    let mut t = Table::new(&[
        "run",
        "sessions",
        "sessions w/ stalls",
        "total stalls",
        "stalled seconds",
        "mean startup (s)",
        "mean score (1-5)",
    ]);
    for (label, controller) in [("Fibbing enabled", true), ("Fibbing disabled", false)] {
        let (s, stalled) = run(controller);
        t.row(&[
            label.to_string(),
            s.sessions.to_string(),
            stalled.to_string(),
            s.stalls.to_string(),
            f(s.stall_secs),
            f(s.mean_startup),
            f(s.mean_score),
        ]);
    }
    t.emit("table_qoe");
    println!("Reading: with the controller every one of the 62 videos plays");
    println!("without a single stall; without it the flash crowd starves most");
    println!("sessions — the paper's smooth-vs-stutter observation.");
}
