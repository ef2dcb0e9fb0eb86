//! The paper's demo, end to end: a video flash crowd with and without
//! the Fibbing controller.
//!
//! Reproduces Fig. 2 (throughput over A–R1, B–R2, B–R3 with flows
//! arriving at t = 0/15/35 s) and the Sec. 3 observation that
//! playback is smooth with the controller and stutters without.
//!
//! Run with: `cargo run --release --example flash_crowd`

use fibbing::demo::{self, DemoConfig};
use fibbing::prelude::*;

fn run_once(controller: bool) {
    let cfg = DemoConfig {
        controller,
        ..DemoConfig::default()
    };
    println!(
        "\n================ controller {} ================",
        if controller { "ENABLED" } else { "DISABLED" }
    );
    let run = demo::run(&cfg, 55);
    let rec = run.sim.recorder();

    println!("link throughput over time (x: 0..55 s, y: 0..4 MB/s):");
    print!(
        "{}",
        rec.ascii_chart(&["A-R1", "B-R2", "B-R3"], 72, 55.0, demo::CAPACITY)
    );
    for phase in [
        (8.0, 14.0, "t in  8..14s"),
        (25.0, 34.0, "t in 25..34s"),
        (45.0, 54.0, "t in 45..54s"),
    ] {
        let (from, to, label) = phase;
        println!(
            "  {label}:  A-R1 {:>9.0} B/s   B-R2 {:>9.0} B/s   B-R3 {:>9.0} B/s",
            rec.mean_over("A-R1", from, to).unwrap_or(0.0),
            rec.mean_over("B-R2", from, to).unwrap_or(0.0),
            rec.mean_over("B-R3", from, to).unwrap_or(0.0),
        );
    }

    let reports = run.qoe.reports();
    let summary = summarize(&reports);
    println!(
        "\nQoE over {} sessions: {} smooth, {} stalls ({:.1}s stalled), mean score {:.2}",
        summary.sessions, summary.smooth, summary.stalls, summary.stall_secs, summary.mean_score
    );
}

fn main() {
    println!("Fibbing in action — the SIGCOMM'16 demo scenario");
    println!("62 videos of 125 kB/s; links of 4 MB/s; schedule 1/+30/+31 at t=0/15/35 s");
    run_once(true);
    run_once(false);
    println!("\n(Compare the two runs: with Fibbing the surge spreads over");
    println!(" B-R3 and A-R1 and everyone streams smoothly; without it the");
    println!(" B-R2 link saturates and playback stutters.)");
}
