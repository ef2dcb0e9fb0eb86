//! Regenerates Fig. 2: per-link throughput over time during the flash
//! crowd, with the controller enabled and disabled.
//!
//! Runs `scenarios/paper_demo.toml`, once as shipped and once with the
//! controller disabled. Emits `results/fig2_fibbing.csv` and
//! `results/fig2_baseline.csv` in long format (`series,time,value`;
//! A-R1, B-R2 and B-R3 are the spec's `r1-r3`, `r2-r4` and `r2-r5`)
//! plus phase summaries.
//!
//! Run: `cargo run --release -p fib-bench --bin fig2_timeseries`
//!
//! The horizon defaults to the paper's 55 simulated seconds; pass
//! `--horizon 20` for a reduced run — CI uses this as a deterministic
//! end-to-end smoke test of the whole pipeline.

use fib_bench::cli::Cli;
use fib_bench::{f, results_dir, Table};
use fibbing::demo;
use fibbing::prelude::summarize;
use fibbing::scenario::prelude::{build, load_scenario, RunOptions};

/// The links Fig. 2 plots, A-R1, B-R2 and B-R3, as the spec names them.
const SERIES: [&str; 3] = ["r1-r3", "r2-r4", "r2-r5"];

/// Simulated horizon in seconds (`--horizon`, default 55).
fn horizon_secs() -> u64 {
    Cli::from_env(&["horizon"])
        .u64_flag("horizon")
        .unwrap_or(55)
}

fn run(controller: bool, tag: &str) {
    let secs = horizon_secs();
    let spec = load_scenario("paper_demo").expect("shipped spec parses");
    let opts = RunOptions {
        horizon_secs: Some(secs as f64),
        disable_controller: !controller,
        ..RunOptions::default()
    };
    let mut run = build(&spec, opts).expect("paper_demo builds");
    run.run_until_secs(secs as f64);
    let rec = run.sim.recorder();

    let path = results_dir().join(format!("fig2_{tag}.csv"));
    std::fs::write(&path, rec.to_csv()).expect("write fig2 csv");
    println!("[saved {}]", path.display());

    println!(
        "\ncontroller {}:",
        if controller { "ENABLED" } else { "DISABLED" }
    );
    print!(
        "{}",
        rec.ascii_chart(&SERIES, 72, secs as f64, demo::CAPACITY)
    );

    let mut t = Table::new(&[
        "phase",
        "A-R1 (B/s)",
        "B-R2 (B/s)",
        "B-R3 (B/s)",
        "max util",
    ]);
    let phases = [
        (5.0, 14.0, "1 flow   (t in 5..14s)"),
        (25.0, 34.0, "31 flows (t in 25..34s)"),
        (45.0, 54.0, "62 flows (t in 45..54s)"),
    ];
    for (from, to, label) in phases.into_iter().filter(|(_, to, _)| *to <= secs as f64) {
        let [a_r1, b_r2, b_r3] = SERIES.map(|s| rec.mean_over(s, from, to).unwrap_or(0.0));
        let max = [a_r1, b_r2, b_r3].into_iter().fold(0.0f64, f64::max) / demo::CAPACITY;
        t.row(&[label.to_string(), f(a_r1), f(b_r2), f(b_r3), f(max)]);
    }
    t.emit(&format!("fig2_{tag}_phases"));

    let reports = run.qoe.reports();
    let s = summarize(&reports);
    println!(
        "QoE: {} sessions, {} stalls, {:.1}s stalled, mean score {:.2}",
        s.sessions, s.stalls, s.stall_secs, s.mean_score
    );
}

fn main() {
    println!("== Fig. 2: throughput over A-R1 / B-R2 / B-R3 ==");
    println!("(1 flow at t=0, +30 at t=15, +31 from the second source at t=35)");
    run(true, "fibbing");
    run(false, "baseline");
    println!("\nShape to compare against the paper: as load increases, Fibbing");
    println!("activates B-R3 (t=15) then A-R1 with a 1/3-2/3 split (t=35); the");
    println!("maximum link load stays well below capacity while the baseline");
    println!("saturates B-R2.");
}
