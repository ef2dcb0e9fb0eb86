//! T4 — reaction to a flash crowd: how long from surge to relief, and
//! at what control-plane cost (Sec. 2's "too slow for a transient
//! event" argument against weight reconfiguration, quantified).
//!
//! The surge is the paper's t = 15 s batch (30 extra videos at B).
//! Reaction time = first moment the B–R3 detour carries traffic. The
//! Fibbing rows run `scenarios/paper_demo.toml`, the SNMP-only one
//! with `controller.predictive = false`.
//!
//! Run: `cargo run --release -p fib-bench --bin table_reaction`

use fib_bench::{f, Table};
use fib_te::prelude::*;
use fibbing::demo::{self, paper_capacities, paper_topology, B, BLUE};
use fibbing::prelude::*;

/// Time (s) at which a recorded series first exceeds `level`, after
/// `after_secs`.
fn first_crossing(rec: &Recorder, series: &str, level: f64, after_secs: f64) -> Option<f64> {
    rec.series(series)
        .iter()
        .find(|(t, v)| *t >= after_secs && *v > level)
        .map(|(t, _)| *t)
}

fn controller_run(predictive: bool) -> (Option<f64>, u64, u64) {
    let mut spec = load_scenario("paper_demo").expect("shipped spec parses");
    spec.controller.as_mut().expect("controller on").predictive = predictive;
    let mut run = build(&spec, RunOptions::default()).expect("paper_demo builds");
    run.run_until_secs(14.0);
    let before = run.sim.stats();
    run.run_until_secs(33.0);
    let after = run.sim.stats();
    // B-R3 is the spec's `r2-r5`.
    let t = first_crossing(run.sim.recorder(), "r2-r5", 1e4, 14.9).map(|t| t - 15.0);
    (
        t,
        after.ctrl_pkts - before.ctrl_pkts,
        after.ctrl_bytes - before.ctrl_bytes,
    )
}

fn main() {
    println!("== T4: reaction to the t=15s surge (30 extra videos at B) ==\n");
    let mut t = Table::new(&[
        "method",
        "reaction time (s)",
        "ctrl pkts (t in 14..33s)",
        "ctrl bytes",
        "devices reconfigured",
    ]);

    // Fibbing, predictive (server notifications).
    let (t_pred, pkts_p, bytes_p) = controller_run(true);
    t.row(&[
        "Fibbing (notifications)".to_string(),
        t_pred.map(f).unwrap_or_else(|| "-".to_string()),
        pkts_p.to_string(),
        bytes_p.to_string(),
        "0".to_string(),
    ]);

    // Fibbing, SNMP-only (counter polling + EWMA + hysteresis).
    let (t_snmp, pkts_s, bytes_s) = controller_run(false);
    t.row(&[
        "Fibbing (SNMP only)".to_string(),
        t_snmp.map(f).unwrap_or_else(|| "-".to_string()),
        pkts_s.to_string(),
        bytes_s.to_string(),
        "0".to_string(),
    ]);

    // Weight reconfiguration: detection (1 s SNMP poll + 2 s hold) +
    // local search compute + serial per-device configuration (5 s per
    // device, a conservative CLI/agent latency) + flooding/SPF.
    let topo = paper_topology();
    let caps_map = paper_capacities(demo::CAPACITY);
    let mut tm = TrafficMatrix::new();
    tm.add(B, BLUE, 31.0 * demo::VIDEO_RATE);
    let started = std::time::Instant::now();
    let res = optimize_weights(&topo, &tm, &caps_map, 4, 8);
    let compute_secs = started.elapsed().as_secs_f64();
    let d = disruption(&topo, &res.topo, Dur::from_secs(5), Dur::from_millis(250));
    let detection = 3.0; // poll interval + hold-down
    let total = detection + compute_secs + d.est_convergence.as_secs_f64();
    t.row(&[
        "IGP weight reconfig".to_string(),
        f(total),
        d.lsas_reoriginated.to_string(),
        "-".to_string(),
        d.devices_reconfigured.to_string(),
    ]);

    t.emit("table4_reaction");
    println!(
        "(weight search: {} candidate evaluations, {} link changes, {} routers rerouted)",
        res.evaluations,
        res.changed_links.len(),
        d.routers_rerouted
    );
    println!("\nReading: the notification-driven controller reacts within ~1s");
    println!("(one optimizer run + one flooded LSA); SNMP-only adds the");
    println!("polling/EWMA/hold-down lag; weight reconfiguration pays serial");
    println!("device configuration and network-wide SPF churn — far beyond");
    println!("flash-crowd timescales, as the paper argues.");
}
