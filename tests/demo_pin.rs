//! Byte pins of the three session schedules no other pin covers.
//!
//! `churn_pin` pins `poisson` workloads and `predictive_pin` pins
//! `flash_crowd` events; the paper's own three waves — through the
//! hand-wired demo and through the scenario engine's `paper` workload —
//! and the `diurnal` generator were only ever compared run against
//! run. A change to how a schedule is described, ordered, tagged or
//! launched must move none of the digests below.

use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use fibbing::demo::{self, DemoConfig};
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::suite::load_scenario;
use fibbing::video::prelude::QoeReport;
use std::fmt::Write as _;

/// One report per line, every field (`{:?}` prints the shortest text
/// that reads back to the same f64).
fn render(reports: &[QoeReport]) -> String {
    let mut out = String::new();
    for q in reports {
        let _ = writeln!(
            out,
            "{:?} {} {:?} {:?} {:?} {} {:?} {:?} {}",
            q.startup_delay,
            q.stalls,
            q.stall_secs,
            q.mean_bitrate,
            q.max_bitrate,
            q.switches,
            q.played_secs,
            q.duration,
            q.completed
        );
    }
    out
}

/// Recorder CSV and per-session QoE digests of the 55 s demo.
fn demo_digests(controller: bool) -> [u64; 2] {
    let cfg = DemoConfig {
        controller,
        ..DemoConfig::default()
    };
    let run = demo::run(&cfg, 55);
    let reports = run.qoe.reports();
    assert_eq!(reports.len(), 62);
    [
        fnv1a(FNV_OFFSET, run.sim.recorder().to_csv().as_bytes()),
        fnv1a(FNV_OFFSET, render(&reports).as_bytes()),
    ]
}

/// Summary CSV, trace CSV and per-session QoE digests of a shipped
/// scenario that schedules `sessions` viewers. The summary also counts
/// control packets and bytes; the other two are the data plane alone.
fn scenario_digests(name: &str, horizon_secs: Option<f64>, sessions: usize) -> (u64, [u64; 2]) {
    let spec = load_scenario(name).expect("shipped spec parses");
    let opts = RunOptions {
        horizon_secs,
        ..RunOptions::default()
    };
    let run = build(&spec, opts).expect("shipped spec builds");
    let qoe = run.qoe.clone();
    let report = run.finish();
    assert_eq!(report.sessions, sessions);
    (
        fnv1a(FNV_OFFSET, report.summary_csv().as_bytes()),
        [
            fnv1a(FNV_OFFSET, report.trace_csv.as_bytes()),
            fnv1a(FNV_OFFSET, render(&qoe.reports()).as_bytes()),
        ],
    )
}

#[test]
fn demo_with_controller_is_pinned_byte_for_byte() {
    let digests = demo_digests(true);
    assert_eq!(
        digests,
        [0x1a48_b182_ba83_01c8, 0x3e74_e907_0f6b_87ab],
        "recorder / QoE digests moved: {digests:#018x?}"
    );
}

#[test]
fn demo_without_controller_is_pinned_byte_for_byte() {
    let digests = demo_digests(false);
    assert_eq!(
        digests,
        [0xded9_41dd_d052_797f, 0xcf82_2251_5bc8_b52d],
        "recorder / QoE digests moved: {digests:#018x?}"
    );
}

#[test]
fn paper_workload_through_the_scenario_engine_is_pinned_byte_for_byte() {
    // The QoE digest is the hand-wired demo's: same waves, same tags.
    let (summary, data_plane) = scenario_digests("paper_demo", None, 62);
    assert_eq!(
        data_plane,
        [0xc087_ce43_650c_f138, 0x3e74_e907_0f6b_87ab],
        "trace / QoE digests moved: {data_plane:#018x?}"
    );
    assert_eq!(
        summary, 0x7cf0_04a7_48ed_d735,
        "summary digest moved: {summary:#018x}"
    );
}

#[test]
fn diurnal_workload_is_pinned_byte_for_byte() {
    let (summary, data_plane) = scenario_digests("diurnal_mix", Some(40.0), 12);
    assert_eq!(
        data_plane,
        [0x8a5f_3044_5184_cd54, 0x7039_43ad_a02d_7520],
        "trace / QoE digests moved: {data_plane:#018x?}"
    );
    assert_eq!(
        summary, 0x09be_61d4_51f6_54f4,
        "summary digest moved: {summary:#018x}"
    );
}
