//! Byte pins of the session schedules no other pin covers.
//!
//! `churn_pin` pins `poisson` workloads and `predictive_pin` pins
//! `flash_crowd` events; the paper's own three waves — with the
//! controller (`paper_demo`) and without it (`no_controller_baseline`)
//! — and the `diurnal` generator were only ever compared run against
//! run. A change to how a schedule is described, ordered, tagged or
//! launched, or one that only makes a tick cheaper, must move none of
//! the digests below. The QoE digests hold the players that sleep on
//! their classes' content clocks, with every startup, stall and resume
//! at its exact instant; the trace digests did not move with them.

mod common;

use common::render;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::suite::load_scenario;

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
fn paper_workload_through_the_scenario_engine_is_pinned_byte_for_byte() {
    let (summary, data_plane) = scenario_digests("paper_demo", None, 62);
    assert_eq!(
        data_plane,
        [0xc087_ce43_650c_f138, 0xb7d1_9e91_b46a_5398],
        "trace / QoE digests moved: {data_plane:#018x?}"
    );
    assert_eq!(
        summary, 0xd278_e15f_68e6_18c2,
        "summary digest moved: {summary:#018x}"
    );
}

#[test]
fn no_controller_baseline_is_pinned_byte_for_byte() {
    let (summary, data_plane) = scenario_digests("no_controller_baseline", None, 62);
    assert_eq!(
        data_plane,
        [0x8fbd_df1a_6261_fecd, 0x4d88_599e_47c6_ae37],
        "trace / QoE digests moved: {data_plane:#018x?}"
    );
    assert_eq!(
        summary, 0x6cde_04c0_fcd9_862b,
        "summary digest moved: {summary:#018x}"
    );
}

#[test]
fn diurnal_workload_is_pinned_byte_for_byte() {
    let (summary, data_plane) = scenario_digests("diurnal_mix", Some(40.0), 12);
    assert_eq!(
        data_plane,
        [0x8a5f_3044_5184_cd54, 0x0698_8457_0f1d_2855],
        "trace / QoE digests moved: {data_plane:#018x?}"
    );
    assert_eq!(
        summary, 0x09be_61d4_51f6_54f4,
        "summary digest moved: {summary:#018x}"
    );
}
