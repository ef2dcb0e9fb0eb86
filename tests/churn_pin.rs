//! Byte pin of a data-plane churn run without a controller.
//!
//! A cut of the ledger's generated `dataplane_churn` workload
//! (`bench/src/workloads.rs`): four Poisson streams of 1 Mb/s sessions
//! into two sinks of a 12-router Waxman graph whose links saturate,
//! one sink uplink failed and restored (its capacity changed twice
//! while it is down), and a brown-out on the other sink's busiest uplinks. The other pins
//! run a controller that keeps playback smooth; here viewers stall,
//! flows strand on a micro-loop, and every session's [`QoeReport`] is
//! read twice — mid-run at an instant between two ticks, and at the
//! horizon, both with sessions still playing. A change that only makes
//! a tick or a settle cheaper must move none of the digests below.
//! They hold the players that sleep between their flow's rate changes:
//! every startup, stall and resume at its exact instant, and the cap
//! flips and stops on the 100 ms tick.

mod common;

use common::render;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::spec::ScenarioSpec;
use fibbing::video::prelude::QoeReport;
use std::fmt::Write as _;

/// The spec, shared with `incremental_stats`' work-count guard.
const SPEC: &str = include_str!("common/churn_pin.toml");

/// Simulated second of the first read: mid brown-out, between the
/// ticks at 13.5 and 13.6.
const MID_RUN_SECS: f64 = 13.537;

#[test]
fn no_controller_churn_run_is_pinned_byte_for_byte() {
    let spec = ScenarioSpec::from_toml_str(SPEC).expect("inline spec parses");
    let mut run = build(&spec, RunOptions::default()).expect("churn_pin builds");
    let qoe = run.qoe.clone();

    run.run_until_secs(MID_RUN_SECS);
    let mid = qoe.reports();
    let playing = |rs: &[QoeReport]| rs.iter().filter(|q| !q.completed).count();
    assert_eq!((mid.len(), playing(&mid)), (1084, 1042));

    run.run_until_secs(spec.horizon_secs);
    let stats = run.sim.stats();
    let distinct_paths = run.sim.distinct_paths();
    let end = qoe.reports();
    let report = run.finish();

    // The run does what the pin is for: viewers stall, flows strand,
    // and both reads see sessions that are still playing next to
    // sessions that finished. Every settle fills.
    assert_eq!((end.len(), playing(&end)), (1200, 880));
    assert_eq!(report.qoe.stalls, 596);
    assert_eq!(end.iter().map(|q| q.stalls).sum::<u32>(), 596);
    assert!(stats.unroutable_flow_secs > 1.0, "{stats:?}");
    assert_eq!(
        (stats.reallocs, stats.alloc_fills, stats.alloc_skips),
        (221, 221, 0)
    );
    assert_eq!(stats.unroutable, 130);
    // The simulator's path table follows the forwarding state's
    // variety, not the 1 200 sessions: interning per flow would show
    // here before it showed in a memory graph.
    assert!(distinct_paths < 64, "{distinct_paths} paths interned");

    let mut counters = String::new();
    for (name, value) in stats.counters() {
        let _ = writeln!(counters, "{name} {value}");
    }
    // The data plane — link series and every viewer's experience — apart
    // from the two digests that also count control packets and bytes.
    let data_plane = [
        fnv1a(FNV_OFFSET, report.trace_csv.as_bytes()),
        fnv1a(FNV_OFFSET, render(&mid).as_bytes()),
        fnv1a(FNV_OFFSET, render(&end).as_bytes()),
    ];
    assert_eq!(
        data_plane,
        [
            0x0e09_a36c_9e85_9540,
            0x4da4_a6fa_67f9_4da2,
            0xf39b_0673_4e47_10ec
        ],
        "trace / mid-run QoE / horizon QoE digests moved: {data_plane:#018x?}"
    );
    let with_control = [
        fnv1a(FNV_OFFSET, report.summary_csv().as_bytes()),
        fnv1a(FNV_OFFSET, counters.as_bytes()),
    ];
    assert_eq!(
        with_control,
        [0x1159_b364_6383_2fd7, 0xeb0b_d23b_0de1_8035],
        "summary / counters digests moved: {with_control:#018x?}\n{counters}"
    );
}
