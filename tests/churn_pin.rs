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

mod common;

use common::render;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::spec::ScenarioSpec;
use fibbing::video::prelude::QoeReport;
use std::fmt::Write as _;

const SPEC: &str = r#"
name = "churn_pin"
description = "a cut of the ledger's dataplane_churn: no controller, saturated links, an uplink failure and a brown-out"
horizon_secs = 22.0
seed = 2016
pin_seed = true
capacity = 1.5e7
sinks = [1, 9]
trace_links = ["2-1", "12-1", "4-9"]

[topology]
kind = "waxman"
n = 12
alpha = 0.6
beta = 0.5
max_metric = 5

[[workload]]
kind = "poisson"
start = 1.182624
mean_gap_secs = 0.041088
n = 300
src = 8
rate = 125000.0
video_secs = 8.0
dst = 0

[[workload]]
kind = "poisson"
start = 2.203453
mean_gap_secs = 0.041008
n = 300
src = 2
rate = 125000.0
video_secs = 8.0
dst = 1

[[workload]]
kind = "poisson"
start = 3.69122
mean_gap_secs = 0.040408
n = 300
src = 11
rate = 125000.0
video_secs = 8.0
dst = 0

[[workload]]
kind = "poisson"
start = 4.595694
mean_gap_secs = 0.038036
n = 300
src = 8
rate = 125000.0
video_secs = 8.0
dst = 1

# r11 splits its stream over r2 and r12: when 12-1 fails, r12 turns the
# flows back to r11 until r11 hears of it.
[[event]]
at = 6.0
action = "fail_link"
a = 12
b = 1

# Between two ticks, on a link that is down: nothing the allocator
# sees moves.
[[event]]
at = 8.05
action = "set_capacity"
a = 12
b = 1
capacity = 5e6

[[event]]
at = 9.05
action = "set_capacity"
a = 12
b = 1
capacity = 1.5e7

[[event]]
at = 10.0
action = "restore_link"
a = 12
b = 1

[[event]]
at = 12.0
action = "set_capacity"
a = 4
b = 9
capacity = 5e6

[[event]]
at = 12.0
action = "set_capacity"
a = 12
b = 9
capacity = 5e6

[[event]]
at = 15.0
action = "set_capacity"
a = 4
b = 9
capacity = 1.5e7

[[event]]
at = 15.0
action = "set_capacity"
a = 12
b = 9
capacity = 1.5e7
"#;

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
    assert_eq!((end.len(), playing(&end)), (1200, 882));
    assert_eq!(report.qoe.stalls, 582);
    assert_eq!(end.iter().map(|q| q.stalls).sum::<u32>(), 582);
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
            0x40f1_d7fb_54c0_96b7,
            0x8e2f_7229_8e97_08dc
        ],
        "trace / mid-run QoE / horizon QoE digests moved: {data_plane:#018x?}"
    );
    let with_control = [
        fnv1a(FNV_OFFSET, report.summary_csv().as_bytes()),
        fnv1a(FNV_OFFSET, counters.as_bytes()),
    ];
    assert_eq!(
        with_control,
        [0xa6ef_b149_e32a_9e9d, 0xf071_76f2_e721_92a3],
        "summary / counters digests moved: {with_control:#018x?}\n{counters}"
    );
}
