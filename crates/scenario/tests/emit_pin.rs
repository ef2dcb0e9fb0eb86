//! Byte pin of [`ScenarioSpec::to_toml_string`].
//!
//! The round-trip tests in `emit.rs` check `parse(emit(s)) == s`,
//! which a reordered or re-formatted emitter also satisfies. The
//! emitted text itself is an input elsewhere: the ledger (`bench/`)
//! hands the program exactly this text for two of its workloads, and
//! the fuzzer archives its finds with it. So the bytes are pinned:
//! key order per table, which keys are always written and which are
//! omitted at their defaults, `{:?}` floats, plain integers.

use fib_scenario::prelude::*;
use fib_trace::artifact::{fnv1a, FNV_OFFSET};

/// Every shipped and compiled-in scenario, and the archived finds.
const FILE_PINS: &[(&str, u64)] = &[
    ("paper_demo", 0x3b87_6d43_0950_ebd7),
    ("flash_crowd_random", 0xd7ef_0292_b904_56a6),
    ("link_failure_under_load", 0x42f4_b925_131f_cd38),
    ("capacity_degradation", 0x7be6_3717_1463_d421),
    ("diurnal_mix", 0xdbba_5562_9317_85e2),
    ("no_controller_baseline", 0x7bc2_27e2_bbc2_87b2),
    ("metro_edge", 0xf9ba_df16_68f3_7f1e),
    ("metro_core", 0x045d_4ac4_26fe_0104),
    ("predictive_pin", 0x1d68_0917_1288_d953),
    ("lie_install_races_failure", 0x4859_5453_4107_25c7),
    ("retraction_races_flash_crowd", 0xff65_cedc_29f2_e763),
];

#[test]
fn shipped_and_found_scenarios_emit_pinned_bytes() {
    let pin_of = |name: &str| FILE_PINS.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
    let mut moved = Vec::new();
    let shipped = ALL_SCENARIOS.iter().chain([&PREDICTIVE_PIN]);
    for name in shipped {
        let text = load_scenario(name)
            .expect("shipped spec parses")
            .to_toml_string();
        let digest = fnv1a(FNV_OFFSET, text.as_bytes());
        if pin_of(name) != Some(digest) {
            moved.push(format!("(\"{name}\", {digest:#018x}),\n{text}"));
        }
    }
    for name in found_scenarios() {
        let text = load_found(&name)
            .expect("archived find parses")
            .to_toml_string();
        let digest = fnv1a(FNV_OFFSET, text.as_bytes());
        match pin_of(&name) {
            Some(pin) if pin != digest => {
                moved.push(format!("(\"{name}\", {digest:#018x}),\n{text}"))
            }
            Some(_) => {}
            // A find archived after this table was written: its text
            // must at least be a fixed point of parse-then-emit.
            None => {
                let again = ScenarioSpec::from_toml_str(&text).expect("re-parses");
                assert_eq!(again.to_toml_string(), text, "{name}");
            }
        }
    }
    assert!(
        moved.is_empty(),
        "emitted bytes moved:\n{}",
        moved.join("\n")
    );
}

/// One spec that carries everything the small ones below do not: all
/// four workload kinds, all five event actions, all eight controller
/// keys, the full ten-key `[expect]`, `pin_seed`, both root arrays, a
/// description with every escape, and floats whose shortest text is
/// not their source text (`4e6`, `55.000001`).
fn everything() -> ScenarioSpec {
    ScenarioSpec {
        name: "every-thing_1".into(),
        description: "line one\nline\ttwo \"quoted\" back\\slash\r # not a comment".into(),
        horizon_secs: 55.000001,
        seed: 18_446_744_073_709,
        pin_seed: true,
        capacity: 4e6,
        topology: TopologySpec::Paper,
        sinks: vec![7, 4_294_967_295],
        controller: Some(ControllerSpec {
            attach: 5,
            target_util: 0.5,
            util_hi: 0.85,
            util_lo: 1e-3,
            slot_budget: 16,
            default_flow_rate: 1e6,
            predictive: false,
            use_snmp: false,
        }),
        workloads: vec![
            WorkloadSpec::Paper {
                src1: 2,
                src2: 1,
                rate: 125_000.0,
                video_secs: 300.0,
            },
            WorkloadSpec::Constant {
                at: 0.0,
                src: 2,
                n: 25,
                rate: 1.25e5,
                video_secs: 1e-3,
                dst: 0,
            },
            WorkloadSpec::Poisson {
                start: 1.182624,
                mean_gap_secs: 0.041088,
                n: 300,
                src: 8,
                rate: 1e6,
                video_secs: 8.0,
                dst: 1,
            },
            WorkloadSpec::Diurnal {
                period_secs: 120.0,
                peak_per_sec: 1.5,
                trough_per_sec: 0.1,
                src: 2,
                rate: 125_000.0,
                video_secs: 45.0,
                dst: 2,
            },
        ],
        events: vec![
            EventSpec {
                at: 6.0,
                kind: EventKind::FailLink { a: 12, b: 1 },
            },
            EventSpec {
                at: 8.05,
                kind: EventKind::SetCapacity {
                    a: 12,
                    b: 1,
                    capacity: 5e6,
                },
            },
            EventSpec {
                at: 10.0,
                kind: EventKind::RestoreLink { a: 12, b: 1 },
            },
            EventSpec {
                at: 10.0,
                kind: EventKind::Surge {
                    src: 3,
                    n: 40,
                    rate: 125_000.0,
                    video_secs: 60.0,
                    dst: 0,
                },
            },
            EventSpec {
                at: 12.25,
                kind: EventKind::FlashCrowd {
                    src: 19,
                    n: 13,
                    mean_gap_secs: 0.1,
                    rate: 1e6,
                    video_secs: 12.0,
                    dst: 1,
                },
            },
        ],
        trace_links: vec![(2, 4), (12, 1)],
        expect: Some(ExpectSpec {
            max_unroutable_flow_secs: Some(86.8),
            min_unroutable_flow_secs: Some(1e-3),
            max_mean_qoe: Some(5.0),
            min_mean_qoe: Some(0.25),
            max_stalls: Some(7617),
            min_stalls: Some(1),
            max_final_lies: Some(0),
            min_peak_lies: Some(2),
            max_fwd_loops: Some(9_007_199_254_740_993),
            min_fwd_loops: Some(0),
        }),
    }
}

const EVERYTHING: &str = r#"name = "every-thing_1"
description = "line one\nline\ttwo \"quoted\" back\\slash\r # not a comment"
horizon_secs = 55.000001
seed = 18446744073709
pin_seed = true
capacity = 4000000.0
sinks = [7, 4294967295]
trace_links = ["2-4", "12-1"]

[topology]
kind = "paper"

[controller]
attach = 5
target_util = 0.5
util_hi = 0.85
util_lo = 0.001
slot_budget = 16
default_flow_rate = 1000000.0
predictive = false
use_snmp = false

[[workload]]
kind = "paper"
src1 = 2
src2 = 1
rate = 125000.0
video_secs = 300.0

[[workload]]
kind = "constant"
at = 0.0
src = 2
n = 25
rate = 125000.0
video_secs = 0.001
dst = 0

[[workload]]
kind = "poisson"
start = 1.182624
mean_gap_secs = 0.041088
n = 300
src = 8
rate = 1000000.0
video_secs = 8.0
dst = 1

[[workload]]
kind = "diurnal"
period_secs = 120.0
peak_per_sec = 1.5
trough_per_sec = 0.1
src = 2
rate = 125000.0
video_secs = 45.0
dst = 2

[[event]]
at = 6.0
action = "fail_link"
a = 12
b = 1

[[event]]
at = 8.05
action = "set_capacity"
a = 12
b = 1
capacity = 5000000.0

[[event]]
at = 10.0
action = "restore_link"
a = 12
b = 1

[[event]]
at = 10.0
action = "surge"
src = 3
n = 40
rate = 125000.0
video_secs = 60.0
dst = 0

[[event]]
at = 12.25
action = "flash_crowd"
src = 19
n = 13
mean_gap_secs = 0.1
rate = 1000000.0
video_secs = 12.0
dst = 1

[expect]
max_unroutable_flow_secs = 86.8
min_unroutable_flow_secs = 0.001
max_mean_qoe = 5.0
min_mean_qoe = 0.25
max_stalls = 7617
min_stalls = 1
max_final_lies = 0
min_peak_lies = 2
max_fwd_loops = 9007199254740993
min_fwd_loops = 0
"#;

#[test]
fn a_spec_with_every_table_and_key_emits_pinned_text() {
    assert_eq!(everything().to_toml_string(), EVERYTHING);
}

/// The smallest spec around one topology: no description, no
/// `pin_seed`, no arrays, no controller, no events, no `[expect]` —
/// everything that is omitted when empty — and `1e-3`.
fn around(topology: TopologySpec) -> ScenarioSpec {
    ScenarioSpec {
        name: "t".into(),
        description: String::new(),
        horizon_secs: 1e-3,
        seed: 0,
        pin_seed: false,
        capacity: 1.25e7,
        topology,
        sinks: Vec::new(),
        controller: None,
        workloads: vec![WorkloadSpec::Constant {
            at: 1.0,
            src: 1,
            n: 1,
            rate: 1e5,
            video_secs: 5.0,
            dst: 0,
        }],
        events: Vec::new(),
        trace_links: Vec::new(),
        expect: None,
    }
}

#[test]
fn every_topology_kind_emits_pinned_text() {
    let cases: [(TopologySpec, &str); 8] = [
        (TopologySpec::Paper, "kind = \"paper\"\n"),
        (TopologySpec::Line { n: 3 }, "kind = \"line\"\nn = 3\n"),
        (TopologySpec::Ring { n: 5 }, "kind = \"ring\"\nn = 5\n"),
        (
            TopologySpec::Grid { rows: 2, cols: 3 },
            "kind = \"grid\"\nrows = 2\ncols = 3\n",
        ),
        (
            TopologySpec::FullMesh { n: 4 },
            "kind = \"full_mesh\"\nn = 4\n",
        ),
        (
            TopologySpec::Random {
                n: 12,
                extra_edges: 6,
                max_metric: 3,
            },
            "kind = \"random\"\nn = 12\nextra_edges = 6\nmax_metric = 3\n",
        ),
        (
            TopologySpec::Waxman {
                n: 200,
                alpha: 0.12,
                beta: 1e-3,
                max_metric: 10,
            },
            "kind = \"waxman\"\nn = 200\nalpha = 0.12\nbeta = 0.001\nmax_metric = 10\n",
        ),
        (
            TopologySpec::FatTree { k: 4 },
            "kind = \"fat_tree\"\nk = 4\n",
        ),
    ];
    let head =
        "name = \"t\"\nhorizon_secs = 0.001\nseed = 0\ncapacity = 12500000.0\n\n[topology]\n";
    let tail = "\n[[workload]]\nkind = \"constant\"\nat = 1.0\nsrc = 1\nn = 1\nrate = 100000.0\n\
                video_secs = 5.0\ndst = 0\n";
    for (topology, keys) in cases {
        let text = around(topology).to_toml_string();
        assert_eq!(text, format!("{head}{keys}{tail}"));
    }
    // An empty `[expect]` stanza is still written (it arms the probe).
    let mut spec = around(TopologySpec::Paper);
    spec.expect = Some(ExpectSpec::default());
    assert_eq!(
        spec.to_toml_string(),
        format!("{head}kind = \"paper\"\n{tail}\n[expect]\n")
    );
}
