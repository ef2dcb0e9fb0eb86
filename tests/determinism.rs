//! Workspace determinism smoke test.
//!
//! The reproduction's whole verification story rests on determinism:
//! identical configs (same seed) must yield identical runs. This test
//! pins the paper's control-plane milestones — the single-lie plan the
//! controller installs after the t=15 wave (B splits evenly over R2 and
//! R3) and the two-lie plan after the t=35 wave (A gets a 1/3–2/3
//! split toward B and R1) — and asserts both the plan structure and
//! its bit-for-bit reproducibility across two independent runs.

use fibbing::prelude::*;

/// `scenarios/paper_demo.toml` must reproduce the paper's t=15
/// single-lie and t=35 two-lie plans (`check_paper_milestones`, the
/// check `scenario_suite` runs too), and the whole run — summary and
/// trace CSVs included — must be byte-identical across same-seed runs.
#[test]
fn scenario_paper_demo_reproduces_plans_deterministically() {
    let spec = load_scenario("paper_demo").expect("shipped spec parses");
    let run = || {
        let mut run = build(
            &spec,
            RunOptions {
                seed: Some(7),
                horizon_secs: Some(45.0),
                ..RunOptions::default()
            },
        )
        .expect("paper_demo builds");
        check_paper_milestones(&mut run).expect("the paper's plans");
        run.finish()
    };
    let (r1, r2) = (run(), run());
    assert_eq!(
        r1.summary_csv(),
        r2.summary_csv(),
        "scenario summary CSV differs between same-seed runs"
    );
    assert_eq!(
        r1.trace_csv, r2.trace_csv,
        "scenario trace CSV differs between same-seed runs"
    );
    // The report actually carries the signals the suite table prints.
    assert!(
        r1.peak_lies >= 2,
        "both waves install lies: {:?}",
        r1.peak_lies
    );
    assert!(r1.max_util > 0.0 && r1.qoe.sessions == 62);
}

/// The three-prefix predictive scenario without a trace sink. Besides
/// the same-seed byte identity, this is the run in which debug builds
/// recompute every reaction the controller answers from its memo and
/// compare lies and allocator state (the check stands down under a
/// sink, so the traced pin in `tests/predictive_pin.rs` does not get
/// it): 222 reactions, most of them memo hits.
#[test]
fn predictive_pin_untraced_is_deterministic() {
    let spec = load_scenario(fibbing::scenario::suite::PREDICTIVE_PIN).expect("compiled-in spec");
    let run = || {
        let mut run = build(&spec, RunOptions::default()).expect("predictive_pin builds");
        run.run_until_secs(spec.horizon_secs);
        let replayed = run.ctrl.as_ref().expect("controller").lock().stats.replayed;
        (run.finish(), replayed)
    };
    let ((a, replayed), (b, _)) = (run(), run());
    assert_eq!((a.reactions, a.injections, a.peak_lies), (222, 84, 20));
    assert_eq!(replayed, 173, "of 222 reactions answered from the memo");
    assert_eq!(a.summary_csv(), b.summary_csv());
    assert_eq!(a.trace_csv, b.trace_csv);
}
