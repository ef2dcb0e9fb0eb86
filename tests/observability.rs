//! Workspace tests for the tracing spine (`fib-trace`).
//!
//! Four guarantees are pinned here:
//!
//! * **Determinism modulo wall time** — exporting a Chrome trace of
//!   the same seeded scenario twice yields byte-identical
//!   deterministic views (the wall-derived `"ts"`/`"dur"` values are
//!   the only marked ones), and the lie-lifecycle audit logs (which
//!   carry no wall fields at all) match record for record.
//! * **Noop is absent** — with no sink installed, running a pinned
//!   scenario arms zero spans: the default configuration cannot
//!   disturb (or even observe) the simulation. Together with the
//!   byte-pinned artifacts in `tests/determinism.rs` this is the "the
//!   spine is write-only" tripwire.
//! * **A span budget** — an armed run opens at most 1.25 spans per
//!   dispatched event. What the spine costs per span is a wall-clock
//!   number and lives in the ledger (`bench/`); how many spans it arms
//!   is deterministic, so it is gated here, with a count.
//! * **No re-derivation** — a controller evaluation on the pinned
//!   three-prefix scenario opens at most four `spf.prefix_routes` spans
//!   on average: the evaluation loop reuses what it derived from an
//!   LSDB that has not changed. Also a count.

use fib_trace::artifact::View;
use fib_trace::{AggSink, ChromeSink, Phase, TraceSink};
use fibbing::scenario::runner::{build, RunOptions};
use fibbing::scenario::suite::{load_scenario, PREDICTIVE_PIN};

/// Run `scenario` to `horizon` seconds with `sink` installed and hand
/// back the sink and the events the run dispatched.
fn traced<S: TraceSink + 'static>(scenario: &str, horizon: f64, sink: S) -> (S, u64) {
    let spec = load_scenario(scenario).expect("shipped scenario");
    fib_trace::install(Box::new(sink));
    let mut run = build(
        &spec,
        RunOptions {
            horizon_secs: Some(horizon),
            ..RunOptions::default()
        },
    )
    .expect("scenario builds");
    run.run_until_secs(horizon);
    let events = run.sim.stats().events;
    let _ = run.finish();
    let sink = fib_trace::take()
        .expect("sink still installed")
        .into_any()
        .downcast::<S>()
        .expect("the sink that was installed");
    (*sink, events)
}

/// `metro_edge` reacts (injects lies) within the first 10 simulated
/// seconds, so its trace exercises every layer.
fn traced_metro_edge<S: TraceSink + 'static>(horizon: f64, sink: S) -> (S, u64) {
    traced("metro_edge", horizon, sink)
}

#[test]
fn chrome_export_is_deterministic_modulo_wall_time() {
    let (a, _) = traced_metro_edge(15.0, ChromeSink::new(500_000));
    let (b, _) = traced_metro_edge(15.0, ChromeSink::new(500_000));
    assert_eq!(
        a.doc().render(View::Deterministic),
        b.doc().render(View::Deterministic),
        "same seed must export the same deterministic view"
    );
    assert_ne!(
        a.doc().render(View::Full),
        b.doc().render(View::Full),
        "the full views carry two different wall clocks"
    );
    // Audit records carry no wall-clock fields, so they must be equal
    // outright — trigger strings, candidate counts, utilizations, all.
    assert_eq!(a.audits(), b.audits());
    assert!(
        !a.audits().is_empty(),
        "metro_edge must inject at least one lie by t=15"
    );
}

#[test]
fn trace_covers_every_layer_of_the_stack() {
    let (sink, _) = traced_metro_edge(15.0, ChromeSink::new(500_000));
    let json = sink.doc().render(View::Full);
    for phase in [
        Phase::KernelDispatch,
        Phase::SpfFull,
        Phase::SpfPartial,
        Phase::PrefixRoutes,
        Phase::SolverProbe,
        Phase::Settle,
        Phase::FibInstall,
        Phase::CtrlPoll,
        Phase::CtrlOptimize,
    ] {
        assert!(
            json.contains(&format!("\"name\": \"{}\", \"ph\": \"X\"", phase.name())),
            "no spans exported for {}",
            phase.name()
        );
    }
    assert!(json.contains("\"name\": \"lie.inject\""), "audit instants");
    assert!(json.contains("\"name\": \"queue.depth\""), "kernel gauge");
    assert!(
        json.contains("\"name\": \"settle.dirty_flows\""),
        "dirty-set histogram"
    );
}

#[test]
fn armed_run_stays_inside_the_span_budget() {
    let before = fib_trace::spans_started();
    let (agg, events) = traced_metro_edge(15.0, AggSink::new());
    let spans = fib_trace::spans_started() - before;
    // 7 132 events, 8 261 spans: 15 s of a 50-router network's IGP and
    // a crowd (12 613 before stale copies were answered only when the
    // neighbor lacked ours).
    assert!(events > 5_000, "metro_edge dispatches real work: {events}");
    assert!(
        spans as f64 <= 1.25 * events as f64,
        "{spans} spans armed for {events} dispatched events: more than 1.25 per event \
         (one per dispatch plus the per-layer work is 1.00-1.18 on the ledger's workloads)"
    );
    let attribution = agg.attribution();
    assert_eq!(
        attribution.iter().map(|a| a.spans).sum::<u64>(),
        spans,
        "every armed span closes into the sink"
    );
    let pct_sum: f64 = attribution.iter().map(|a| a.pct).sum();
    assert!(
        (pct_sum - 100.0).abs() < 1e-6,
        "self-time attribution must partition the traced clock, got {pct_sum}"
    );
}

#[test]
fn noop_default_arms_zero_spans() {
    assert!(!fib_trace::enabled(), "no sink installed by default");
    let before = fib_trace::spans_started();
    let spec = load_scenario("metro_edge").expect("shipped scenario");
    let mut run = build(
        &spec,
        RunOptions {
            horizon_secs: Some(15.0),
            ..RunOptions::default()
        },
    )
    .expect("build metro_edge");
    run.run_until_secs(15.0);
    let _ = run.finish();
    assert!(!fib_trace::enabled());
    assert_eq!(
        fib_trace::spans_started(),
        before,
        "a sink-less run must not arm a single span"
    );
}

#[test]
fn controller_evaluations_do_not_rederive_what_stands() {
    // `predictive_pin` re-evaluates on every viewer start and stop;
    // most evaluations change nothing the controller reads. Each one
    // used to cost 11.8 single-prefix SPFs (two `spread`s over three
    // prefixes, then augment and reduce for each prefix from scratch).
    // With the topologies, their forwarding state and the last
    // reaction per prefix kept while the LSDB stands, it is 2.07. Lose
    // either half and this count says so; no clock is involved.
    let (sink, _) = traced(PREDICTIVE_PIN, 56.0, AggSink::new());
    let spans = |phase: Phase| {
        let name = phase.name();
        sink.attribution()
            .iter()
            .find(|a| a.phase == name)
            .map_or(0, |a| a.spans)
    };
    let evaluations = spans(Phase::CtrlOptimize);
    let prefix_spfs = spans(Phase::PrefixRoutes);
    assert!(evaluations >= 200, "{evaluations} evaluations");
    assert!(
        prefix_spfs <= 4 * evaluations,
        "{prefix_spfs} spf.prefix_routes spans for {evaluations} controller evaluations"
    );
}
