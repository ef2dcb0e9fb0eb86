//! Guard: every phase of the T3 optimality-gap pipeline terminates
//! promptly on the paper case — the case CI runs on every push.
//!
//! The bound is a hang tripwire, not a benchmark: the weight search
//! spreads all 6 561 assignments of the paper case (about 40 ms in
//! release, 0.4 s in debug) and the other phases run in microseconds,
//! but the assert allows 5 s so debug builds and loaded CI runners
//! never flake. Per-case, per-phase wall times live in
//! `results/BENCH_table_minmax_gap.json`, which the `paper` bin writes
//! on every run.

use fib_igp::builders::paper_fig1;
use fib_te::prelude::*;
use fibbing::demo::{paper_capacities, BLUE, FIG1_CAPACITY, FIG1_DEMAND};
use fibbing::prelude::*;
use std::time::{Duration, Instant};

const PHASE_BUDGET: Duration = Duration::from_secs(5);

#[test]
fn paper_case_phases_are_fast() {
    let topo = paper_fig1();
    let caps = paper_capacities(FIG1_CAPACITY);
    let mut tm = TrafficMatrix::new();
    for (s, r) in FIG1_DEMAND {
        tm.add(s, BLUE, r);
    }

    let t0 = Instant::now();
    let even = even_ecmp_max_util(&topo, &tm, &caps);
    let even_t = t0.elapsed();
    eprintln!("even: {even:?} in {even_t:?}");

    let t0 = Instant::now();
    let best = best_ecmp_weights_max_util(&topo, &tm, &caps, 3);
    let best_t = t0.elapsed();
    eprintln!("best: {best:?} in {best_t:?}");

    let t0 = Instant::now();
    let theta = min_max_theta(&topo, BLUE, &FIG1_DEMAND, &caps);
    let theta_t = t0.elapsed();
    eprintln!("theta: {theta:?} in {theta_t:?}");

    let t0 = Instant::now();
    let plan = plan_paths(&topo, BLUE, &FIG1_DEMAND, &caps, 0.01, 8);
    let plan_t = t0.elapsed();
    eprintln!("plan: ok={} in {plan_t:?}", plan.is_ok());

    assert!(even.is_some() && best.is_some() && theta.is_ok() && plan.is_ok());
    for (name, took) in [
        ("even_ecmp_max_util", even_t),
        ("best_ecmp_weights_max_util", best_t),
        ("min_max_theta", theta_t),
        ("plan_paths", plan_t),
    ] {
        assert!(
            took < PHASE_BUDGET,
            "{name} took {took:?} (budget {PHASE_BUDGET:?}) — the \
             optimality-gap pipeline has regressed toward its old \
             minutes-long behaviour"
        );
    }
}
