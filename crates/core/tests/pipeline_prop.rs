//! Property tests of the full planning pipeline on random topologies:
//! optimizer → augmentation → reduction → verification. These are the
//! invariants that make the controller trustworthy on *any* network,
//! not just the paper's.

use fib_core::prelude::*;
use fib_igp::builders::random_connected;
use fib_igp::loadmodel::{max_utilization, spread, Demand};
use fib_igp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-directed-link capacities.
type Capacities = BTreeMap<(RouterId, RouterId), f64>;

/// Build a random connected scenario: topology, sink prefix, two
/// demand sources, uniform capacities.
fn scenario(seed: u64, n: u32) -> (Topology, Prefix, Vec<(RouterId, f64)>, Capacities) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = random_connected(&mut rng, n, n / 2, 4);
    let routers: Vec<RouterId> = topo.routers().collect();
    let sink = routers[rng.gen_range(0..routers.len())];
    let prefix = Prefix::net24(1);
    topo.announce_prefix(sink, prefix, Metric::ZERO).unwrap();
    let mut demands = Vec::new();
    while demands.len() < 2 {
        let s = routers[rng.gen_range(0..routers.len())];
        if s != sink && !demands.iter().any(|(r, _)| *r == s) {
            demands.push((s, rng.gen_range(50.0..150.0)));
        }
    }
    let caps: BTreeMap<(RouterId, RouterId), f64> =
        topo.all_links().map(|(a, b, _)| ((a, b), 100.0)).collect();
    (topo, prefix, demands, caps)
}

/// Runs `check` on `n` cases, each on its own seeded generator, and
/// names the case and seed that fail.
fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
        assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
    }
}

/// The optimizer's plan, realized as lies, always (a) verifies
/// (constrained fractions hold, unconstrained routers untouched,
/// loop-free) and (b) carries every unit of demand.
#[test]
fn optimizer_plans_realize_and_verify() {
    cases(24, |rng| {
        let (seed, n) = (rng.gen_range(0..500), rng.gen_range(6..14));
        let (topo, prefix, demands, caps) = scenario(seed, n);
        // An intentionally tight budget forces the θ* fallback — the
        // interesting (multi-path, uneven) regime.
        let Ok(plan) = plan_paths(&topo, prefix, &demands, &caps, 0.05, 8) else {
            return; // disconnected demand: nothing to check
        };
        assert_eq!(plan.dag.find_internal_loop(), None);
        let mut alloc = LieAllocator::new();
        let aug = match augment(&topo, &plan.dag, &mut alloc) {
            Ok(a) => a,
            // Rare: override planning can hit the cost floor on
            // degenerate graphs; the controller treats this as "no
            // reaction", which is safe.
            Err(AugmentError::CostUnderflow(_)) => return,
            Err(e) => panic!("augment failed: {e}"),
        };
        let lies = reduce(&topo, &plan.dag, &aug.lies);
        let augmented = apply_all(&topo, &lies);
        let report = check_preserving(&topo, &augmented, &aug.effective_dag);
        assert!(report.ok(), "verification failed: {report}");

        // All demand is delivered (spreads without error, loads sum up).
        let dem: Vec<Demand> = demands
            .iter()
            .map(|(src, rate)| Demand {
                src: *src,
                prefix,
                rate: *rate,
            })
            .collect();
        let loads = spread(&augmented, &dem).expect("routable after augmentation");
        let _ = max_utilization(&loads, &caps);
    });
}

/// Reduction never breaks a plan and never grows it.
#[test]
fn reduction_is_sound_and_shrinking() {
    cases(24, |rng| {
        let (seed, n) = (rng.gen_range(0..500), rng.gen_range(6..12));
        let (topo, prefix, demands, caps) = scenario(seed, n);
        let Ok(plan) = plan_paths(&topo, prefix, &demands, &caps, 0.05, 8) else {
            return;
        };
        let mut alloc = LieAllocator::new();
        let Ok(aug) = augment(&topo, &plan.dag, &mut alloc) else {
            return;
        };
        let reduced = reduce(&topo, &plan.dag, &aug.lies);
        assert!(reduced.len() <= aug.lies.len());
        let augmented = apply_all(&topo, &reduced);
        let report = check_preserving(&topo, &augmented, &plan.dag);
        assert!(report.ok(), "reduced plan broke: {report}");
    });
}

/// Splitting plans always hit the requested weights exactly when
/// realized as ECMP slots on a star (analytical check).
#[test]
fn split_plans_realize_exact_slot_fractions() {
    cases(24, |rng| {
        let raw: Vec<f64> = (0..rng.gen_range(2..4))
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let budget = rng.gen_range(4..16);
        let sum: f64 = raw.iter().sum();
        let fractions: Vec<f64> = raw.iter().map(|v| v / sum).collect();
        if budget < fractions.len() as u32 {
            return;
        }
        let plan = plan_split(&fractions, budget).unwrap();
        let total: u32 = plan.weights.iter().sum();
        for (w, frac) in plan.weights.iter().zip(&fractions) {
            let realized = f64::from(*w) / f64::from(total);
            assert!((realized - frac).abs() <= plan.max_error + 1e-12);
        }
    });
}
