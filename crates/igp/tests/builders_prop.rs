//! Property tests of the topology generators: every graph a builder
//! can emit — on any seed — must be connected (the scenario engine
//! routes traffic on them) and byte-identical when rebuilt from the
//! same seed (the determinism story of the whole reproduction).

use fib_igp::builders::{fat_tree, random_connected, waxman};
use fib_igp::spf::shortest_paths;
use fib_igp::topology::Topology;
use fib_igp::types::RouterId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `check` on `n` cases, each on its own seeded generator, and
/// names the case and seed that fail.
fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
        assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
    }
}

/// Every router reachable from the lowest-id router.
fn assert_connected(t: &Topology) {
    let first = t.routers().next().expect("non-empty topology");
    let sp = shortest_paths(t, first);
    for r in t.routers() {
        assert!(sp.dist_to(r).is_finite(), "router {r} unreachable");
    }
}

/// Canonical link fingerprint for equality checks.
fn links_of(t: &Topology) -> Vec<(RouterId, RouterId, u32)> {
    t.all_links().map(|(a, b, m)| (a, b, m.0)).collect()
}

#[test]
fn random_connected_is_connected_and_deterministic() {
    cases(32, |rng| {
        let (seed, n) = (rng.gen_range(0..10_000), rng.gen_range(2..40));
        let (extra, max_metric) = (rng.gen_range(0..20), rng.gen_range(1..10));
        let build = || random_connected(&mut StdRng::seed_from_u64(seed), n, extra, max_metric);
        let t = build();
        t.validate().expect("structurally valid");
        assert_connected(&t);
        assert_eq!(links_of(&t), links_of(&build()));
    });
}

#[test]
fn waxman_is_connected_and_deterministic() {
    cases(32, |rng| {
        let (seed, n) = (rng.gen_range(0..10_000), rng.gen_range(2..32));
        let (alpha, beta) = (rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0));
        let max_metric = rng.gen_range(1..8);
        let build = || waxman(&mut StdRng::seed_from_u64(seed), n, alpha, beta, max_metric);
        let t = build();
        t.validate().expect("structurally valid");
        assert_connected(&t);
        assert_eq!(links_of(&t), links_of(&build()));
    });
}

#[test]
fn fat_tree_is_connected_with_expected_shape() {
    cases(32, |rng| {
        let half: u32 = rng.gen_range(1..4);
        let k = half * 2;
        let t = fat_tree(k);
        t.validate().expect("structurally valid");
        assert_connected(&t);
        let routers = (half * half) + k * k;
        assert_eq!(t.router_count(), routers as usize);
        // Seed-independent builder: rebuilding gives the same graph.
        assert_eq!(links_of(&t), links_of(&fat_tree(k)));
    });
}
