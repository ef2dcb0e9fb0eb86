//! Topology builders for tests, benchmarks, and experiments.
//!
//! All builders produce plain [`Topology`] values (no protocol state).
//! Random builders take explicit RNGs so every experiment is seedable
//! and reproducible.

use crate::topology::Topology;
use crate::types::{Metric, Prefix, RouterId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A line of `n` routers `r1 - r2 - … - rn` with unit metrics.
pub fn line(n: u32) -> Topology {
    let mut t = Topology::new();
    for i in 1..=n {
        t.add_router(RouterId(i));
    }
    for i in 1..n {
        t.add_link_sym(RouterId(i), RouterId(i + 1), Metric(1))
            .expect("line link");
    }
    t
}

/// A ring of `n >= 3` routers with unit metrics.
pub fn ring(n: u32) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 routers");
    let mut t = line(n);
    t.add_link_sym(RouterId(n), RouterId(1), Metric(1))
        .expect("ring closure");
    t
}

/// A `rows × cols` grid with unit metrics. Router ids are
/// `row * cols + col + 1`.
pub fn grid(rows: u32, cols: u32) -> Topology {
    let mut t = Topology::new();
    let id = |r: u32, c: u32| RouterId(r * cols + c + 1);
    for r in 0..rows {
        for c in 0..cols {
            t.add_router(id(r, c));
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                t.add_link_sym(id(r, c), id(r, c + 1), Metric(1)).unwrap();
            }
            if r + 1 < rows {
                t.add_link_sym(id(r, c), id(r + 1, c), Metric(1)).unwrap();
            }
        }
    }
    t
}

/// A full mesh over `n` routers with unit metrics.
pub fn full_mesh(n: u32) -> Topology {
    let mut t = Topology::new();
    for i in 1..=n {
        t.add_router(RouterId(i));
    }
    for i in 1..=n {
        for j in i + 1..=n {
            t.add_link_sym(RouterId(i), RouterId(j), Metric(1)).unwrap();
        }
    }
    t
}

/// A random connected graph: a random spanning tree plus `extra_edges`
/// random chords, metrics uniform in `1..=max_metric`.
pub fn random_connected<R: Rng>(
    rng: &mut R,
    n: u32,
    extra_edges: u32,
    max_metric: u32,
) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new();
    for i in 1..=n {
        t.add_router(RouterId(i));
    }
    // Random spanning tree: shuffle, then attach each node to a random
    // earlier node.
    let mut order: Vec<u32> = (1..=n).collect();
    order.shuffle(rng);
    for idx in 1..order.len() {
        let child = order[idx];
        let parent = order[rng.gen_range(0..idx)];
        let m = Metric(rng.gen_range(1..=max_metric));
        t.add_link_sym(RouterId(child), RouterId(parent), m)
            .expect("tree link");
    }
    // Chords.
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let a = RouterId(rng.gen_range(1..=n));
        let b = RouterId(rng.gen_range(1..=n));
        if a == b || t.has_link(a, b) {
            continue;
        }
        let m = Metric(rng.gen_range(1..=max_metric));
        t.add_link_sym(a, b, m).expect("chord");
        added += 1;
    }
    t
}

/// The paper's Fig. 1a topology (the canonical demo graph).
///
/// Routers `1..=7` are A, B, R1, R2, R3, R4, C in that order; the
/// "blue" destination prefix (`Prefix::net24(1)`) is announced at C.
/// Unlabeled weights in the figure are 1. This is the single source of
/// truth shared by the facade's demo module and the scenario engine.
pub fn paper_fig1() -> Topology {
    let (a, b, r1, r2, r3, r4, c) = (
        RouterId(1),
        RouterId(2),
        RouterId(3),
        RouterId(4),
        RouterId(5),
        RouterId(6),
        RouterId(7),
    );
    let mut t = Topology::new();
    for r in [a, b, r1, r2, r3, r4, c] {
        t.add_router(r);
    }
    for (x, y, w) in [
        (a, b, 1),
        (b, r2, 1),
        (r2, c, 1),
        (b, r3, 2),
        (r3, c, 1),
        (a, r1, 2),
        (r1, r4, 2),
        (r4, c, 2),
    ] {
        t.add_link_sym(x, y, Metric(w)).expect("fig 1a links");
    }
    t.announce_prefix(c, Prefix::net24(1), Metric::ZERO)
        .expect("C announces the blue prefix");
    t
}

/// A Waxman random graph, stitched to guarantee connectivity.
///
/// `n` routers are placed uniformly in the unit square; each pair is
/// linked with the classic Waxman probability
/// `alpha * exp(-d / (beta * L))` where `d` is Euclidean distance and
/// `L = sqrt(2)` the diameter. Link metrics grow with distance, from 1
/// up to `max_metric`. If the random pass leaves the graph
/// disconnected, the closest inter-component pairs are linked until it
/// is (deterministic given the RNG stream), so every returned topology
/// is connected.
pub fn waxman<R: Rng>(rng: &mut R, n: u32, alpha: f64, beta: f64, max_metric: u32) -> Topology {
    assert!(n >= 2, "a Waxman graph needs at least 2 routers");
    assert!(alpha > 0.0 && beta > 0.0, "waxman parameters must be > 0");
    let max_metric = max_metric.max(1);
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let dist = |i: usize, j: usize| -> f64 {
        let (xi, yi) = pos[i];
        let (xj, yj) = pos[j];
        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
    };
    let l = 2f64.sqrt();
    let metric_of = |d: f64| Metric(1 + (d / l * (max_metric - 1) as f64).round() as u32);
    let mut t = Topology::new();
    for i in 1..=n {
        t.add_router(RouterId(i));
    }
    for i in 0..n as usize {
        for j in i + 1..n as usize {
            let d = dist(i, j);
            let p = (alpha * (-d / (beta * l)).exp()).clamp(0.0, 1.0);
            if rng.gen_range(0.0..1.0) < p {
                t.add_link_sym(RouterId(i as u32 + 1), RouterId(j as u32 + 1), metric_of(d))
                    .expect("waxman link");
            }
        }
    }
    // Stitch components: repeatedly link the closest pair spanning the
    // component of router 1 and the rest. Purely a function of the
    // graph built so far, so the result stays deterministic per seed.
    loop {
        let mut comp = vec![false; n as usize];
        let mut stack = vec![0usize];
        comp[0] = true;
        while let Some(i) = stack.pop() {
            for link in t.links(RouterId(i as u32 + 1)) {
                let j = (link.to.0 - 1) as usize;
                if !comp[j] {
                    comp[j] = true;
                    stack.push(j);
                }
            }
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n as usize {
            if !comp[i] {
                continue;
            }
            for (j, reached) in comp.iter().enumerate() {
                if *reached {
                    continue;
                }
                let d = dist(i, j);
                if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, j, d));
                }
            }
        }
        match best {
            Some((i, j, d)) => {
                t.add_link_sym(RouterId(i as u32 + 1), RouterId(j as u32 + 1), metric_of(d))
                    .expect("stitch link");
            }
            None => break, // all routers reachable from router 1
        }
    }
    t
}

/// A `k`-ary fat tree (`k` even, `k >= 2`): `(k/2)^2` core switches and
/// `k` pods of `k/2` aggregation plus `k/2` edge switches, all links
/// metric 1.
///
/// Router ids are assigned deterministically: cores first
/// (`1..=(k/2)^2`), then per pod the aggregation switches followed by
/// the edge switches. Aggregation switch `j` (0-based within its pod)
/// uplinks to cores `j*k/2 .. (j+1)*k/2`; every edge switch links to
/// every aggregation switch of its pod. Hosts are not modeled — attach
/// prefixes at edge switches to terminate traffic.
pub fn fat_tree(k: u32) -> Topology {
    assert!(k >= 2 && k % 2 == 0, "fat tree arity must be even and >= 2");
    let half = k / 2;
    let cores = half * half;
    let core_id = |c: u32| RouterId(1 + c);
    let agg_id = |pod: u32, j: u32| RouterId(1 + cores + pod * k + j);
    let edge_id = |pod: u32, j: u32| RouterId(1 + cores + pod * k + half + j);
    let mut t = Topology::new();
    for c in 0..cores {
        t.add_router(core_id(c));
    }
    for pod in 0..k {
        for j in 0..half {
            t.add_router(agg_id(pod, j));
            t.add_router(edge_id(pod, j));
        }
    }
    for pod in 0..k {
        for j in 0..half {
            for c in j * half..(j + 1) * half {
                t.add_link_sym(agg_id(pod, j), core_id(c), Metric(1))
                    .expect("uplink");
            }
            for e in 0..half {
                t.add_link_sym(edge_id(pod, e), agg_id(pod, j), Metric(1))
                    .expect("pod link");
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spf::shortest_paths;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_and_ring_shapes() {
        let l = line(5);
        assert_eq!(l.router_count(), 5);
        assert_eq!(l.all_links().count(), 8); // 4 symmetric links
        let r = ring(5);
        assert_eq!(r.all_links().count(), 10);
        let sp = shortest_paths(&r, RouterId(1));
        // In a 5-ring the far node is 2 hops either way → ECMP.
        assert_eq!(sp.dist_to(RouterId(3)), Metric(2));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.router_count(), 12);
        // Edges: 3*3 horizontal + 2*4 vertical = 17 symmetric = 34 directed.
        assert_eq!(g.all_links().count(), 34);
        g.validate().unwrap();
    }

    #[test]
    fn mesh_shape() {
        let m = full_mesh(4);
        assert_eq!(m.all_links().count(), 12);
        let sp = shortest_paths(&m, RouterId(1));
        assert_eq!(sp.dist_to(RouterId(4)), Metric(1));
    }

    #[test]
    fn random_graph_is_connected_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = random_connected(&mut rng, 30, 20, 10);
        t.validate().unwrap();
        let sp = shortest_paths(&t, RouterId(1));
        for r in t.routers() {
            assert!(sp.dist_to(r).is_finite(), "router {r} unreachable");
        }
        // Determinism: same seed, same graph.
        let mut rng2 = StdRng::seed_from_u64(42);
        let t2 = random_connected(&mut rng2, 30, 20, 10);
        let links1: Vec<_> = t.all_links().collect();
        let links2: Vec<_> = t2.all_links().collect();
        assert_eq!(links1, links2);
    }

    #[test]
    fn paper_fig1_matches_the_figure() {
        let t = paper_fig1();
        assert_eq!(t.router_count(), 7);
        assert_eq!(t.all_links().count(), 16); // 8 symmetric links
        t.validate().unwrap();
        // B (router 2) reaches blue at cost 2 via R2; the detour via
        // R3 costs 3 — the structure the whole demo rests on.
        let sp = shortest_paths(&t, RouterId(2));
        assert_eq!(sp.dist_to(RouterId(7)), Metric(2));
        assert_eq!(t.prefixes_at(RouterId(7)).len(), 1);
    }

    #[test]
    fn waxman_is_connected_and_deterministic() {
        for seed in [1u64, 7, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = waxman(&mut rng, 20, 0.6, 0.3, 5);
            t.validate().unwrap();
            let sp = shortest_paths(&t, RouterId(1));
            for r in t.routers() {
                assert!(sp.dist_to(r).is_finite(), "router {r} unreachable");
            }
            let mut rng2 = StdRng::seed_from_u64(seed);
            let t2 = waxman(&mut rng2, 20, 0.6, 0.3, 5);
            assert_eq!(
                t.all_links().collect::<Vec<_>>(),
                t2.all_links().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn waxman_sparse_still_connected() {
        // Tiny alpha: almost no random edges, connectivity comes from
        // the stitching pass alone.
        let mut rng = StdRng::seed_from_u64(9);
        let t = waxman(&mut rng, 12, 0.01, 0.05, 3);
        let sp = shortest_paths(&t, RouterId(1));
        for r in t.routers() {
            assert!(sp.dist_to(r).is_finite());
        }
    }

    #[test]
    fn fat_tree_shape() {
        let t = fat_tree(4);
        // (k/2)^2 = 4 cores + 4 pods * (2 agg + 2 edge) = 20 routers.
        assert_eq!(t.router_count(), 20);
        // Per pod: 2 agg * 2 uplinks + 2 edge * 2 agg = 8 symmetric
        // links; 4 pods → 32 symmetric = 64 directed.
        assert_eq!(t.all_links().count(), 64);
        t.validate().unwrap();
        let sp = shortest_paths(&t, RouterId(1));
        for r in t.routers() {
            assert!(sp.dist_to(r).is_finite(), "router {r} unreachable");
        }
        // Edge switches in different pods are 4 hops apart (edge-agg-
        // core-agg-edge).
        let edge_pod0 = RouterId(1 + 4 + 2); // pod 0, edge 0
        let sp_e = shortest_paths(&t, edge_pod0);
        let edge_pod3 = RouterId(1 + 4 + 3 * 4 + 2);
        assert_eq!(sp_e.dist_to(edge_pod3), Metric(4));
    }
}
