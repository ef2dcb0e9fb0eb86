//! Reference bounds for the optimality-gap table (T3).
//!
//! * [`even_ecmp_max_util`] — what plain IGP ECMP achieves (the
//!   starting point of the demo);
//! * [`best_ecmp_weights_max_util`] — the best *any* even-ECMP weight
//!   setting can do (finding it is NP-hard in general — Chiesa et al.,
//!   INFOCOM'14 — which is exactly why the paper dismisses weight
//!   tuning). It tries every symmetric weight assignment and spreads
//!   the demands over each with the load model `even_ecmp_max_util`
//!   uses; T3's cases hold at most 6 561 assignments each;
//! * Fibbing's achievable point and the fractional optimum θ* come
//!   from `fib-core::optimizer` and are combined with these in the
//!   benchmark harness.

use crate::demand::TrafficMatrix;
use fib_igp::loadmodel::{max_utilization, spread};
use fib_igp::topology::Topology;
use fib_igp::types::{Metric, RouterId};
use std::collections::BTreeMap;

/// Max link utilization of plain ECMP routing on the given weights.
/// `None` if some demand is unroutable.
pub fn even_ecmp_max_util(
    topo: &Topology,
    tm: &TrafficMatrix,
    capacities: &BTreeMap<(RouterId, RouterId), f64>,
) -> Option<f64> {
    let loads = spread(topo, &tm.demands()).ok()?;
    Some(max_utilization(&loads, capacities))
}

/// The lowest max utilization any symmetric weight assignment in
/// `1..=max_weight` reaches under even ECMP. `None` if some demand is
/// unroutable (a property of the graph, not of the weights). Exact:
/// every one of the `max_weight ^ links` assignments is spread, and
/// the space is asserted below ~2 million as a guard against calls no
/// search could make tractable.
pub fn best_ecmp_weights_max_util(
    topo: &Topology,
    tm: &TrafficMatrix,
    capacities: &BTreeMap<(RouterId, RouterId), f64>,
    max_weight: u32,
) -> Option<f64> {
    assert_eq!(
        topo.fake_count(),
        0,
        "weight search expects a lie-free baseline topology"
    );
    let mut sym_links: Vec<(RouterId, RouterId)> = topo
        .all_links()
        .filter(|(a, b, _)| a < b)
        .map(|(a, b, _)| (a, b))
        .collect();
    sym_links.sort();
    sym_links.dedup();
    let combos = (max_weight as u64).checked_pow(sym_links.len() as u32)?;
    assert!(
        combos <= 2_000_000,
        "search space too large: {combos} combinations"
    );

    let demands = tm.demands();
    let mut cand = topo.clone();
    let mut assignment = vec![1u32; sym_links.len()];
    let mut best: Option<f64> = None;
    loop {
        for (&(a, b), &w) in sym_links.iter().zip(&assignment) {
            // Directed-only links have just one direction to set.
            for (from, to) in [(a, b), (b, a)] {
                if cand.has_link(from, to) {
                    cand.set_metric(from, to, Metric(w)).unwrap();
                }
            }
        }
        if let Ok(loads) = spread(&cand, &demands) {
            let util = max_utilization(&loads, capacities);
            if best.map_or(true, |b| util < b - 1e-12) {
                best = Some(util);
            }
        }
        // Advance the odometer, the first link turning fastest.
        let Some(i) = assignment.iter().position(|&w| w < max_weight) else {
            return best;
        };
        assignment[..i].fill(1);
        assignment[i] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::types::Prefix;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Square with two 2-hop paths from r1 to r4; prefix at r4.
    fn square(asymmetric: bool) -> (Topology, BTreeMap<(RouterId, RouterId), f64>, Prefix) {
        let mut t = Topology::new();
        for i in 1..=4 {
            t.add_router(r(i));
        }
        t.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        t.add_link_sym(r(2), r(4), Metric(1)).unwrap();
        t.add_link_sym(r(1), r(3), Metric(if asymmetric { 3 } else { 1 }))
            .unwrap();
        t.add_link_sym(r(3), r(4), Metric(1)).unwrap();
        let p = Prefix::net24(1);
        t.announce_prefix(r(4), p, Metric::ZERO).unwrap();
        let caps = t.all_links().map(|(a, b, _)| ((a, b), 100.0)).collect();
        (t, caps, p)
    }

    #[test]
    fn even_ecmp_on_asymmetric_weights_hotspots() {
        let (t, caps, p) = square(true);
        let mut tm = TrafficMatrix::new();
        tm.add(r(1), p, 160.0);
        let u = even_ecmp_max_util(&t, &tm, &caps).unwrap();
        assert!((u - 1.6).abs() < 1e-9, "single path carries all: {u}");
    }

    #[test]
    fn exhaustive_search_finds_balanced_weights() {
        let (t, caps, p) = square(true);
        let mut tm = TrafficMatrix::new();
        tm.add(r(1), p, 160.0);
        let u = best_ecmp_weights_max_util(&t, &tm, &caps, 3).unwrap();
        // Even ECMP can reach 0.8 by making both paths equal cost.
        assert!((u - 0.8).abs() < 1e-9, "best even ECMP: {u}");
    }

    #[test]
    fn unroutable_demand_is_none() {
        let (mut t, caps, p) = square(false);
        t.add_router(r(9));
        let mut tm = TrafficMatrix::new();
        tm.add(r(9), p, 1.0);
        assert_eq!(even_ecmp_max_util(&t, &tm, &caps), None);
        assert!(best_ecmp_weights_max_util(&t, &tm, &caps, 2).is_none());
    }

    #[test]
    #[should_panic(expected = "search space too large")]
    fn oversized_search_is_refused() {
        let (t, caps, p) = square(false);
        let mut tm = TrafficMatrix::new();
        tm.add(r(1), p, 10.0);
        let _ = best_ecmp_weights_max_util(&t, &tm, &caps, 64);
    }

    #[test]
    fn directed_only_link_keeps_its_metric_or_gets_one_direction() {
        // A two-hop path of symmetric links and a direct one-directional
        // link, the only high-capacity one, from `src` to `dst`.
        // * r3 → r1 runs from > to, outside the symmetric assignment,
        //   and keeps its Metric(3), which does NOT scale with the
        //   weight vector — so (2,2) is not equivalent to (1,1): the
        //   optimum needs weight 2 on both symmetric links to make the
        //   direct link shortest.
        // * r1 → r3 runs from < to, so it is one of the searched links,
        //   and the search may set only the direction that exists.
        for (src, dst) in [(r(3), r(1)), (r(1), r(3))] {
            let mut t = Topology::new();
            for i in 1..=3 {
                t.add_router(r(i));
            }
            t.add_link_sym(src, r(2), Metric(1)).unwrap();
            t.add_link_sym(r(2), dst, Metric(1)).unwrap();
            t.add_link(src, dst, Metric(3)).unwrap(); // directed only
            let p = Prefix::net24(1);
            t.announce_prefix(dst, p, Metric::ZERO).unwrap();
            let mut tm = TrafficMatrix::new();
            tm.add(src, p, 100.0);
            let mut caps: BTreeMap<(RouterId, RouterId), f64> =
                t.all_links().map(|(a, b, _)| ((a, b), 10.0)).collect();
            caps.insert((src, dst), 100.0);
            for w in 2..=3u32 {
                let u = best_ecmp_weights_max_util(&t, &tm, &caps, w).unwrap();
                assert!(
                    (u - 1.0).abs() <= 1e-9,
                    "{src}->{dst}, w={w}: optimum routes directly: {u}"
                );
            }
        }
    }

    #[test]
    fn zero_metric_directed_link_spreads_in_true_topological_order() {
        // A fixed Metric(0) directed link makes two nodes equal-
        // distance, so distance order alone is not a topological
        // order of the hop DAG — the spread must still push r3's
        // traffic through r2 onto the overloaded 2→1 link.
        let mut t = Topology::new();
        for i in 1..=3 {
            t.add_router(r(i));
        }
        t.add_link_sym(r(2), r(1), Metric(1)).unwrap();
        t.add_link_sym(r(3), r(1), Metric(1)).unwrap();
        t.add_link(r(3), r(2), Metric(0)).unwrap(); // directed only
        let p = Prefix::net24(1);
        t.announce_prefix(r(1), p, Metric::ZERO).unwrap();
        let mut tm = TrafficMatrix::new();
        tm.add(r(3), p, 100.0);
        let mut caps: BTreeMap<(RouterId, RouterId), f64> =
            t.all_links().map(|(a, b, _)| ((a, b), 50.0)).collect();
        caps.insert((r(3), r(2)), 1000.0);
        caps.insert((r(2), r(1)), 10.0);
        for w in 2..=3u32 {
            let u = best_ecmp_weights_max_util(&t, &tm, &caps, w).unwrap();
            assert!((u - 2.0).abs() <= 1e-9, "w={w}: {u}");
        }
    }

    #[test]
    fn best_weights_on_the_paper_topology() {
        // The T3 table's first row: Fig. 1a, 100 units from A and B,
        // weights 1..=3 over 8 symmetric links (6561 assignments).
        let topo = fib_igp::builders::paper_fig1();
        let caps: BTreeMap<(RouterId, RouterId), f64> =
            topo.all_links().map(|(a, b, _)| ((a, b), 100.0)).collect();
        let mut tm = TrafficMatrix::new();
        tm.add(r(1), Prefix::net24(1), 100.0);
        tm.add(r(2), Prefix::net24(1), 100.0);
        let u = best_ecmp_weights_max_util(&topo, &tm, &caps, 3).unwrap();
        assert!((u - 0.75).abs() <= 1e-9, "best even ECMP: {u}");
    }
}
