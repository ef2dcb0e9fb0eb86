//! Verification: does an augmented topology realize a requirement?
//!
//! The checker recomputes every router's routes on the augmented
//! topology and compares *traffic fractions per next-hop router*
//! (slot-multiset ratios) against the requirement; unconstrained
//! routers must keep the fractions they had on the real topology.
//! It also proves the resulting forwarding state is loop-free.
//!
//! Everything runs on positions in one [`PrefixGraph`]: routes come
//! from its seeded pass, fractions sit in flat per-position arrays, and
//! whether the routes loop is decided on positions. Maps are built only
//! for what a failing check reports. `LieCheck` keeps the graph and the real
//! fractions of one topology, so `augment` and `reduce` check each
//! candidate lie set as a slice, with no topology clone.

use crate::lie::Lie;
use crate::requirements::WeightedDag;
use fib_igp::rib::{ForwardingDag, Route};
use fib_igp::spf::{prefix_routes, PrefixGraph, PrefixRoutes};
use fib_igp::topology::{FakeAttrs, Topology};
use fib_igp::types::{Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// Tolerance for fraction comparisons.
const TOL: f64 = 1e-9;

/// One router whose forwarding does not match expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// The router.
    pub router: RouterId,
    /// Expected fraction per next-hop router.
    pub expected: BTreeMap<RouterId, f64>,
    /// Actual fraction per next-hop router.
    pub actual: BTreeMap<RouterId, f64>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {:?}, got {:?}",
            self.router, self.expected, self.actual
        )
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Prefix checked.
    pub prefix: Prefix,
    /// Routers violating their expectation.
    pub mismatches: Vec<Mismatch>,
    /// A forwarding loop, if one exists.
    pub forwarding_loop: Option<Vec<RouterId>>,
}

impl VerifyReport {
    /// `true` when the requirement is fully realized and loop-free.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.forwarding_loop.is_none()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            return write!(f, "requirement for {} realized", self.prefix);
        }
        writeln!(f, "requirement for {} NOT realized:", self.prefix)?;
        for m in &self.mismatches {
            writeln!(f, "  {m}")?;
        }
        if let Some(cycle) = &self.forwarding_loop {
            let parts: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            writeln!(f, "  loop: {}", parts.join(" -> "))?;
        }
        Ok(())
    }
}

/// Fractions per next-hop router, ascending by router.
type Split = [(RouterId, f64)];

/// The one "same fractions" rule: the verifier's, and the one
/// `augment`'s fixpoint uses to decide that a router was disturbed.
/// Both sides list each next-hop router once, in ascending order.
pub(crate) fn fractions_close(a: &Split, b: &Split) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() <= TOL)
}

/// Every router's fractions toward one prefix, by position: router i's
/// are `fr[off[i]..off[i + 1]]`, or none when `forwards[i]` is false (no
/// route, or local delivery). Each is what [`Route::split_by_router`]
/// gives, summed in the same order.
pub(crate) struct Fractions {
    forwards: Vec<bool>,
    off: Vec<usize>,
    fr: Vec<(RouterId, f64)>,
}

impl Fractions {
    fn of(routes: &PrefixRoutes) -> Fractions {
        let n = routes.len();
        let mut out = Fractions {
            forwards: vec![false; n],
            off: Vec::with_capacity(n + 1),
            fr: Vec::new(),
        };
        out.off.push(0);
        for i in 0..n {
            if let Some(hops) = routes.forwards(i) {
                out.forwards[i] = true;
                // Next hops sort by router first: one router's
                // addresses are adjacent, and add up in route order.
                let share = 1.0 / hops.len() as f64;
                let start = out.fr.len();
                for nh in hops {
                    match out.fr[start..].last_mut() {
                        Some(last) if last.0 == nh.router => last.1 += share,
                        _ => out.fr.push((nh.router, share)),
                    }
                }
            }
            out.off.push(out.fr.len());
        }
        out
    }

    /// The fractions of the router at position `i`, if it forwards.
    pub(crate) fn get(&self, i: usize) -> Option<&Split> {
        self.forwards[i].then(|| &self.fr[self.off[i]..self.off[i + 1]])
    }
}

/// A requirement as a check reads it: per constrained router, in
/// order, [`WeightedDag::fractions`].
pub(crate) type Expected = Vec<(RouterId, Vec<(RouterId, f64)>)>;

/// The fractions `dag` asks of each router it constrains.
pub(crate) fn expected(dag: &WeightedDag) -> Expected {
    let of = |r| dag.fractions(r).into_iter().collect();
    dag.routers().map(|r| (r, of(r))).collect()
}

/// Lie sets checked against one real topology: its [`PrefixGraph`]
/// toward the prefix, its own lies (none on a real topology), and
/// every router's fractions there, all computed once. A check runs the
/// seeded pass with a set of lies told and reads fractions off it by
/// position.
pub(crate) struct LieCheck {
    graph: PrefixGraph,
    own: Vec<FakeAttrs>,
    baseline: Fractions,
}

impl LieCheck {
    pub(crate) fn new(real: &Topology, prefix: Prefix) -> LieCheck {
        let graph = PrefixGraph::of(real, prefix);
        let own: Vec<FakeAttrs> = real.fake_nodes().map(|(_, attrs)| *attrs).collect();
        let baseline = Fractions::of(&graph.routes(own.iter().copied()));
        LieCheck {
            graph,
            own,
            baseline,
        }
    }

    pub(crate) fn graph(&self) -> &PrefixGraph {
        &self.graph
    }

    /// Every router that forwards toward the prefix on the real
    /// topology, by position, with its fractions there.
    pub(crate) fn baseline(&self) -> impl Iterator<Item = (usize, RouterId, &Split)> + '_ {
        let ids = self.graph.ids().iter().enumerate();
        ids.filter_map(|(i, r)| Some((i, *r, self.baseline.get(i)?)))
    }

    /// The routes with `lies` told, besides the topology's own: those of
    /// the topology with `lies` applied, as long as their fake ids are
    /// distinct from each other and from the topology's.
    pub(crate) fn routes(&self, lies: &[Lie]) -> PrefixRoutes {
        let told = self.own.iter().copied().chain(lies.iter().map(Lie::attrs));
        self.graph.routes(told)
    }

    /// Every router's fractions with `lies` told.
    pub(crate) fn fractions(&self, lies: &[Lie]) -> Fractions {
        Fractions::of(&self.routes(lies))
    }

    /// [`check_preserving`] of the real topology with `lies` applied.
    pub(crate) fn check(&self, lies: &[Lie], expected: &Expected) -> VerifyReport {
        report(Some(self), expected, &self.graph, &self.routes(lies))
    }
}

/// Actual per-next-hop-router fractions of every router toward
/// `prefix` on `topo`.
///
/// Computed from the single-prefix reverse SPF
/// ([`fib_igp::spf::prefix_routes`]) rather than a full per-router
/// forward SPF: the verifier — the hot path of controller planning —
/// only ever inspects one destination at a time.
pub fn actual_fractions(
    topo: &Topology,
    prefix: Prefix,
) -> BTreeMap<RouterId, BTreeMap<RouterId, f64>> {
    fractions_of(&prefix_routes(topo, prefix))
}

/// Non-local per-router fractions derived from single-prefix routes.
fn fractions_of(routes: &BTreeMap<RouterId, Route>) -> BTreeMap<RouterId, BTreeMap<RouterId, f64>> {
    routes
        .iter()
        .filter(|(_, route)| !route.local)
        .map(|(r, route)| (*r, route.split_by_router()))
        .collect()
}

/// The routes of `topo` toward `prefix`, with its own lies, on a graph
/// of its own.
fn routes_on(topo: &Topology, prefix: Prefix) -> (PrefixGraph, PrefixRoutes) {
    let graph = PrefixGraph::of(topo, prefix);
    let routes = graph.routes(topo.fake_nodes().map(|(_, attrs)| *attrs));
    (graph, routes)
}

/// Verify `augmented` realizes `dag`, with every unconstrained router
/// keeping the fractions it has on `real`.
pub fn check_preserving(real: &Topology, augmented: &Topology, dag: &WeightedDag) -> VerifyReport {
    let base = LieCheck::new(real, dag.prefix);
    let (graph, routes) = routes_on(augmented, dag.prefix);
    report(Some(&base), &expected(dag), &graph, &routes)
}

/// Verify only that `augmented` realizes `dag` (no preservation check).
pub fn check(augmented: &Topology, dag: &WeightedDag) -> VerifyReport {
    let (graph, routes) = routes_on(augmented, dag.prefix);
    report(None, &expected(dag), &graph, &routes)
}

/// The report on `routes`, computed on `graph`: each constrained
/// router against `expected`, then each router `base` knows of that
/// `expected` leaves free against its fractions there, then the loop
/// search. Routers are matched by id, so `base` may come from another
/// graph than `graph`.
fn report(
    base: Option<&LieCheck>,
    expected: &Expected,
    graph: &PrefixGraph,
    routes: &PrefixRoutes,
) -> VerifyReport {
    let actual = Fractions::of(routes);
    let got = |r: RouterId| graph.pos(r).and_then(|i| actual.get(i)).unwrap_or(&[]);
    let map = |split: &Split| split.iter().copied().collect();
    let mut mismatches = Vec::new();

    // Constrained routers must match the requirement.
    for (r, want) in expected {
        let have = got(*r);
        if !fractions_close(want, have) {
            mismatches.push(Mismatch {
                router: *r,
                expected: map(want),
                actual: map(have),
            });
        }
    }
    // Unconstrained routers must be undisturbed.
    let mut constrained = expected.iter().map(|e| e.0).peekable();
    for (_, r, want) in base.into_iter().flat_map(LieCheck::baseline) {
        while constrained.next_if(|c| *c < r).is_some() {}
        if constrained.peek() == Some(&r) {
            continue;
        }
        let have = got(r);
        if !fractions_close(want, have) {
            mismatches.push(Mismatch {
                router: r,
                expected: map(want),
                actual: map(have),
            });
        }
    }

    VerifyReport {
        prefix: graph.prefix(),
        mismatches,
        forwarding_loop: find_loop(graph, routes),
    }
}

/// A forwarding loop in `routes`, with the witness
/// [`ForwardingDag::find_loop`] gives on the same routes. Whether there
/// is one is decided on positions: peel the forwarding routers nothing
/// left forwards to, and a loop is what remains. Only then are the
/// routes laid out as a map for the witness search.
fn find_loop(graph: &PrefixGraph, routes: &PrefixRoutes) -> Option<Vec<RouterId>> {
    let forwarding = |i: usize| routes.forwards(i).is_some();
    let next = |i: usize| {
        let hops = routes.forwards(i).unwrap_or(&[]).iter();
        hops.filter_map(|h| graph.pos(h.router).filter(|&j| forwarding(j)))
    };
    let n = routes.len();
    let mut feeds = vec![0usize; n];
    for j in (0..n).flat_map(next) {
        feeds[j] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| forwarding(i) && feeds[i] == 0).collect();
    let mut left = (0..n).filter(|&i| forwarding(i)).count();
    while let Some(i) = ready.pop() {
        left -= 1;
        for j in next(i) {
            feeds[j] -= 1;
            if feeds[j] == 0 {
                ready.push(j);
            }
        }
    }
    if left == 0 {
        return None;
    }
    ForwardingDag::from_prefix_routes(graph.prefix(), &graph.routes_by_id(routes)).find_loop()
}

/// The checker on a topology clone, kept as the oracle the graph check is
/// held to: the lies applied to a copy of the real topology, routes as
/// ordered maps, fractions per router as maps, and the loop search on
/// the forwarding DAG built from them.
#[cfg(test)]
pub(crate) mod clone_reference {
    use super::*;

    pub(crate) fn fractions_close(
        a: &BTreeMap<RouterId, f64>,
        b: &BTreeMap<RouterId, f64>,
    ) -> bool {
        if a.len() != b.len() {
            return false;
        }
        a.iter()
            .all(|(k, v)| b.get(k).map(|w| (v - w).abs() <= TOL).unwrap_or(false))
    }

    pub(crate) fn check_preserving(
        real: &Topology,
        augmented: &Topology,
        dag: &WeightedDag,
    ) -> VerifyReport {
        check_against(&actual_fractions(real, dag.prefix), augmented, dag)
    }

    pub(crate) fn check_against(
        baseline: &BTreeMap<RouterId, BTreeMap<RouterId, f64>>,
        augmented: &Topology,
        dag: &WeightedDag,
    ) -> VerifyReport {
        let aug_routes = prefix_routes(augmented, dag.prefix);
        let actual = fractions_of(&aug_routes);
        let mut mismatches = Vec::new();
        for r in dag.routers() {
            let expected = dag.fractions(r);
            let got = actual.get(&r).cloned().unwrap_or_default();
            if !fractions_close(&expected, &got) {
                mismatches.push(Mismatch {
                    router: r,
                    expected,
                    actual: got,
                });
            }
        }
        for (r, expected) in baseline {
            if dag.hops(*r).is_some() {
                continue;
            }
            let got = actual.get(r).cloned().unwrap_or_default();
            if !fractions_close(expected, &got) {
                mismatches.push(Mismatch {
                    router: *r,
                    expected: expected.clone(),
                    actual: got,
                });
            }
        }
        let forwarding_loop =
            ForwardingDag::from_prefix_routes(dag.prefix, &aug_routes).find_loop();
        VerifyReport {
            prefix: dag.prefix,
            mismatches,
            forwarding_loop,
        }
    }

    /// A report with every fraction as its bits, for comparing two
    /// reports to the bit.
    pub(crate) fn bits(report: &VerifyReport) -> impl PartialEq + std::fmt::Debug {
        let map = |m: &BTreeMap<RouterId, f64>| -> Vec<(RouterId, u64)> {
            m.iter().map(|(r, x)| (*r, x.to_bits())).collect()
        };
        let mismatches: Vec<_> = report
            .mismatches
            .iter()
            .map(|m| (m.router, map(&m.expected), map(&m.actual)))
            .collect();
        (report.prefix, mismatches, report.forwarding_loop.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::types::{FwAddr, Metric};

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    fn triangle() -> Topology {
        // 1-2 cost 1, 2-3 cost 1, 1-3 cost 5; prefix at 3.
        let mut t = Topology::new();
        for i in 1..=3 {
            t.add_router(r(i));
        }
        t.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        t.add_link_sym(r(2), r(3), Metric(1)).unwrap();
        t.add_link_sym(r(1), r(3), Metric(5)).unwrap();
        t.announce_prefix(r(3), Prefix::net24(1), Metric::ZERO)
            .unwrap();
        t
    }

    #[test]
    fn natural_topology_fails_uneven_requirement() {
        let t = triangle();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 1), (r(3), 1)]);
        let report = check(&t, &dag);
        assert!(!report.ok());
        assert_eq!(report.mismatches.len(), 1);
        assert_eq!(report.mismatches[0].router, r(1));
        assert!(report.to_string().contains("NOT realized"));
    }

    #[test]
    fn lie_realizes_requirement_and_preserves_others() {
        let real = triangle();
        let mut aug = real.clone();
        // Equal-cost lie at r1 (cost 2) via the direct r3 link.
        aug.add_fake_node(
            RouterId::fake(0),
            FakeAttrs {
                attach: r(1),
                attach_metric: Metric(1),
                prefix: Prefix::net24(1),
                prefix_metric: Metric(1),
                fw: FwAddr::secondary(r(3), 1),
            },
        )
        .unwrap();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 1), (r(3), 1)]);
        let report = check_preserving(&real, &aug, &dag);
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn disturbing_unconstrained_router_is_caught() {
        let real = triangle();
        let mut aug = real.clone();
        // A *cheaper* lie at r1 (cost 1) changes r2? No — r2's own
        // path is cost 1 via r3 directly; r2 sees r1's lie at
        // dist(r1)+1 = 2 > 1. Instead disturb r2 directly: lie at r2
        // via r1 at cost 1, equal to its natural cost → r2 gains a
        // slot it should not have.
        aug.add_fake_node(
            RouterId::fake(0),
            FakeAttrs {
                attach: r(2),
                attach_metric: Metric(1),
                prefix: Prefix::net24(1),
                prefix_metric: Metric(0),
                fw: FwAddr::secondary(r(1), 1),
            },
        )
        .unwrap();
        let dag = WeightedDag::new(Prefix::net24(1)); // no constraints
        let report = check_preserving(&real, &aug, &dag);
        assert!(!report.ok());
        assert_eq!(report.mismatches[0].router, r(2));
    }

    #[test]
    fn forwarding_loop_is_reported() {
        // Requirement loops are impossible through SPF on a fixed
        // augmented topology (costs strictly decrease), so synthesize
        // a loop check through the DAG directly: use two lies that
        // point traffic at each other *via cheaper-than-real costs*.
        // On a line 1-2-3 with prefix at 3, lie at r2 via r1 at cost 0
        // would be needed to loop — cost 0 lies are unrepresentable
        // (metrics >= 1 on the attach link), so instead assert the
        // checker's loop detector on a hand-built cycle.
        let mut dag_nexthops = BTreeMap::new();
        dag_nexthops.insert(r(1), vec![FwAddr::primary(r(2))]);
        dag_nexthops.insert(r(2), vec![FwAddr::primary(r(1))]);
        let fdag = ForwardingDag {
            prefix: Prefix::net24(1),
            nexthops: dag_nexthops,
        };
        assert!(fdag.find_loop().is_some());
    }

    #[test]
    fn fractions_comparison_tolerates_equivalent_multisets() {
        let real = triangle();
        let mut aug = real.clone();
        // Two lies at r1 via r3 and one extra via r2 → slots
        // [r2, r2#1, r3#1, r3#2] = 1:1 fractions... build requirement
        // 2:2 and check fraction equivalence (2:2 == 1:1).
        aug.add_fake_node(
            RouterId::fake(0),
            FakeAttrs {
                attach: r(1),
                attach_metric: Metric(1),
                prefix: Prefix::net24(1),
                prefix_metric: Metric(1),
                fw: FwAddr::secondary(r(2), 1),
            },
        )
        .unwrap();
        for k in 1..=2u32 {
            aug.add_fake_node(
                RouterId::fake(k),
                FakeAttrs {
                    attach: r(1),
                    attach_metric: Metric(1),
                    prefix: Prefix::net24(1),
                    prefix_metric: Metric(1),
                    fw: FwAddr::secondary(r(3), k as u16),
                },
            )
            .unwrap();
        }
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 3), (r(3), 3)]); // same fractions as 2:2
        let report = check(&aug, &dag);
        assert!(report.ok(), "{report}");
    }
}
