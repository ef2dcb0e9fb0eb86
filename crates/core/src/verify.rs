//! Verification: does an augmented topology realize a requirement?
//!
//! The checker recomputes every router's routes on the augmented
//! topology and compares *traffic fractions per next-hop router*
//! (slot-multiset ratios) against the requirement; unconstrained
//! routers must keep the fractions they had on the real topology.
//! It also proves the resulting forwarding state is loop-free.

use crate::requirements::WeightedDag;
use fib_igp::rib::{ForwardingDag, Route};
use fib_igp::spf::prefix_routes;
use fib_igp::topology::Topology;
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

/// The one "same fractions" rule: the verifier's, and the one
/// `augment`'s fixpoint uses to decide that a router was disturbed.
pub(crate) fn fractions_close(a: &BTreeMap<RouterId, f64>, b: &BTreeMap<RouterId, f64>) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter()
        .all(|(k, v)| b.get(k).map(|w| (v - w).abs() <= TOL).unwrap_or(false))
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

/// The realized forwarding DAG for one prefix (local routes become
/// empty next-hop sets, i.e. sinks).
fn dag_of(prefix: Prefix, routes: &BTreeMap<RouterId, Route>) -> ForwardingDag {
    ForwardingDag::from_prefix_routes(prefix, routes)
}

/// Verify `augmented` realizes `dag`, with every unconstrained router
/// keeping the fractions it has on `real`.
pub fn check_preserving(real: &Topology, augmented: &Topology, dag: &WeightedDag) -> VerifyReport {
    check_against(&actual_fractions(real, dag.prefix), augmented, dag)
}

/// [`check_preserving`] for a caller that checks several candidates
/// against one real topology and already holds its fractions
/// (`baseline = actual_fractions(real, dag.prefix)`).
pub(crate) fn check_against(
    baseline: &BTreeMap<RouterId, BTreeMap<RouterId, f64>>,
    augmented: &Topology,
    dag: &WeightedDag,
) -> VerifyReport {
    let aug_routes = prefix_routes(augmented, dag.prefix);
    let actual = fractions_of(&aug_routes);
    let mut mismatches = Vec::new();

    // Constrained routers must match the requirement.
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
    // Unconstrained routers must be undisturbed.
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

    // Loop freedom of the realized forwarding state.
    let forwarding_loop = dag_of(dag.prefix, &aug_routes).find_loop();

    VerifyReport {
        prefix: dag.prefix,
        mismatches,
        forwarding_loop,
    }
}

/// Verify only that `augmented` realizes `dag` (no preservation check).
pub fn check(augmented: &Topology, dag: &WeightedDag) -> VerifyReport {
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
    VerifyReport {
        prefix: dag.prefix,
        mismatches,
        forwarding_loop: dag_of(dag.prefix, &aug_routes).find_loop(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::topology::FakeAttrs;
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
