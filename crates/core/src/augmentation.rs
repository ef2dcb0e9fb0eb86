//! Topology augmentation: computing the lies that realize a
//! requirement.
//!
//! Three algorithms, mirroring the structure of the original Fibbing
//! work (Vissicchio et al., SIGCOMM 2015):
//!
//! * **Equal-cost planning** — when a requirement only *adds*
//!   next-hops (or re-weights a superset of the IGP's natural ECMP
//!   set), lies are injected at exactly the router's current shortest
//!   cost. In this model such lies are provably side-effect-free: a
//!   remote router that sees the lie at equal cost already had the
//!   corresponding first hops by optimal substructure, and next-hop
//!   sets deduplicate by forwarding address. This is the cheap path
//!   the demo exercises (fB at B, fA×2 at A).
//!
//! * **Override planning with pin fixpoint** — when a requirement
//!   *removes* natural next-hops, lies must undercut the IGP's best
//!   cost, which *is* globally visible. The planner then iteratively
//!   detects disturbed unconstrained routers and pins them (restores
//!   their original next-hop sets with further lies) until a fixpoint
//!   — a faithful analogue of the paper's "Simple" algorithm, which
//!   sidesteps the analysis by constraining every router on the path.
//!
//! * **Greedy reduction (Merger-style)** — drop per-router lie groups
//!   whose removal leaves the requirement satisfied and everyone else
//!   undisturbed, shrinking Simple's output toward the demo's minimal
//!   plans.
//!
//! # Loop safety
//!
//! A requirement may name a next-hop whose *own* shortest path returns
//! through the constrained router; realizing it slot-by-slot would
//! compose into a forwarding loop even though no individual router's
//! routes were disturbed. [`augment`] always verifies the composed
//! forwarding graph and refuses such plans with
//! [`AugmentError::VerificationFailed`] (carrying the loop witness).
//! Plans derived from flows — like [`crate::optimizer::plan_paths`]
//! output — are inherently acyclic and never hit this; hand-written
//! requirements should prefer downstream next-hops or constrain the
//! full path as the Simple algorithm does.

use crate::lie::{AddrExhausted, Lie, LieAllocator};
use crate::requirements::WeightedDag;
use crate::verify::{expected, fractions_close, LieCheck, VerifyReport};
use fib_igp::rib::Route;
use fib_igp::spf::{prefix_route_from, ShortestPaths};
use fib_igp::topology::{FakeAttrs, Topology};
use fib_igp::types::{Metric, Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// Augmentation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum AugmentError {
    /// The requirement has an internal cycle.
    RequirementLoop(Vec<RouterId>),
    /// A required next-hop is not a physical neighbor of the router.
    NotNeighbor {
        /// Constrained router.
        router: RouterId,
        /// Offending next-hop.
        nexthop: RouterId,
    },
    /// The router cannot reach the prefix at all.
    Unreachable(RouterId),
    /// Override planning needs a cost below the representable minimum.
    CostUnderflow(RouterId),
    /// The pin cascade failed to stabilize.
    NoFixpoint,
    /// The final plan failed verification (internal bug guard).
    VerificationFailed(Box<VerifyReport>),
    /// A router ran out of secondary addresses of one neighbor.
    AddressesExhausted(AddrExhausted),
}

impl From<AddrExhausted> for AugmentError {
    fn from(e: AddrExhausted) -> Self {
        AugmentError::AddressesExhausted(e)
    }
}

impl fmt::Display for AugmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AugmentError::RequirementLoop(cycle) => {
                let parts: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
                write!(f, "requirement loops: {}", parts.join(" -> "))
            }
            AugmentError::NotNeighbor { router, nexthop } => {
                write!(f, "{nexthop} is not a neighbor of {router}")
            }
            AugmentError::Unreachable(r) => write!(f, "{r} cannot reach the prefix"),
            AugmentError::CostUnderflow(r) => {
                write!(f, "cannot undercut the shortest path at {r} (cost floor)")
            }
            AugmentError::NoFixpoint => write!(f, "pin cascade did not stabilize"),
            AugmentError::VerificationFailed(rep) => {
                write!(f, "verification failed: {rep}")
            }
            AugmentError::AddressesExhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AugmentError {}

/// A computed augmentation.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The lies to inject.
    pub lies: Vec<Lie>,
    /// The requirement actually enforced, including pins the planner
    /// added to contain override side effects.
    pub effective_dag: WeightedDag,
    /// Routers pinned beyond the original requirement.
    pub pinned: Vec<RouterId>,
}

/// Next-hop routers of a route with their slot counts (none for a
/// locally delivered prefix).
fn hops_of(route: Route) -> Vec<(RouterId, u32)> {
    if route.local {
        return Vec::new();
    }
    let mut counts: BTreeMap<RouterId, u32> = BTreeMap::new();
    for h in &route.nexthops {
        *counts.entry(h.router).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Plan lies for router `sp.source` on the real `topo` against every
/// *other* router's lies, `others`. Returns `(lies, used_override)`.
///
/// `sp` is the router's shortest paths on `topo`, and its route is read
/// off them with `others` told. That equals a full SPF on `topo` with
/// `others` applied: lies carry no transit, so they move no real-graph
/// distance, and one `sp` serves every fixpoint pass of [`augment`].
fn plan_for_router(
    topo: &Topology,
    sp: &ShortestPaths,
    others: impl IntoIterator<Item = FakeAttrs>,
    desired: &[(RouterId, u32)],
    prefix: Prefix,
    alloc: &mut LieAllocator,
) -> Result<(Vec<Lie>, bool), AugmentError> {
    let r = sp.source;
    // Validate adjacency (forwarding addresses must be neighbors).
    for (nh, _) in desired {
        if !topo.has_link(r, *nh) {
            return Err(AugmentError::NotNeighbor {
                router: r,
                nexthop: *nh,
            });
        }
    }
    // One read gives both the distance and the natural hops.
    let route = prefix_route_from(topo, sp, prefix, others).ok_or(AugmentError::Unreachable(r))?;
    let dist = route.dist;
    if !dist.is_finite() {
        return Err(AugmentError::Unreachable(r));
    }
    let natural = hops_of(route);
    let natural_routers: Vec<RouterId> = natural.iter().map(|(n, _)| *n).collect();
    let desired_map: BTreeMap<RouterId, u32> = desired.iter().copied().collect();

    // Equal-cost is applicable iff every natural next-hop keeps at
    // least the weight its natural slots give it (we cannot remove
    // slots without undercutting), i.e. the natural slot count per
    // router is <= desired weight, scaled: since natural gives exactly
    // one primary slot per router, the condition is desired ⊇ natural
    // AND the desired weights are achievable by *adding* fake slots:
    // desired_weight(nh) >= 1 for nh in natural. One more subtlety:
    // the natural slots impose ratio floor 1 slot; desired total T and
    // natural router n must satisfy weight(n) >= 1 — always true when
    // present. However fractions only match if we can top up every
    // next-hop to desired weight: extra(nh) = weight - (1 if natural).
    let equal_cost_ok = natural_routers.iter().all(|n| desired_map.contains_key(n));

    if equal_cost_ok {
        let mut lies = Vec::new();
        for (nh, w) in desired {
            let free = u32::from(natural_routers.contains(nh));
            for _ in free..*w {
                lies.push(alloc.make(r, *nh, prefix, dist)?);
            }
        }
        return Ok((lies, false));
    }

    // Override: undercut the natural cost by one.
    if dist.0 <= 1 {
        return Err(AugmentError::CostUnderflow(r));
    }
    let cost = Metric(dist.0 - 1);
    let mut lies = Vec::new();
    for (nh, w) in desired {
        for _ in 0..*w {
            lies.push(alloc.make(r, *nh, prefix, cost)?);
        }
    }
    Ok((lies, true))
}

/// Signature of a lie plan for change detection (ignores names).
fn plan_signature(lies: &[Lie]) -> Vec<(RouterId, RouterId, Metric)> {
    let mut sig: Vec<_> = lies.iter().map(Lie::sig).collect();
    sig.sort();
    sig
}

/// Compute an augmentation realizing `dag` on the real topology
/// `topo` (which must contain no fake nodes).
pub fn augment(
    topo: &Topology,
    dag: &WeightedDag,
    alloc: &mut LieAllocator,
) -> Result<Plan, AugmentError> {
    assert_eq!(topo.fake_count(), 0, "augment() expects the real topology");
    if let Some(cycle) = dag.find_internal_loop() {
        return Err(AugmentError::RequirementLoop(cycle));
    }
    let prefix = dag.prefix;
    let mut working = dag.clone();
    let mut pinned: Vec<RouterId> = Vec::new();
    let mut lies_by_router: BTreeMap<RouterId, Vec<Lie>> = BTreeMap::new();

    // The prefix's graph on `topo` and the baseline fractions for
    // side-effect detection, once: every candidate lie set is checked
    // on them. Per router, its shortest paths on the same dense graph,
    // each computed on first use: no lie moves them (see
    // `plan_for_router`).
    let lie_check = LieCheck::new(topo, prefix);
    let graph = lie_check.graph().real_graph();
    let mut paths: BTreeMap<RouterId, ShortestPaths> = BTreeMap::new();

    let max_iter = topo.router_count() + 2;
    let mut stable = false;
    for _iter in 0..max_iter {
        let mut changed = false;

        // (Re)plan every constrained router against the others' lies.
        let constrained: Vec<RouterId> = working.routers().collect();
        for r in &constrained {
            let others = lies_by_router
                .iter()
                .filter(|(attach, _)| **attach != *r)
                .flat_map(|(_, v)| v.iter().map(Lie::attrs));
            let sp = paths.entry(*r).or_insert_with(|| graph.shortest_paths(*r));
            let desired = working.hops(*r).cloned().unwrap_or_default();
            let (new_lies, _override_used) =
                plan_for_router(topo, sp, others, &desired, prefix, alloc)?;
            let old_sig =
                plan_signature(lies_by_router.get(r).map(|v| v.as_slice()).unwrap_or(&[]));
            if plan_signature(&new_lies) != old_sig {
                lies_by_router.insert(*r, new_lies);
                changed = true;
            }
        }

        // Detect disturbed unconstrained routers and pin them.
        let all_lies: Vec<Lie> = lies_by_router.values().flatten().copied().collect();
        let actual = lie_check.fractions(&all_lies);
        for (i, u, base_fr) in lie_check.baseline() {
            if working.hops(u).is_some() {
                continue;
            }
            if !fractions_close(base_fr, actual.get(i).unwrap_or(&[])) {
                // Pin u to its original next-hop routers, one slot each.
                let sp = paths.entry(u).or_insert_with(|| graph.shortest_paths(u));
                let natural = prefix_route_from(topo, sp, prefix, []);
                let hops = natural.map(hops_of).unwrap_or_default();
                if hops.is_empty() {
                    return Err(AugmentError::Unreachable(u));
                }
                working.require(u, &hops);
                pinned.push(u);
                changed = true;
            }
        }

        if !changed {
            stable = true;
            break;
        }
    }
    if !stable {
        return Err(AugmentError::NoFixpoint);
    }

    let lies: Vec<Lie> = lies_by_router.values().flatten().copied().collect();
    let report = lie_check.check(&lies, &expected(&working));
    if !report.ok() {
        return Err(AugmentError::VerificationFailed(Box::new(report)));
    }
    Ok(Plan {
        lies,
        effective_dag: working,
        pinned,
    })
}

/// Merger-style greedy reduction: drop per-router lie groups whose
/// removal keeps (a) the original requirement satisfied and (b) every
/// other router at its real-topology fractions. Each candidate is
/// checked as a slice of lies on one graph of `topo`; the lies' fake
/// ids must be distinct, as `apply_all` needs them.
pub fn reduce(topo: &Topology, dag: &WeightedDag, lies: &[Lie]) -> Vec<Lie> {
    let mut groups: BTreeMap<RouterId, Vec<Lie>> = BTreeMap::new();
    for l in lies {
        groups.entry(l.attach).or_default().push(*l);
    }
    let lie_check = LieCheck::new(topo, dag.prefix);
    let expected = expected(dag);
    let attaches: Vec<RouterId> = groups.keys().copied().collect();
    for attach in attaches {
        let removed = groups.remove(&attach).expect("group exists");
        let candidate: Vec<Lie> = groups.values().flatten().copied().collect();
        if !lie_check.check(&candidate, &expected).ok() {
            groups.insert(attach, removed); // keep the group
        }
    }
    groups.into_values().flatten().collect()
}

#[cfg(test)]
mod clone_reference {
    use super::*;
    use crate::lie::apply_all;
    use crate::verify::actual_fractions;
    use crate::verify::clone_reference::{check_against, fractions_close};
    use fib_igp::spf::RealGraph;

    pub(super) fn augment(
        topo: &Topology,
        dag: &WeightedDag,
        alloc: &mut LieAllocator,
    ) -> Result<Plan, AugmentError> {
        assert_eq!(topo.fake_count(), 0, "augment() expects the real topology");
        if let Some(cycle) = dag.find_internal_loop() {
            return Err(AugmentError::RequirementLoop(cycle));
        }
        let prefix = dag.prefix;
        let mut working = dag.clone();
        let mut pinned: Vec<RouterId> = Vec::new();
        let mut lies_by_router: BTreeMap<RouterId, Vec<Lie>> = BTreeMap::new();
        let baseline = actual_fractions(topo, prefix);
        let graph = RealGraph::of(topo);
        let mut paths: BTreeMap<RouterId, ShortestPaths> = BTreeMap::new();
        let max_iter = topo.router_count() + 2;
        let mut stable = false;
        for _iter in 0..max_iter {
            let mut changed = false;
            let constrained: Vec<RouterId> = working.routers().collect();
            for r in &constrained {
                let others = lies_by_router
                    .iter()
                    .filter(|(attach, _)| **attach != *r)
                    .flat_map(|(_, v)| v.iter().map(Lie::attrs));
                let sp = paths.entry(*r).or_insert_with(|| graph.shortest_paths(*r));
                let desired = working.hops(*r).cloned().unwrap_or_default();
                let (new_lies, _override_used) =
                    plan_for_router(topo, sp, others, &desired, prefix, alloc)?;
                let old_sig =
                    plan_signature(lies_by_router.get(r).map(|v| v.as_slice()).unwrap_or(&[]));
                if plan_signature(&new_lies) != old_sig {
                    lies_by_router.insert(*r, new_lies);
                    changed = true;
                }
            }
            let all_lies: Vec<Lie> = lies_by_router.values().flatten().copied().collect();
            let augmented = apply_all(topo, &all_lies);
            let actual = actual_fractions(&augmented, prefix);
            for (u, base_fr) in &baseline {
                if working.hops(*u).is_some() {
                    continue;
                }
                let now_fr = actual.get(u).cloned().unwrap_or_default();
                if !fractions_close(base_fr, &now_fr) {
                    let sp = paths.entry(*u).or_insert_with(|| graph.shortest_paths(*u));
                    let natural = prefix_route_from(topo, sp, prefix, []);
                    let hops = natural.map(hops_of).unwrap_or_default();
                    if hops.is_empty() {
                        return Err(AugmentError::Unreachable(*u));
                    }
                    working.require(*u, &hops);
                    pinned.push(*u);
                    changed = true;
                }
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            return Err(AugmentError::NoFixpoint);
        }
        let lies: Vec<Lie> = lies_by_router.values().flatten().copied().collect();
        let augmented = apply_all(topo, &lies);
        let report = check_against(&baseline, &augmented, &working);
        if !report.ok() {
            return Err(AugmentError::VerificationFailed(Box::new(report)));
        }
        Ok(Plan {
            lies,
            effective_dag: working,
            pinned,
        })
    }

    pub(super) fn reduce(topo: &Topology, dag: &WeightedDag, lies: &[Lie]) -> Vec<Lie> {
        let mut groups: BTreeMap<RouterId, Vec<Lie>> = BTreeMap::new();
        for l in lies {
            groups.entry(l.attach).or_default().push(*l);
        }
        let baseline = actual_fractions(topo, dag.prefix);
        let attaches: Vec<RouterId> = groups.keys().copied().collect();
        for attach in attaches {
            let removed = groups.remove(&attach).expect("group exists");
            let candidate: Vec<Lie> = groups.values().flatten().copied().collect();
            let augmented = apply_all(topo, &candidate);
            let report = check_against(&baseline, &augmented, dag);
            if !report.ok() {
                groups.insert(attach, removed);
            }
        }
        groups.into_values().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lie::apply_all;
    use crate::verify::check_preserving;
    use fib_igp::spf::{compute_routes, prefix_routes, shortest_paths};

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Triangle: 1-2 (1), 2-3 (1), 1-3 (5); prefix at r3.
    fn triangle() -> Topology {
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
    fn equal_cost_addition_is_planned_without_pins() {
        let topo = triangle();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        // Keep the natural hop (r2) and add the direct r3 link 50/50.
        dag.require(r(1), &[(r(2), 1), (r(3), 1)]);
        let mut alloc = LieAllocator::new();
        let plan = augment(&topo, &dag, &mut alloc).expect("plan");
        assert!(plan.pinned.is_empty(), "equal-cost must not pin");
        assert_eq!(plan.lies.len(), 1);
        assert_eq!(plan.lies[0].attach, r(1));
        assert_eq!(plan.lies[0].fw.router, r(3));
        assert_eq!(plan.lies[0].cost_at_attach(), Metric(2));
    }

    #[test]
    fn uneven_weights_create_replicated_lies() {
        let topo = triangle();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        // 1/3 via r2 (natural), 2/3 via r3 → 2 fakes on r3.
        dag.require(r(1), &[(r(2), 1), (r(3), 2)]);
        let mut alloc = LieAllocator::new();
        let plan = augment(&topo, &dag, &mut alloc).expect("plan");
        assert_eq!(plan.lies.len(), 2);
        assert!(plan.lies.iter().all(|l| l.fw.router == r(3)));
        // Distinct gateway addresses → distinct ECMP slots.
        assert_ne!(plan.lies[0].fw, plan.lies[1].fw);
    }

    #[test]
    fn removal_requires_override_and_pins_disturbed_routers() {
        // Square: 1-2 (1), 2-4 (1), 1-3 (2), 3-4 (2); prefix at 4.
        // r1's natural path: via r2 (cost 2). Requirement: r1 must use
        // ONLY r3 — removal of a natural hop → override.
        let mut topo = Topology::new();
        for i in 1..=4 {
            topo.add_router(r(i));
        }
        topo.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        topo.add_link_sym(r(2), r(4), Metric(1)).unwrap();
        topo.add_link_sym(r(1), r(3), Metric(2)).unwrap();
        topo.add_link_sym(r(3), r(4), Metric(2)).unwrap();
        topo.announce_prefix(r(4), Prefix::net24(1), Metric::ZERO)
            .unwrap();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(3), 1)]);
        let mut alloc = LieAllocator::new();
        let plan = augment(&topo, &dag, &mut alloc).expect("plan");
        let augmented = apply_all(&topo, &plan.lies);
        let report = check_preserving(&topo, &augmented, &plan.effective_dag);
        assert!(report.ok(), "{report}");
        // The requirement itself must hold.
        let fr = crate::verify::actual_fractions(&augmented, Prefix::net24(1));
        assert_eq!(fr[&r(1)].len(), 1);
        assert!((fr[&r(1)][&r(3)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_neighbor_requirement_is_rejected() {
        let mut topo = triangle();
        // r4 hangs off r3 only; r1 cannot use it as a next-hop.
        topo.add_router(r(4));
        topo.add_link_sym(r(3), r(4), Metric(1)).unwrap();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(4), 1)]);
        let mut alloc = LieAllocator::new();
        assert!(matches!(
            augment(&topo, &dag, &mut alloc),
            Err(AugmentError::NotNeighbor { .. })
        ));
    }

    #[test]
    fn reduce_drops_redundant_lies() {
        let topo = triangle();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        // r2's requirement is its natural behaviour; r1 adds a path.
        dag.require(r(1), &[(r(2), 1), (r(3), 1)]);
        dag.require(r(2), &[(r(3), 1)]);
        let mut alloc = LieAllocator::new();
        // Start from the simple (everything pinned) plan... which uses
        // cost-1 lies that *do* disturb unconstrained routers, so
        // reduction must keep what is needed to satisfy `dag` while
        // restoring everyone else. Build instead from the principled
        // plan plus a redundant equal-cost lie at r2.
        let plan = augment(&topo, &dag, &mut alloc).expect("plan");
        let reduced = reduce(&topo, &dag, &plan.lies);
        // r2's natural behaviour needs no lies; only r1's lie remains.
        assert_eq!(reduced.len(), 1);
        assert_eq!(reduced[0].attach, r(1));
        let augmented = apply_all(&topo, &reduced);
        assert!(check_preserving(&topo, &augmented, &dag).ok());
    }

    #[test]
    fn upstream_nexthop_composing_a_loop_is_refused() {
        // Line: 1 - 2 - 3 - 4, prefix at 4. Requiring r2 to also use
        // r1 sends traffic to a router whose own path returns through
        // r2 — a composed forwarding loop. No single router's routes
        // are disturbed, but the plan must still be refused.
        let mut topo = Topology::new();
        for i in 1..=4 {
            topo.add_router(r(i));
        }
        topo.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        topo.add_link_sym(r(2), r(3), Metric(1)).unwrap();
        topo.add_link_sym(r(3), r(4), Metric(1)).unwrap();
        topo.announce_prefix(r(4), Prefix::net24(1), Metric::ZERO)
            .unwrap();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(2), &[(r(3), 1), (r(1), 1)]);
        let mut alloc = LieAllocator::new();
        match augment(&topo, &dag, &mut alloc) {
            Err(AugmentError::VerificationFailed(report)) => {
                assert!(report.forwarding_loop.is_some(), "{report}");
            }
            other => panic!("expected loop refusal, got {other:?}"),
        }
    }

    #[test]
    fn requirement_loop_is_rejected() {
        let topo = triangle();
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 1)]);
        dag.require(r(2), &[(r(1), 1)]);
        let mut alloc = LieAllocator::new();
        assert!(matches!(
            augment(&topo, &dag, &mut alloc),
            Err(AugmentError::RequirementLoop(_))
        ));
    }

    /// Model test: the route `augment` reads off a router's kept
    /// shortest paths, with lies told beside the real topology, equals a
    /// full SPF on the topology with those lies applied — what it ran
    /// per router per fixpoint pass before — in dist and hops. Lie sets
    /// are drawn at the attachment router's natural cost, under it and
    /// over it, for another prefix, and at every router; each router is
    /// read against the others' lies, against all of them and against
    /// none.
    #[test]
    fn route_read_off_kept_paths_matches_a_full_spf_with_the_lies_applied() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(26);
        let (prefix, decoy) = (Prefix::net24(1), Prefix::net24(2));
        let mut drawn: BTreeMap<&str, u32> = BTreeMap::new();
        for case in 0..400 {
            let n = rng.gen_range(3..=14);
            let mut topo = fib_igp::builders::random_connected(&mut rng, n, n, 4);
            for _ in 0..rng.gen_range(1..=3) {
                let m = Metric(rng.gen_range(0..3));
                topo.announce_prefix(r(rng.gen_range(1..=n)), prefix, m)
                    .unwrap();
            }
            topo.announce_prefix(r(rng.gen_range(1..=n)), decoy, Metric::ZERO)
                .unwrap();
            let natural = prefix_routes(&topo, prefix);
            let everywhere = case % 4 == 0;
            let mut alloc = LieAllocator::new();
            let mut lies = Vec::new();
            for a in topo.routers() {
                if !everywhere && rng.gen_range(0..3) != 0 {
                    continue;
                }
                let nbrs: Vec<RouterId> = topo.links(a).iter().map(|l| l.to).collect();
                for _ in 0..rng.gen_range(1..=2) {
                    let d = natural.get(&a).map_or(3, |route| route.dist.0);
                    let (what, cost) = match rng.gen_range(0..4) {
                        0 => ("a lie at the natural cost", d),
                        1 if d > 1 => ("a lie undercutting it", d - 1),
                        2 => ("a lie dearer than it", d + 1),
                        _ => ("a lie at a drawn cost", rng.gen_range(1..8)),
                    };
                    let for_decoy = rng.gen_range(0..6) == 0;
                    let what = if for_decoy {
                        "a lie for another prefix"
                    } else {
                        what
                    };
                    *drawn.entry(what).or_default() += 1;
                    let p = if for_decoy { decoy } else { prefix };
                    let nh = nbrs[rng.gen_range(0..nbrs.len())];
                    lies.push(alloc.make(a, nh, p, Metric(cost)).unwrap());
                }
            }
            for x in topo.routers() {
                let sp = shortest_paths(&topo, x);
                let others: Vec<Lie> = lies.iter().filter(|l| l.attach != x).copied().collect();
                let every_other = topo
                    .routers()
                    .all(|a| a == x || others.iter().any(|l| l.attach == a));
                *drawn
                    .entry("lies at every router but the one read")
                    .or_default() += u32::from(every_other);
                for told in [&others, &lies, &Vec::new()] {
                    let read = prefix_route_from(&topo, &sp, prefix, told.iter().map(Lie::attrs));
                    let full = compute_routes(&apply_all(&topo, told), x);
                    assert_eq!(
                        read.as_ref(),
                        full.route(prefix),
                        "case {case}: {x} with {told:?} on {topo:?}"
                    );
                }
            }
        }
        for what in [
            "a lie at the natural cost",
            "a lie undercutting it",
            "a lie dearer than it",
            "a lie for another prefix",
            "lies at every router but the one read",
        ] {
            let times = drawn.get(what).copied().unwrap_or(0);
            assert!(times >= 20, "the generator drew {what} {times} times");
        }
    }

    /// Differential: over 320 seeded graphs with random lie sets (at a
    /// router's natural cost, under it, over it, at a drawn cost, for
    /// another prefix) and random requirements, the checker, `augment`
    /// and `reduce` agree to the bit with their clone-based references:
    /// the same report (mismatches, fraction bits, loop witness), the
    /// same plan or error, the same surviving lies.
    #[test]
    fn lie_sets_checked_without_a_clone_match_the_clone_path() {
        use crate::verify::clone_reference as checker;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        let (prefix, decoy) = (Prefix::net24(1), Prefix::net24(2));
        let mut drawn: BTreeMap<&str, u32> = BTreeMap::new();
        let mut tally = |what| *drawn.entry(what).or_default() += 1;
        for case in 0..320 {
            let n = rng.gen_range(3..=16);
            let mut topo = fib_igp::builders::random_connected(&mut rng, n, n, 4);
            for _ in 0..rng.gen_range(1..=3) {
                let m = Metric(rng.gen_range(0..3));
                topo.announce_prefix(r(rng.gen_range(1..=n)), prefix, m)
                    .unwrap();
            }
            topo.announce_prefix(r(rng.gen_range(1..=n)), decoy, Metric::ZERO)
                .unwrap();
            let natural = prefix_routes(&topo, prefix);
            let nbrs =
                |a: RouterId| -> Vec<RouterId> { topo.links(a).iter().map(|l| l.to).collect() };

            let mut alloc = LieAllocator::new();
            let mut lies = Vec::new();
            for a in topo.routers() {
                if rng.gen_range(0..3) != 0 {
                    continue;
                }
                let d = natural.get(&a).map_or(3, |route| route.dist.0);
                for _ in 0..rng.gen_range(1..=2) {
                    let cost = match rng.gen_range(0..4) {
                        0 => d,
                        1 if d > 1 => d - 1,
                        2 => d + 1,
                        _ => rng.gen_range(1..8),
                    };
                    let p = if rng.gen_range(0..6) == 0 {
                        decoy
                    } else {
                        prefix
                    };
                    let to = nbrs(a);
                    let nh = to[rng.gen_range(0..to.len())];
                    lies.push(alloc.make(a, nh, p, Metric(cost)).unwrap());
                }
            }
            let mut dag = WeightedDag::new(prefix);
            for _ in 0..rng.gen_range(0..=3) {
                let a = r(rng.gen_range(1..=n));
                let to = nbrs(a);
                let hops: Vec<(RouterId, u32)> = (0..rng.gen_range(1..=2))
                    .map(|_| (to[rng.gen_range(0..to.len())], rng.gen_range(1..=3)))
                    .collect();
                dag.require(a, &hops);
            }

            let augmented = apply_all(&topo, &lies);
            let report = LieCheck::new(&topo, prefix).check(&lies, &expected(&dag));
            let reference = checker::check_preserving(&topo, &augmented, &dag);
            for (how, got) in [
                ("on one graph", &report),
                (
                    "on two topologies",
                    &check_preserving(&topo, &augmented, &dag),
                ),
            ] {
                assert_eq!(
                    checker::bits(got),
                    checker::bits(&reference),
                    "case {case}: check {how} of {lies:?} for {dag}"
                );
            }
            tally(
                match (
                    report.mismatches.is_empty(),
                    report.forwarding_loop.is_some(),
                ) {
                    (true, false) => "a report that holds",
                    (false, false) => "a report with mismatches only",
                    (_, true) => "a report with a loop",
                },
            );

            let reduced = reduce(&topo, &dag, &lies);
            assert_eq!(
                reduced,
                clone_reference::reduce(&topo, &dag, &lies),
                "case {case}: reduce of {lies:?} for {dag}"
            );
            if reduced.len() < lies.len() {
                tally("a reduce that drops lies");
            }

            let got = augment(&topo, &dag, &mut LieAllocator::new());
            let want = clone_reference::augment(&topo, &dag, &mut LieAllocator::new());
            match (&got, &want) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.lies, b.lies, "case {case}: lies for {dag}");
                    assert_eq!(a.effective_dag, b.effective_dag, "case {case}: {dag}");
                    assert_eq!(a.pinned, b.pinned, "case {case}: pins for {dag}");
                    tally(if a.pinned.is_empty() {
                        "a plan without pins"
                    } else {
                        "a plan with pins"
                    });
                    let reduced = reduce(&topo, &dag, &a.lies);
                    assert_eq!(
                        reduced,
                        clone_reference::reduce(&topo, &dag, &a.lies),
                        "case {case}: reduce of the plan for {dag}"
                    );
                }
                (
                    Err(AugmentError::VerificationFailed(a)),
                    Err(AugmentError::VerificationFailed(b)),
                ) => {
                    assert_eq!(
                        checker::bits(a.as_ref()),
                        checker::bits(b.as_ref()),
                        "case {case}: refusal of {dag}"
                    );
                    tally("a plan refused by its check");
                }
                (a, b) => {
                    assert_eq!(a.as_ref().err(), b.as_ref().err(), "case {case}: {dag}");
                    tally("another augment error");
                }
            }
        }
        for what in [
            "a report that holds",
            "a report with mismatches only",
            "a report with a loop",
            "a reduce that drops lies",
            "a plan without pins",
            "a plan with pins",
            "a plan refused by its check",
            "another augment error",
        ] {
            let times = drawn.get(what).copied().unwrap_or(0);
            assert!(
                times >= 5,
                "the generator drew {what} {times} times: {drawn:?}"
            );
        }
    }

    #[test]
    fn equal_cost_lies_never_disturb_others_property() {
        // Property-style test over random graphs: adding equal-cost
        // lies at one router leaves every other router's fractions
        // untouched.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..25 {
            let topo0 = fib_igp::builders::random_connected(&mut rng, 12, 8, 4);
            let mut topo = topo0.clone();
            let sink = RouterId(rng.gen_range(1..=12));
            let prefix = Prefix::net24(1);
            topo.announce_prefix(sink, prefix, Metric::ZERO).unwrap();
            // Pick a router with a route and a neighbor to add.
            let candidates: Vec<RouterId> = topo.routers().filter(|x| *x != sink).collect();
            let r0 = candidates[rng.gen_range(0..candidates.len())];
            let dist = compute_routes(&topo, r0).route(prefix).unwrap().dist;
            if !dist.is_finite() || dist.0 < 1 {
                continue;
            }
            let nbrs: Vec<RouterId> = topo
                .links(r0)
                .iter()
                .map(|l| l.to)
                .filter(|n| n.is_real())
                .collect();
            let nh = nbrs[rng.gen_range(0..nbrs.len())];
            let mut alloc = LieAllocator::new();
            let lie = alloc.make(r0, nh, prefix, dist).unwrap();
            let before = crate::verify::actual_fractions(&topo, prefix);
            let aug = apply_all(&topo, &[lie]);
            let after = crate::verify::actual_fractions(&aug, prefix);
            for (u, fr) in &before {
                if *u == r0 {
                    continue;
                }
                assert_eq!(
                    Some(fr),
                    after.get(u),
                    "case {case}: equal-cost lie at {r0} disturbed {u}"
                );
            }
        }
    }
}
