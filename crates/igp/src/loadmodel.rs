//! Analytical traffic spreading over ECMP forwarding state.
//!
//! Given a topology (possibly augmented with lies) and a set of
//! demands, compute the load every directed link carries when each
//! router splits traffic uniformly over its ECMP slots. This is the
//! fluid expectation of hash-based splitting, and it is what both the
//! paper's Fig. 1b/1d load numbers and the controller's *predictive*
//! reaction use (the controller knows the demands from server
//! notifications and the forwarding state from its LSDB — it can
//! predict link loads before SNMP counters show them).

use crate::rib::ForwardingDag;
use crate::spf::prefix_routes;
use crate::topology::Topology;
use crate::types::{Prefix, RouterId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A demand: `rate` units of traffic entering at `src` toward `prefix`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Ingress router.
    pub src: RouterId,
    /// Destination prefix.
    pub prefix: Prefix,
    /// Offered rate (any unit; loads come out in the same unit).
    pub rate: f64,
}

/// Why spreading failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadModelError {
    /// The forwarding state for this prefix contains a loop.
    ForwardingLoop(Prefix),
    /// A demand's ingress has no route toward the prefix.
    NoRoute(RouterId, Prefix),
}

impl fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadModelError::ForwardingLoop(p) => write!(f, "forwarding loop toward {p}"),
            LoadModelError::NoRoute(r, p) => write!(f, "no route from {r} toward {p}"),
        }
    }
}

impl std::error::Error for LoadModelError {}

/// Per-directed-link loads keyed `(from, to)`.
pub type LinkLoads = BTreeMap<(RouterId, RouterId), f64>;

/// One prefix's ECMP forwarding state on a topology, worked out once
/// so that any number of demand sets can be pushed through it: the
/// state depends on the topology alone, the loads on the demands too.
/// [`spread`] is the two steps back to back; a caller that spreads
/// again and again over a topology that has not changed (the Fibbing
/// controller, once per viewer start and stop) keeps the first.
#[derive(Debug, Clone)]
pub struct Forwarding {
    prefix: Prefix,
    /// Whether the forwarding graph contains a loop.
    looped: bool,
    /// Routers in topological order of the forwarding graph, each with
    /// the share of its traffic every next-hop router gets (slot
    /// weighted; empty where the prefix is delivered locally).
    order: Vec<(RouterId, Vec<(RouterId, f64)>)>,
    /// Routers that have a route toward the prefix.
    routed: BTreeSet<RouterId>,
}

impl Forwarding {
    /// Work out `prefix`'s forwarding state on `topo`.
    pub fn new(topo: &Topology, prefix: Prefix) -> Forwarding {
        // Only this prefix's forwarding state matters: the
        // single-prefix reverse SPF sidesteps a full per-router SPF.
        let dag = ForwardingDag::from_prefix_routes(prefix, &prefix_routes(topo, prefix));
        let mut fwd = Forwarding {
            prefix,
            looped: dag.find_loop().is_some(),
            order: Vec::new(),
            routed: dag.nexthops.keys().copied().collect(),
        };
        if fwd.looped {
            return fwd;
        }

        // Kahn topological order over the per-prefix forwarding graph.
        let mut indeg: BTreeMap<RouterId, usize> = BTreeMap::new();
        for r in dag.nexthops.keys() {
            indeg.entry(*r).or_insert(0);
        }
        for (_, to) in dag.edge_fractions().keys() {
            *indeg.entry(*to).or_insert(0) += 1;
        }
        let mut ready: Vec<RouterId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(r, _)| *r)
            .collect();
        ready.sort();
        while let Some(r) = ready.pop() {
            // Split by slot shares, aggregated per next-hop router.
            let mut shares: BTreeMap<RouterId, f64> = BTreeMap::new();
            if let Some(hops) = dag.nexthops.get(&r) {
                let per_slot = 1.0 / hops.len() as f64;
                for h in hops {
                    *shares.entry(h.router).or_insert(0.0) += per_slot;
                }
            }
            for nh in shares.keys() {
                if let Some(d) = indeg.get_mut(nh) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(*nh);
                        ready.sort();
                    }
                }
            }
            fwd.order.push((r, shares.into_iter().collect()));
        }
        fwd
    }

    /// Add to `loads` what `demands` (ingress, rate) put on every link
    /// on their way to the prefix.
    pub fn push(
        &self,
        demands: &[(RouterId, f64)],
        loads: &mut LinkLoads,
    ) -> Result<(), LoadModelError> {
        for (src, _) in demands {
            if !self.routed.contains(src) {
                return Err(LoadModelError::NoRoute(*src, self.prefix));
            }
        }
        if self.looped {
            return Err(LoadModelError::ForwardingLoop(self.prefix));
        }
        let mut inflow: BTreeMap<RouterId, f64> = BTreeMap::new();
        for (src, rate) in demands {
            *inflow.entry(*src).or_insert(0.0) += rate;
        }
        for (r, shares) in &self.order {
            let flow_in = inflow.get(r).copied().unwrap_or(0.0);
            if flow_in <= 0.0 {
                continue;
            }
            for (nh, share) in shares {
                let amount = flow_in * share;
                *loads.entry((*r, *nh)).or_insert(0.0) += amount;
                *inflow.entry(*nh).or_insert(0.0) += amount;
            }
        }
        Ok(())
    }
}

/// Spread `demands` over the ECMP forwarding state of `topo`.
///
/// Returns per-directed-link loads keyed `(from, to)`. Links carrying
/// no traffic are absent.
pub fn spread(topo: &Topology, demands: &[Demand]) -> Result<LinkLoads, LoadModelError> {
    let mut by_prefix: BTreeMap<Prefix, Vec<(RouterId, f64)>> = BTreeMap::new();
    for d in demands {
        by_prefix.entry(d.prefix).or_default().push((d.src, d.rate));
    }
    let mut loads = LinkLoads::new();
    for (prefix, dems) in by_prefix {
        Forwarding::new(topo, prefix).push(&dems, &mut loads)?;
    }
    Ok(loads)
}

/// Maximum link utilization of a load map against capacities. Links
/// missing from `capacities` are skipped.
pub fn max_utilization(
    loads: &BTreeMap<(RouterId, RouterId), f64>,
    capacities: &BTreeMap<(RouterId, RouterId), f64>,
) -> f64 {
    loads
        .iter()
        .filter_map(|(k, l)| capacities.get(k).map(|c| l / c))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FakeAttrs;
    use crate::types::{FwAddr, Metric};

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Diamond: 1 → {2, 3} → 4, all unit metrics; prefix at 4.
    fn diamond() -> Topology {
        let mut t = Topology::new();
        for i in 1..=4 {
            t.add_router(r(i));
        }
        t.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        t.add_link_sym(r(1), r(3), Metric(1)).unwrap();
        t.add_link_sym(r(2), r(4), Metric(1)).unwrap();
        t.add_link_sym(r(3), r(4), Metric(1)).unwrap();
        t.announce_prefix(r(4), Prefix::net24(1), Metric::ZERO)
            .unwrap();
        t
    }

    #[test]
    fn ecmp_splits_evenly() {
        let t = diamond();
        let loads = spread(
            &t,
            &[Demand {
                src: r(1),
                prefix: Prefix::net24(1),
                rate: 100.0,
            }],
        )
        .unwrap();
        assert!((loads[&(r(1), r(2))] - 50.0).abs() < 1e-9);
        assert!((loads[&(r(1), r(3))] - 50.0).abs() < 1e-9);
        assert!((loads[&(r(2), r(4))] - 50.0).abs() < 1e-9);
        assert!((loads[&(r(3), r(4))] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fake_slots_bias_the_split() {
        let mut t = diamond();
        // Two extra slots at r1 via r3's secondary addresses at the
        // same cost (2): slots = [r2, r3, r3#1, r3#2] → r3 gets 3/4.
        for k in 1..=2u16 {
            t.add_fake_node(
                RouterId::fake(k as u32),
                FakeAttrs {
                    attach: r(1),
                    attach_metric: Metric(1),
                    prefix: Prefix::net24(1),
                    prefix_metric: Metric(1),
                    fw: FwAddr::secondary(r(3), k),
                },
            )
            .unwrap();
        }
        let loads = spread(
            &t,
            &[Demand {
                src: r(1),
                prefix: Prefix::net24(1),
                rate: 100.0,
            }],
        )
        .unwrap();
        assert!((loads[&(r(1), r(2))] - 25.0).abs() < 1e-9);
        assert!((loads[&(r(1), r(3))] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_demands_superpose() {
        let t = diamond();
        let loads = spread(
            &t,
            &[
                Demand {
                    src: r(1),
                    prefix: Prefix::net24(1),
                    rate: 100.0,
                },
                Demand {
                    src: r(2),
                    prefix: Prefix::net24(1),
                    rate: 10.0,
                },
            ],
        )
        .unwrap();
        // r2 carries 50 from r1 plus its own 10.
        assert!((loads[&(r(2), r(4))] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn missing_route_is_error() {
        let mut t = diamond();
        t.add_router(r(9)); // isolated
        let err = spread(
            &t,
            &[Demand {
                src: r(9),
                prefix: Prefix::net24(1),
                rate: 1.0,
            }],
        )
        .unwrap_err();
        assert_eq!(err, LoadModelError::NoRoute(r(9), Prefix::net24(1)));
    }

    #[test]
    fn max_utilization_math() {
        let mut loads = BTreeMap::new();
        loads.insert((r(1), r(2)), 80.0);
        loads.insert((r(2), r(3)), 10.0);
        let mut caps = BTreeMap::new();
        caps.insert((r(1), r(2)), 100.0);
        caps.insert((r(2), r(3)), 100.0);
        assert!((max_utilization(&loads, &caps) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn demand_at_sink_adds_no_load() {
        let t = diamond();
        let loads = spread(
            &t,
            &[Demand {
                src: r(4),
                prefix: Prefix::net24(1),
                rate: 50.0,
            }],
        )
        .unwrap();
        assert!(loads.is_empty());
    }
}
