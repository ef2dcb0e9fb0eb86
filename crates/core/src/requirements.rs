//! The controller's requirement language: weighted forwarding DAGs.
//!
//! A [`WeightedDag`] states, per router, which next-hop routers should
//! carry its traffic toward a prefix and in what integer slot
//! proportions. It is the interface between the optimizer (which
//! produces fractional splits and rounds them) and the augmentation
//! engine (which realizes the DAG with lies).

use fib_igp::rib::find_cycle;
use fib_igp::types::{Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// Desired weighted next-hops for one router.
pub type WeightedHops = Vec<(RouterId, u32)>;

/// A per-destination weighted forwarding requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedDag {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Per-router desired `(next-hop router, slots)`. Routers absent
    /// from the map are unconstrained.
    pub entries: BTreeMap<RouterId, WeightedHops>,
}

impl WeightedDag {
    /// An empty requirement for `prefix`.
    pub fn new(prefix: Prefix) -> WeightedDag {
        WeightedDag {
            prefix,
            entries: BTreeMap::new(),
        }
    }

    /// Require `router` to split over `hops` (router, weight) pairs.
    /// Weights must be >= 1; duplicate next-hops are merged by summing.
    pub fn require(&mut self, router: RouterId, hops: &[(RouterId, u32)]) -> &mut Self {
        let mut merged: BTreeMap<RouterId, u32> = BTreeMap::new();
        for (nh, w) in hops {
            assert!(*w >= 1, "weights must be at least 1");
            *merged.entry(*nh).or_insert(0) += w;
        }
        self.entries.insert(router, merged.into_iter().collect());
        self
    }

    /// The constrained routers.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.entries.keys().copied()
    }

    /// Desired hops at one router.
    pub fn hops(&self, router: RouterId) -> Option<&WeightedHops> {
        self.entries.get(&router)
    }

    /// Desired traffic fraction per next-hop at one router.
    pub fn fractions(&self, router: RouterId) -> BTreeMap<RouterId, f64> {
        let mut out = BTreeMap::new();
        if let Some(hops) = self.entries.get(&router) {
            let total: u32 = hops.iter().map(|(_, w)| *w).sum();
            if total > 0 {
                for (nh, w) in hops {
                    out.insert(*nh, *w as f64 / total as f64);
                }
            }
        }
        out
    }

    /// Check the requirement is internally loop-free: following any
    /// weighted edge never returns to a constrained router already on
    /// the walk. Unconstrained routers terminate the walk (their
    /// behaviour is the IGP's, assumed loop-free). The witness is the
    /// cycle, its first router repeated at the end.
    pub fn find_internal_loop(&self) -> Option<Vec<RouterId>> {
        let mut cycle = find_cycle(&self.entries, |(nh, _)| *nh)?;
        cycle.push(cycle[0]);
        Some(cycle)
    }
}

impl fmt::Display for WeightedDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "requirement for {}:", self.prefix)?;
        for (r, hops) in &self.entries {
            let parts: Vec<String> = hops.iter().map(|(nh, w)| format!("{nh}x{w}")).collect();
            writeln!(f, "  {r} -> [{}]", parts.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    #[test]
    fn require_merges_duplicates() {
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 1), (r(3), 2), (r(2), 1)]);
        assert_eq!(dag.hops(r(1)).unwrap(), &vec![(r(2), 2), (r(3), 2)]);
    }

    #[test]
    fn fractions_normalize() {
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 1), (r(3), 2)]);
        let fr = dag.fractions(r(1));
        assert!((fr[&r(2)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((fr[&r(3)] - 2.0 / 3.0).abs() < 1e-12);
        assert!(dag.fractions(r(9)).is_empty());
    }

    #[test]
    fn internal_loop_detection() {
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 1)]);
        dag.require(r(2), &[(r(1), 1)]);
        assert_eq!(dag.find_internal_loop(), Some(vec![r(1), r(2), r(1)]));

        let mut ok = WeightedDag::new(Prefix::net24(1));
        ok.require(r(1), &[(r(2), 1), (r(3), 1)]);
        ok.require(r(2), &[(r(3), 1)]);
        assert_eq!(ok.find_internal_loop(), None);
    }

    /// A two-wide ladder of constrained routers: both routers of a
    /// layer split over both routers of the next. Loop-free, with
    /// 2^depth simple paths — which the finder used to enumerate (4 s
    /// at depth 22).
    fn ladder(depth: u32) -> WeightedDag {
        let mut dag = WeightedDag::new(Prefix::net24(1));
        for layer in 0..depth {
            for side in 1..=2 {
                let below = [(r(2 * layer + 3), 1), (r(2 * layer + 4), 1)];
                dag.require(r(2 * layer + side), &below);
            }
        }
        dag
    }

    #[test]
    fn loop_search_is_linear_in_the_requirement() {
        let mut dag = ladder(64);
        let started = std::time::Instant::now();
        assert_eq!(dag.find_internal_loop(), None);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "took {:?}",
            started.elapsed()
        );

        // One back edge, from the bottom of the ladder to a router
        // half way up: the witness is that cycle and nothing else.
        dag.require(r(129), &[(r(64), 1)]);
        let cycle = dag.find_internal_loop().expect("back edge closes a cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.contains(&r(64)) && cycle.contains(&r(129)));
        for hop in cycle.windows(2) {
            let next = dag.hops(hop[0]).expect("cycle routers are constrained");
            assert!(next.iter().any(|(nh, _)| *nh == hop[1]), "{hop:?}");
        }
    }

    #[test]
    fn display_lists_entries() {
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 2)]);
        let s = dag.to_string();
        assert!(s.contains("r1 -> [r2x2]"));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_weight_panics() {
        let mut dag = WeightedDag::new(Prefix::net24(1));
        dag.require(r(1), &[(r(2), 0)]);
    }
}
