//! Routing tables, FIB diffs, and forwarding DAGs.
//!
//! [`RouteTable`] is what SPF produces for one router and what gets
//! downloaded into the data-plane FIB. [`ForwardingDag`] is the
//! network-wide per-destination view (who forwards to whom) used by the
//! Fibbing controller both as the *requirement* language and for
//! verification.

use crate::types::{FwAddr, Metric, Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// One route: cost, ECMP next-hop set (by forwarding address), and
/// whether the destination is locally attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Total cost to the destination.
    pub dist: Metric,
    /// Sorted, deduplicated ECMP next-hop addresses. Empty for local
    /// routes.
    pub nexthops: Vec<FwAddr>,
    /// `true` if the prefix is attached to this router.
    pub local: bool,
}

impl Route {
    /// Fraction of traffic sent to each distinct next-hop *router*
    /// (addresses of the same router aggregated), assuming uniform
    /// hashing over the next-hop addresses.
    pub fn split_by_router(&self) -> BTreeMap<RouterId, f64> {
        let mut out = BTreeMap::new();
        let n = self.nexthops.len();
        if n == 0 {
            return out;
        }
        let share = 1.0 / n as f64;
        for nh in &self.nexthops {
            *out.entry(nh.router).or_insert(0.0) += share;
        }
        out
    }
}

/// All routes of one router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// The router owning this table.
    pub source: RouterId,
    /// Per-prefix routes.
    pub routes: BTreeMap<Prefix, Route>,
}

impl RouteTable {
    /// An empty table for `source`.
    pub fn empty(source: RouterId) -> Self {
        RouteTable {
            source,
            routes: BTreeMap::new(),
        }
    }

    /// The route toward `prefix`, if any.
    pub fn route(&self, prefix: Prefix) -> Option<&Route> {
        self.routes.get(&prefix)
    }

    /// Next-hop addresses toward `prefix` (empty slice if none/local).
    pub fn nexthops(&self, prefix: Prefix) -> &[FwAddr] {
        self.routes
            .get(&prefix)
            .map(|r| r.nexthops.as_slice())
            .unwrap_or(&[])
    }
}

/// A single difference between two route tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteChange {
    /// A prefix gained a route.
    Added(Prefix, Route),
    /// A prefix's route changed (cost or next-hop set).
    Modified {
        /// Affected prefix.
        prefix: Prefix,
        /// Previous route.
        old: Route,
        /// New route.
        new: Route,
    },
    /// A prefix lost its route.
    Removed(Prefix, Route),
}

impl RouteChange {
    /// The prefix this change concerns.
    pub fn prefix(&self) -> Prefix {
        match self {
            RouteChange::Added(p, _) => *p,
            RouteChange::Modified { prefix, .. } => *prefix,
            RouteChange::Removed(p, _) => *p,
        }
    }
}

/// Compute the ordered diff `old → new`.
pub fn diff(old: &RouteTable, new: &RouteTable) -> Vec<RouteChange> {
    let mut changes = Vec::new();
    for (p, r) in &new.routes {
        match old.routes.get(p) {
            None => changes.push(RouteChange::Added(*p, r.clone())),
            Some(prev) if prev != r => changes.push(RouteChange::Modified {
                prefix: *p,
                old: prev.clone(),
                new: r.clone(),
            }),
            Some(_) => {}
        }
    }
    for (p, r) in &old.routes {
        if !new.routes.contains_key(p) {
            changes.push(RouteChange::Removed(*p, r.clone()));
        }
    }
    changes
}

/// Network-wide forwarding state for one prefix: every router's ECMP
/// next-hop addresses. Routers where the prefix is local map to an
/// empty set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingDag {
    /// The destination prefix.
    pub prefix: Prefix,
    /// Per-router next-hop addresses (empty = local delivery).
    pub nexthops: BTreeMap<RouterId, Vec<FwAddr>>,
}

impl ForwardingDag {
    /// Build the DAG for `prefix` from a set of route tables.
    pub fn from_tables<'a>(
        prefix: Prefix,
        tables: impl IntoIterator<Item = &'a RouteTable>,
    ) -> ForwardingDag {
        let mut nexthops = BTreeMap::new();
        for t in tables {
            if let Some(route) = t.routes.get(&prefix) {
                nexthops.insert(t.source, route.nexthops.clone());
            }
        }
        ForwardingDag { prefix, nexthops }
    }

    /// Build the DAG for `prefix` from single-prefix routes (the
    /// output of [`crate::spf::prefix_routes`]). Local routes become
    /// empty next-hop sets, i.e. sinks. Identical to
    /// [`ForwardingDag::from_tables`] over full tables, without paying
    /// a per-router SPF.
    pub fn from_prefix_routes(prefix: Prefix, routes: &BTreeMap<RouterId, Route>) -> ForwardingDag {
        ForwardingDag {
            prefix,
            nexthops: routes
                .iter()
                .map(|(r, route)| (*r, route.nexthops.clone()))
                .collect(),
        }
    }

    /// Routers that deliver locally (sinks of the DAG).
    pub fn sinks(&self) -> Vec<RouterId> {
        self.nexthops
            .iter()
            .filter(|(_, h)| h.is_empty())
            .map(|(r, _)| *r)
            .collect()
    }

    /// Verify the forwarding graph is loop-free: following next-hop
    /// *routers* from any source must reach a sink without revisiting a
    /// node. Returns the first loop found as a witness (its first
    /// router repeated at the end), or `None`. A next-hop router with
    /// no entry terminates the walk: the data plane would drop or
    /// deliver there, not loop.
    pub fn find_loop(&self) -> Option<Vec<RouterId>> {
        let mut cycle = find_cycle(&self.nexthops, |a| a.router)?;
        cycle.push(cycle[0]);
        Some(cycle)
    }

    /// The set of directed router edges `(from, to)` used by the DAG,
    /// with the fraction of `from`'s traffic crossing each (uniform
    /// hashing over next-hop addresses).
    pub fn edge_fractions(&self) -> BTreeMap<(RouterId, RouterId), f64> {
        let mut out = BTreeMap::new();
        for (from, hops) in &self.nexthops {
            if hops.is_empty() {
                continue;
            }
            let share = 1.0 / hops.len() as f64;
            for h in hops {
                *out.entry((*from, h.router)).or_insert(0.0) += share;
            }
        }
        out
    }
}

impl fmt::Display for ForwardingDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dag for {}:", self.prefix)?;
        for (r, hops) in &self.nexthops {
            if hops.is_empty() {
                writeln!(f, "  {r}: local")?;
            } else {
                let hs: Vec<String> = hops.iter().map(|h| h.to_string()).collect();
                writeln!(f, "  {r}: [{}]", hs.join(", "))?;
            }
        }
        Ok(())
    }
}

/// Find one cycle in a next-hop multigraph: `edges` maps a router to
/// its next hops, `router` names the router a hop leads to. An
/// iterative coloured DFS, linear in the edges and deterministic: roots
/// visit in key order, neighbours in the order `edges` lists them. A
/// hop to a router with no entry ends the walk there. Returns the
/// routers on the cycle in forwarding order, each once.
pub fn find_cycle<H>(
    edges: &BTreeMap<RouterId, Vec<H>>,
    router: impl Fn(&H) -> RouterId,
) -> Option<Vec<RouterId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<RouterId, Color> = edges.keys().map(|r| (*r, Color::White)).collect();
    for &root in edges.keys() {
        if color[&root] != Color::White {
            continue;
        }
        // Stack of (node, next neighbor index); `path` mirrors the
        // gray chain for cycle extraction.
        let mut stack: Vec<(RouterId, usize)> = vec![(root, 0)];
        color.insert(root, Color::Gray);
        let mut path: Vec<RouterId> = vec![root];
        while let Some((node, idx)) = stack.last_mut() {
            let node = *node;
            let hops = edges.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *idx >= hops.len() {
                color.insert(node, Color::Black);
                stack.pop();
                path.pop();
                continue;
            }
            let next = router(&hops[*idx]);
            *idx += 1;
            match color.get(&next).copied() {
                // Terminal routers (Local entry or no entry) have no
                // outgoing edges and cannot be on a cycle.
                None => {}
                Some(Color::White) => {
                    color.insert(next, Color::Gray);
                    stack.push((next, 0));
                    path.push(next);
                }
                Some(Color::Gray) => {
                    let start = path.iter().position(|r| *r == next).expect("gray on path");
                    return Some(path[start..].to_vec());
                }
                Some(Color::Black) => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    fn route(dist: u32, hops: &[(u32, u16)]) -> Route {
        Route {
            dist: Metric(dist),
            nexthops: hops
                .iter()
                .map(|&(r_, a)| FwAddr {
                    router: RouterId(r_),
                    addr: a,
                })
                .collect(),
            local: false,
        }
    }

    #[test]
    fn split_by_router_aggregates_addresses() {
        let rt = route(3, &[(2, 0), (5, 1), (5, 2)]);
        let split = rt.split_by_router();
        assert!((split[&r(2)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((split[&r(5)] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diff_reports_add_modify_remove() {
        let p1 = Prefix::net24(1);
        let p2 = Prefix::net24(2);
        let p3 = Prefix::net24(3);
        let mut old = RouteTable::empty(r(1));
        old.routes.insert(p1, route(2, &[(2, 0)]));
        old.routes.insert(p2, route(4, &[(3, 0)]));
        let mut new = RouteTable::empty(r(1));
        new.routes.insert(p1, route(2, &[(2, 0), (3, 0)]));
        new.routes.insert(p3, route(9, &[(2, 0)]));
        let d = diff(&old, &new);
        assert_eq!(d.len(), 3);
        assert!(d
            .iter()
            .any(|c| matches!(c, RouteChange::Modified { prefix, .. } if *prefix == p1)));
        assert!(d
            .iter()
            .any(|c| matches!(c, RouteChange::Added(p, _) if *p == p3)));
        assert!(d
            .iter()
            .any(|c| matches!(c, RouteChange::Removed(p, _) if *p == p2)));
    }

    #[test]
    fn dag_detects_loops() {
        let p = Prefix::net24(1);
        let mut nexthops = BTreeMap::new();
        nexthops.insert(r(1), vec![FwAddr::primary(r(2))]);
        nexthops.insert(r(2), vec![FwAddr::primary(r(1))]);
        nexthops.insert(r(3), vec![]);
        let dag = ForwardingDag {
            prefix: p,
            nexthops,
        };
        assert_eq!(dag.find_loop(), Some(vec![r(1), r(2), r(1)]));
    }

    #[test]
    fn find_cycle_detects_and_orders() {
        let id = |r: &RouterId| *r;
        let mut edges: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
        // 1 -> 2 -> 3 -> local (no cycle).
        edges.insert(r(1), vec![r(2)]);
        edges.insert(r(2), vec![r(3)]);
        assert_eq!(find_cycle(&edges, id), None);
        // Add 3 -> 1: cycle 1 -> 2 -> 3.
        edges.insert(r(3), vec![r(1)]);
        assert_eq!(find_cycle(&edges, id), Some(vec![r(1), r(2), r(3)]));
        // ECMP branch where only one branch loops is still caught, and
        // the witness leaves out the lead-in.
        let mut edges: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
        edges.insert(r(1), vec![r(2), r(4)]);
        edges.insert(r(4), vec![r(5)]);
        edges.insert(r(5), vec![r(4)]);
        assert_eq!(find_cycle(&edges, id), Some(vec![r(4), r(5)]));
        // Neighbours visit in the order listed, not sorted.
        let mut edges: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
        edges.insert(r(1), vec![r(3), r(2)]);
        edges.insert(r(2), vec![r(1)]);
        edges.insert(r(3), vec![r(1)]);
        assert_eq!(find_cycle(&edges, id), Some(vec![r(1), r(3)]));
    }

    #[test]
    fn dag_without_loops_passes() {
        let p = Prefix::net24(1);
        let mut nexthops = BTreeMap::new();
        nexthops.insert(r(1), vec![FwAddr::primary(r(2)), FwAddr::primary(r(3))]);
        nexthops.insert(r(2), vec![FwAddr::primary(r(3))]);
        nexthops.insert(r(3), vec![]);
        let dag = ForwardingDag {
            prefix: p,
            nexthops,
        };
        assert_eq!(dag.find_loop(), None);
        assert_eq!(dag.sinks(), vec![r(3)]);
        let fr = dag.edge_fractions();
        assert!((fr[&(r(1), r(2))] - 0.5).abs() < 1e-12);
        assert!((fr[&(r(2), r(3))] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dag_display_is_readable() {
        let p = Prefix::net24(1);
        let mut nexthops = BTreeMap::new();
        nexthops.insert(r(1), vec![FwAddr::secondary(r(2), 1)]);
        nexthops.insert(r(2), vec![]);
        let dag = ForwardingDag {
            prefix: p,
            nexthops,
        };
        let s = dag.to_string();
        assert!(s.contains("r1: [r2#1]"));
        assert!(s.contains("r2: local"));
    }
}
