//! Shortest-path-first computation with full ECMP support.
//!
//! The SPF engine computes, per source router:
//!
//! 1. **Node distances and first-hop sets** over the *real* part of the
//!    topology (Dijkstra). First-hop sets carry every equal-cost first
//!    hop, which is what ECMP FIBs are built from.
//! 2. **Per-prefix routes** over the *augmented* topology: prefix
//!    announcements at real nodes extend paths by a leaf edge; fake
//!    nodes extend paths from their attachment router. Because fake
//!    nodes never carry transit traffic (no outgoing links), they can
//!    never change real-node distances — so a change that only touches
//!    lies needs only the cheap route phase, not a new Dijkstra. This
//!    is the *partial SPF* behaviour real routers exhibit for OSPF
//!    type-5 churn, and it is why Fibbing's control-plane overhead is
//!    low. [`SpfEngine`] exploits it: while the LSDB's real version
//!    stands it reads only the rows the route phase needs; when the
//!    version moves it builds the dense real graph from the router LSAs
//!    and reruns Dijkstra.
//!
//! Both phases run on a [`RealGraph`], the real part of a topology in
//! dense form, and there is one Dijkstra ([`RealGraph::shortest_paths`]).
//!
//! Next-hop identity is a [`FwAddr`]: routes deduplicate by forwarding
//! *address*, not by neighbor router, so two lies resolving to distinct
//! addresses of the same neighbor yield two ECMP slots (uneven splits).

use crate::lsdb::Lsdb;
use crate::rib::{Route, RouteTable};
use crate::topology::{FakeAttrs, Topology};
use crate::types::{FwAddr, Metric, Prefix, RouterId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The real part of a topology in dense form: its real routers in
/// ascending id order, and per router, by position, its links to real
/// routers as (far end's position, metric), sorted by far end. Row i is
/// `edges[off[i]..off[i + 1]]`.
///
/// [`RealGraph::of`] reads it off a [`Topology`]; `Lsdb::real_graph`
/// builds the same graph straight from the router LSAs, so an SPF run
/// needs no topology at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealGraph {
    pub(crate) ids: Vec<RouterId>,
    pub(crate) off: Vec<usize>,
    pub(crate) edges: Vec<(usize, Metric)>,
}

impl RealGraph {
    /// The real routers of `topo` and every link between two of them.
    pub fn of(topo: &Topology) -> RealGraph {
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut off = Vec::with_capacity(ids.len() + 1);
        let mut edges = Vec::new();
        off.push(0);
        for &r in &ids {
            for l in topo.links(r).iter().filter(|l| l.to.is_real()) {
                let to = ids.binary_search(&l.to);
                edges.push((to.expect("a link names a router of the topology"), l.metric));
            }
            off.push(edges.len());
        }
        RealGraph { ids, off, edges }
    }

    /// The links of the router at position `i`.
    pub(crate) fn row(&self, i: usize) -> &[(usize, Metric)] {
        &self.edges[self.off[i]..self.off[i + 1]]
    }

    /// Dijkstra from `source`, computing distances and merged equal-cost
    /// first-hop sets. Positions sort like ids, so pops, tie-breaks and
    /// merges run in the order of the ordered-map form this replaced
    /// (`shortest_paths_reference` in the tests); a first-hop set,
    /// always sorted, is cloned only for a link that improves or ties a
    /// distance.
    pub fn shortest_paths(&self, source: RouterId) -> ShortestPaths {
        let n = self.ids.len();
        let mut sp = ShortestPaths {
            source,
            ids: self.ids.clone(),
            dist: vec![Metric::INF; n],
            first_hops: vec![Vec::new(); n],
        };
        let Some(s) = sp.pos(source) else {
            return sp; // absent or fake: nothing is reachable
        };
        sp.dist[s] = Metric::ZERO;
        let mut heap = BinaryHeap::from([Reverse((Metric::ZERO, s))]);
        while let Some(Reverse((d, u))) = heap.pop() {
            if sp.dist[u] != d {
                continue; // stale heap entry
            }
            for &(to, metric) in self.row(u) {
                if !metric.is_finite() {
                    continue;
                }
                let nd = d.add(metric);
                if nd > sp.dist[to] {
                    continue;
                }
                // First hops propagated to `to` through u.
                let inherit = if u == s {
                    vec![self.ids[to]]
                } else {
                    sp.first_hops[u].clone()
                };
                if nd < sp.dist[to] {
                    sp.dist[to] = nd;
                    sp.first_hops[to] = inherit;
                    heap.push(Reverse((nd, to)));
                } else {
                    let set = &mut sp.first_hops[to];
                    for h in inherit {
                        if !set.contains(&h) {
                            set.push(h);
                        }
                    }
                    set.sort();
                }
            }
        }
        sp
    }
}

/// Distances and ECMP first-hop sets from one source over the real
/// graph, by dense position: entry i belongs to the topology's i-th
/// real router in ascending id order.
///
/// Only real links enter it and a fake node has no links out, so no lie
/// can move it: one result stays exact for its source under every set
/// of lies on the same real graph. [`SpfEngine`] keeps it across lie
/// churn, and `fib_core`'s `augment` keeps one per router across its
/// fixpoint passes, for that reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPaths {
    /// The source router.
    pub source: RouterId,
    ids: Vec<RouterId>,
    dist: Vec<Metric>,
    first_hops: Vec<Vec<RouterId>>,
}

impl ShortestPaths {
    fn pos(&self, node: RouterId) -> Option<usize> {
        self.ids.binary_search(&node).ok()
    }

    /// Distance to `node`, or `Metric::INF` if unreachable.
    pub fn dist_to(&self, node: RouterId) -> Metric {
        self.pos(node).map_or(Metric::INF, |i| self.dist[i])
    }

    /// First hops toward `node` (empty if unreachable or the source).
    pub fn first_hops_to(&self, node: RouterId) -> &[RouterId] {
        self.pos(node).map_or(&[], |i| &self.first_hops[i])
    }
}

/// Dijkstra over the real part of `topo` from `source`: the dense
/// graph of `topo`, then [`RealGraph::shortest_paths`]. Fakes are
/// handled in the route phase. A caller with several sources on one
/// topology builds the graph once instead.
pub fn shortest_paths(topo: &Topology, source: RouterId) -> ShortestPaths {
    RealGraph::of(topo).shortest_paths(source)
}

/// Compute the per-prefix route table for `source`, given precomputed
/// real-graph shortest paths (the cheap "partial SPF" phase).
pub fn route_table_from(topo: &Topology, sp: &ShortestPaths) -> RouteTable {
    let lies = topo.fake_nodes().map(|(_, attrs)| *attrs);
    RouteTable {
        source: sp.source,
        routes: best_routes(topo, sp, lies, |_| true),
    }
}

/// `sp.source`'s route toward `prefix` on `topo` with `lies` told: the
/// one-prefix case of [`route_table_from`], for lies kept beside the
/// topology rather than in it. Equal to `route_table_from` on `topo`
/// with `lies` added, since lies cannot move `sp`.
pub fn prefix_route_from(
    topo: &Topology,
    sp: &ShortestPaths,
    prefix: Prefix,
    lies: impl IntoIterator<Item = FakeAttrs>,
) -> Option<Route> {
    best_routes(topo, sp, lies, |p| p == prefix).remove(&prefix)
}

/// The fold behind both route reads: per prefix `want` accepts, every
/// way out `sp.source` has — a real announcement in `topo` (local, or
/// through the first hops toward its router) and each of `lies` (its
/// forwarding address at its own attachment router, the first hops
/// toward that router elsewhere) — merged into the cheapest, equal
/// costs pooling their next hops. The merge is order-free.
fn best_routes(
    topo: &Topology,
    sp: &ShortestPaths,
    lies: impl IntoIterator<Item = FakeAttrs>,
    want: impl Fn(Prefix) -> bool,
) -> BTreeMap<Prefix, Route> {
    let source = sp.source;
    // For every prefix collect (cost, contributing next-hop addresses).
    let mut best: BTreeMap<Prefix, (Metric, Vec<FwAddr>, bool)> = BTreeMap::new();
    let mut consider = |prefix: Prefix, cost: Metric, hops: Vec<FwAddr>, local: bool| {
        if !cost.is_finite() {
            return;
        }
        match best.get_mut(&prefix) {
            None => {
                best.insert(prefix, (cost, hops, local));
            }
            Some((bc, bh, bl)) => {
                if cost < *bc {
                    *bc = cost;
                    *bh = hops;
                    *bl = local;
                } else if cost == *bc {
                    for h in hops {
                        if !bh.contains(&h) {
                            bh.push(h);
                        }
                    }
                    *bl = *bl || local;
                }
            }
        }
    };
    let hops_to = |node: RouterId| -> Vec<FwAddr> {
        let hops = sp.first_hops_to(node).iter();
        hops.map(|&n| FwAddr::primary(n)).collect()
    };

    // Real announcements.
    for (node, prefix, m) in topo.all_announcements() {
        if node.is_fake() || !want(prefix) {
            continue;
        }
        if node == source {
            consider(prefix, m, Vec::new(), true);
            continue;
        }
        let hops = hops_to(node);
        if !hops.is_empty() {
            consider(prefix, sp.dist_to(node).add(m), hops, false);
        }
    }

    // Lies: fake node f attached at `attach` announcing `prefix`.
    for attrs in lies {
        if !want(attrs.prefix) {
            continue;
        }
        let via_cost = attrs.cost_at_attach();
        if attrs.attach == source {
            // The lie targets this very router: the fake next-hop
            // resolves to the lie's forwarding address.
            consider(attrs.prefix, via_cost, vec![attrs.fw], false);
        } else {
            let cost = sp.dist_to(attrs.attach).add(via_cost);
            let hops = hops_to(attrs.attach);
            if !hops.is_empty() {
                consider(attrs.prefix, cost, hops, false);
            }
        }
    }

    best.into_iter()
        .map(|(prefix, (dist, mut nexthops, local))| {
            // Local attachment always wins within equal cost; a router
            // never forwards traffic for its own connected prefix.
            if local {
                nexthops = Vec::new();
            } else {
                nexthops.sort();
                nexthops.dedup();
            }
            let route = Route {
                dist,
                nexthops,
                local,
            };
            (prefix, route)
        })
        .collect()
}

/// One-shot convenience: full SPF + route phase for one source.
pub fn compute_routes(topo: &Topology, source: RouterId) -> RouteTable {
    let sp = shortest_paths(topo, source);
    route_table_from(topo, &sp)
}

/// Route tables for every real router in the topology.
pub fn compute_all_routes(topo: &Topology) -> BTreeMap<RouterId, RouteTable> {
    topo.routers()
        .map(|r| (r, compute_routes(topo, r)))
        .collect()
}

/// Every real router's route toward a single `prefix`, in one pass:
/// one multi-source Dijkstra over the reversed real graph instead of
/// one forward Dijkstra per router.
///
/// The load model, `fib_core::verify`, `augment` and `reduce` only need
/// the per-router ECMP sets toward one prefix, yet
/// [`compute_all_routes`] pays a full SPF per router. An *announcement
/// point* is a router t with its own way out at `cost(t)`: a real
/// announcer of `prefix` at its metric, or the attachment router of a
/// lie at [`FakeAttrs::cost_at_attach`](crate::topology::FakeAttrs).
/// Seeding every t at `cost(t)` makes the search settle
/// `D(r) = min over t of dist(r → t) + cost(t)`, the cost of r's route.
///
/// Router r's next hops are then read off `D`: its real neighbours n
/// with `metric(r→n) + D(n) == D(r)`, plus the forwarding address of
/// each of its own lies priced `D(r)`; a real announcement at r priced
/// `D(r)` makes the route local and empties the set. That is the union,
/// over the announcement points achieving `D(r)`, of r's
/// distance-consistent first hops toward each. *(⊆)* If n is a first
/// hop toward t and `dist(r→t) + cost(t) = D(r)`, then
/// `D(r) = m(r,n) + dist(n→t) + cost(t) ≥ m(r,n) + D(n) ≥ D(r)`.
/// *(⊇)* If `m(r,n) + D(n) = D(r)`, take the t achieving `D(n)`:
/// `dist(r→t) ≤ m(r,n) + dist(n→t)` gives `dist(r→t) + cost(t) ≤ D(r)`,
/// hence equality, and n is a first hop toward a winning t — unless
/// that t is r itself, which has no first hop toward itself. Only a
/// zero-metric link into a zero-cost way back can do that, so only such
/// a link at a router whose own lie wins is checked for another winner
/// downstream. [`Metric::add`] saturates and absorbs `INF`; saturating
/// sums are associative, so summing along the path changes no value
/// (hop sets of routes priced at the saturation point aside).
///
/// The result is bit-identical to the per-target form this replaced on
/// every input, zero metrics included, and to extracting `prefix` from
/// [`compute_all_routes`] as long as real link metrics are positive (a
/// zero-metric link can make the forward merge order-dependent; the IGP
/// never floods one). Both are asserted over seeded graphs in this
/// module's tests. Routers with no route toward `prefix` are absent
/// from the map.
///
/// The work comes in two steps, and a caller that checks many lie sets
/// on one topology takes them apart: [`PrefixGraph::of`] builds the
/// graph (the dense real graph, its reversal and the real announcers),
/// and [`PrefixGraph::routes`] runs the seeded pass for a set of lies.
/// This function is the two back to back, with the topology's own lies.
pub fn prefix_routes(topo: &Topology, prefix: Prefix) -> BTreeMap<RouterId, Route> {
    let graph = PrefixGraph::of(topo, prefix);
    let lies = topo.fake_nodes().map(|(_, attrs)| *attrs);
    graph.routes_by_id(&graph.routes(lies))
}

/// What every router's route toward one prefix depends on besides the
/// lies: the real part of a topology in dense form, its usable links
/// reversed, and what each router pays through its own real
/// announcement of the prefix. Lies add announcement points and move no
/// real distance, so one graph answers [`PrefixGraph::routes`] for any
/// set of lies on the same real topology.
#[derive(Debug, Clone)]
pub struct PrefixGraph {
    prefix: Prefix,
    graph: RealGraph,
    /// The usable links reversed, in CSR form: row i is
    /// `in_edges[in_off[i]..in_off[i + 1]]`.
    in_off: Vec<usize>,
    in_edges: Vec<(usize, Metric)>,
    /// Per position, the metric of the router's own real announcement
    /// of the prefix (`INF` if it has none).
    announced: Vec<Metric>,
}

impl PrefixGraph {
    /// The graph of `topo` toward `prefix`. `topo`'s own lies are not in
    /// it: hand them to [`routes`](Self::routes).
    pub fn of(topo: &Topology, prefix: Prefix) -> PrefixGraph {
        // The forward rows are the dense graph's. An unusable (INF) link
        // in them never meets a distance equality in `routes`: `add`
        // absorbs INF and every distance compared there is finite.
        let graph = RealGraph::of(topo);
        let n = graph.ids.len();
        let usable = |from: usize| graph.row(from).iter().filter(|e| e.1.is_finite());
        let mut in_off = vec![0usize; n + 1];
        for &(to, _) in (0..n).flat_map(usable) {
            in_off[to + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
        }
        let mut in_edges = vec![(0usize, Metric::ZERO); in_off[n]];
        let mut fill = in_off.clone();
        for from in 0..n {
            for &(to, m) in usable(from) {
                in_edges[fill[to]] = (from, m);
                fill[to] += 1;
            }
        }
        let mut announced = vec![Metric::INF; n];
        for (node, p, m) in topo.all_announcements() {
            if p == prefix && node.is_real() {
                let at = graph.ids.binary_search(&node);
                announced[at.expect("an announcer is a router of the topology")] = m;
            }
        }
        PrefixGraph {
            prefix,
            graph,
            in_off,
            in_edges,
            announced,
        }
    }

    /// The prefix the graph was built toward.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The real routers in ascending id order: a router's position is
    /// its index here.
    pub fn ids(&self) -> &[RouterId] {
        &self.graph.ids
    }

    /// The position of `router`, if it is a real router of the graph.
    pub fn pos(&self, router: RouterId) -> Option<usize> {
        self.graph.ids.binary_search(&router).ok()
    }

    /// `routes` (computed on this graph) as a map, for the routers that
    /// have one.
    pub fn routes_by_id(&self, routes: &PrefixRoutes) -> BTreeMap<RouterId, Route> {
        let mut out = BTreeMap::new();
        for (i, &r) in self.graph.ids.iter().enumerate() {
            if routes.dist[i].is_finite() {
                let route = Route {
                    dist: routes.dist[i],
                    nexthops: routes.hops[routes.off[i]..routes.off[i + 1]].to_vec(),
                    local: routes.local[i],
                };
                out.insert(r, route);
            }
        }
        out
    }

    /// The real graph the reversal was built from.
    pub fn real_graph(&self) -> &RealGraph {
        &self.graph
    }

    /// Every router's route toward the prefix with `lies` told beside
    /// the real announcers; lies for other prefixes are skipped. Equal
    /// to [`prefix_routes`] on the topology with `lies` added, as long
    /// as they are distinct fake nodes: the pass reads them as they
    /// come, where a topology would keep one lie per fake id.
    pub fn routes(&self, lies: impl IntoIterator<Item = FakeAttrs>) -> PrefixRoutes {
        let _span = fib_trace::span(fib_trace::Phase::PrefixRoutes);
        let (graph, n) = (&self.graph, self.graph.ids.len());
        let lies: Vec<(usize, Metric, FwAddr)> = lies
            .into_iter()
            .filter(|attrs| attrs.prefix == self.prefix)
            .map(|attrs| {
                let at = self.pos(attrs.attach);
                let at = at.expect("a lie hangs off a router of the topology");
                (at, attrs.cost_at_attach(), attrs.fw)
            })
            .collect();
        // Announcement points: what a router pays through the cheapest
        // way out of its own.
        let mut own = self.announced.clone();
        for &(at, cost, _) in &lies {
            own[at] = own[at].min(cost);
        }

        let mut dist = own.clone();
        let mut heap: BinaryHeap<Reverse<(Metric, usize)>> = (0..n)
            .filter(|&i| dist[i].is_finite())
            .map(|i| Reverse((dist[i], i)))
            .collect();
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u] != d {
                continue; // stale heap entry
            }
            for &(from, m) in &self.in_edges[self.in_off[u]..self.in_off[u + 1]] {
                let nd = m.add(d);
                if nd < dist[from] {
                    dist[from] = nd;
                    heap.push(Reverse((nd, from)));
                }
            }
        }

        // Does `from` reach, along distance-consistent links, an
        // announcement point other than `skip` that wins where it stands?
        let reaches_another = |from: usize, skip: usize| {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            while let Some(x) = stack.pop() {
                if std::mem::replace(&mut seen[x], true) {
                    continue;
                }
                if x != skip && own[x] == dist[x] {
                    return true;
                }
                stack.extend(
                    graph
                        .row(x)
                        .iter()
                        .filter(|(y, m)| m.add(dist[*y]) == dist[x])
                        .map(|e| e.0),
                );
            }
            false
        };

        let mut local = vec![false; n];
        let mut off = Vec::with_capacity(n + 1);
        let mut hops = Vec::new();
        let mut nexthops: Vec<FwAddr> = Vec::new();
        off.push(0);
        for i in 0..n {
            let d = dist[i];
            // Local attachment wins within equal cost; a router never
            // forwards traffic for its own connected prefix.
            local[i] = d.is_finite() && self.announced[i] == d;
            if d.is_finite() && !local[i] {
                nexthops.clear();
                for &(to, m) in graph.row(i) {
                    if m.add(dist[to]) == d
                        && (m != Metric::ZERO || own[i] != d || reaches_another(to, i))
                    {
                        nexthops.push(FwAddr::primary(graph.ids[to]));
                    }
                }
                nexthops.extend(lies.iter().filter(|l| l.0 == i && l.1 == d).map(|l| l.2));
                nexthops.sort();
                nexthops.dedup();
                hops.extend_from_slice(&nexthops);
            }
            off.push(hops.len());
        }
        PrefixRoutes {
            dist,
            local,
            off,
            hops,
        }
    }
}

/// Every router's route toward one prefix, by position in the
/// [`PrefixGraph`] it was computed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixRoutes {
    /// Route cost per position (`INF`: no route).
    dist: Vec<Metric>,
    local: Vec<bool>,
    /// Position i's next hops, sorted and deduplicated, are
    /// `hops[off[i]..off[i + 1]]`.
    off: Vec<usize>,
    hops: Vec<FwAddr>,
}

impl PrefixRoutes {
    /// Number of positions.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// `true` for a graph with no routers.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// The next hops of the router at position `i`, or `None` when it
    /// has no route toward the prefix or delivers it locally.
    pub fn forwards(&self, i: usize) -> Option<&[FwAddr]> {
        let routed = self.dist[i].is_finite() && !self.local[i];
        routed.then(|| &self.hops[self.off[i]..self.off[i + 1]])
    }
}

/// Caching SPF engine for one router, exploiting partial SPF for
/// lie-only changes — the ablation point contrasting Fibbing's
/// type-5-style churn with full topology churn.
///
/// It keeps one slot: the shortest paths of its last full run. While
/// the LSDB's [`real_version`](Lsdb::real_version) stands (lie and
/// prefix churn) it reads only the rows the route phase needs
/// (`Lsdb::route_view`) and reruns only that phase. When the version
/// moves it builds the dense real graph from the router LSAs
/// (`Lsdb::real_graph`) and reruns Dijkstra, even when a
/// content-identical re-origination left the graph as it was. Those
/// reads happen outside the `spf.full` and `spf.partial` spans, which
/// cover the Dijkstra and the route phase.
#[derive(Debug, Default)]
pub struct SpfEngine {
    /// The real version of the last full run.
    seen_real: Option<u64>,
    /// The last full run's paths.
    kept: Option<ShortestPaths>,
    /// Counts of full Dijkstra runs (for benchmarks/ablation).
    pub full_runs: u64,
    /// Counts of runs where only the route phase ran.
    pub partial_runs: u64,
}

impl SpfEngine {
    /// A fresh engine with an empty slot.
    pub fn new() -> Self {
        SpfEngine::default()
    }

    /// `source`'s route table on `db`: what [`compute_routes`] says on
    /// `db.to_topology()`.
    pub fn compute(&mut self, db: &Lsdb, source: RouterId) -> RouteTable {
        let stale = self.seen_real != Some(db.real_version())
            || !self.kept.as_ref().is_some_and(|sp| sp.source == source);
        let graph = stale.then(|| db.real_graph());
        let view = db.route_view();
        let _span = fib_trace::span(if graph.is_some() {
            fib_trace::Phase::SpfFull
        } else {
            fib_trace::Phase::SpfPartial
        });
        if let Some(graph) = graph {
            self.seen_real = Some(db.real_version());
            self.kept = Some(graph.shortest_paths(source));
            self.full_runs += 1;
        } else {
            self.partial_runs += 1;
        }
        let sp = self.kept.as_ref().expect("a full run fills the slot");
        route_table_from(&view, sp)
    }
}

/// Enumerate complete equal-cost shortest paths from `source` to
/// `prefix` (sequences of node ids ending at the announcing node, fake
/// nodes included). Stops after `limit` paths.
pub fn enumerate_paths(
    topo: &Topology,
    source: RouterId,
    prefix: Prefix,
    limit: usize,
) -> Vec<Vec<RouterId>> {
    let sp = shortest_paths(topo, source);
    // Total best cost to the prefix (through real or fake announcers).
    let mut best = Metric::INF;
    for (node, p, m) in topo.all_announcements() {
        if p != prefix {
            continue;
        }
        let cost = if node.is_fake() {
            let attrs = topo.fake_attrs(node).expect("fake announcer has attrs");
            sp.dist_to(attrs.attach).add(attrs.attach_metric).add(m)
        } else {
            sp.dist_to(node).add(m)
        };
        if cost < best {
            best = cost;
        }
    }
    if !best.is_finite() {
        return Vec::new();
    }

    // DFS forward from source following distance-consistent edges.
    let mut out = Vec::new();
    let mut stack = vec![source];
    dfs_paths(
        topo,
        &sp,
        source,
        prefix,
        best,
        Metric::ZERO,
        &mut stack,
        &mut out,
        limit,
    );
    out.sort();
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs_paths(
    topo: &Topology,
    sp: &ShortestPaths,
    node: RouterId,
    prefix: Prefix,
    best: Metric,
    spent: Metric,
    stack: &mut Vec<RouterId>,
    out: &mut Vec<Vec<RouterId>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    // Does `node` announce the prefix at exactly the remaining cost?
    for (p, m) in topo.prefixes_at(node) {
        if *p == prefix && spent.add(*m) == best {
            out.push(stack.clone());
            if out.len() >= limit {
                return;
            }
        }
    }
    for link in topo.links(node) {
        let next_spent = spent.add(link.metric);
        if next_spent > best {
            continue;
        }
        if link.to.is_fake() {
            let Some(attrs) = topo.fake_attrs(link.to) else {
                continue;
            };
            if attrs.prefix == prefix && next_spent.add(attrs.prefix_metric) == best {
                stack.push(link.to);
                out.push(stack.clone());
                stack.pop();
                if out.len() >= limit {
                    return;
                }
            }
            continue;
        }
        // Only descend along globally shortest sub-paths: the distance
        // of link.to from the source must equal spent + metric.
        if sp.dist_to(link.to) == next_spent && !stack.contains(&link.to) {
            stack.push(link.to);
            dfs_paths(
                topo, sp, link.to, prefix, best, next_spent, stack, out, limit,
            );
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsa::{Lsa, LsaBody, LsaKey, LsaLink};
    use crate::topology::{FakeAttrs, TopoLink};
    use crate::types::SeqNum;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Square: 1 -2- 2, 1 -1- 3, 3 -1- 2 (so 1→2 has two equal paths of
    /// cost 2), prefix at 2.
    fn square() -> Topology {
        let mut t = Topology::new();
        for i in 1..=3 {
            t.add_router(r(i));
        }
        t.add_link_sym(r(1), r(2), Metric(2)).unwrap();
        t.add_link_sym(r(1), r(3), Metric(1)).unwrap();
        t.add_link_sym(r(3), r(2), Metric(1)).unwrap();
        t.announce_prefix(r(2), Prefix::net24(1), Metric(0))
            .unwrap();
        t
    }

    #[test]
    fn dijkstra_distances_and_ecmp_first_hops() {
        let t = square();
        let sp = shortest_paths(&t, r(1));
        assert_eq!(sp.dist_to(r(2)), Metric(2));
        assert_eq!(sp.dist_to(r(3)), Metric(1));
        assert_eq!(sp.first_hops_to(r(2)), &[r(2), r(3)]);
        assert_eq!(sp.first_hops_to(r(1)), &[] as &[RouterId]);
    }

    #[test]
    fn unreachable_nodes_are_absent() {
        let mut t = square();
        t.add_router(r(9)); // isolated
        let sp = shortest_paths(&t, r(1));
        assert_eq!(sp.dist_to(r(9)), Metric::INF);
        assert!(sp.first_hops_to(r(9)).is_empty());
    }

    #[test]
    fn route_table_merges_equal_cost_nexthops() {
        let t = square();
        let rt = compute_routes(&t, r(1));
        let route = rt.routes.get(&Prefix::net24(1)).unwrap();
        assert_eq!(route.dist, Metric(2));
        assert_eq!(
            route.nexthops,
            vec![FwAddr::primary(r(2)), FwAddr::primary(r(3))]
        );
        assert!(!route.local);
    }

    #[test]
    fn local_announcement_wins() {
        let t = square();
        let rt = compute_routes(&t, r(2));
        let route = rt.routes.get(&Prefix::net24(1)).unwrap();
        assert!(route.local);
        assert!(route.nexthops.is_empty());
        assert_eq!(route.dist, Metric(0));
    }

    #[test]
    fn fake_node_adds_equal_cost_path_at_attach() {
        let mut t = square();
        // At r1 the shortest cost is 2; add a lie via r3's secondary
        // address at exactly cost 2 → 3 ECMP slots at r1.
        t.add_fake_node(
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
        let rt = compute_routes(&t, r(1));
        let route = rt.routes.get(&Prefix::net24(1)).unwrap();
        assert_eq!(route.dist, Metric(2));
        assert_eq!(
            route.nexthops,
            vec![
                FwAddr::primary(r(2)),
                FwAddr::primary(r(3)),
                FwAddr::secondary(r(3), 1)
            ]
        );
    }

    #[test]
    fn fake_node_cheaper_than_real_overrides() {
        let mut t = square();
        t.add_fake_node(
            RouterId::fake(0),
            FakeAttrs {
                attach: r(1),
                attach_metric: Metric(1),
                prefix: Prefix::net24(1),
                prefix_metric: Metric::ZERO,
                fw: FwAddr::secondary(r(3), 1),
            },
        )
        .unwrap();
        let rt = compute_routes(&t, r(1));
        let route = rt.routes.get(&Prefix::net24(1)).unwrap();
        assert_eq!(route.dist, Metric(1));
        assert_eq!(route.nexthops, vec![FwAddr::secondary(r(3), 1)]);
    }

    #[test]
    fn fake_node_visible_from_remote_routers_via_attach() {
        let mut t = square();
        // Lie at r3 (cost 1 there, equal to its real path cost via r2).
        t.add_fake_node(
            RouterId::fake(0),
            FakeAttrs {
                attach: r(3),
                attach_metric: Metric(1),
                prefix: Prefix::net24(1),
                prefix_metric: Metric::ZERO,
                fw: FwAddr::secondary(r(1), 1),
            },
        )
        .unwrap();
        // From r1, path via the lie costs dist(r3)+1 = 2 == shortest →
        // contributes first hop r3 (already present) — dedup keeps 2.
        let rt = compute_routes(&t, r(1));
        let route = rt.routes.get(&Prefix::net24(1)).unwrap();
        assert_eq!(
            route.nexthops,
            vec![FwAddr::primary(r(2)), FwAddr::primary(r(3))]
        );
    }

    fn router_lsa(origin: u32, seq: i32, nbrs: &[(u32, u32)]) -> Lsa {
        let links = nbrs.iter().map(|&(to, m)| LsaLink {
            to: r(to),
            metric: Metric(m),
        });
        Lsa::router(r(origin), SeqNum(seq), links.collect())
    }

    /// `square()` as a database: router LSAs naming each link both
    /// ways, and r2's prefix.
    fn square_db() -> Lsdb {
        let mut db = Lsdb::new();
        db.install(router_lsa(1, 1, &[(2, 2), (3, 1)]));
        db.install(router_lsa(2, 1, &[(1, 2), (3, 1)]));
        db.install(router_lsa(3, 1, &[(1, 1), (2, 1)]));
        db.install(Lsa::prefix(r(2), 0, SeqNum(1), Prefix::net24(1), Metric(0)));
        assert_eq!(db.to_topology(), square());
        db
    }

    /// A lie at r1 toward r3's secondary address, at r1's natural cost.
    fn lie_at_r1() -> Lsa {
        let fw = FwAddr::secondary(r(3), 1);
        let (m, p) = (Metric(1), Prefix::net24(1));
        Lsa::fake(RouterId::fake(0), SeqNum(1), r(1), m, p, m, fw)
    }

    #[test]
    fn engine_partial_runs_on_lie_churn() {
        let mut db = square_db();
        let mut eng = SpfEngine::new();
        let _ = eng.compute(&db, r(1));
        assert_eq!((eng.full_runs, eng.partial_runs), (1, 0));
        // Lie-only change: no new Dijkstra.
        db.install(lie_at_r1());
        let rt = eng.compute(&db, r(1));
        assert_eq!((eng.full_runs, eng.partial_runs), (1, 1));
        assert_eq!(rt.routes[&Prefix::net24(1)].nexthops.len(), 3);
        // Real-graph change: full run.
        db.install(router_lsa(1, 2, &[(2, 2), (3, 5)]));
        let _ = eng.compute(&db, r(1));
        assert_eq!((eng.full_runs, eng.partial_runs), (2, 1));
    }

    #[test]
    fn engine_reruns_dijkstra_exactly_when_the_real_version_moves() {
        let mut db = square_db();
        let mut eng = SpfEngine::new();
        let _ = eng.compute(&db, r(1));
        assert_eq!((eng.full_runs, eng.partial_runs), (1, 0));
        // Same real version: partial without building the real graph.
        let version = db.real_version();
        db.install(lie_at_r1());
        assert_eq!(db.real_version(), version);
        let rt = eng.compute(&db, r(1));
        assert_eq!((eng.full_runs, eng.partial_runs), (1, 1));
        assert_eq!(rt.routes[&Prefix::net24(1)].nexthops.len(), 3);
        // Bumped version, identical real graph (r1 re-originates its
        // LSA unchanged): a full run, which gives the same table.
        db.install(router_lsa(1, 2, &[(2, 2), (3, 1)]));
        assert!(db.real_version() > version);
        assert_eq!(eng.compute(&db, r(1)), rt);
        assert_eq!((eng.full_runs, eng.partial_runs), (2, 1));
        // Bumped version, changed real graph: full run.
        db.install(router_lsa(1, 3, &[(2, 2), (3, 5)]));
        let _ = eng.compute(&db, r(1));
        assert_eq!((eng.full_runs, eng.partial_runs), (3, 1));
    }

    /// Sequence differential: one engine per router follows one database
    /// through seeded mutations — router, prefix and fake LSAs installed,
    /// re-originated unchanged, purged, swept and removed; one-way links,
    /// a far end listed twice, a second router LSA under another id, a
    /// router that never speaks, lies re-added under their own id and
    /// lies hung on another lie's link. After every step each engine's
    /// table must equal a from-scratch SPF on the database's topology,
    /// and each engine must run Dijkstra exactly when the real version
    /// moved, which it must whenever the real rows (real routers, their
    /// real links and metrics) changed. Where the version moved and the
    /// rows did not, the full run must find the paths it had.
    #[test]
    fn engine_follows_seeded_lsdb_mutations() {
        const POOL: u32 = 6; // routers 1..=POOL speak, POOL + 1 never does
        let mut x = 0x5EC0_E4CE_D1FF_u64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        let mut drawn: BTreeMap<&str, u32> = BTreeMap::new();
        let mut saw = |what: &'static str, yes: bool| {
            *drawn.entry(what).or_default() += u32::from(yes);
        };
        let (mut full_runs, mut partial_runs) = (0u64, 0u64);
        let mut same_rows_full_runs = 0u64;
        for case in 0..300 {
            let mut db = Lsdb::new();
            let mut seqs: BTreeMap<LsaKey, i32> = BTreeMap::new();
            let mut next_seq = |key: LsaKey| {
                let s = seqs.entry(key).or_insert(0);
                *s += 1;
                SeqNum(*s)
            };
            // Start from a network where every link is reported both ways.
            let mut base: Vec<Vec<LsaLink>> = vec![Vec::new(); POOL as usize + 1];
            for a in 1..=POOL {
                for b in a + 1..=POOL {
                    if rand(2) == 0 {
                        for (from, to) in [(a, b), (b, a)] {
                            let link = LsaLink {
                                to: RouterId(to),
                                metric: Metric(1 + rand(4) as u32),
                            };
                            base[from as usize].push(link);
                        }
                    }
                }
            }
            for (a, links) in base.into_iter().enumerate().skip(1) {
                let mut lsa = Lsa::router(RouterId(a as u32), SeqNum(0), links);
                lsa.seq = next_seq(lsa.key);
                db.install(lsa);
            }
            let mut engines: Vec<SpfEngine> = (0..=POOL).map(|_| SpfEngine::new()).collect();
            let (mut last_rows, mut last_version) = (None, None);
            for step in 0..40 {
                let stored: Vec<LsaKey> = db.iter().map(|l| l.key).collect();
                let any_stored = |pick: u64| stored.get(pick as usize).copied();
                match rand(12) {
                    0..=2 => {
                        let a = 1 + rand(u64::from(POOL)) as u32;
                        // Does `b`'s live router LSA name `a`?
                        let back = |b: RouterId| {
                            let key = Lsa::router(b, SeqNum(1), Vec::new()).key;
                            db.get(&key).is_some_and(|l| match &l.body {
                                LsaBody::Router { links } => {
                                    !l.is_max_age() && links.iter().any(|k| k.to == RouterId(a))
                                }
                                _ => false,
                            })
                        };
                        // Mostly answer a neighbour that names us.
                        let mut links: Vec<LsaLink> = (1..=POOL + 1)
                            .filter_map(|b| {
                                let metric = Metric(1 + rand(4) as u32);
                                let odds = if back(RouterId(b)) { 3 } else { 1 };
                                (b != a && rand(4) < odds).then_some(LsaLink {
                                    to: RouterId(b),
                                    metric,
                                })
                            })
                            .collect();
                        if !links.is_empty() && rand(6) == 0 {
                            let again = LsaLink {
                                to: links[rand(links.len() as u64) as usize].to,
                                metric: Metric(5 + rand(4) as u32),
                            };
                            links.insert(rand(links.len() as u64 + 1) as usize, again);
                            saw("a far end listed twice", true);
                        }
                        saw("a one-way link", links.iter().any(|l| !back(l.to)));
                        let mut lsa = Lsa::router(RouterId(a), SeqNum(0), links);
                        if rand(8) == 0 {
                            lsa.key.id = 1;
                            saw("a second router LSA", true);
                        }
                        lsa.seq = next_seq(lsa.key);
                        db.install(lsa);
                    }
                    3 => {
                        // The stored instance again under a new sequence
                        // number: a content-identical re-origination.
                        if let Some(key) = any_stored(rand(stored.len().max(1) as u64)) {
                            let mut lsa = db.get(&key).expect("stored").clone();
                            lsa.age = 0;
                            lsa.seq = next_seq(key);
                            db.install(lsa);
                        }
                    }
                    4 => {
                        if let Some(key) = any_stored(rand(stored.len().max(1) as u64)) {
                            let purge = db.get(&key).expect("stored").to_purge();
                            db.install(purge);
                        }
                    }
                    5 => {
                        // As an instance sweeps.
                        let dead: Vec<LsaKey> = db.max_age_keys().collect();
                        for k in &dead {
                            db.remove(k);
                        }
                        saw("a sweep that drops an LSA", !dead.is_empty());
                    }
                    6 => {
                        if let Some(key) = any_stored(rand(stored.len().max(1) as u64)) {
                            saw("a removed LSA", db.remove(&key).is_some());
                        }
                    }
                    7 | 8 => {
                        let origin = match rand(12) {
                            0 => RouterId::fake(rand(4) as u32),
                            _ => RouterId(1 + rand(u64::from(POOL) + 1) as u32),
                        };
                        let p = Prefix::net24(rand(3) as u8);
                        let m = Metric(rand(4) as u32);
                        let mut lsa = Lsa::prefix(origin, rand(2) as u32, SeqNum(0), p, m);
                        lsa.seq = next_seq(lsa.key);
                        db.install(lsa);
                    }
                    _ => {
                        let fake = RouterId::fake(rand(4) as u32);
                        let attach = match rand(10) {
                            0 => RouterId::fake(rand(4) as u32),
                            _ => RouterId(1 + rand(u64::from(POOL) + 1) as u32),
                        };
                        // Mostly a far end the attachment reports, else
                        // another lie hung off the same router (valid if
                        // that one comes first in key order), else anyone.
                        let key = Lsa::router(attach, SeqNum(1), Vec::new()).key;
                        let reported: Vec<RouterId> = match db.get(&key).map(|l| &l.body) {
                            Some(LsaBody::Router { links }) => links.iter().map(|l| l.to).collect(),
                            _ => Vec::new(),
                        };
                        let beside: Vec<RouterId> = db
                            .iter()
                            .filter(|l| matches!(l.body, LsaBody::Fake { attach: a, .. } if a == attach))
                            .map(|l| l.key.origin)
                            .collect();
                        let fw = match rand(7) {
                            0 | 1 if !beside.is_empty() => {
                                beside[rand(beside.len() as u64) as usize]
                            }
                            2 => RouterId::fake(rand(4) as u32),
                            3 => RouterId(1 + rand(u64::from(POOL) + 1) as u32),
                            _ if !reported.is_empty() => {
                                reported[rand(reported.len() as u64) as usize]
                            }
                            _ => RouterId(1 + rand(u64::from(POOL)) as u32),
                        };
                        let mut lsa = Lsa::fake(
                            fake,
                            SeqNum(0),
                            attach,
                            Metric(rand(3) as u32),
                            Prefix::net24(rand(3) as u8),
                            Metric(rand(3) as u32),
                            FwAddr::secondary(fw, 1 + rand(3) as u16),
                        );
                        let moved = db.get(&lsa.key).is_some_and(|old| old.body != lsa.body);
                        saw("a lie re-added under its own id", moved);
                        lsa.seq = next_seq(lsa.key);
                        db.install(lsa);
                    }
                }

                let topo = db.to_topology();
                let rows: Vec<(RouterId, Vec<TopoLink>)> = topo
                    .routers()
                    .map(|r| {
                        let real = topo.links(r).iter().filter(|l| l.to.is_real());
                        (r, real.copied().collect())
                    })
                    .collect();
                let changed = last_rows.as_ref() != Some(&rows);
                let bumped = last_version != Some(db.real_version());
                assert!(
                    bumped || !changed,
                    "case {case} step {step}: the real rows changed under one real version"
                );
                saw(
                    "the real version moved, the rows did not",
                    bumped && !changed,
                );
                saw("a lie kept", topo.fake_count() > 0);
                saw(
                    "a lie hung on another lie's link",
                    topo.fake_nodes().any(|(_, a)| a.fw.router.is_fake()),
                );
                for (i, eng) in engines.iter_mut().enumerate() {
                    let source = RouterId(i as u32 + 1);
                    let before = (eng.full_runs, eng.partial_runs);
                    let kept = eng.kept.clone();
                    let table = eng.compute(&db, source);
                    assert_eq!(
                        table,
                        compute_routes(&topo, source),
                        "case {case} step {step}: {source} on {db:?}"
                    );
                    let full = eng.full_runs - before.0;
                    assert_eq!(
                        (full, eng.partial_runs - before.1),
                        (u64::from(bumped), u64::from(!bumped)),
                        "case {case} step {step}: {source}'s run on {db:?}"
                    );
                    if bumped && !changed {
                        assert_eq!(eng.kept, kept, "case {case} step {step}: {source}'s paths");
                        same_rows_full_runs += 1;
                    }
                    full_runs += full;
                    partial_runs += 1 - full;
                }
                (last_rows, last_version) = (Some(rows), Some(db.real_version()));
            }
        }
        assert!(
            full_runs > 20_000 && partial_runs > 40_000,
            "{full_runs} full and {partial_runs} partial runs"
        );
        assert!(
            same_rows_full_runs >= 5_000,
            "{same_rows_full_runs} full runs on unchanged rows"
        );
        for what in [
            "a far end listed twice",
            "a one-way link",
            "a second router LSA",
            "a sweep that drops an LSA",
            "a removed LSA",
            "a lie re-added under its own id",
            "the real version moved, the rows did not",
            "a lie kept",
            "a lie hung on another lie's link",
        ] {
            let times = drawn.get(what).copied().unwrap_or(0);
            assert!(times >= 20, "the generator drew {what} {times} times");
        }
    }

    #[test]
    fn path_enumeration_lists_equal_cost_paths() {
        let t = square();
        let paths = enumerate_paths(&t, r(1), Prefix::net24(1), 16);
        assert_eq!(paths, vec![vec![r(1), r(2)], vec![r(1), r(3), r(2)]]);
    }

    #[test]
    fn path_enumeration_includes_fake_terminals() {
        let mut t = square();
        t.add_fake_node(
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
        let paths = enumerate_paths(&t, r(1), Prefix::net24(1), 16);
        assert_eq!(paths.len(), 3);
        assert!(paths.contains(&vec![r(1), RouterId::fake(0)]));
    }

    #[test]
    fn spf_from_missing_or_fake_source_is_empty() {
        let t = square();
        for source in [r(77), RouterId::fake(1)] {
            let sp = shortest_paths(&t, source);
            assert!(sp.dist.iter().all(|d| !d.is_finite()));
            assert!(sp.first_hops.iter().all(Vec::is_empty));
        }
    }

    /// `shortest_paths` as it stood before it ran on dense positions:
    /// ordered maps, and a first-hop set cloned for every scanned link.
    /// Moved here verbatim as the model the dense form is held to, and
    /// read through the same accessors.
    fn shortest_paths_reference(topo: &Topology, source: RouterId) -> MapPaths {
        let mut dist: BTreeMap<RouterId, Metric> = BTreeMap::new();
        let mut fh: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(Metric, RouterId)>> = BinaryHeap::new();

        if !topo.contains(source) || source.is_fake() {
            return MapPaths { dist, fh };
        }

        dist.insert(source, Metric::ZERO);
        fh.insert(source, Vec::new());
        heap.push(std::cmp::Reverse((Metric::ZERO, source)));

        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist.get(&u).copied().unwrap_or(Metric::INF) != d {
                continue; // stale heap entry
            }
            for link in topo.links(u) {
                if link.to.is_fake() {
                    continue; // fakes handled in the route phase
                }
                if !link.metric.is_finite() {
                    continue;
                }
                let nd = d.add(link.metric);
                let cur = dist.get(&link.to).copied().unwrap_or(Metric::INF);
                // First hops propagated to link.to through u.
                let inherit: Vec<RouterId> = if u == source {
                    vec![link.to]
                } else {
                    fh.get(&u).cloned().unwrap_or_default()
                };
                if nd < cur {
                    dist.insert(link.to, nd);
                    fh.insert(link.to, inherit);
                    heap.push(std::cmp::Reverse((nd, link.to)));
                } else if nd == cur {
                    let set = fh.entry(link.to).or_default();
                    for h in inherit {
                        if !set.contains(&h) {
                            set.push(h);
                        }
                    }
                    set.sort();
                }
            }
        }
        for set in fh.values_mut() {
            set.sort();
            set.dedup();
        }
        MapPaths { dist, fh }
    }

    /// The reference's result: reachable routers only.
    struct MapPaths {
        dist: BTreeMap<RouterId, Metric>,
        fh: BTreeMap<RouterId, Vec<RouterId>>,
    }

    impl MapPaths {
        fn dist_to(&self, node: RouterId) -> Metric {
            self.dist.get(&node).copied().unwrap_or(Metric::INF)
        }

        fn first_hops_to(&self, node: RouterId) -> &[RouterId] {
            self.fh.get(&node).map_or(&[], Vec::as_slice)
        }

        /// The same paths in the dense form, for `route_table_from`.
        fn dense(&self, topo: &Topology, source: RouterId) -> ShortestPaths {
            let ids: Vec<RouterId> = topo.routers().collect();
            ShortestPaths {
                source,
                dist: ids.iter().map(|&x| self.dist_to(x)).collect(),
                first_hops: ids
                    .iter()
                    .map(|&x| self.first_hops_to(x).to_vec())
                    .collect(),
                ids,
            }
        }
    }

    /// Model test: the dense `shortest_paths` against the ordered-map
    /// Dijkstra it replaced, from every router, from an absent and a
    /// fake source, on 3 000 seeded graphs of up to 60 routers with
    /// zero-metric links, unusable links, self-loops, disconnected parts
    /// and lies. Distances and first hops must agree at every router and
    /// at ids the topology lacks, and so must the route tables built on
    /// both results.
    #[test]
    fn shortest_paths_matches_the_ordered_map_reference_on_seeded_graphs() {
        let mut st: u64 = 0xD1CE_5EED;
        let mut next = move || {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut drawn: BTreeMap<&str, u32> = BTreeMap::new();
        let mut saw = |what: &'static str, yes: bool| {
            *drawn.entry(what).or_default() += u32::from(yes);
        };
        for case in 0..3000u32 {
            let n = if case % 10 == 0 {
                24 + (next() % 37) as u32 // 24..=60 routers
            } else {
                2 + (next() % 15) as u32 // 2..=16 routers
            };
            let zero_ok = case % 3 == 0;
            saw("a graph of 24 to 60 routers", n >= 24);
            // Ids with gaps, so positions and ids differ.
            let id = |i: u32| r(3 * i + 1);
            let mut t = Topology::new();
            for i in 0..n {
                t.add_router(id(i));
            }
            // Random directed links; a few graphs split in two halves
            // that no link joins.
            let split = (case % 9 == 0).then_some(n / 2);
            saw("disconnected parts", split.is_some());
            for _ in 0..2 * n {
                let (a, b) = (
                    (next() % u64::from(n)) as u32,
                    (next() % u64::from(n)) as u32,
                );
                if split.is_some_and(|h| (a < h) != (b < h)) || t.has_link(id(a), id(b)) {
                    continue;
                }
                let m = match next() % 8 {
                    0 if zero_ok => Metric::ZERO,
                    1 if case % 5 == 0 => Metric::INF,
                    2 if case % 7 == 0 => Metric(u32::MAX - 2),
                    _ => Metric(1 + (next() % 6) as u32),
                };
                saw("zero-metric links", m == Metric::ZERO);
                saw("INF-metric links", m == Metric::INF);
                saw("saturating links", m == Metric(u32::MAX - 2));
                saw("self-loops", a == b);
                t.add_link(id(a), id(b), m).unwrap();
            }
            // Lies at routers with a neighbour to resolve to.
            for k in 0..(next() % 6) as u32 {
                let at = id((next() % u64::from(n)) as u32);
                let Some(nbr) = t.links(at).iter().map(|l| l.to).find(|x| x.is_real()) else {
                    continue;
                };
                saw("lies", true);
                let attrs = FakeAttrs {
                    attach: at,
                    attach_metric: Metric((next() % 3) as u32),
                    prefix: Prefix::net24((next() % 3) as u8),
                    prefix_metric: Metric((next() % 4) as u32),
                    fw: FwAddr::secondary(nbr, 1 + k as u16),
                };
                t.add_fake_node(RouterId::fake(k), attrs).unwrap();
            }
            for i in 0..n {
                if next() % 3 == 0 {
                    let m = Metric((next() % 3) as u32);
                    t.announce_prefix(id(i), Prefix::net24((next() % 3) as u8), m)
                        .unwrap();
                }
            }

            let probes: Vec<RouterId> = (0..n)
                .map(id)
                .chain([r(0), r(3 * n + 5), RouterId::fake(0), RouterId::fake(99)])
                .collect();
            for source in probes.iter().copied().chain([r(3 * n + 2)]) {
                let fast = shortest_paths(&t, source);
                let model = shortest_paths_reference(&t, source);
                for &x in &probes {
                    assert_eq!(
                        (fast.dist_to(x), fast.first_hops_to(x)),
                        (model.dist_to(x), model.first_hops_to(x)),
                        "case {case}: from {source} to {x} on {t:?}"
                    );
                }
                assert_eq!(
                    route_table_from(&t, &fast),
                    route_table_from(&t, &model.dense(&t, source)),
                    "case {case}: route tables from {source} on {t:?}"
                );
            }
        }
        for what in [
            "a graph of 24 to 60 routers",
            "disconnected parts",
            "zero-metric links",
            "INF-metric links",
            "saturating links",
            "self-loops",
            "lies",
        ] {
            let times = drawn.get(what).copied().unwrap_or(0);
            assert!(times >= 20, "the generator drew {what} {times} times");
        }
    }

    /// `prefix_routes` as it stood before it became one pass: one reverse
    /// Dijkstra per announcement point over maps rebuilt per call, then a
    /// per-router merge of every candidate. Moved here verbatim (minus its
    /// span) as the model the one-pass form is held to.
    fn prefix_routes_reference(topo: &Topology, prefix: Prefix) -> BTreeMap<RouterId, Route> {
        // Announcement points relevant to the prefix.
        let reals: Vec<(RouterId, Metric)> = topo
            .all_announcements()
            .filter(|(node, p, _)| *p == prefix && node.is_real())
            .map(|(node, _, m)| (node, m))
            .collect();
        let fakes: Vec<(RouterId, Metric, FwAddr)> = topo
            .fake_nodes()
            .filter(|(_, attrs)| attrs.prefix == prefix)
            .map(|(_, attrs)| (attrs.attach, attrs.cost_at_attach(), attrs.fw))
            .collect();

        let mut targets: Vec<RouterId> = reals
            .iter()
            .map(|(t, _)| *t)
            .chain(fakes.iter().map(|(t, _, _)| *t))
            .collect();
        targets.sort();
        targets.dedup();

        // Reversed real adjacency: for each node, its in-edges.
        let mut radj: BTreeMap<RouterId, Vec<(RouterId, Metric)>> = BTreeMap::new();
        for r in topo.routers() {
            for link in topo.links(r) {
                if link.to.is_real() && link.metric.is_finite() {
                    radj.entry(link.to).or_default().push((r, link.metric));
                }
            }
        }

        // One reverse Dijkstra per announcement point.
        let mut dist_to: BTreeMap<RouterId, BTreeMap<RouterId, Metric>> = BTreeMap::new();
        for &t in &targets {
            let mut dist: BTreeMap<RouterId, Metric> = BTreeMap::new();
            let mut heap: BinaryHeap<std::cmp::Reverse<(Metric, RouterId)>> = BinaryHeap::new();
            if topo.contains(t) && t.is_real() {
                dist.insert(t, Metric::ZERO);
                heap.push(std::cmp::Reverse((Metric::ZERO, t)));
            }
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                if dist.get(&u).copied().unwrap_or(Metric::INF) != d {
                    continue; // stale heap entry
                }
                for &(from, m) in radj.get(&u).map(|v| v.as_slice()).unwrap_or(&[]) {
                    let nd = m.add(d);
                    if nd < dist.get(&from).copied().unwrap_or(Metric::INF) {
                        dist.insert(from, nd);
                        heap.push(std::cmp::Reverse((nd, from)));
                    }
                }
            }
            dist_to.insert(t, dist);
        }

        // Distance-consistent first hops of `r` toward a target with the
        // given reverse-distance table.
        let hops_toward = |r: RouterId, dist: &BTreeMap<RouterId, Metric>| -> Vec<FwAddr> {
            let dr = dist.get(&r).copied().unwrap_or(Metric::INF);
            if !dr.is_finite() {
                return Vec::new();
            }
            topo.links(r)
                .iter()
                .filter(|l| l.to.is_real() && l.metric.is_finite())
                .filter(|l| {
                    l.metric
                        .add(dist.get(&l.to).copied().unwrap_or(Metric::INF))
                        == dr
                })
                .map(|l| FwAddr::primary(l.to))
                .collect()
        };

        // Per-router candidate merge, mirroring `route_table_from`.
        let mut out = BTreeMap::new();
        for r in topo.routers() {
            let mut best: Option<(Metric, Vec<FwAddr>, bool)> = None;
            let mut consider = |cost: Metric, hops: Vec<FwAddr>, local: bool| {
                if !cost.is_finite() {
                    return;
                }
                match &mut best {
                    None => best = Some((cost, hops, local)),
                    Some((bc, bh, bl)) => {
                        if cost < *bc {
                            *bc = cost;
                            *bh = hops;
                            *bl = local;
                        } else if cost == *bc {
                            for h in hops {
                                if !bh.contains(&h) {
                                    bh.push(h);
                                }
                            }
                            *bl = *bl || local;
                        }
                    }
                }
            };

            for &(node, m) in &reals {
                if node == r {
                    consider(m, Vec::new(), true);
                } else {
                    let dist = &dist_to[&node];
                    let cost = dist.get(&r).copied().unwrap_or(Metric::INF).add(m);
                    let hops = hops_toward(r, dist);
                    if !hops.is_empty() {
                        consider(cost, hops, false);
                    }
                }
            }
            for &(attach, via_cost, fw) in &fakes {
                if attach == r {
                    consider(via_cost, vec![fw], false);
                } else {
                    let dist = &dist_to[&attach];
                    let cost = dist.get(&r).copied().unwrap_or(Metric::INF).add(via_cost);
                    let hops = hops_toward(r, dist);
                    if !hops.is_empty() {
                        consider(cost, hops, false);
                    }
                }
            }

            if let Some((cost, mut hops, local)) = best {
                let route = if local {
                    Route {
                        dist: cost,
                        nexthops: Vec::new(),
                        local: true,
                    }
                } else {
                    hops.sort();
                    hops.dedup();
                    Route {
                        dist: cost,
                        nexthops: hops,
                        local: false,
                    }
                };
                out.insert(r, route);
            }
        }
        out
    }

    /// `prefix_routes` must agree bit-for-bit with extracting the
    /// prefix from the per-source forward SPF.
    fn assert_prefix_routes_match(t: &Topology, prefix: Prefix) {
        assert_extraction_matches(t, &compute_all_routes(t), &prefix_routes(t, prefix), prefix);
    }

    /// `fast` is `full`'s column for `prefix`, router for router.
    fn assert_extraction_matches(
        t: &Topology,
        full: &BTreeMap<RouterId, RouteTable>,
        fast: &BTreeMap<RouterId, Route>,
        prefix: Prefix,
    ) {
        for r_ in t.routers() {
            let reference = full.get(&r_).and_then(|tab| tab.route(prefix));
            assert_eq!(
                fast.get(&r_),
                reference,
                "route divergence at {r_} for {prefix}"
            );
        }
        assert_eq!(
            fast.len(),
            full.values()
                .filter(|tab| tab.route(prefix).is_some())
                .count(),
            "router set divergence for {prefix}"
        );
    }

    #[test]
    fn prefix_routes_matches_forward_spf_on_square_with_lies() {
        let mut t = square();
        assert_prefix_routes_match(&t, Prefix::net24(1));
        t.add_fake_node(
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
        assert_prefix_routes_match(&t, Prefix::net24(1));
        // A cheaper lie that overrides the real paths at its attach.
        t.add_fake_node(
            RouterId::fake(1),
            FakeAttrs {
                attach: r(3),
                attach_metric: Metric(1),
                prefix: Prefix::net24(1),
                prefix_metric: Metric::ZERO,
                fw: FwAddr::secondary(r(1), 1),
            },
        )
        .unwrap();
        assert_prefix_routes_match(&t, Prefix::net24(1));
        // Absent prefix: both sides must agree it routes nowhere.
        assert!(prefix_routes(&t, Prefix::net24(9)).is_empty());
    }

    /// Model test: the one-pass `prefix_routes` against its per-target
    /// predecessor on every seeded graph, and against the per-source
    /// forward SPF wherever real metrics are positive. Asymmetric
    /// metrics everywhere; every fourth graph draws zero-metric links
    /// (reference comparison only). Each graph is asked for its
    /// prefix, for a decoy some lies announce instead, and for a prefix
    /// nobody announces.
    #[test]
    fn prefix_routes_matches_reference_and_forward_spf_on_seeded_graphs() {
        const PREFIX: Prefix = Prefix::net24(1);
        const DECOY: Prefix = Prefix::net24(7);
        const NOBODY: Prefix = Prefix::net24(9);
        let mut st: u64 = 0x5EED_CAFE;
        let mut next = move || {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // What the generator is there to draw, counted by name.
        let mut drawn: BTreeMap<&str, u32> = BTreeMap::new();
        let mut saw = |what: &'static str, yes: bool| {
            *drawn.entry(what).or_default() += u32::from(yes);
        };
        for case in 0..3000u32 {
            let zero_ok = case % 4 == 3;
            let n = if case % 12 == 0 {
                24 + (next() % 37) as u32 // 24..=60 routers
            } else {
                4 + (next() % 13) as u32 // 4..=16 routers
            };
            let floor = u32::from(!zero_ok);
            saw("a graph of 24 to 60 routers", n >= 24);
            saw("zero-metric links", zero_ok);
            let mut t = Topology::new();
            for i in 1..=n {
                t.add_router(r(i));
            }
            // Ring for base connectivity, then random directed chords
            // with independent per-direction metrics (asymmetric).
            for i in 1..=n {
                let j = if i == n { 1 } else { i + 1 };
                t.add_link(r(i), r(j), Metric(floor + (next() % 4) as u32))
                    .unwrap();
                t.add_link(r(j), r(i), Metric(floor + (next() % 4) as u32))
                    .unwrap();
            }
            for _ in 0..n {
                let a = 1 + (next() as u32 % n);
                let b = 1 + (next() as u32 % n);
                if a != b && !t.has_link(r(a), r(b)) {
                    t.add_link(r(a), r(b), Metric(floor + (next() % 6) as u32))
                        .unwrap();
                }
            }
            // An unusable link, a router that reaches nobody, a router
            // nobody reaches (it keeps its out-edges, so it can lie).
            if case % 3 == 0 {
                let v = r(1 + (next() as u32 % n));
                let to = t.links(v)[next() as usize % t.links(v).len()].to;
                t.set_metric(v, to, Metric::INF).unwrap();
                saw("an INF-metric link", true);
            }
            if case % 5 == 0 {
                let v = r(1 + (next() as u32 % n));
                let outs: Vec<RouterId> = t.links(v).iter().map(|l| l.to).collect();
                for to in outs {
                    t.remove_link(v, to);
                }
                saw("a router without out-edges", true);
            }
            let cut = (case % 7 == 0).then(|| r(1 + (next() as u32 % n)));
            if let Some(w) = cut {
                for i in 1..=n {
                    t.remove_link(r(i), w);
                }
            }
            // Zero to three real announcers, at tied or at drawn costs.
            let tie = (next() % 2 == 0).then(|| Metric((next() % 3) as u32));
            let mut owners: Vec<RouterId> = Vec::new();
            for _ in 0..next() % 4 {
                let o = r(1 + (next() as u32 % n));
                let m = tie.unwrap_or(Metric((next() % 5) as u32));
                t.announce_prefix(o, PREFIX, m).unwrap();
                if !owners.contains(&o) {
                    owners.push(o);
                }
            }
            let costs: Vec<Metric> = owners.iter().map(|o| t.prefixes_at(*o)[0].1).collect();
            let tied = costs.windows(2).all(|w| w[0] == w[1]);
            saw("two announcers, tied", owners.len() == 2 && tied);
            saw("two announcers, apart", owners.len() == 2 && !tied);
            saw("three announcers, tied", owners.len() == 3 && tied);
            saw("three announcers, apart", owners.len() == 3 && !tied);
            t.announce_prefix(r(1 + (next() as u32 % n)), DECOY, Metric::ZERO)
                .unwrap();

            // Up to twelve lies, in groups that share an attachment
            // router: toward distinct addresses of one neighbour (the
            // uneven split) or toward different neighbours; priced at,
            // under and over what the router pays without them.
            let natural = prefix_routes_reference(&t, PREFIX);
            let budget = (next() % 13) as u32;
            saw("twelve lies", budget == 12);
            let mut k = 0;
            while k < budget {
                let attach = match (next() % 4, cut) {
                    (0, _) if !owners.is_empty() => owners[next() as usize % owners.len()],
                    (1, Some(w)) => w,
                    _ => r(1 + (next() as u32 % n)),
                };
                let nbrs: Vec<RouterId> = t
                    .links(attach)
                    .iter()
                    .filter(|l| l.to.is_real())
                    .map(|l| l.to)
                    .collect();
                if nbrs.is_empty() {
                    k += 1; // a router without out-edges cannot lie
                    continue;
                }
                let group = (1 + (next() % 4) as u32).min(budget - k);
                let one_neighbour = next() % 2 == 0;
                let first = next() as usize % nbrs.len();
                saw(
                    "several lies toward one neighbour",
                    group > 1 && one_neighbour,
                );
                saw(
                    "several lies toward distinct neighbours",
                    group > 1 && !one_neighbour && nbrs.len() > 1,
                );
                let paid = natural.get(&attach).map(|route| route.dist.0);
                for g in 0..group {
                    let lie_prefix = if next() % 8 == 0 { DECOY } else { PREFIX };
                    let cost = match (paid, next() % 4) {
                        (Some(d), 0) => d,
                        (Some(d), 1) if d > 0 => d - 1,
                        (Some(d), 2) => d + 1,
                        _ => (next() % 10) as u32,
                    };
                    let real = lie_prefix == PREFIX;
                    saw("a lie for another prefix", !real);
                    saw("a lie at an announcer", real && owners.contains(&attach));
                    saw(
                        "a lie at a router nobody reaches",
                        real && cut == Some(attach),
                    );
                    saw("a lie at the natural cost", real && paid == Some(cost));
                    saw(
                        "a lie undercutting it",
                        real && paid.is_some_and(|d| cost < d),
                    );
                    saw(
                        "a lie dearer than it",
                        real && paid.is_some_and(|d| cost > d),
                    );
                    let attach_metric = (next() % (u64::from(cost) + 1)) as u32;
                    let nbr = if one_neighbour {
                        nbrs[first]
                    } else {
                        nbrs[(first + g as usize) % nbrs.len()]
                    };
                    t.add_fake_node(
                        RouterId::fake(k),
                        FakeAttrs {
                            attach,
                            attach_metric: Metric(attach_metric),
                            prefix: lie_prefix,
                            prefix_metric: Metric(cost - attach_metric),
                            fw: FwAddr::secondary(nbr, 1 + g as u16),
                        },
                    )
                    .unwrap();
                    k += 1;
                }
            }

            let full = (!zero_ok).then(|| compute_all_routes(&t));
            for prefix in [PREFIX, DECOY, NOBODY] {
                let fast = prefix_routes(&t, prefix);
                assert_eq!(
                    fast,
                    prefix_routes_reference(&t, prefix),
                    "case {case}: {prefix} diverges from the reference on {t:?}"
                );
                if let Some(full) = &full {
                    assert_extraction_matches(&t, full, &fast, prefix);
                }
            }
            assert!(prefix_routes(&t, NOBODY).is_empty(), "case {case}");
        }
        for what in [
            "two announcers, tied",
            "two announcers, apart",
            "three announcers, tied",
            "three announcers, apart",
            "several lies toward one neighbour",
            "several lies toward distinct neighbours",
            "a lie at the natural cost",
            "a lie undercutting it",
            "a lie dearer than it",
            "a lie at an announcer",
            "a lie at a router nobody reaches",
            "a router without out-edges",
            "an INF-metric link",
            "zero-metric links",
            "a lie for another prefix",
            "a graph of 24 to 60 routers",
            "twelve lies",
        ] {
            let times = drawn.get(what).copied().unwrap_or(0);
            assert!(times >= 20, "the generator drew {what} {times} times");
        }
    }
}
