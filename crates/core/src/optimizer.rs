//! Path computation for flash-crowd relief.
//!
//! The controller answers: *given the current demands, which
//! per-destination forwarding DAG keeps every link below a utilization
//! budget, changing as little as possible?* Two primitives:
//!
//! * [`min_max_theta`] — the optimal (fractional) min-max link
//!   utilization for single-destination demands, by bisection over a
//!   max-flow feasibility oracle (Dinic). This is the theoretical
//!   optimum the paper cites ("Fibbing can implement the optimal
//!   solution to the min-max link utilization problem") and the
//!   reference for the optimality-gap table.
//!
//! * [`MinMaxSolver`] — the engine behind [`min_max_theta`]. The flow
//!   network is assembled **once** per problem; a probe at θ sets the
//!   link arcs to θ × capacity, drops whatever flow the last probe
//!   routed and runs one max-flow from zero. (Rebuilding the network
//!   per probe measured 11 % slower on the one workload that bisects;
//!   carrying the flow from probe to probe measured nothing — see
//!   "The optimizer hot path" in docs/ARCHITECTURE.md.) A single
//!   max-flow at θ = 1 additionally yields an analytic lower bound
//!   from its min cut, shrinking the bisection window. Callers that
//!   need both a feasibility check and θ* (like [`plan_paths`]) share
//!   one solver instead of rebuilding the network per question.
//!
//! * [`plan_paths`] — a *min-cost flow at a utilization budget*:
//!   capacities are scaled to `target_util`, arc costs are IGP
//!   metrics, and demand is routed at minimum total cost. Cheap
//!   (shortest) paths fill first; longer detours appear only when
//!   needed — reproducing the demo's behaviour where B gains B–R3–C
//!   before anyone touches the long A–R1–R4–C path. The fractional
//!   split is then rounded to ECMP slots ([`crate::splitting`]) and
//!   expressed as a [`WeightedDag`] for the augmentation engine.
//!
//! Both networks are laid out on positions: a router's position is its
//! index among the topology's real routers in ascending order, found
//! once per router by binary search, and arcs sit in flat arrays in the
//! order they were added. Each augmenting path of the min-cost flow
//! comes from a Gauss–Seidel Bellman–Ford sweep that rescans only the
//! nodes whose distance moved since their last scan; a node whose
//! distance stands cannot take an arc, so the sweep picks the path the
//! full sweep would. Dijkstra with Johnson potentials would find a path
//! of the same cost, but not always the same one among several of that
//! cost, and the path chosen decides the loads and the DAG: the plans
//! would move, so it is not used.

use crate::requirements::WeightedDag;
use crate::splitting::plan_split;
use fib_igp::topology::Topology;
use fib_igp::types::{Metric, Prefix, RouterId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Optimization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// No router announces the prefix.
    NoSink(Prefix),
    /// The demand cannot be routed even at unbounded utilization.
    Disconnected,
    /// The demand exceeds capacity at any utilization ≤ `max_theta`.
    Infeasible {
        /// Best-possible max utilization.
        needed_theta: f64,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::NoSink(p) => write!(f, "no router announces {p}"),
            OptError::Disconnected => write!(f, "demand sources are disconnected from the sink"),
            OptError::Infeasible { needed_theta } => {
                write!(
                    f,
                    "infeasible below the θ ceiling (needs θ = {needed_theta:.3})"
                )
            }
        }
    }
}

impl std::error::Error for OptError {}

/// A computed path plan.
#[derive(Debug, Clone)]
pub struct PathPlan {
    /// Utilization budget the flow was computed at.
    pub theta_used: f64,
    /// Max link utilization of the fractional flow itself.
    pub max_util: f64,
    /// The rounded forwarding requirement.
    pub dag: WeightedDag,
    /// Fractional per-link loads of the plan (traffic units).
    pub loads: BTreeMap<(RouterId, RouterId), f64>,
}

// ---------------------------------------------------------------------
// Max-flow (Dinic) on f64 capacities.
// ---------------------------------------------------------------------

const EPS: f64 = 1e-9;

/// A flow network's arcs in flat arrays, built from a list in one go:
/// the i-th listed arc is arc 2i and its reverse 2i + 1, and the arcs
/// out of node u are `adj[start[u]..start[u + 1]]`, by increasing id.
/// That is the order per-node lists filled arc by arc (forward arc at
/// its tail, reverse arc at its head) would hold them in.
struct Arcs {
    to: Vec<usize>,
    start: Vec<usize>,
    adj: Vec<usize>,
}

impl Arcs {
    fn new(n: usize, ends: impl Iterator<Item = (usize, usize)>) -> Arcs {
        let mut to = Vec::new();
        for (u, v) in ends {
            to.push(v);
            to.push(u);
        }
        // Arc e leaves `to[e ^ 1]`.
        let mut start = vec![0usize; n + 1];
        for e in 0..to.len() {
            start[to[e ^ 1] + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![0usize; to.len()];
        for e in 0..to.len() {
            let u = to[e ^ 1];
            adj[fill[u]] = e;
            fill[u] += 1;
        }
        Arcs { to, start, adj }
    }

    fn out(&self, u: usize) -> &[usize] {
        &self.adj[self.start[u]..self.start[u + 1]]
    }
}

struct Dinic {
    arcs: Arcs,
    cap: Vec<f64>,
    level: Vec<i32>,
    /// Per node, the position in `arcs.adj` its search resumes from.
    iter: Vec<usize>,
    queue: VecDeque<usize>,
}

impl Dinic {
    /// A network on `n` nodes with one arc per `(from, to, capacity)`,
    /// numbered as [`Arcs`] numbers them.
    fn new(n: usize, arcs: &[(usize, usize, f64)]) -> Dinic {
        Dinic {
            arcs: Arcs::new(n, arcs.iter().map(|&(u, v, _)| (u, v))),
            cap: arcs.iter().flat_map(|&(_, _, c)| [c, 0.0]).collect(),
            level: vec![-1; n],
            iter: vec![0; n],
            queue: VecDeque::with_capacity(n),
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        self.level[s] = 0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            for &e in self.arcs.out(u) {
                let v = self.arcs.to[e];
                if self.cap[e] > EPS && self.level[v] < 0 {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push_back(v);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, f: f64) -> f64 {
        if u == t {
            return f;
        }
        while self.iter[u] < self.arcs.start[u + 1] {
            let e = self.arcs.adj[self.iter[u]];
            let v = self.arcs.to[e];
            if self.cap[e] > EPS && self.level[v] == self.level[u] + 1 {
                let d = self.dfs(v, t, f.min(self.cap[e]));
                if d > EPS {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    /// Augment from the current residual state until no path remains;
    /// returns the flow found. On return, `level` marks the source
    /// side of a min cut.
    fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            let n = self.iter.len();
            self.iter.copy_from_slice(&self.arcs.start[..n]);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= EPS {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

// ---------------------------------------------------------------------
// Min-cost flow (successive shortest paths with Bellman–Ford).
// ---------------------------------------------------------------------

struct Mcmf {
    arcs: Arcs,
    cap: Vec<f64>,
    cost: Vec<f64>,
    n: usize,
}

impl Mcmf {
    /// A network on `n` nodes with one arc per `(from, to, capacity,
    /// cost)`, numbered as [`Arcs`] numbers them.
    fn new(n: usize, arcs: &[(usize, usize, f64, f64)]) -> Mcmf {
        Mcmf {
            arcs: Arcs::new(n, arcs.iter().map(|&(u, v, _, _)| (u, v))),
            cap: arcs.iter().flat_map(|&(_, _, c, _)| [c, 0.0]).collect(),
            cost: arcs.iter().flat_map(|&(_, _, _, w)| [w, -w]).collect(),
            n,
        }
    }

    /// Route up to `want` units from s to t at minimum cost; returns
    /// the amount routed.
    ///
    /// Each augmenting path comes from a Gauss–Seidel Bellman–Ford
    /// sweep: passes over the nodes `0..n`, each node's arcs in the
    /// order they were added, an arc taken only when it beats the far
    /// end's distance by more than 1e-12. A pass scans only the nodes
    /// whose distance moved since their last scan. A node scanned at
    /// distance d left every far end at most 1e-12 above d + cost, and
    /// distances only fall, so scanning it again at d could take no arc:
    /// skipping it leaves every improvement, every `prev_edge` and so
    /// every path where the full sweep put them.
    fn run(&mut self, s: usize, t: usize, want: f64) -> f64 {
        let mut routed = 0.0;
        let mut dist = vec![f64::INFINITY; self.n];
        let mut prev_edge = vec![usize::MAX; self.n];
        let mut moved = vec![false; self.n];
        while routed < want - EPS {
            // Bellman–Ford over the residual network.
            dist.fill(f64::INFINITY);
            prev_edge.fill(usize::MAX);
            moved.fill(false);
            dist[s] = 0.0;
            moved[s] = true;
            for _ in 0..self.n {
                let mut improved = false;
                for u in 0..self.n {
                    if !std::mem::take(&mut moved[u]) {
                        continue;
                    }
                    for &e in self.arcs.out(u) {
                        let v = self.arcs.to[e];
                        if self.cap[e] > EPS && dist[u] + self.cost[e] < dist[v] - 1e-12 {
                            dist[v] = dist[u] + self.cost[e];
                            prev_edge[v] = e;
                            moved[v] = true;
                            improved = true;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            if !dist[t].is_finite() {
                break; // no augmenting path
            }
            // Bottleneck along the path.
            let mut push = want - routed;
            let mut v = t;
            while v != s {
                let e = prev_edge[v];
                push = push.min(self.cap[e]);
                v = self.arcs.to[e ^ 1];
            }
            if push <= EPS {
                break;
            }
            let mut v = t;
            while v != s {
                let e = prev_edge[v];
                self.cap[e] -= push;
                self.cap[e ^ 1] += push;
                v = self.arcs.to[e ^ 1];
            }
            routed += push;
        }
        routed
    }

    fn flow_on(&self, edge_id: usize) -> f64 {
        // Flow equals the reverse edge's accumulated capacity.
        self.cap[edge_id ^ 1]
    }
}

// ---------------------------------------------------------------------
// Problem assembly
// ---------------------------------------------------------------------

/// One routing problem with every router at its position: its index in
/// `nodes`, the topology's real routers in ascending order.
struct Problem {
    nodes: Vec<RouterId>,
    /// `(from, to, capacity, metric)` of every real link with a
    /// provisioned capacity, in `(from, to)` order.
    links: Vec<(usize, usize, f64, Metric)>,
    sinks: Vec<usize>,
    demands: Vec<(usize, f64)>,
    total: f64,
}

fn assemble(
    topo: &Topology,
    prefix: Prefix,
    demands: &[(RouterId, f64)],
    capacities: &BTreeMap<(RouterId, RouterId), f64>,
) -> Result<Problem, OptError> {
    let nodes: Vec<RouterId> = topo.routers().collect();
    let pos = |r: RouterId| nodes.binary_search(&r).ok();
    let sinks: Vec<usize> = topo
        .all_announcements()
        .filter(|(r, p, _)| *p == prefix && r.is_real())
        .filter_map(|(r, _, _)| pos(r))
        .collect();
    if sinks.is_empty() {
        return Err(OptError::NoSink(prefix));
    }
    // `all_links` and `capacities` both run in `(from, to)` order, so
    // one walk down the capacities finds every link's.
    let mut caps = capacities.iter().peekable();
    let mut links = Vec::new();
    for (from, to, metric) in topo.all_links() {
        if from.is_fake() || to.is_fake() {
            continue;
        }
        while caps.next_if(|(key, _)| **key < (from, to)).is_some() {}
        let Some((_, &cap)) = caps.next_if(|(key, _)| **key == (from, to)) else {
            continue; // links without provisioned capacity are unusable
        };
        let at = |r| pos(r).expect("a link names a router of the topology");
        links.push((at(from), at(to), cap, metric));
    }
    debug_assert!(links
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    let demands: Vec<(usize, f64)> = demands
        .iter()
        .filter(|(_, d)| *d > EPS)
        .filter_map(|&(r, d)| Some((pos(r)?, d)))
        .filter(|(i, _)| !sinks.contains(i))
        .collect();
    let total: f64 = demands.iter().map(|(_, d)| d).sum();
    Ok(Problem {
        nodes,
        links,
        sinks,
        demands,
        total,
    })
}

/// Tolerance on routed flow vs. total demand when deciding
/// feasibility (absolute, in traffic units — the historical value).
const FLOW_TOL: f64 = 1e-6;

/// A reusable min-max utilization solver for one assembled problem.
///
/// The Dinic network (link arcs, source arcs carrying the demands,
/// infinite sink arcs, in that order) is built **once**. A feasibility
/// probe at a utilization θ writes θ × capacity onto the link arcs,
/// clears the flow the previous probe left and runs one max-flow from
/// zero: the answer is a `bool`, and the value of a maximum flow does
/// not depend on where the augmentation started.
///
/// The min cut of the first max-flow in [`Self::theta_star`] (at
/// θ = 1) yields the analytic lower bound
/// `(total − cut_source_capacity) / cut_link_capacity ≤ θ*`, which
/// shrinks the bisection window before it starts. The same solver
/// answers both plain feasibility questions ([`Self::is_feasible`])
/// and the optimum ([`Self::theta_star`], cached), so callers such as
/// [`plan_paths`] assemble the problem exactly once.
pub struct MinMaxSolver {
    p: Problem,
    net: Dinic,
    s: usize,
    t: usize,
    /// Memoized optimum.
    theta_star: Option<f64>,
}

impl MinMaxSolver {
    /// Assemble the flow network for routing `demands` toward `prefix`
    /// over `topo` with per-link `capacities`. Fails with
    /// [`OptError::NoSink`] when nothing announces the prefix.
    pub fn new(
        topo: &Topology,
        prefix: Prefix,
        demands: &[(RouterId, f64)],
        capacities: &BTreeMap<(RouterId, RouterId), f64>,
    ) -> Result<MinMaxSolver, OptError> {
        let p = assemble(topo, prefix, demands, capacities)?;
        let n = p.nodes.len();
        let (s, t) = (n, n + 1);
        let arcs: Vec<(usize, usize, f64)> = p
            .links
            .iter()
            .map(|&(u, v, cap, _)| (u, v, cap))
            .chain(p.demands.iter().map(|&(src, d)| (s, src, d)))
            .chain(p.sinks.iter().map(|&sink| (sink, t, f64::INFINITY)))
            .collect();
        Ok(MinMaxSolver {
            net: Dinic::new(n + 2, &arcs),
            p,
            s,
            t,
            theta_star: None,
        })
    }

    /// Total demand of the assembled problem (traffic units).
    pub fn total_demand(&self) -> f64 {
        self.p.total
    }

    /// The assembled problem (shared with `plan_paths`).
    fn problem(&self) -> &Problem {
        &self.p
    }

    /// Can all demand be routed with every link at or below `theta`
    /// utilization? One max-flow from zero flow on the kept network.
    pub fn is_feasible(&mut self, theta: f64) -> bool {
        let _span = fib_trace::span(fib_trace::Phase::SolverProbe);
        if self.p.total <= EPS {
            return true;
        }
        self.reset_flow(theta);
        self.net.max_flow(self.s, self.t) >= self.p.total - FLOW_TOL
    }

    /// Drop all routed flow and set every link arc to `theta` × its
    /// capacity. Link i is arc 2i, demand j arc 2(links + j), and the
    /// sink arcs follow.
    fn reset_flow(&mut self, theta: f64) {
        let scaled = self.p.links.iter().map(|l| theta * l.2);
        let demands = self.p.demands.iter().map(|d| d.1);
        let sinks = self.p.sinks.iter().map(|_| f64::INFINITY);
        let caps = self.net.cap.chunks_exact_mut(2);
        for (pair, c) in caps.zip(scaled.chain(demands).chain(sinks)) {
            pair[0] = c;
            pair[1] = 0.0;
        }
    }

    /// Source-arc and (unscaled) link-arc capacity crossing the min
    /// cut left behind by the last max-flow run.
    fn min_cut_parts(&self) -> (f64, f64) {
        let reachable = |node: usize| self.net.level[node] >= 0;
        let mut cut_src = 0.0;
        for &(src, d) in &self.p.demands {
            if !reachable(src) {
                cut_src += d;
            }
        }
        let mut cut_links = 0.0;
        for &(u, v, cap, _) in &self.p.links {
            if reachable(u) && !reachable(v) {
                cut_links += cap;
            }
        }
        (cut_src, cut_links)
    }

    /// The optimal min-max utilization θ* (memoized). Errors with
    /// [`OptError::Disconnected`] when some demand cannot reach the
    /// sink at any utilization.
    pub fn theta_star(&mut self) -> Result<f64, OptError> {
        if let Some(t) = self.theta_star {
            return Ok(t);
        }
        if self.p.total <= EPS {
            self.theta_star = Some(0.0);
            return Ok(0.0);
        }
        // One max-flow at θ = 1 seeds both the bisection window and
        // the analytic cut bound: every cut must satisfy
        // `cut_src + θ·cut_links ≥ total`.
        let feasible_at_one = self.is_feasible(1.0);
        let (cut_src, cut_links) = self.min_cut_parts();
        let bound = if cut_links > EPS {
            ((self.p.total - cut_src) / cut_links).max(0.0)
        } else {
            0.0
        };
        let (mut lo, mut hi);
        if feasible_at_one {
            hi = 1.0;
            lo = bound.min(1.0);
        } else {
            if cut_links <= EPS {
                // The binding cut has no link arcs: some demand can
                // never reach the sink, at any θ.
                return Err(OptError::Disconnected);
            }
            // Any θ below the cut bound is infeasible, so the window
            // starts there (θ = 1 was just probed infeasible too).
            lo = bound.max(1.0);
            let mut cand = lo;
            let mut grown = 0;
            loop {
                if self.is_feasible(cand) {
                    hi = cand;
                    break;
                }
                lo = cand;
                cand *= 2.0;
                grown += 1;
                if grown > 64 {
                    return Err(OptError::Disconnected);
                }
            }
        }
        for _ in 0..100 {
            if hi - lo <= 1e-9 * hi.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if self.is_feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.theta_star = Some(hi);
        Ok(hi)
    }
}

/// Optimal min-max utilization θ* for routing `demands` toward
/// `prefix` (fractional, splittable flow). This is the paper's cited
/// lower bound. Convenience wrapper over [`MinMaxSolver`]; callers
/// with several questions about one problem should hold the solver.
pub fn min_max_theta(
    topo: &Topology,
    prefix: Prefix,
    demands: &[(RouterId, f64)],
    capacities: &BTreeMap<(RouterId, RouterId), f64>,
) -> Result<f64, OptError> {
    MinMaxSolver::new(topo, prefix, demands, capacities)?.theta_star()
}

/// Compute a forwarding plan keeping every link at or below
/// `target_util`, preferring short (IGP-cheap) paths; falls back to
/// the best achievable utilization when the budget is infeasible (the
/// congestion is then unavoidable but minimized).
pub fn plan_paths(
    topo: &Topology,
    prefix: Prefix,
    demands: &[(RouterId, f64)],
    capacities: &BTreeMap<(RouterId, RouterId), f64>,
    target_util: f64,
    slot_budget: u32,
) -> Result<PathPlan, OptError> {
    assert!(target_util > 0.0);
    let mut solver = MinMaxSolver::new(topo, prefix, demands, capacities)?;
    let mut dag = WeightedDag::new(prefix);
    if solver.total_demand() <= EPS {
        return Ok(PathPlan {
            theta_used: 0.0,
            max_util: 0.0,
            dag,
            loads: BTreeMap::new(),
        });
    }

    // Choose θ: the budget if feasible, else the min-max optimum
    // (slightly padded for numerical safety). One solver answers both
    // questions on one assembled network.
    let theta = if solver.is_feasible(target_util) {
        target_util
    } else {
        solver.theta_star()? * (1.0 + 1e-6)
    };
    let p = solver.problem();

    // Min-cost flow at θ, on the solver's arcs in the solver's order:
    // link i is arc 2i.
    let n = p.nodes.len();
    let (s, t) = (n, n + 1);
    let arcs: Vec<(usize, usize, f64, f64)> = p
        .links
        .iter()
        .map(|&(u, v, cap, metric)| (u, v, theta * cap, metric.0 as f64))
        .chain(p.demands.iter().map(|&(src, d)| (s, src, d, 0.0)))
        .chain(p.sinks.iter().map(|&sink| (sink, t, f64::INFINITY, 0.0)))
        .collect();
    let mut mcmf = Mcmf::new(n + 2, &arcs);
    let routed = mcmf.run(s, t, p.total);
    if routed < p.total - FLOW_TOL {
        return Err(OptError::Infeasible {
            needed_theta: theta,
        });
    }

    // Per-link loads, in `(from, to)` order like the links.
    let used: Vec<(usize, usize, f64, f64)> = p
        .links
        .iter()
        .enumerate()
        .map(|(i, &(u, v, cap, _))| (u, v, mcmf.flow_on(2 * i), cap))
        .filter(|l| l.2 > 1e-6)
        .collect();
    let max_util = used.iter().fold(0.0f64, |m, l| m.max(l.2 / l.3));
    let loads: BTreeMap<(RouterId, RouterId), f64> = used
        .iter()
        .map(|&(u, v, f, _)| ((p.nodes[u], p.nodes[v]), f))
        .collect();

    // Group out-flows per router, prune slivers, round to slots.
    let mut rest = used.as_slice();
    while let Some(first) = rest.first() {
        let (flows, tail) = rest.split_at(rest.iter().take_while(|l| l.0 == first.0).count());
        rest = tail;
        let total: f64 = flows.iter().map(|l| l.2).sum();
        if total <= 1e-6 {
            continue;
        }
        // Prune next-hops below 5% of the router's traffic (a lie per
        // sliver is not worth the FIB slot), then renormalize.
        let kept: Vec<(RouterId, f64)> = flows
            .iter()
            .filter(|l| l.2 / total >= 0.05)
            .map(|l| (p.nodes[l.1], l.2))
            .collect();
        let kept_total: f64 = kept.iter().map(|(_, f)| f).sum();
        let fractions: Vec<f64> = kept.iter().map(|(_, f)| f / kept_total).collect();
        let plan = plan_split(&fractions, slot_budget.max(kept.len() as u32))
            .expect("fractions are normalized and positive");
        let hops: Vec<(RouterId, u32)> = kept
            .iter()
            .zip(plan.weights.iter())
            .map(|((nh, _), w)| (*nh, *w))
            .collect();
        dag.require(p.nodes[flows[0].0], &hops);
    }

    Ok(PathPlan {
        theta_used: theta,
        max_util,
        dag,
        loads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::types::Metric;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// The paper's demo topology (Fig. 1a).
    /// A=1, B=2, R1=3, R2=4, R3=5, R4=6, C=7. Unlabeled weights are 1;
    /// B–R3, A–R1, R1–R4, R4–C carry weight 2.
    fn paper_topo() -> (Topology, Prefix) {
        let mut t = Topology::new();
        for i in 1..=7 {
            t.add_router(r(i));
        }
        let links = [
            (1, 2, 1), // A-B
            (2, 4, 1), // B-R2
            (4, 7, 1), // R2-C
            (2, 5, 2), // B-R3
            (5, 7, 1), // R3-C
            (1, 3, 2), // A-R1
            (3, 6, 2), // R1-R4
            (6, 7, 2), // R4-C
        ];
        for (a, b, m) in links {
            t.add_link_sym(r(a), r(b), Metric(m)).unwrap();
        }
        let blue = Prefix::net24(1);
        t.announce_prefix(r(7), blue, Metric::ZERO).unwrap();
        (t, blue)
    }

    fn caps_all(topo: &Topology, c: f64) -> BTreeMap<(RouterId, RouterId), f64> {
        topo.all_links().map(|(a, b, _)| ((a, b), c)).collect()
    }

    #[test]
    fn min_max_matches_paper_fig1d() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        // 100 units from A and 100 from B (Fig. 1b/1d).
        let theta = min_max_theta(&t, blue, &[(r(1), 100.0), (r(2), 100.0)], &caps).unwrap();
        // Fig. 1d achieves max load 66.7/100; the fractional optimum
        // is exactly 2/3 (200 units over three unit-capacity cuts).
        assert!((theta - 2.0 / 3.0).abs() < 1e-3, "theta {theta}");
    }

    #[test]
    fn plan_paths_reproduces_fig1d_splits() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        let plan = plan_paths(&t, blue, &[(r(1), 100.0), (r(2), 100.0)], &caps, 0.70, 8).unwrap();
        // A (=r1) splits 1/3 via B, 2/3 via R1 — the paper's uneven
        // split realized with 3 slots.
        let fr_a = plan.dag.fractions(r(1));
        assert!((fr_a[&r(2)] - 1.0 / 3.0).abs() < 0.15, "A via B: {fr_a:?}");
        assert!((fr_a[&r(3)] - 2.0 / 3.0).abs() < 0.15, "A via R1: {fr_a:?}");
        // B splits ~50/50 over R2 and R3 (the fB lie).
        let fr_b = plan.dag.fractions(r(2));
        assert!((fr_b[&r(4)] - 0.5).abs() < 0.15, "B via R2: {fr_b:?}");
        assert!((fr_b[&r(5)] - 0.5).abs() < 0.15, "B via R3: {fr_b:?}");
        assert!(plan.max_util <= 0.70 + 1e-6);
        assert_eq!(plan.dag.find_internal_loop(), None);
    }

    #[test]
    fn single_source_spills_to_second_path_only() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        // Only B sends (the demo at t=15): 100 units, budget 0.7 →
        // B must split over R2 and R3 but A's long path is untouched.
        let plan = plan_paths(&t, blue, &[(r(2), 100.0)], &caps, 0.70, 8).unwrap();
        assert!(plan.dag.hops(r(2)).is_some(), "B constrained");
        assert!(
            !plan.loads.contains_key(&(r(1), r(3))),
            "A–R1 must stay idle: {:?}",
            plan.loads
        );
        let fr_b = plan.dag.fractions(r(2));
        assert!(fr_b.contains_key(&r(4)) && fr_b.contains_key(&r(5)));
    }

    #[test]
    fn fits_on_shortest_path_when_demand_is_small() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        let plan = plan_paths(&t, blue, &[(r(2), 30.0)], &caps, 0.70, 8).unwrap();
        // All of B's traffic on B–R2–C; single next-hop, no split.
        let fr_b = plan.dag.fractions(r(2));
        assert_eq!(fr_b.len(), 1);
        assert!((fr_b[&r(4)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_budget_falls_back_to_min_max() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        // 200 units can't fit below θ=0.5; plan falls back to θ*≈2/3.
        let plan = plan_paths(&t, blue, &[(r(1), 100.0), (r(2), 100.0)], &caps, 0.5, 8).unwrap();
        assert!(plan.theta_used > 0.6 && plan.theta_used < 0.7);
    }

    #[test]
    fn no_sink_is_an_error() {
        let (t, _) = paper_topo();
        let caps = caps_all(&t, 100.0);
        let missing = Prefix::net24(99);
        assert!(matches!(
            min_max_theta(&t, missing, &[(r(1), 10.0)], &caps),
            Err(OptError::NoSink(_))
        ));
    }

    #[test]
    fn zero_demand_trivially_ok() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        let theta = min_max_theta(&t, blue, &[], &caps).unwrap();
        assert_eq!(theta, 0.0);
        let plan = plan_paths(&t, blue, &[], &caps, 0.7, 8).unwrap();
        assert!(plan.dag.entries.is_empty());
    }

    #[test]
    fn demand_beyond_capacity_reports_needed_theta() {
        // Line 1-2 with capacity 10, demand 100: θ*=10.
        let mut t = Topology::new();
        t.add_router(r(1));
        t.add_router(r(2));
        t.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        let blue = Prefix::net24(1);
        t.announce_prefix(r(2), blue, Metric::ZERO).unwrap();
        let caps = caps_all(&t, 10.0);
        let theta = min_max_theta(&t, blue, &[(r(1), 100.0)], &caps).unwrap();
        assert!((theta - 10.0).abs() < 1e-3);
    }

    #[test]
    fn solver_is_reusable_across_probes() {
        let (t, blue) = paper_topo();
        let caps = caps_all(&t, 100.0);
        let mut solver =
            MinMaxSolver::new(&t, blue, &[(r(1), 100.0), (r(2), 100.0)], &caps).unwrap();
        // Down, up, down again: no probe depends on the one before.
        assert!(!solver.is_feasible(0.5));
        assert!(solver.is_feasible(1.0));
        assert!(!solver.is_feasible(0.6));
        assert!(solver.is_feasible(0.7));
        let theta = solver.theta_star().unwrap();
        assert!((theta - 2.0 / 3.0).abs() < 1e-6, "theta {theta}");
        // Memoized and still consistent with later probes.
        assert_eq!(solver.theta_star().unwrap(), theta);
        assert!(solver.is_feasible(theta + 1e-3));
        assert!(!solver.is_feasible(theta - 1e-3));
    }

    /// θ* to the bit: `min_max_theta` and the θ and peak utilization
    /// `plan_paths` settles on below an infeasible-leaning budget, every
    /// link load of that plan and every requirement of its DAG (router,
    /// next hop, weight), over 400 seeded problems of 4–15 routers,
    /// folded into one digest. Any change to how probes are answered or
    /// how the min-cost flow picks among equal-cost paths has to leave
    /// it alone.
    #[test]
    fn theta_star_bits_are_pinned_over_400_seeded_problems() {
        use fib_trace::artifact::{fnv1a, FNV_OFFSET};
        let mut digest = FNV_OFFSET;
        for seed in 0..400u64 {
            let (topo, prefix, demands, caps) = equivalence::scenario(seed, 4 + (seed % 12) as u32);
            let theta = min_max_theta(&topo, prefix, &demands, &caps).expect("solvable");
            let plan = plan_paths(&topo, prefix, &demands, &caps, 0.5, 8).expect("plannable");
            for x in [theta, plan.theta_used, plan.max_util] {
                digest = fnv1a(digest, &x.to_bits().to_le_bytes());
            }
            for (&(u, v), load) in &plan.loads {
                for x in [u.0 as u64, v.0 as u64, load.to_bits()] {
                    digest = fnv1a(digest, &x.to_le_bytes());
                }
            }
            for (router, hops) in &plan.dag.entries {
                for &(nh, w) in hops {
                    for x in [router.0, nh.0, w] {
                        digest = fnv1a(digest, &x.to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(digest, 0xe757_655a_5ef2_f090, "digest {digest:#018x}");
    }

    /// The pre-solver implementation, kept verbatim as the oracle the
    /// solver is pinned against: a fresh Dinic network per bisection
    /// probe, doubling from θ = 1, 60 blind halvings of `[0, hi]`.
    mod fresh_reference {
        use super::super::*;

        fn feasible(p: &Problem, theta: f64) -> bool {
            if p.total <= EPS {
                return true;
            }
            let n = p.nodes.len();
            let (s, t) = (n, n + 1);
            let arcs: Vec<(usize, usize, f64)> = p
                .links
                .iter()
                .map(|&(u, v, cap, _)| (u, v, theta * cap))
                .chain(p.demands.iter().map(|&(src, d)| (s, src, d)))
                .chain(p.sinks.iter().map(|&sink| (sink, t, f64::INFINITY)))
                .collect();
            Dinic::new(n + 2, &arcs).max_flow(s, t) >= p.total - 1e-6
        }

        pub fn min_max_theta(
            topo: &Topology,
            prefix: Prefix,
            demands: &[(RouterId, f64)],
            capacities: &BTreeMap<(RouterId, RouterId), f64>,
        ) -> Result<f64, OptError> {
            let p = assemble(topo, prefix, demands, capacities)?;
            if p.total <= EPS {
                return Ok(0.0);
            }
            let mut hi = 1.0;
            let mut doubled = 0;
            while !feasible(&p, hi) {
                hi *= 2.0;
                doubled += 1;
                if doubled > 24 {
                    return Err(OptError::Disconnected);
                }
            }
            let mut lo = 0.0;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if feasible(&p, mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Ok(hi)
        }
    }

    mod equivalence {
        use super::*;
        use fib_igp::builders::random_connected;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        pub(super) type Scenario = (
            Topology,
            Prefix,
            Vec<(RouterId, f64)>,
            BTreeMap<(RouterId, RouterId), f64>,
        );

        /// A seeded random problem: connected topology, one sink,
        /// 1–3 demand sources, heterogeneous capacities.
        pub(super) fn scenario(seed: u64, n: u32) -> Scenario {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut topo = random_connected(&mut rng, n, n / 2, 4);
            let routers: Vec<RouterId> = topo.routers().collect();
            let sink = routers[rng.gen_range(0..routers.len())];
            let prefix = Prefix::net24(1);
            topo.announce_prefix(sink, prefix, Metric::ZERO).unwrap();
            let n_dem = rng.gen_range(1..=3usize);
            let mut demands: Vec<(RouterId, f64)> = Vec::new();
            while demands.len() < n_dem.min(routers.len() - 1) {
                let s = routers[rng.gen_range(0..routers.len())];
                if s != sink && !demands.iter().any(|(r, _)| *r == s) {
                    demands.push((s, rng.gen_range(20.0..250.0)));
                }
            }
            let caps: BTreeMap<(RouterId, RouterId), f64> = topo
                .all_links()
                .map(|(a, b, _)| ((a, b), rng.gen_range(40.0..160.0)))
                .collect();
            (topo, prefix, demands, caps)
        }

        /// Runs `check` on `n` cases, each on its own seeded generator,
        /// and names the case and seed that fail.
        fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
            for case in 0..n {
                let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let run =
                    catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
                assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
            }
        }

        /// The solver's θ* matches the fresh-bisection oracle within
        /// 1e-6 on seeded random topologies.
        #[test]
        fn solver_matches_fresh_bisection() {
            cases(64, |rng| {
                let (seed, n) = (rng.gen_range(0..4000), rng.gen_range(4..16));
                let (topo, prefix, demands, caps) = scenario(seed, n);
                let fresh = fresh_reference::min_max_theta(&topo, prefix, &demands, &caps);
                let fast = min_max_theta(&topo, prefix, &demands, &caps);
                match (fresh, fast) {
                    (Ok(a), Ok(b)) => {
                        assert!(
                            (a - b).abs() <= 1e-6 * a.max(1.0),
                            "fresh {a} vs solver {b}"
                        );
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                    (a, b) => panic!("diverged: fresh {a:?} vs solver {b:?}"),
                }
            });
        }

        /// Probes on the kept network, in any order of θ, agree with
        /// fresh feasibility at unambiguous θ values around θ*.
        #[test]
        fn probes_in_any_order_match_known_optimum() {
            cases(64, |rng| {
                let (seed, n) = (rng.gen_range(0..4000), rng.gen_range(4..12));
                let (topo, prefix, demands, caps) = scenario(seed, n);
                let Ok(star) = fresh_reference::min_max_theta(&topo, prefix, &demands, &caps)
                else {
                    return;
                };
                let mut solver = MinMaxSolver::new(&topo, prefix, &demands, &caps).unwrap();
                // Zig-zag: each probe must forget the flow of the last.
                for (k, expect) in [
                    (2.0, true),
                    (0.5, false),
                    (1.5, true),
                    (0.8, false),
                    (1.1, true),
                    (0.9, false),
                ] {
                    let got = solver.is_feasible(k * star);
                    assert!(got == expect, "probe at {k}·θ* (θ* = {star}): {got}");
                }
                let solved = solver.theta_star().unwrap();
                assert!((solved - star).abs() <= 1e-6 * star.max(1.0));
            });
        }
    }
}
