//! An MPLS RSVP-TE baseline: explicit-route tunnels with bandwidth
//! reservations.
//!
//! Section 2 of the paper argues that RSVP-TE *can* react to flash
//! crowds but "introduces overhead on both the control and data
//! planes, by establishing a potentially-high number of tunnels,
//! encapsulating packets, and performing stateful uneven
//! load-balancing". This module implements enough of RSVP-TE to
//! quantify those claims:
//!
//! * **CSPF** — constrained shortest path over residual bandwidth;
//! * **signalling** — Path/Resv messages per hop at setup, periodic
//!   soft-state refreshes;
//! * **state** — per-hop path+reservation soft state and one label per
//!   hop per tunnel;
//! * **data plane** — label stack encapsulation bytes per packet and
//!   per-ingress stateful split tables for unequal balancing.

use fib_igp::time::Dur;
use fib_igp::topology::Topology;
use fib_igp::types::{Metric, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// Bytes of one MPLS label stack entry.
pub const LABEL_BYTES: u64 = 4;

/// Tunnel identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TunnelId(pub u32);

/// An established tunnel.
#[derive(Debug, Clone)]
pub struct Tunnel {
    /// Identifier.
    pub id: TunnelId,
    /// Head-end router.
    pub ingress: RouterId,
    /// Tail-end router.
    pub egress: RouterId,
    /// Directed links traversed.
    pub path: Vec<(RouterId, RouterId)>,
    /// Reserved bandwidth (bytes/s).
    pub bw: f64,
}

impl Tunnel {
    /// Number of hops (links) of the tunnel.
    pub fn hops(&self) -> usize {
        self.path.len()
    }
}

/// Control-plane accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RsvpStats {
    /// Path messages sent (setup, one per hop per tunnel).
    pub path_msgs: u64,
    /// Resv messages sent (setup, one per hop per tunnel).
    pub resv_msgs: u64,
    /// Labels allocated (one per hop per tunnel).
    pub labels: u64,
    /// CSPF runs performed.
    pub cspf_runs: u64,
}

/// RSVP-TE errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RsvpError {
    /// No path with enough residual bandwidth exists.
    NoPath {
        /// Requested ingress.
        ingress: RouterId,
        /// Requested egress.
        egress: RouterId,
        /// Requested bandwidth.
        bw: f64,
    },
}

impl fmt::Display for RsvpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsvpError::NoPath {
                ingress,
                egress,
                bw,
            } => write!(f, "no path {ingress}->{egress} with {bw} B/s residual"),
        }
    }
}

impl std::error::Error for RsvpError {}

/// The RSVP-TE control plane for one network.
#[derive(Debug, Clone)]
pub struct RsvpTe {
    topo: Topology,
    capacities: BTreeMap<(RouterId, RouterId), f64>,
    reserved: BTreeMap<(RouterId, RouterId), f64>,
    tunnels: BTreeMap<TunnelId, Tunnel>,
    next_id: u32,
    /// Signalling counters.
    pub stats: RsvpStats,
}

impl RsvpTe {
    /// Build over a topology and per-directed-link capacities.
    pub fn new(topo: Topology, capacities: BTreeMap<(RouterId, RouterId), f64>) -> RsvpTe {
        RsvpTe {
            topo,
            capacities,
            reserved: BTreeMap::new(),
            tunnels: BTreeMap::new(),
            next_id: 0,
            stats: RsvpStats::default(),
        }
    }

    /// Residual bandwidth on a directed link.
    pub fn residual(&self, from: RouterId, to: RouterId) -> f64 {
        let cap = self.capacities.get(&(from, to)).copied().unwrap_or(0.0);
        cap - self.reserved.get(&(from, to)).copied().unwrap_or(0.0)
    }

    /// Constrained shortest path: IGP-metric shortest path using only
    /// links with `residual >= bw`.
    pub fn cspf(
        &mut self,
        ingress: RouterId,
        egress: RouterId,
        bw: f64,
    ) -> Option<Vec<(RouterId, RouterId)>> {
        self.stats.cspf_runs += 1;
        // Dijkstra over filtered links.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist: BTreeMap<RouterId, (Metric, Option<RouterId>)> = BTreeMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(ingress, (Metric::ZERO, None));
        heap.push(Reverse((Metric::ZERO, ingress)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist.get(&u).map(|(dd, _)| *dd != d).unwrap_or(true) {
                continue;
            }
            if u == egress {
                break;
            }
            for link in self.topo.links(u) {
                if link.to.is_fake() {
                    continue;
                }
                if self.residual(u, link.to) + 1e-9 < bw {
                    continue;
                }
                let nd = d.add(link.metric);
                let better = dist.get(&link.to).map(|(dd, _)| nd < *dd).unwrap_or(true);
                if better {
                    dist.insert(link.to, (nd, Some(u)));
                    heap.push(Reverse((nd, link.to)));
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = egress;
        while cur != ingress {
            let (_, prev) = dist.get(&cur)?;
            let p = (*prev)?;
            path.push((p, cur));
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Establish a tunnel; signals Path+Resv per hop and allocates one
    /// label per hop.
    pub fn establish(
        &mut self,
        ingress: RouterId,
        egress: RouterId,
        bw: f64,
    ) -> Result<TunnelId, RsvpError> {
        let path = self.cspf(ingress, egress, bw).ok_or(RsvpError::NoPath {
            ingress,
            egress,
            bw,
        })?;
        if path.is_empty() {
            return Err(RsvpError::NoPath {
                ingress,
                egress,
                bw,
            });
        }
        for key in &path {
            *self.reserved.entry(*key).or_insert(0.0) += bw;
        }
        let hops = path.len() as u64;
        self.stats.path_msgs += hops;
        self.stats.resv_msgs += hops;
        self.stats.labels += hops;
        let id = TunnelId(self.next_id);
        self.next_id += 1;
        self.tunnels.insert(
            id,
            Tunnel {
                id,
                ingress,
                egress,
                path,
                bw,
            },
        );
        Ok(id)
    }

    /// Soft-state entries per router (path + resv state per tunnel
    /// traversing it, head and tail included).
    pub fn state_per_router(&self) -> BTreeMap<RouterId, usize> {
        let mut out: BTreeMap<RouterId, usize> = BTreeMap::new();
        for t in self.tunnels.values() {
            let mut routers: Vec<RouterId> = vec![t.ingress];
            routers.extend(t.path.iter().map(|(_, to)| *to));
            for r in routers {
                *out.entry(r).or_insert(0) += 2; // path + resv blocks
            }
        }
        out
    }

    /// Total soft-state entries network-wide.
    pub fn total_state(&self) -> usize {
        self.state_per_router().values().sum()
    }

    /// Refresh messages per second with the given soft-state refresh
    /// interval (Path and Resv both refresh per hop).
    pub fn refresh_msgs_per_sec(&self, interval: Dur) -> f64 {
        let hops: u64 = self.tunnels.values().map(|t| t.hops() as u64).sum();
        (2 * hops) as f64 / interval.as_secs_f64()
    }

    /// Data-plane encapsulation overhead fraction for `pkt_bytes`
    /// payload packets over a depth-1 label stack.
    pub fn encap_overhead_fraction(pkt_bytes: u64) -> f64 {
        LABEL_BYTES as f64 / (pkt_bytes + LABEL_BYTES) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Square: 1-2-4 (cheap) and 1-3-4 (expensive), caps 100.
    fn square() -> RsvpTe {
        let mut t = Topology::new();
        for i in 1..=4 {
            t.add_router(r(i));
        }
        t.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        t.add_link_sym(r(2), r(4), Metric(1)).unwrap();
        t.add_link_sym(r(1), r(3), Metric(2)).unwrap();
        t.add_link_sym(r(3), r(4), Metric(2)).unwrap();
        let caps = t.all_links().map(|(a, b, _)| ((a, b), 100.0)).collect();
        RsvpTe::new(t, caps)
    }

    #[test]
    fn cspf_prefers_cheap_path_with_room() {
        let mut te = square();
        let path = te.cspf(r(1), r(4), 50.0).unwrap();
        assert_eq!(path, vec![(r(1), r(2)), (r(2), r(4))]);
    }

    #[test]
    fn cspf_respects_reservations() {
        let mut te = square();
        te.establish(r(1), r(4), 80.0).unwrap();
        // Only 20 left on the cheap path; 50 must detour.
        let path = te.cspf(r(1), r(4), 50.0).unwrap();
        assert_eq!(path, vec![(r(1), r(3)), (r(3), r(4))]);
    }

    #[test]
    fn establish_counts_messages_and_labels() {
        let mut te = square();
        te.establish(r(1), r(4), 10.0).unwrap();
        assert_eq!(te.stats.path_msgs, 2);
        assert_eq!(te.stats.resv_msgs, 2);
        assert_eq!(te.stats.labels, 2);
        assert_eq!(te.total_state(), 6); // 3 routers × 2 blocks
    }

    #[test]
    fn oversubscription_is_rejected() {
        let mut te = square();
        te.establish(r(1), r(4), 100.0).unwrap();
        te.establish(r(1), r(4), 100.0).unwrap(); // takes the detour
        let err = te.establish(r(1), r(4), 10.0).unwrap_err();
        assert!(matches!(err, RsvpError::NoPath { .. }));
    }

    #[test]
    fn refresh_and_encap_overhead() {
        let mut te = square();
        te.establish(r(1), r(4), 10.0).unwrap();
        te.establish(r(1), r(4), 10.0).unwrap();
        // 2 tunnels × 2 hops × 2 (path+resv) / 30 s
        let rate = te.refresh_msgs_per_sec(Dur::from_secs(30));
        assert!((rate - 8.0 / 30.0).abs() < 1e-9);
        let f = RsvpTe::encap_overhead_fraction(1500);
        assert!((f - 4.0 / 1504.0).abs() < 1e-12);
    }
}
