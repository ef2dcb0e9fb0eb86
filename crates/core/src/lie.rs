//! Lies: the unit of Fibbing control.
//!
//! A [`Lie`] describes one fake node: where it attaches, what it
//! announces at what cost, and which forwarding address the attachment
//! router resolves it to. Lies compile 1:1 to fake LSAs
//! ([`fib_igp::lsa::LsaBody::Fake`]) and can be applied directly to a
//! [`Topology`] for offline planning/verification.
//!
//! [`LieAllocator`] hands out collision-free fake node ids and
//! secondary forwarding-address indexes (each lie at a given router
//! resolving to the same neighbor needs a distinct gateway address to
//! occupy its own ECMP slot).

use fib_igp::topology::{FakeAttrs, Topology};
use fib_igp::types::{FwAddr, Metric, Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// One fake node to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lie {
    /// Fake node identifier (in the fake id range).
    pub fake_id: RouterId,
    /// Real router the fake node hangs off.
    pub attach: RouterId,
    /// Metric of the directed `attach → fake` link.
    pub attach_metric: Metric,
    /// The prefix the lie announces.
    pub prefix: Prefix,
    /// Announcement metric at the fake node.
    pub prefix_metric: Metric,
    /// Gateway the fake next-hop resolves to at `attach`.
    pub fw: FwAddr,
}

impl Lie {
    /// The total cost of the prefix via this lie as seen at the
    /// attachment router.
    pub fn cost_at_attach(&self) -> Metric {
        self.attach_metric.add(self.prefix_metric)
    }

    /// The fake-node attributes to install into a topology.
    pub fn attrs(&self) -> FakeAttrs {
        FakeAttrs {
            attach: self.attach,
            attach_metric: self.attach_metric,
            prefix: self.prefix,
            prefix_metric: self.prefix_metric,
            fw: self.fw,
        }
    }

    /// Apply the lie to a topology (offline planning view).
    pub fn apply(&self, topo: &mut Topology) -> Result<(), fib_igp::error::TopologyError> {
        topo.add_fake_node(self.fake_id, self.attrs())
    }
}

impl fmt::Display for Lie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lie {}@{}: {} cost {} via {}",
            self.fake_id,
            self.attach,
            self.prefix,
            self.cost_at_attach(),
            self.fw
        )
    }
}

/// Apply a whole plan to a copy of the topology.
pub fn apply_all(topo: &Topology, lies: &[Lie]) -> Topology {
    let mut t = topo.clone();
    for lie in lies {
        lie.apply(&mut t).expect("lie must be applicable");
    }
    t
}

/// The arguments of one [`LieAllocator::make`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LieRequest {
    /// Real router the lie attaches to.
    pub attach: RouterId,
    /// Neighbor the lie's forwarding address belongs to.
    pub nexthop: RouterId,
    /// The prefix the lie announces.
    pub prefix: Prefix,
    /// Cost of the prefix via the lie, as seen at `attach`.
    pub total_cost: Metric,
}

/// `attach` has used up every secondary address of `nexthop`: one more
/// lie for this pair would have to reuse a gateway, and next-hop sets
/// deduplicate by gateway, so it would buy no ECMP slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrExhausted {
    /// Attachment router.
    pub attach: RouterId,
    /// Neighbor whose secondary addresses ran out.
    pub nexthop: RouterId,
}

impl fmt::Display for AddrExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} has no unused secondary address of {} left",
            self.attach, self.nexthop
        )
    }
}

impl std::error::Error for AddrExhausted {}

/// Allocates fake ids and secondary address indexes without collisions.
///
/// Every id and address it hands out is spent, whether or not the lie
/// is ever injected, and both show in the audit log — so a caller that
/// skips a computation whose outcome it already knows must still spend
/// what the computation would have. [`record`](Self::record) keeps the
/// requests a computation makes and [`replay`](Self::replay) spends the
/// same sequence again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LieAllocator {
    next_fake: u32,
    // (attach, fw router) → last secondary address index handed out
    // (0, the primary address, is never handed out).
    last_addr: BTreeMap<(RouterId, RouterId), u16>,
    // Requests since `record`, while recording.
    recorded: Option<Vec<LieRequest>>,
}

impl LieAllocator {
    /// A fresh allocator.
    pub fn new() -> LieAllocator {
        LieAllocator::default()
    }

    /// An allocator whose fake ids start at `base` (to avoid clashing
    /// with lies injected by earlier plans still in the network).
    pub fn starting_at(base: u32) -> LieAllocator {
        LieAllocator {
            next_fake: base,
            ..LieAllocator::default()
        }
    }

    /// Index (within the fake range) of the id the next
    /// [`fake_id`](Self::fake_id) call hands out.
    pub fn next_fake_index(&self) -> u32 {
        self.next_fake
    }

    /// Next unused fake node id.
    pub fn fake_id(&mut self) -> RouterId {
        let id = RouterId::fake(self.next_fake);
        self.next_fake += 1;
        id
    }

    /// Next unused secondary address of `fw_router` for lies attached
    /// at `attach` (indexes start at 1; 0 is the primary address).
    pub fn fw_addr(
        &mut self,
        attach: RouterId,
        fw_router: RouterId,
    ) -> Result<FwAddr, AddrExhausted> {
        let last = self.last_addr.entry((attach, fw_router)).or_insert(0);
        *last = last.checked_add(1).ok_or(AddrExhausted {
            attach,
            nexthop: fw_router,
        })?;
        Ok(FwAddr::secondary(fw_router, *last))
    }

    /// Build a complete lie announcing `prefix` at `attach` with the
    /// given total cost (split 1 + rest between link and announcement)
    /// resolving to a fresh secondary address of `nexthop`. A refused
    /// request spends nothing.
    pub fn make(
        &mut self,
        attach: RouterId,
        nexthop: RouterId,
        prefix: Prefix,
        total_cost: Metric,
    ) -> Result<Lie, AddrExhausted> {
        if let Some(log) = &mut self.recorded {
            log.push(LieRequest {
                attach,
                nexthop,
                prefix,
                total_cost,
            });
        }
        let fw = self.fw_addr(attach, nexthop)?;
        // Always 1 on the attach link; the remainder (saturating, so a
        // zero total cost stays well-formed) goes on the announcement.
        let attach_metric = Metric(1);
        let prefix_metric = total_cost.sub(attach_metric);
        Ok(Lie {
            fake_id: self.fake_id(),
            attach,
            attach_metric,
            prefix,
            prefix_metric,
            fw,
        })
    }

    /// Start keeping the requests [`make`](Self::make) receives
    /// (dropping any kept so far).
    pub fn record(&mut self) {
        self.recorded = Some(Vec::new());
    }

    /// Stop recording; the requests since [`record`](Self::record), in
    /// order, a refused one included.
    pub fn take_recorded(&mut self) -> Vec<LieRequest> {
        self.recorded.take().unwrap_or_default()
    }

    /// Make every lie of `requests` in order, stopping at the first
    /// refusal exactly as the computation that was recorded did.
    pub fn replay(&mut self, requests: &[LieRequest]) -> Result<Vec<Lie>, AddrExhausted> {
        requests
            .iter()
            .map(|q| self.make(q.attach, q.nexthop, q.prefix, q.total_cost))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    #[test]
    fn allocator_never_collides() {
        let mut a = LieAllocator::new();
        let f1 = a.fake_id();
        let f2 = a.fake_id();
        assert_ne!(f1, f2);
        assert!(f1.is_fake() && f2.is_fake());
        let w1 = a.fw_addr(r(1), r(2)).unwrap();
        let w2 = a.fw_addr(r(1), r(2)).unwrap();
        let w3 = a.fw_addr(r(3), r(2)).unwrap();
        assert_ne!(w1, w2);
        // Different attach routers may reuse indexes (different FIBs).
        assert_eq!(w3.addr, 1);
        assert!(w1.addr >= 1 && w2.addr >= 1);
    }

    #[test]
    fn make_splits_cost() {
        let mut a = LieAllocator::new();
        let lie = a.make(r(1), r(2), Prefix::net24(1), Metric(5)).unwrap();
        assert_eq!(lie.cost_at_attach(), Metric(5));
        assert_eq!(lie.attach_metric, Metric(1));
        assert_eq!(lie.prefix_metric, Metric(4));
        assert_eq!(lie.fw.router, r(2));
        assert!(lie.fw.addr >= 1);
    }

    #[test]
    fn make_handles_cost_one() {
        let mut a = LieAllocator::new();
        let lie = a.make(r(1), r(2), Prefix::net24(1), Metric(1)).unwrap();
        assert_eq!(lie.cost_at_attach(), Metric(1));
    }

    #[test]
    fn apply_installs_fake_node() {
        let mut topo = Topology::new();
        topo.add_router(r(1));
        topo.add_router(r(2));
        topo.add_link_sym(r(1), r(2), Metric(1)).unwrap();
        let mut a = LieAllocator::new();
        let lie = a.make(r(1), r(2), Prefix::net24(1), Metric(2)).unwrap();
        let augmented = apply_all(&topo, &[lie]);
        assert_eq!(augmented.fake_count(), 1);
        assert_eq!(
            augmented.fake_attrs(lie.fake_id).unwrap().cost_at_attach(),
            Metric(2)
        );
        assert!(format!("{lie}").contains("via r2#1"));
    }

    #[test]
    fn running_out_of_addresses_is_an_error_not_a_wrap() {
        let mut a = LieAllocator::new();
        let p = Prefix::net24(1);
        for k in 1..=u16::MAX {
            let lie = a.make(r(1), r(2), p, Metric(3)).expect("address left");
            assert_eq!(lie.fw, FwAddr::secondary(r(2), k));
        }
        // The next address would be #0: r2's primary, which a next-hop
        // set already holding it deduplicates away.
        let before = a.clone();
        assert_eq!(
            a.make(r(1), r(2), p, Metric(3)),
            Err(AddrExhausted {
                attach: r(1),
                nexthop: r(2)
            })
        );
        assert_eq!(a, before, "a refused request spends nothing");
        // Other pairs are unaffected.
        assert_eq!(a.make(r(1), r(3), p, Metric(3)).unwrap().fw.addr, 1);
        assert_eq!(a.make(r(2), r(1), p, Metric(3)).unwrap().fw.addr, 1);
    }

    #[test]
    fn replay_spends_what_the_recorded_calls_spent() {
        let p = Prefix::net24(1);
        let mut a = LieAllocator::starting_at(40);
        a.make(r(1), r(2), p, Metric(3)).unwrap(); // before recording
        a.record();
        let first = [
            a.make(r(1), r(2), p, Metric(3)).unwrap(),
            a.make(r(1), r(3), p, Metric(4)).unwrap(),
            a.make(r(1), r(2), p, Metric(3)).unwrap(),
        ];
        let requests = a.take_recorded();
        assert_eq!(requests.len(), 3);
        assert!(a.take_recorded().is_empty(), "recording stopped");

        // The same requests later: fresh ids and addresses, same shape.
        let mut b = a.clone();
        let again = b.replay(&requests).unwrap();
        let by_hand = [
            a.make(r(1), r(2), p, Metric(3)).unwrap(),
            a.make(r(1), r(3), p, Metric(4)).unwrap(),
            a.make(r(1), r(2), p, Metric(3)).unwrap(),
        ];
        assert_eq!(again, by_hand);
        assert_eq!(a, b, "replay leaves the allocator where the calls do");
        assert_eq!(again[0].fake_id, RouterId::fake(44));
        assert_eq!(again[0].fw, FwAddr::secondary(r(2), 4));
        assert_ne!(again[0], first[0]);
    }

    #[test]
    fn starting_at_skips_ids() {
        let mut a = LieAllocator::starting_at(100);
        assert_eq!(a.fake_id(), RouterId::fake(100));
    }
}
