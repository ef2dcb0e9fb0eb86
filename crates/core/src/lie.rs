//! Lies: the unit of Fibbing control.
//!
//! A [`Lie`] describes one fake node: where it attaches, what it
//! announces at what cost, and which forwarding address the attachment
//! router resolves it to. Lies compile 1:1 to fake LSAs
//! ([`fib_igp::lsa::LsaBody::Fake`]) and can be applied directly to a
//! [`Topology`] for offline planning/verification.
//!
//! What a lie *says* is [`Lie::sig`] and its prefix. Its *name* — the
//! fake node id, and the secondary address of the gateway that buys it
//! its own ECMP slot at the attachment router (next-hop sets
//! deduplicate by gateway address) — comes from a [`LieAllocator`] and
//! decides nothing but which slot is which. A plan needs names only to
//! be distinct within itself, so planning draws them from a fresh
//! allocator; the controller draws the names that reach the network
//! from its own, one per injected lie.

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

    /// The lie minus its name: attachment router, gateway router and
    /// cost at the attachment router. Two lies for one prefix with the
    /// same signature are interchangeable.
    pub fn sig(&self) -> (RouterId, RouterId, Metric) {
        (self.attach, self.fw.router, self.cost_at_attach())
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

/// Hands out names: fake ids, dense from `fake0`, and per (attachment
/// router, gateway) pair the secondary addresses `#1`, `#2`, … in order.
///
/// Nothing is handed out twice — a retracted lie's address can still be
/// in routers' tables when the next lie goes in — so a pair is good for
/// 65 535 lies, after which [`fw_addr`](Self::fw_addr) refuses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LieAllocator {
    next_fake: u32,
    // (attach, fw router) → last secondary address index handed out
    // (0, the primary address, is never handed out).
    last_addr: BTreeMap<(RouterId, RouterId), u16>,
}

impl LieAllocator {
    /// A fresh allocator.
    pub fn new() -> LieAllocator {
        LieAllocator::default()
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
}
