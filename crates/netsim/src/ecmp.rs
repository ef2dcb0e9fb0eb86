//! Deterministic ECMP flow hashing.
//!
//! Routers hash a flow key over their ECMP next-hop slots. Two
//! properties matter for the reproduction:
//!
//! * **per-router independence** — real routers perturb the hash with a
//!   router-specific seed so consecutive hops don't correlate (the
//!   classic ECMP polarization problem); we mix the router id in;
//! * **slot granularity** — uneven Fibbing splits appear because the
//!   same next-hop can occupy several slots (distinct forwarding
//!   addresses). The hash picks a *slot*; the slot maps to a gateway.

use fib_igp::types::{Prefix, RouterId};
use fib_trace::artifact::{fnv1a, FNV_OFFSET};

/// Identity of one transport flow (the simulator's 5-tuple stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Ingress router of the flow.
    pub src: RouterId,
    /// Destination prefix.
    pub dst: Prefix,
    /// Flow discriminator (models src/dst ports).
    pub id: u64,
}

/// Hash a flow at a router into one of `slots` ECMP slots: FNV-1a over
/// the router id and the flow key.
///
/// Panics if `slots == 0` (a router never hashes over an empty
/// next-hop set — that is a forwarding bug upstream).
pub fn slot_for(router: RouterId, flow: &FlowKey, slots: usize) -> usize {
    assert!(slots > 0, "ECMP hash over zero slots");
    let mut h = fnv1a(FNV_OFFSET, &router.0.to_be_bytes());
    h = fnv1a(h, &flow.src.0.to_be_bytes());
    h = fnv1a(h, &flow.dst.addr().to_be_bytes());
    h = fnv1a(h, &[flow.dst.len()]);
    h = fnv1a(h, &flow.id.to_be_bytes());
    (h % slots as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64) -> FlowKey {
        FlowKey {
            src: RouterId(1),
            dst: Prefix::net24(1),
            id,
        }
    }

    #[test]
    fn deterministic() {
        let a = slot_for(RouterId(2), &key(7), 3);
        let b = slot_for(RouterId(2), &key(7), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn routers_decorrelate() {
        // The same flow set must not map identically at two routers
        // (anti-polarization). With 64 flows over 2 slots the chance of
        // identical mappings by luck is 2^-64.
        let flows: Vec<FlowKey> = (0..64).map(key).collect();
        let at_r2: Vec<usize> = flows.iter().map(|f| slot_for(RouterId(2), f, 2)).collect();
        let at_r3: Vec<usize> = flows.iter().map(|f| slot_for(RouterId(3), f, 2)).collect();
        assert_ne!(at_r2, at_r3);
    }

    #[test]
    fn dispersion_is_roughly_uniform() {
        let slots = 3;
        let mut counts = vec![0usize; slots];
        for id in 0..3000 {
            counts[slot_for(RouterId(5), &key(id), slots)] += 1;
        }
        for c in &counts {
            // Expect ~1000 each; allow ±15%.
            assert!(
                (850..=1150).contains(c),
                "skewed ECMP dispersion: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero slots")]
    fn zero_slots_panics() {
        let _ = slot_for(RouterId(1), &key(0), 0);
    }
}
