//! Link-state advertisements.
//!
//! Three LSA kinds exist:
//!
//! * [`LsaBody::Router`] — a router's own view of its links (like OSPF
//!   type-1). Subject to the two-way check when building the topology.
//! * [`LsaBody::Prefix`] — a prefix attached to the originating router
//!   (like an OSPF stub network / type-5 without forwarding address).
//! * [`LsaBody::Fake`] — a Fibbing lie: describes a fake node, its
//!   attachment, announced prefix, and forwarding address. In a real
//!   deployment this is carried in type-5 LSAs with a forwarding
//!   address; we model the augmented-topology semantics directly while
//!   keeping the flooding/refresh/purge mechanics identical to real
//!   LSAs.

use crate::types::{FwAddr, Metric, Prefix, RouterId, SeqNum};
use std::fmt;

/// Maximum LSA age, in seconds. An LSA at `MAX_AGE` is being purged.
pub const MAX_AGE: u16 = 3600;

/// Discriminant for LSA kinds (also the wire encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LsaKind {
    /// Router links LSA.
    Router = 1,
    /// Prefix attachment LSA.
    Prefix = 2,
    /// Fibbing fake-node LSA.
    Fake = 3,
}

impl LsaKind {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<LsaKind> {
        match v {
            1 => Some(LsaKind::Router),
            2 => Some(LsaKind::Prefix),
            3 => Some(LsaKind::Fake),
            _ => None,
        }
    }
}

/// Identity of an LSA instance stream: who originated it, what kind,
/// and which of the originator's LSAs of that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LsaKey {
    /// Originating node (a fake node id for lies).
    pub origin: RouterId,
    /// Kind discriminant.
    pub kind: LsaKind,
    /// Originator-scoped identifier (e.g. one per announced prefix).
    pub id: u32,
}

impl fmt::Display for LsaKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:?}/{}", self.origin, self.kind, self.id)
    }
}

/// One link reported in a router LSA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsaLink {
    /// Neighbor router.
    pub to: RouterId,
    /// Metric toward the neighbor.
    pub metric: Metric,
}

/// LSA payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsaBody {
    /// The originator's links to its neighbors.
    Router {
        /// Reported adjacencies.
        links: Vec<LsaLink>,
    },
    /// A prefix attached at the originator.
    Prefix {
        /// The announced prefix.
        prefix: Prefix,
        /// Announcement metric.
        metric: Metric,
    },
    /// A Fibbing lie describing a complete fake node.
    Fake {
        /// Real router the fake node hangs off.
        attach: RouterId,
        /// Metric of the directed `attach → fake` link.
        attach_metric: Metric,
        /// Prefix announced by the fake node.
        prefix: Prefix,
        /// Announcement metric at the fake node.
        prefix_metric: Metric,
        /// Forwarding address resolving the fake next-hop at `attach`.
        fw: FwAddr,
    },
}

impl LsaBody {
    /// Kind discriminant of this body.
    pub fn kind(&self) -> LsaKind {
        match self {
            LsaBody::Router { .. } => LsaKind::Router,
            LsaBody::Prefix { .. } => LsaKind::Prefix,
            LsaBody::Fake { .. } => LsaKind::Fake,
        }
    }
}

/// A full LSA: key, freshness metadata, and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lsa {
    /// Identity of the LSA stream this instance belongs to.
    pub key: LsaKey,
    /// Sequence number (higher = fresher).
    pub seq: SeqNum,
    /// Age in seconds; [`MAX_AGE`] means "being purged".
    pub age: u16,
    /// Payload.
    pub body: LsaBody,
}

/// Compact header used in DBD/ACK packets and retransmit bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsaHeader {
    /// Identity.
    pub key: LsaKey,
    /// Sequence number.
    pub seq: SeqNum,
    /// Age in seconds.
    pub age: u16,
}

/// Relative freshness of two LSA instances of the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Left instance is fresher.
    Newer,
    /// Both instances are the same.
    Same,
    /// Left instance is stale.
    Older,
}

/// Compare freshness of `(seq_a, age_a)` against `(seq_b, age_b)`
/// following the RFC 2328 §13.1 rules (sequence number first, then
/// MaxAge beats non-MaxAge, then lower age within a tolerance is
/// considered the same instance).
pub fn compare_freshness(a_seq: SeqNum, a_age: u16, b_seq: SeqNum, b_age: u16) -> Freshness {
    if a_seq > b_seq {
        return Freshness::Newer;
    }
    if a_seq < b_seq {
        return Freshness::Older;
    }
    let a_max = a_age >= MAX_AGE;
    let b_max = b_age >= MAX_AGE;
    match (a_max, b_max) {
        (true, false) => Freshness::Newer,
        (false, true) => Freshness::Older,
        _ => Freshness::Same,
    }
}

impl Lsa {
    /// Header summary of this LSA.
    pub fn header(&self) -> LsaHeader {
        LsaHeader {
            key: self.key,
            seq: self.seq,
            age: self.age,
        }
    }

    /// `true` if this instance is a purge (MaxAge) instance.
    pub fn is_max_age(&self) -> bool {
        self.age >= MAX_AGE
    }

    /// Freshness of `self` relative to `other` (which must share the key).
    pub fn freshness_vs(&self, other: &Lsa) -> Freshness {
        debug_assert_eq!(self.key, other.key);
        compare_freshness(self.seq, self.age, other.seq, other.age)
    }

    /// Build a router LSA.
    pub fn router(origin: RouterId, seq: SeqNum, links: Vec<LsaLink>) -> Lsa {
        Lsa {
            key: LsaKey {
                origin,
                kind: LsaKind::Router,
                id: 0,
            },
            seq,
            age: 0,
            body: LsaBody::Router { links },
        }
    }

    /// Build a prefix LSA. `id` disambiguates multiple prefixes from the
    /// same originator.
    pub fn prefix(origin: RouterId, id: u32, seq: SeqNum, prefix: Prefix, metric: Metric) -> Lsa {
        Lsa {
            key: LsaKey {
                origin,
                kind: LsaKind::Prefix,
                id,
            },
            seq,
            age: 0,
            body: LsaBody::Prefix { prefix, metric },
        }
    }

    /// Build a fake-node LSA. The LSA is originated *by the fake node
    /// itself* (its id is in the fake range), which is what lets
    /// ordinary freshness/purge rules manage lies.
    pub fn fake(
        fake_id: RouterId,
        seq: SeqNum,
        attach: RouterId,
        attach_metric: Metric,
        prefix: Prefix,
        prefix_metric: Metric,
        fw: FwAddr,
    ) -> Lsa {
        debug_assert!(fake_id.is_fake());
        Lsa {
            key: LsaKey {
                origin: fake_id,
                kind: LsaKind::Fake,
                id: 0,
            },
            seq,
            age: 0,
            body: LsaBody::Fake {
                attach,
                attach_metric,
                prefix,
                prefix_metric,
                fw,
            },
        }
    }

    /// A MaxAge copy of this LSA, used to purge it network-wide.
    pub fn to_purge(&self) -> Lsa {
        let mut l = self.clone();
        l.age = MAX_AGE;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsa_with(seq: i32, age: u16) -> Lsa {
        Lsa {
            key: LsaKey {
                origin: RouterId(1),
                kind: LsaKind::Router,
                id: 0,
            },
            seq: SeqNum(seq),
            age,
            body: LsaBody::Router { links: vec![] },
        }
    }

    #[test]
    fn freshness_prefers_higher_seq() {
        let a = lsa_with(5, 100);
        let b = lsa_with(4, 0);
        assert_eq!(a.freshness_vs(&b), Freshness::Newer);
        assert_eq!(b.freshness_vs(&a), Freshness::Older);
    }

    #[test]
    fn freshness_max_age_beats_same_seq() {
        let purge = lsa_with(5, MAX_AGE);
        let live = lsa_with(5, 10);
        assert_eq!(purge.freshness_vs(&live), Freshness::Newer);
        assert_eq!(live.freshness_vs(&purge), Freshness::Older);
        assert_eq!(live.freshness_vs(&live), Freshness::Same);
    }

    #[test]
    fn purge_copy_is_max_age_and_newer_than_nothing_else() {
        let l = lsa_with(7, 12);
        let p = l.to_purge();
        assert!(p.is_max_age());
        assert_eq!(p.seq, l.seq);
        assert_eq!(p.freshness_vs(&l), Freshness::Newer);
    }

    #[test]
    fn constructors_fill_keys() {
        let r = Lsa::router(RouterId(3), SeqNum::INITIAL, vec![]);
        assert_eq!(r.key.kind, LsaKind::Router);
        let p = Lsa::prefix(RouterId(3), 2, SeqNum::INITIAL, Prefix::net24(1), Metric(0));
        assert_eq!(p.key.id, 2);
        let f = Lsa::fake(
            RouterId::fake(1),
            SeqNum::INITIAL,
            RouterId(3),
            Metric(1),
            Prefix::net24(1),
            Metric(1),
            FwAddr::secondary(RouterId(4), 1),
        );
        assert_eq!(f.key.kind, LsaKind::Fake);
        assert!(f.key.origin.is_fake());
    }

    #[test]
    fn lsa_kind_roundtrip() {
        for k in [LsaKind::Router, LsaKind::Prefix, LsaKind::Fake] {
            assert_eq!(LsaKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(LsaKind::from_u8(0), None);
        assert_eq!(LsaKind::from_u8(9), None);
    }
}
