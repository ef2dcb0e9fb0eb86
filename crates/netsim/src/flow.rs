//! Traffic flows.

use crate::ecmp::FlowKey;
use crate::fluid::STOPPED;
use crate::link::LinkKey;
use fib_igp::time::Timestamp;
use fib_igp::types::{Prefix, RouterId};

/// Opaque flow identifier assigned by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Parameters of a flow to start.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Ingress router.
    pub src: RouterId,
    /// Destination prefix.
    pub dst: Prefix,
    /// Application rate cap in bytes/s (`None` = network-limited).
    pub cap: Option<f64>,
    /// Optional explicit hash discriminator; the simulator assigns a
    /// unique one if absent. Distinct discriminators model distinct
    /// transport ports.
    pub hash_id: Option<u64>,
    /// Opaque user tag (e.g. a video session id).
    pub tag: u64,
}

impl FlowSpec {
    /// A network-limited flow.
    pub fn new(src: RouterId, dst: Prefix) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            cap: None,
            hash_id: None,
            tag: 0,
        }
    }

    /// Set an application rate cap.
    pub fn with_cap(mut self, cap: f64) -> FlowSpec {
        self.cap = Some(cap);
        self
    }

    /// Set the hash discriminator.
    pub fn with_hash_id(mut self, id: u64) -> FlowSpec {
        self.hash_id = Some(id);
        self
    }

    /// Set the user tag.
    pub fn with_tag(mut self, tag: u64) -> FlowSpec {
        self.tag = tag;
        self
    }
}

/// Live state of a flow: what is read where it is resolved, capped,
/// indexed and reported. What a settle reads and writes of it is kept
/// apart, in `FlowColumns`; no byte count is kept.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Identifier.
    pub id: FlowId,
    /// Hash key (src, dst, discriminator).
    pub key: FlowKey,
    /// Application rate cap.
    pub cap: Option<f64>,
    /// User tag.
    pub tag: u64,
    /// Start time.
    pub started_at: Timestamp,
    /// Current path (directed links), `None` while unroutable.
    pub path: Option<Vec<LinkKey>>,
}

// The simulator keeps one `Option<Flow>` per flow ever started: a
// wider record is paid per flow of a run's whole history in memory.
const _: () = assert!(
    std::mem::size_of::<Option<Flow>>() <= 88,
    "a flow record fits in 88 bytes"
);

/// Every flow's hot state, one entry per slot of the simulator's flow
/// arena (indexed like it, by `FlowId`): what a settle reads and
/// writes. Kept apart from the [`Flow`] records, so that its passes
/// stream a few bytes a flow, not a record.
#[derive(Debug, Default)]
pub(crate) struct FlowColumns {
    /// The flow's class id in the simulator's class table — its path's
    /// links under its cap —, resolved with the path and moved with the
    /// cap; [`UNROUTED`](crate::fluid::UNROUTED) while it has no usable path, [`STOPPED`] for a
    /// slot that holds no live flow.
    pub(crate) class: Vec<u32>,
    /// Current allocated rate (bytes/s): 0.0 while unrouted.
    pub(crate) rate: Vec<f64>,
}

// What one slot costs across the two columns: paid per flow ever
// started, and streamed per live flow by every settle.
const _: () = assert!(
    std::mem::size_of::<u32>() + std::mem::size_of::<f64>() <= 12,
    "a flow's hot row fits in 12 bytes"
);

impl FlowColumns {
    /// One entry per slot up to `slots`, new ones empty.
    pub(crate) fn grow(&mut self, slots: usize) {
        self.class.resize(slots, STOPPED);
        self.rate.resize(slots, 0.0);
    }

    /// Whether `slot` holds a live flow.
    pub(crate) fn live(&self, slot: usize) -> bool {
        self.class.get(slot).is_some_and(|c| *c != STOPPED)
    }
}

/// A live flow's rate as a settle left it, where it differs in any bit
/// from the rate before: the new rate holds from `at` until the flow's
/// next change (see [`SimContext::watch_rates`]).
///
/// [`SimContext::watch_rates`]: crate::context::SimContext::watch_rates
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateChange {
    /// The flow.
    pub flow: FlowId,
    /// The instant the new rate takes effect: the settle's.
    pub at: Timestamp,
    /// The new rate (bytes/s).
    pub rate: f64,
}

/// Summary handed to applications in flow notifications.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowInfo {
    /// Identifier.
    pub id: FlowId,
    /// Ingress router.
    pub src: RouterId,
    /// Destination prefix.
    pub dst: Prefix,
    /// Application rate cap.
    pub cap: Option<f64>,
    /// User tag.
    pub tag: u64,
}

impl Flow {
    /// The notification summary for this flow.
    pub fn info(&self) -> FlowInfo {
        FlowInfo {
            id: self.id,
            src: self.key.src,
            dst: self.key.dst,
            cap: self.cap,
            tag: self.tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_chain() {
        let s = FlowSpec::new(RouterId(1), Prefix::net24(2))
            .with_cap(125_000.0)
            .with_hash_id(42)
            .with_tag(7);
        assert_eq!(s.cap, Some(125_000.0));
        assert_eq!(s.hash_id, Some(42));
        assert_eq!(s.tag, 7);
    }

    #[test]
    fn flow_info_mirrors_flow() {
        let f = Flow {
            id: FlowId(3),
            key: FlowKey {
                src: RouterId(1),
                dst: Prefix::net24(2),
                id: 9,
            },
            cap: None,
            tag: 5,
            started_at: Timestamp::ZERO,
            path: None,
        };
        let info = f.info();
        assert_eq!(info.id, FlowId(3));
        assert_eq!(info.src, RouterId(1));
        assert_eq!(info.tag, 5);
        assert_eq!(format!("{}", f.id), "flow3");
    }
}
