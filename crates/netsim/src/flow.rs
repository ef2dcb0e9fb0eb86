//! Traffic flows.

use crate::ecmp::FlowKey;
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

/// Live state of a flow.
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
    /// Current allocated rate (bytes/s).
    pub rate: f64,
    /// Current path (directed links), `None` while unroutable.
    pub path: Option<Vec<LinkKey>>,
    /// The id, in the simulator's class table, of the same links as
    /// positions in its link arena under this flow's cap (`None` while
    /// unroutable): resolved with the path, moved with the cap, and
    /// never apart from either. What a settle stages, so that it
    /// probes no map, copies no list and searches no class.
    pub(crate) class: Option<u32>,
    /// Total bytes delivered so far (fluid integration).
    pub delivered: f64,
}

// The simulator keeps one `Option<Flow>` per flow ever started, and a
// settle walks the live ones: a wider record is paid per flow of a
// run's whole history in memory, and per live flow in every settle.
const _: () = assert!(
    std::mem::size_of::<Option<Flow>>() <= 112,
    "a flow record fits in 112 bytes"
);

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
            rate: 0.0,
            path: None,
            class: None,
            delivered: 0.0,
        };
        let info = f.info();
        assert_eq!(info.id, FlowId(3));
        assert_eq!(info.src, RouterId(1));
        assert_eq!(info.tag, 5);
        assert_eq!(format!("{}", f.id), "flow3");
    }
}
