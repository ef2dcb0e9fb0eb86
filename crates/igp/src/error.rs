//! Error types for the IGP substrate.

use crate::types::{Prefix, RouterId};
use std::fmt;

/// Errors produced while manipulating topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The referenced router does not exist.
    UnknownRouter(RouterId),
    /// A link references a missing endpoint.
    UnknownEndpoint {
        /// Near end of the link.
        from: RouterId,
        /// Far end of the link.
        to: RouterId,
    },
    /// Attempt to add a duplicate directed link.
    DuplicateLink {
        /// Near end of the link.
        from: RouterId,
        /// Far end of the link.
        to: RouterId,
    },
    /// A fake node was given an attachment or forwarding address that is
    /// not a neighbor of the attachment router.
    InvalidForwardingAddress {
        /// The fake node.
        fake: RouterId,
        /// The attachment router.
        attach: RouterId,
    },
    /// A real-node operation was attempted on a fake node or vice versa.
    KindMismatch(RouterId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownRouter(r) => write!(f, "unknown router {r}"),
            TopologyError::UnknownEndpoint { from, to } => {
                write!(f, "link {from}->{to} references a missing endpoint")
            }
            TopologyError::DuplicateLink { from, to } => {
                write!(f, "duplicate link {from}->{to}")
            }
            TopologyError::InvalidForwardingAddress { fake, attach } => write!(
                f,
                "fake node {fake}: forwarding address is not a neighbor of {attach}"
            ),
            TopologyError::KindMismatch(r) => {
                write!(f, "operation does not apply to node {r} of this kind")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Errors produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown packet type byte.
    BadPacketType(u8),
    /// Unknown LSA kind byte.
    BadLsaKind(u8),
    /// The packet checksum did not verify.
    BadChecksum {
        /// Computed checksum.
        expect: u16,
        /// Checksum carried by the packet.
        got: u16,
    },
    /// A declared length field is inconsistent with the buffer.
    BadLength {
        /// Length the header declared.
        declared: usize,
        /// Length actually present.
        actual: usize,
    },
    /// A prefix length field exceeded 32.
    BadPrefixLen(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated packet: need {need} bytes, have {have}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadPacketType(t) => write!(f, "unknown packet type {t:#x}"),
            WireError::BadLsaKind(k) => write!(f, "unknown LSA kind {k:#x}"),
            WireError::BadChecksum { expect, got } => {
                write!(
                    f,
                    "packet checksum mismatch: expected {expect:#06x}, got {got:#06x}"
                )
            }
            WireError::BadLength { declared, actual } => {
                write!(f, "bad length field: declared {declared}, actual {actual}")
            }
            WireError::BadPrefixLen(l) => write!(f, "prefix length {l} exceeds 32"),
        }
    }
}

impl std::error::Error for WireError {}

/// Errors produced by a protocol instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// The referenced interface does not exist on this instance.
    UnknownIface(u16),
    /// No protocol instance runs on this router: a lie was injected or
    /// retracted through a speaker the network does not have.
    UnknownSpeaker(RouterId),
    /// A packet failed to decode.
    Wire(WireError),
    /// An LSA purge was requested for an LSA this instance does not
    /// originate.
    NotOriginator {
        /// Claimed originator.
        origin: RouterId,
    },
    /// A fake LSA injection referenced a prefix the instance cannot
    /// validate.
    BadInjection {
        /// Target prefix of the lie.
        prefix: Prefix,
        /// Human-readable cause.
        reason: &'static str,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::UnknownIface(i) => write!(f, "unknown interface {i}"),
            InstanceError::UnknownSpeaker(r) => write!(f, "no instance runs on router {r}"),
            InstanceError::Wire(e) => write!(f, "wire error: {e}"),
            InstanceError::NotOriginator { origin } => {
                write!(f, "not the originator of LSAs from {origin}")
            }
            InstanceError::BadInjection { prefix, reason } => {
                write!(f, "bad injection for {prefix}: {reason}")
            }
        }
    }
}

impl std::error::Error for InstanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstanceError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for InstanceError {
    fn from(e: WireError) -> Self {
        InstanceError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let w = WireError::Truncated { need: 8, have: 3 };
        let i = InstanceError::from(w.clone());
        assert!(format!("{i}").contains("need 8"));
        let src = std::error::Error::source(&i).expect("source");
        assert_eq!(format!("{src}"), format!("{w}"));
    }
}
