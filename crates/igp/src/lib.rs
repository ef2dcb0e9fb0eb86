//! # fib-igp — a link-state IGP substrate
//!
//! This crate implements the routing substrate the Fibbing system lies
//! to: an OSPF-like link-state interior gateway protocol with
//!
//! * LSAs ([`lsa`]) and a freshness-ruled database ([`lsdb`]),
//! * a byte-exact wire codec with Fletcher-16 checksums, and the typed
//!   datagrams instances hand each other ([`wire`]),
//! * a sans-IO protocol speaker per router — neighbor FSM, database
//!   exchange, reliable flooding with retransmissions, origination,
//!   and SPF scheduling ([`instance`]),
//! * ECMP shortest-path computation with partial-SPF caching ([`spf`]),
//! * route tables, FIB diffs, and per-destination forwarding DAGs
//!   ([`rib`]),
//! * topology modelling including Fibbing's fake nodes ([`topology`]),
//! * and a tiny in-crate event harness for protocol-level tests and
//!   benchmarks ([`harness`]).
//!
//! ## Fake nodes
//!
//! Fibbing steers traffic by injecting *lies*: fake nodes attached to
//! real routers announcing a destination prefix at a chosen cost, each
//! carrying a forwarding address that the attachment router resolves
//! the fake next-hop to. Lies ride ordinary LSAs ([`lsa::LsaBody::Fake`])
//! through ordinary flooding — the controller is just another protocol
//! speaker ([`instance::Instance::inject_fake`]).
//!
//! Two properties of this crate are load-bearing for the reproduction:
//!
//! 1. **FIB entries deduplicate by forwarding address, not by neighbor
//!    router** ([`types::FwAddr`]), which is how `k` lies pointing at
//!    distinct addresses of one neighbor realise a `k/n` traffic share.
//! 2. **Fake nodes never affect real-node distances** (they have no
//!    outgoing links), so lie churn triggers only the cheap partial
//!    SPF route phase ([`spf::SpfEngine`]) — Fibbing's low control
//!    plane overhead, measured in the paper's Section 2 comparison.
//!
//! ## Example
//!
//! ```
//! use fib_igp::prelude::*;
//!
//! // Build the topology by hand and compute routes directly.
//! let mut topo = Topology::new();
//! let (a, b, c) = (RouterId(1), RouterId(2), RouterId(3));
//! topo.add_router(a);
//! topo.add_router(b);
//! topo.add_router(c);
//! topo.add_link_sym(a, b, Metric(1)).unwrap();
//! topo.add_link_sym(b, c, Metric(1)).unwrap();
//! topo.add_link_sym(a, c, Metric(2)).unwrap();
//! let blue = Prefix::net24(1);
//! topo.announce_prefix(c, blue, Metric::ZERO).unwrap();
//!
//! // a reaches the prefix at cost 2 with two equal-cost paths.
//! let table = compute_routes(&topo, a);
//! let route = table.route(blue).unwrap();
//! assert_eq!(route.dist, Metric(2));
//! assert_eq!(route.nexthops.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
pub mod error;
pub mod harness;
pub mod instance;
pub mod loadmodel;
pub mod lsa;
pub mod lsdb;
pub mod rib;
pub mod spf;
pub mod time;
pub mod topology;
pub mod types;
pub mod wire;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::error::{InstanceError, TopologyError, WireError};
    pub use crate::instance::{Config, Instance, NbrState, Output};
    pub use crate::loadmodel::{max_utilization, spread, Demand, LoadModelError};
    pub use crate::lsa::{Lsa, LsaBody, LsaHeader, LsaKey, LsaKind};
    pub use crate::lsdb::{Install, Lsdb};
    pub use crate::rib::{ForwardingDag, Route, RouteTable};
    pub use crate::spf::{
        compute_all_routes, compute_routes, enumerate_paths, prefix_routes, shortest_paths,
        SpfEngine,
    };
    pub use crate::time::{Dur, Timestamp};
    pub use crate::topology::{FakeAttrs, TopoLink, Topology};
    pub use crate::types::{FwAddr, IfaceId, Metric, Prefix, RouterId, SeqNum};
}
