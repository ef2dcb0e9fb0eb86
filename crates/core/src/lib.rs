//! # fib-core — Fibbing: central control over distributed routing
//!
//! The paper's contribution: a controller that steers an unmodified
//! link-state network by injecting *lies* — fake nodes and links — so
//! that routers' own SPF computations produce the paths the controller
//! wants. This crate implements:
//!
//! * [`lie`] — the lie abstraction and collision-free allocation;
//! * [`requirements`] — weighted forwarding-DAG requirements;
//! * [`splitting`] — uneven ECMP split synthesis (fractions → integer
//!   slot counts, the paper's "uneven splitting ratios with no
//!   data-plane overhead");
//! * [`augmentation`] — computing lies that realize a requirement:
//!   side-effect-free equal-cost planning, override planning with a
//!   pin fixpoint (≈ SIGCOMM'15 "Simple"), and Merger-style greedy
//!   reduction;
//! * [`optimizer`] — min-cost flow at a utilization budget plus the
//!   optimal min-max θ* lower bound the paper cites;
//! * [`verify`] — proof that an augmented topology realizes a
//!   requirement without disturbing anyone else, and loop-freedom;
//! * [`controller`] — the demo's on-demand load-balancing controller
//!   (SNMP monitoring + server notifications → lies), pluggable into
//!   the `fib-netsim` co-simulation.
//!
//! ## Quick example
//!
//! ```
//! use fib_core::prelude::*;
//! use fib_igp::prelude::*;
//!
//! // Triangle: 1-2 (1), 2-3 (1), 1-3 (5); prefix at r3.
//! let mut topo = Topology::new();
//! for i in 1..=3 { topo.add_router(RouterId(i)); }
//! topo.add_link_sym(RouterId(1), RouterId(2), Metric(1)).unwrap();
//! topo.add_link_sym(RouterId(2), RouterId(3), Metric(1)).unwrap();
//! topo.add_link_sym(RouterId(1), RouterId(3), Metric(5)).unwrap();
//! let blue = Prefix::net24(1);
//! topo.announce_prefix(RouterId(3), blue, Metric::ZERO).unwrap();
//!
//! // Require r1 to split 1/3 via r2, 2/3 via r3.
//! let mut dag = WeightedDag::new(blue);
//! dag.require(RouterId(1), &[(RouterId(2), 1), (RouterId(3), 2)]);
//!
//! let mut alloc = LieAllocator::new();
//! let plan = augment(&topo, &dag, &mut alloc).unwrap();
//! assert_eq!(plan.lies.len(), 2); // two fakes via r3's addresses
//!
//! // Prove it.
//! let augmented = apply_all(&topo, &plan.lies);
//! assert!(check_preserving(&topo, &augmented, &dag).ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod augmentation;
pub mod controller;
pub mod lie;
pub mod optimizer;
mod plan;
pub mod requirements;
pub mod splitting;
pub mod verify;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::augmentation::{augment, reduce, AugmentError, Plan};
    pub use crate::controller::{
        ControllerConfig, ControllerHandle, ControllerSnapshot, ControllerStats, FibbingController,
    };
    pub use crate::lie::{apply_all, AddrExhausted, Lie, LieAllocator};
    pub use crate::optimizer::{min_max_theta, plan_paths, MinMaxSolver, OptError, PathPlan};
    pub use crate::requirements::{WeightedDag, WeightedHops};
    pub use crate::splitting::{apportion, plan_split, SplitError, SplitPlan};
    pub use crate::verify::{actual_fractions, check, check_preserving, Mismatch, VerifyReport};
}
