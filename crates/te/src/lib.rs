//! # fib-te — traffic-engineering baselines
//!
//! The comparators the paper positions Fibbing against (Sec. 2):
//!
//! * [`demand`] — traffic matrices;
//! * [`weights`] — Fortz–Thorup-style IGP weight local search and the
//!   disruption model of applying a reconfiguration mid-crowd;
//! * [`rsvp`] — an MPLS RSVP-TE baseline: CSPF, Path/Resv signalling
//!   and soft-state accounting, label/encap overhead, stateful
//!   unequal splits over tunnel sets;
//! * [`minmax`] — reference bounds for the optimality-gap table
//!   (plain ECMP, exhaustive best-even-ECMP weights).
//!
//! Everything here is deliberately *honest to the baselines*: CSPF
//! really computes constrained shortest paths over residual capacity,
//! the weight search really descends the Fortz–Thorup objective, and
//! their costs (messages, state, reconfigured devices) are counted,
//! not assumed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod demand;
pub mod minmax;
pub mod rsvp;
pub mod weights;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::demand::TrafficMatrix;
    pub use crate::minmax::{best_ecmp_weights_max_util, even_ecmp_max_util};
    pub use crate::rsvp::{RsvpError, RsvpStats, RsvpTe, Tunnel, TunnelId, LABEL_BYTES};
    pub use crate::weights::{
        disruption, network_cost, optimize_weights, phi, Disruption, WeightOptResult,
    };
}
