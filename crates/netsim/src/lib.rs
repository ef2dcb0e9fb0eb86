//! # fib-netsim — deterministic data-plane and co-simulation
//!
//! The paper's demo ran on an emulated testbed (Mininet + Quagga).
//! This crate is its simulation substitute, built on the generic
//! `fib-sim-kernel` primitives (event queue, deadline heap, component
//! registry):
//!
//! * [`events`] — the typed link script ([`sim::Sim::schedule`]);
//! * [`handler`] — the component trait ([`handler::EventHandler`])
//!   applications implement, and the [`handler::AppEvent`]s they
//!   receive;
//! * [`context`] — the typed [`context::SimContext`] world handle,
//!   through which flows start, stop and change cap at their instant;
//! * [`link`] — capacitated, delayed, directed links;
//! * [`fib`] — downloaded forwarding tables and hop-by-hop path
//!   resolution with per-router ECMP hashing ([`ecmp`]);
//! * [`dirty`] — dirty-set invalidation tracking and the
//!   prefix → flows reverse index behind incremental recompute;
//! * [`fluid`] — max-min fair bandwidth sharing (the first-order model
//!   of competing TCP flows), with application rate caps;
//! * [`flow`] — traffic flows and notifications;
//! * [`oracle`] — absolute checks of a run at rest (every LSDB equal,
//!   every FIB a from-scratch SPF on it);
//! * [`trace`] — time-series recording and CSV export for figures;
//! * [`sim`] — the co-simulation world: real IGP instances exchanging
//!   typed datagrams over the links, each accounted at its encoded
//!   length, FIB downloads, SNMP agents fed by
//!   both planes, and pluggable components (the Fibbing controller,
//!   video drivers, baselines).
//!
//! Everything is deterministic: identical inputs produce
//! byte-identical traces (asserted in tests, including against
//! pre-kernel reference traces in `tests/kernel_pin.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod dirty;
pub mod ecmp;
pub mod events;
pub mod fib;
pub mod flow;
pub mod fluid;
pub mod handler;
pub mod link;
pub mod oracle;
pub mod sim;
pub mod trace;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::context::SimContext;
    pub use crate::ecmp::{slot_for, FlowKey};
    pub use crate::events::Event;
    pub use crate::fib::{resolve_path, Fib, FibEntry, PathError};
    pub use crate::flow::{Flow, FlowId, FlowInfo, FlowSpec, RateChange};
    pub use crate::fluid::{max_min_allocation, max_min_keyed, Allocation, Allocator, FluidFlow};
    pub use crate::handler::{AppEvent, EventHandler};
    pub use crate::link::{LinkInfo, LinkKey, LinkSpec, LinkState};
    pub use crate::sim::{Sim, SimConfig, SimStats};
    pub use crate::trace::Recorder;
    pub use fib_igp::time::{Dur, Timestamp};
    pub use fib_sim_kernel::ComponentId;
}
