//! The typed event vocabulary of the simulator.
//!
//! The old surface had one `schedule_*` method per event kind; the
//! redesigned API has exactly one scheduling path —
//! [`crate::sim::Sim::schedule`] / `SimContext::schedule` — over this
//! enum.

use crate::flow::{FlowId, FlowSpec};
use fib_igp::types::RouterId;

/// A schedulable world event.
///
/// Internal events (protocol packets, app ticks, trace samples) are
/// not part of the public vocabulary: they are emitted by the kernel
/// loop itself.
#[derive(Debug, Clone)]
pub enum Event {
    /// Start a flow under a pre-allocated id (see
    /// [`crate::sim::Sim::new_flow_id`]).
    FlowStart {
        /// The id the flow will carry.
        id: FlowId,
        /// What to start.
        spec: FlowSpec,
    },
    /// Stop a flow (no-op if unknown by then).
    FlowStop {
        /// The flow to stop.
        id: FlowId,
    },
    /// Change a flow's application rate cap (`None` = uncapped).
    FlowCap {
        /// The flow to change.
        id: FlowId,
        /// New cap in bytes/s.
        cap: Option<f64>,
    },
    /// Administratively fail (`up = false`) or restore (`up = true`)
    /// the symmetric link `a – b`.
    LinkAdmin {
        /// One endpoint.
        a: RouterId,
        /// Other endpoint.
        b: RouterId,
        /// Target administrative state.
        up: bool,
    },
    /// Change the symmetric link `a – b`'s per-direction capacity.
    LinkCapacity {
        /// One endpoint.
        a: RouterId,
        /// Other endpoint.
        b: RouterId,
        /// New capacity in bytes/s (rejected if not positive).
        capacity: f64,
    },
}
