//! The typed link script of the simulator.
//!
//! Scripted link faults go through one scheduling path,
//! [`crate::sim::Sim::schedule`], over this enum. Flows are started,
//! stopped and capped at the instant they are asked for, through
//! [`crate::context::SimContext`]: a component does it while it runs,
//! host code between two `run_until` calls.

use fib_igp::types::RouterId;

/// A schedulable world event.
///
/// Internal events (protocol packets, app ticks, trace samples) are
/// not part of the public vocabulary: they are emitted by the kernel
/// loop itself.
#[derive(Debug, Clone)]
pub enum Event {
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
