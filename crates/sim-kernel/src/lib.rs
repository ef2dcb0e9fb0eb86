//! Generic discrete-event simulation kernel.
//!
//! The reusable core under the Fibbing co-simulator (and any future
//! domain world): deterministic by construction, allocation-light on
//! the hot paths.
//!
//! * [`EventQueue`] — one time-ordered queue, a FIFO per instant, and
//!   the [`TieBreak`] hook an adversary drives it by;
//! * [`DeadlineHeap`] — `O(log n)`-per-change tracking of the earliest
//!   internal timer across components that own timer wheels;
//! * [`ComponentId`] / [`Registry`] — a flat arena of components
//!   (dense `u32` handles on hot paths, names kept for tracing only).
//!
//! There is no driver here: the one event loop is
//! `fib_netsim::sim::Sim::run_until`, which composes these primitives
//! around its batch semantics (rate accrual, settlement); see the
//! "Event kernel" section of the repository ARCHITECTURE.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod component;
pub mod deadline;
pub mod queue;

pub use component::{ComponentId, Registry};
pub use deadline::DeadlineHeap;
pub use queue::{EventQueue, TieBreak};
