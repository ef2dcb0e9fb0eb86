//! # fib-telemetry — SNMP-style monitoring substrate
//!
//! The demo's Fibbing controller "monitors link loads using SNMP". This
//! crate reproduces the part of that pipeline that shapes controller
//! behaviour:
//!
//! * [`counters`] — interface octet counters with 32/64-bit wrap
//!   semantics;
//! * [`mib`] — an agent per router serving the one object the
//!   controller polls, the `ifOutOctets` column, to SNMP walks;
//! * [`rate`] — counter-delta rate estimation with EWMA smoothing
//!   (wrap-transparent);
//! * [`alarm`] — utilization thresholds with hysteresis and hold-down;
//! * [`monitor`] — the composed pipeline: samples in, alarm edges out.
//!
//! Everything is deterministic and free of IO: the simulator delivers
//! counter samples and timestamps, and the controller decides when to
//! sweep them (`poll_snmp`, on its own tick).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alarm;
pub mod counters;
pub mod mib;
pub mod monitor;
pub mod rate;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::alarm::{Alarm, Edge, Threshold};
    pub use crate::counters::{counter_delta, Counter, CounterWidth};
    pub use crate::mib::{oids, Agent, Oid};
    pub use crate::monitor::LoadMonitor;
    pub use crate::rate::RateEstimator;
}
