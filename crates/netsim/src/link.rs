//! Physical links: capacity, delay, and identification.

use fib_igp::time::Dur;
use fib_igp::types::{Metric, RouterId};
use std::fmt;

/// The one-way propagation delay of every link: 1 ms, the common case
/// in the demo testbed.
pub const LINK_DELAY: Dur = Dur::from_millis(1);

/// A *directed* link identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkKey {
    /// Transmitting router.
    pub from: RouterId,
    /// Receiving router.
    pub to: RouterId,
}

impl LinkKey {
    /// Build a key.
    pub fn new(from: RouterId, to: RouterId) -> LinkKey {
        LinkKey { from, to }
    }

    /// The opposite direction.
    pub fn reversed(self) -> LinkKey {
        LinkKey {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for LinkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// Specification of a symmetric physical link.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: RouterId,
    /// Other endpoint.
    pub b: RouterId,
    /// IGP cost (both directions).
    pub cost: Metric,
    /// Capacity in bytes/s (each direction).
    pub capacity: f64,
}

impl LinkSpec {
    /// A link between `a` and `b`, both directions alike.
    pub fn new(a: RouterId, b: RouterId, cost: Metric, capacity: f64) -> LinkSpec {
        LinkSpec {
            a,
            b,
            cost,
            capacity,
        }
    }
}

/// Runtime state of one link direction.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Direction identifier.
    pub key: LinkKey,
    /// Capacity in bytes/s.
    pub capacity: f64,
    /// Administrative/carrier state.
    pub up: bool,
    /// Current offered data rate (bytes/s) from the fluid allocation.
    pub rate: f64,
}

impl LinkState {
    /// Utilization as a fraction of capacity.
    pub fn utilization(&self) -> f64 {
        if self.capacity <= 0.0 {
            0.0
        } else {
            self.rate / self.capacity
        }
    }
}

/// Summary info exposed to applications (the provisioning view an
/// operator has).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkInfo {
    /// Direction identifier.
    pub key: LinkKey,
    /// Capacity in bytes/s.
    pub capacity: f64,
    /// IGP cost.
    pub cost: Metric,
    /// Whether the direction is up.
    pub up: bool,
    /// Current offered data rate (bytes/s) as of the last settlement —
    /// included so per-tick observers (utilization probes) need no
    /// second lookup per link.
    pub rate: f64,
}

impl LinkInfo {
    /// Utilization as a fraction of capacity.
    pub fn utilization(&self) -> f64 {
        if self.capacity <= 0.0 {
            0.0
        } else {
            self.rate / self.capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_and_reverse() {
        let k = LinkKey::new(RouterId(1), RouterId(2));
        assert_eq!(k.to_string(), "r1->r2");
        assert_eq!(k.reversed(), LinkKey::new(RouterId(2), RouterId(1)));
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn utilization_is_rate_over_capacity() {
        let mut s = LinkState {
            key: LinkKey::new(RouterId(1), RouterId(2)),
            capacity: 1000.0,
            up: true,
            rate: 250.0,
        };
        assert!((s.utilization() - 0.25).abs() < 1e-12);
        s.capacity = 0.0;
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn spec_builder() {
        let s = LinkSpec::new(RouterId(1), RouterId(2), Metric(5), 4e6);
        assert_eq!(s.cost, Metric(5));
        assert_eq!(s.capacity, 4e6);
    }
}
