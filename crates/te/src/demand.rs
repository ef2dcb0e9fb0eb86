//! Traffic matrices.
//!
//! Traditional TE (the paper's Sec. 1 strawman) pre-computes link
//! weights for a *predicted* traffic matrix: this is the matrix those
//! schemes are tuned for and evaluated on.

use fib_igp::types::{Prefix, RouterId};
use std::collections::BTreeMap;

/// A traffic matrix: offered rate per (ingress, destination prefix).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficMatrix {
    entries: BTreeMap<(RouterId, Prefix), f64>,
}

impl TrafficMatrix {
    /// An empty matrix.
    pub fn new() -> TrafficMatrix {
        TrafficMatrix::default()
    }

    /// Add (accumulate) demand.
    pub fn add(&mut self, src: RouterId, dst: Prefix, rate: f64) {
        assert!(rate >= 0.0);
        *self.entries.entry((src, dst)).or_insert(0.0) += rate;
    }

    /// The non-zero demands as the load-model input.
    pub fn demands(&self) -> Vec<fib_igp::loadmodel::Demand> {
        self.entries
            .iter()
            .filter(|(_, r)| **r > 0.0)
            .map(|(&(src, prefix), &rate)| fib_igp::loadmodel::Demand { src, prefix, rate })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    #[test]
    fn add_accumulates() {
        let mut tm = TrafficMatrix::new();
        tm.add(r(1), Prefix::net24(1), 10.0);
        tm.add(r(1), Prefix::net24(1), 5.0);
        tm.add(r(2), Prefix::net24(1), 0.0);
        let want = fib_igp::loadmodel::Demand {
            src: r(1),
            prefix: Prefix::net24(1),
            rate: 15.0,
        };
        assert_eq!(tm.demands(), vec![want]);
    }
}
