//! Traffic matrices.
//!
//! Traditional TE (the paper's Sec. 1 strawman) pre-computes link
//! weights for a *predicted* traffic matrix: this is the matrix those
//! schemes are tuned for and evaluated on.

use fib_igp::types::{Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

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

    /// The rate for one pair (0 if absent).
    pub fn rate(&self, src: RouterId, dst: Prefix) -> f64 {
        self.entries.get(&(src, dst)).copied().unwrap_or(0.0)
    }

    /// Iterate over all non-zero demands.
    pub fn iter(&self) -> impl Iterator<Item = (RouterId, Prefix, f64)> + '_ {
        self.entries
            .iter()
            .filter(|(_, r)| **r > 0.0)
            .map(|((s, d), r)| (*s, *d, *r))
    }

    /// Demands as the load-model input.
    pub fn demands(&self) -> Vec<fib_igp::loadmodel::Demand> {
        self.iter()
            .map(|(src, prefix, rate)| fib_igp::loadmodel::Demand { src, prefix, rate })
            .collect()
    }

    /// Total offered traffic.
    pub fn total(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Superpose another matrix onto this one.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        for ((s, d), r) in &other.entries {
            *self.entries.entry((*s, *d)).or_insert(0.0) += r;
        }
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.values().filter(|r| **r > 0.0).count()
    }

    /// `true` when no demand is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for TrafficMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (s, d, r) in self.iter() {
            writeln!(f, "{s} -> {d}: {r:.1}")?;
        }
        Ok(())
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
        assert_eq!(tm.rate(r(1), Prefix::net24(1)), 15.0);
        assert_eq!(tm.len(), 1);
        assert!(!tm.is_empty());
    }

    #[test]
    fn merge_superposes() {
        let mut a = TrafficMatrix::new();
        a.add(r(1), Prefix::net24(1), 10.0);
        let mut b = TrafficMatrix::new();
        b.add(r(1), Prefix::net24(1), 30.0);
        b.add(r(2), Prefix::net24(1), 5.0);
        a.merge(&b);
        assert_eq!(a.rate(r(1), Prefix::net24(1)), 40.0);
        assert_eq!(a.rate(r(2), Prefix::net24(1)), 5.0);
        assert_eq!(a.total(), 45.0);
    }
}
