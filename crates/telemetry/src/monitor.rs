//! Link-load monitoring: counters → rates → utilization alarms.
//!
//! [`LoadMonitor`] is the composed pipeline the Fibbing controller
//! consumes: per monitored key (a directed link), counter samples feed
//! a [`RateEstimator`], the rate is normalized by capacity into a
//! utilization, and a hysteresis [`Alarm`] decides when the controller
//! should care. One struct per management station.

use crate::alarm::{Alarm, Edge, Threshold};
use crate::counters::CounterWidth;
use crate::rate::RateEstimator;
use fib_igp::time::Timestamp;
use std::collections::BTreeMap;

/// A utilization alarm event for one monitored key.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEvent<K> {
    /// The monitored key (e.g. a directed link).
    pub key: K,
    /// Raised or cleared.
    pub edge: Edge,
    /// Utilization at the edge (fraction of capacity).
    pub utilization: f64,
    /// Estimated rate in bytes/s at the edge.
    pub rate: f64,
}

#[derive(Debug)]
struct Entry {
    capacity: f64,
    est: RateEstimator,
    alarm: Alarm,
    last_util: f64,
}

/// Composed monitoring pipeline for a set of keys.
#[derive(Debug)]
pub struct LoadMonitor<K: Ord + Clone> {
    width: CounterWidth,
    alpha: f64,
    threshold: Threshold,
    entries: BTreeMap<K, Entry>,
}

impl<K: Ord + Clone> LoadMonitor<K> {
    /// Create a monitor. `alpha` is the EWMA weight; `threshold` the
    /// shared utilization alarm config.
    pub fn new(width: CounterWidth, alpha: f64, threshold: Threshold) -> LoadMonitor<K> {
        LoadMonitor {
            width,
            alpha,
            threshold,
            entries: BTreeMap::new(),
        }
    }

    /// Track a key with the given capacity (bytes/s).
    pub fn add(&mut self, key: K, capacity: f64) {
        assert!(capacity > 0.0, "capacity must be positive");
        self.entries.insert(
            key,
            Entry {
                capacity,
                est: RateEstimator::new(self.width, self.alpha),
                alarm: Alarm::new(self.threshold),
                last_util: 0.0,
            },
        );
    }

    /// Stop tracking a key.
    pub fn remove(&mut self, key: &K) {
        self.entries.remove(key);
    }

    /// Feed one polled counter value; returns an alarm event if the
    /// utilization crossed a threshold (with hold-down).
    pub fn on_sample(&mut self, key: &K, at: Timestamp, counter: u64) -> Option<LoadEvent<K>> {
        let e = self.entries.get_mut(key)?;
        let rate = e.est.observe(at, counter)?;
        let util = rate / e.capacity;
        e.last_util = util;
        e.alarm.observe(at, util).map(|edge| LoadEvent {
            key: key.clone(),
            edge,
            utilization: util,
            rate,
        })
    }

    /// Most recent utilization of a key (0 before the first interval).
    pub fn utilization(&self, key: &K) -> Option<f64> {
        self.entries.get(key).map(|e| e.last_util)
    }

    /// Most recent smoothed rate of a key.
    pub fn rate(&self, key: &K) -> Option<f64> {
        self.entries.get(key).and_then(|e| e.est.rate())
    }

    /// Whether the alarm for a key is currently raised.
    pub fn is_alarmed(&self, key: &K) -> bool {
        self.entries
            .get(key)
            .map(|e| e.alarm.is_active())
            .unwrap_or(false)
    }

    /// Whether any key's alarm is currently raised.
    pub fn any_alarmed(&self) -> bool {
        self.entries.values().any(|e| e.alarm.is_active())
    }

    /// All tracked keys.
    pub fn keys(&self) -> Vec<K> {
        self.entries.keys().cloned().collect()
    }

    /// Highest current utilization across all keys (0 if none).
    pub fn max_utilization(&self) -> f64 {
        self.entries
            .values()
            .map(|e| e.last_util)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::time::Dur;

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn monitor() -> LoadMonitor<&'static str> {
        let mut m = LoadMonitor::new(CounterWidth::C64, 1.0, Threshold::new(0.8, 0.4, Dur::ZERO));
        m.add("a-b", 1000.0); // 1000 B/s capacity
        m
    }

    #[test]
    fn pipeline_raises_on_high_utilization() {
        let mut m = monitor();
        assert_eq!(m.on_sample(&"a-b", t(0), 0), None);
        // 900 B over 1 s → util 0.9 ≥ 0.8 → raise.
        let ev = m.on_sample(&"a-b", t(1), 900).expect("raise");
        assert_eq!(ev.edge, Edge::Raised);
        assert!((ev.utilization - 0.9).abs() < 1e-9);
        assert!(m.is_alarmed(&"a-b"));
        assert!(m.any_alarmed());
    }

    #[test]
    fn pipeline_clears_with_hysteresis() {
        let mut m = monitor();
        m.on_sample(&"a-b", t(0), 0);
        m.on_sample(&"a-b", t(1), 900);
        // util 0.5: inside hysteresis band → still raised.
        assert_eq!(m.on_sample(&"a-b", t(2), 1400), None);
        assert!(m.is_alarmed(&"a-b"));
        // util 0.1 ≤ 0.4 → clear.
        let ev = m.on_sample(&"a-b", t(3), 1500).expect("clear");
        assert_eq!(ev.edge, Edge::Cleared);
        assert!(!m.is_alarmed(&"a-b"));
        assert!(!m.any_alarmed());
    }

    #[test]
    fn unknown_key_is_none() {
        let mut m = monitor();
        assert_eq!(m.on_sample(&"nope", t(0), 0), None);
        assert_eq!(m.utilization(&"nope"), None);
        assert!(!m.is_alarmed(&"nope"));
    }

    #[test]
    fn max_utilization_tracks_peak() {
        let mut m = monitor();
        m.add("c-d", 2000.0);
        m.on_sample(&"a-b", t(0), 0);
        m.on_sample(&"c-d", t(0), 0);
        m.on_sample(&"a-b", t(1), 300); // 0.3
        m.on_sample(&"c-d", t(1), 1200); // 0.6
        assert!((m.max_utilization() - 0.6).abs() < 1e-9);
    }
}
