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

#[derive(Debug)]
struct Entry {
    capacity: f64,
    est: RateEstimator,
    alarm: Alarm,
    last_util: f64,
    /// Utilization at the last raise edge.
    raised_util: f64,
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
                raised_util: 0.0,
            },
        );
    }

    /// Feed one polled counter value; returns the alarm's edge and the
    /// utilization (fraction of capacity) at it if the utilization
    /// crossed a threshold (with hold-down).
    pub fn on_sample(&mut self, key: &K, at: Timestamp, counter: u64) -> Option<(Edge, f64)> {
        let e = self.entries.get_mut(key)?;
        let util = e.est.observe(at, counter)? / e.capacity;
        e.last_util = util;
        let edge = e.alarm.observe(at, util)?;
        if edge == Edge::Raised {
            e.raised_util = util;
        }
        Some((edge, util))
    }

    /// The first key, in key order, whose alarm is currently raised,
    /// with the utilization it was raised at.
    pub fn alarmed(&self) -> Option<(&K, f64)> {
        self.entries
            .iter()
            .find(|(_, e)| e.alarm.is_active())
            .map(|(k, e)| (k, e.raised_util))
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
        let (edge, util) = m.on_sample(&"a-b", t(1), 900).expect("raise");
        assert_eq!(edge, Edge::Raised);
        assert!((util - 0.9).abs() < 1e-9);
        assert_eq!(m.alarmed(), Some((&"a-b", 0.9)));
    }

    #[test]
    fn pipeline_clears_with_hysteresis() {
        let mut m = monitor();
        m.add("c-d", 1000.0);
        m.on_sample(&"a-b", t(0), 0);
        m.on_sample(&"a-b", t(1), 900);
        m.on_sample(&"c-d", t(1), 0);
        // util 0.5: inside hysteresis band → still raised, at 0.9.
        assert_eq!(m.on_sample(&"a-b", t(2), 1400), None);
        assert_eq!(m.alarmed(), Some((&"a-b", 0.9)));
        // c-d raises at 0.95; then a-b's util 0.1 ≤ 0.4 → clear, and
        // the alarm that stands is c-d's.
        m.on_sample(&"c-d", t(2), 950).expect("raise");
        let (edge, _) = m.on_sample(&"a-b", t(3), 1500).expect("clear");
        assert_eq!(edge, Edge::Cleared);
        assert_eq!(m.alarmed(), Some((&"c-d", 0.95)));
    }

    #[test]
    fn unknown_key_is_none() {
        let mut m = monitor();
        assert_eq!(m.on_sample(&"nope", t(0), 0), None);
        assert_eq!(m.alarmed(), None);
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
