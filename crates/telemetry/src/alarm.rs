//! Threshold alarms with hysteresis and hold-down.
//!
//! The controller raises lies when a link's utilization crosses a high
//! watermark and retracts them when it falls below a low watermark.
//! Two stabilizers prevent flapping:
//!
//! * **hysteresis** — distinct raise/clear thresholds (`hi > lo`);
//! * **hold-down** — the value must stay beyond the threshold for a
//!   minimum duration before the alarm edges.

use fib_igp::time::{Dur, Timestamp};

/// Alarm transition events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The value held above `hi` for the hold-down: alarm is on.
    Raised,
    /// The value held below `lo` for the hold-down: alarm is off.
    Cleared,
}

/// Alarm configuration.
#[derive(Debug, Clone, Copy)]
pub struct Threshold {
    /// Raise threshold.
    pub hi: f64,
    /// Clear threshold (must satisfy `lo <= hi`).
    pub lo: f64,
    /// Time the value must persist beyond a threshold to edge.
    pub hold: Dur,
}

impl Threshold {
    /// Construct, validating `lo <= hi`.
    pub fn new(hi: f64, lo: f64, hold: Dur) -> Threshold {
        assert!(lo <= hi, "clear threshold must not exceed raise threshold");
        Threshold { hi, lo, hold }
    }
}

/// A hysteresis + hold-down alarm over a scalar signal.
#[derive(Debug, Clone)]
pub struct Alarm {
    cfg: Threshold,
    active: bool,
    above_since: Option<Timestamp>,
    below_since: Option<Timestamp>,
}

impl Alarm {
    /// A cleared alarm.
    pub fn new(cfg: Threshold) -> Alarm {
        Alarm {
            cfg,
            active: false,
            above_since: None,
            below_since: None,
        }
    }

    /// `true` while raised.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Feed a sample; returns an [`Edge`] when the alarm transitions.
    pub fn observe(&mut self, at: Timestamp, value: f64) -> Option<Edge> {
        if !self.active {
            if value >= self.cfg.hi {
                let since = *self.above_since.get_or_insert(at);
                if at.since(since) >= self.cfg.hold {
                    self.active = true;
                    self.above_since = None;
                    self.below_since = None;
                    return Some(Edge::Raised);
                }
            } else {
                self.above_since = None;
            }
        } else if value <= self.cfg.lo {
            let since = *self.below_since.get_or_insert(at);
            if at.since(since) >= self.cfg.hold {
                self.active = false;
                self.above_since = None;
                self.below_since = None;
                return Some(Edge::Cleared);
            }
        } else {
            self.below_since = None;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn alarm(hold_secs: u64) -> Alarm {
        Alarm::new(Threshold::new(0.8, 0.5, Dur::from_secs(hold_secs)))
    }

    #[test]
    fn raises_after_hold_down() {
        let mut a = alarm(2);
        assert_eq!(a.observe(t(0), 0.9), None);
        assert_eq!(a.observe(t(1), 0.9), None);
        assert_eq!(a.observe(t(2), 0.9), Some(Edge::Raised));
        assert!(a.is_active());
    }

    #[test]
    fn zero_hold_raises_immediately() {
        let mut a = alarm(0);
        assert_eq!(a.observe(t(0), 0.85), Some(Edge::Raised));
    }

    #[test]
    fn dip_resets_hold_down() {
        let mut a = alarm(2);
        a.observe(t(0), 0.9);
        a.observe(t(1), 0.7); // dip below hi resets
        a.observe(t(2), 0.9);
        assert_eq!(a.observe(t(3), 0.9), None);
        assert_eq!(a.observe(t(4), 0.9), Some(Edge::Raised));
    }

    #[test]
    fn hysteresis_band_keeps_alarm_on() {
        let mut a = alarm(0);
        a.observe(t(0), 0.9);
        assert!(a.is_active());
        // Between lo and hi: stays raised.
        assert_eq!(a.observe(t(1), 0.6), None);
        assert!(a.is_active());
        assert_eq!(a.observe(t(2), 0.4), Some(Edge::Cleared));
        assert!(!a.is_active());
    }

    #[test]
    fn clear_respects_hold_down() {
        let mut a = alarm(3);
        for s in 0..=3 {
            a.observe(t(s), 1.0);
        }
        assert!(a.is_active());
        assert_eq!(a.observe(t(10), 0.1), None);
        assert_eq!(a.observe(t(12), 0.1), None);
        assert_eq!(a.observe(t(13), 0.1), Some(Edge::Cleared));
    }

    #[test]
    fn no_repeated_edges() {
        let mut a = alarm(0);
        assert_eq!(a.observe(t(0), 0.9), Some(Edge::Raised));
        assert_eq!(a.observe(t(1), 0.95), None);
        assert_eq!(a.observe(t(2), 0.2), Some(Edge::Cleared));
        assert_eq!(a.observe(t(3), 0.2), None);
    }
}
