//! Quality-of-experience accounting.

use std::fmt;

/// Per-session QoE report.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeReport {
    /// Seconds from session start to first rendered frame (infinite
    /// if playback never started).
    pub startup_delay: f64,
    /// Number of mid-playback stalls.
    pub stalls: u32,
    /// Total stalled seconds.
    pub stall_secs: f64,
    /// Time-weighted mean bitrate of rendered content (bytes/s).
    pub mean_bitrate: f64,
    /// The clip's encoding bitrate (bytes/s), for normalization.
    pub max_bitrate: f64,
    /// Seconds of content rendered.
    pub played_secs: f64,
    /// Clip duration.
    pub duration: f64,
    /// Whether the clip finished.
    pub completed: bool,
}

impl QoeReport {
    /// Fraction of wall time spent stalled relative to content played.
    pub fn stall_ratio(&self) -> f64 {
        if self.played_secs <= 0.0 {
            return if self.stall_secs > 0.0 { 1.0 } else { 0.0 };
        }
        self.stall_secs / (self.played_secs + self.stall_secs)
    }

    /// `true` if the viewer saw smooth playback: started promptly,
    /// never stalled, finished the clip.
    pub fn smooth(&self) -> bool {
        self.completed && self.stalls == 0 && self.startup_delay.is_finite()
    }

    /// A 1–5 MOS-like score: bitrate utility minus stall and startup
    /// penalties (simple ITU-P.1203-inspired shape, documented rather
    /// than standardized).
    pub fn score(&self) -> f64 {
        if !self.startup_delay.is_finite() || self.played_secs <= 0.0 {
            return 1.0;
        }
        let bitrate_utility = (self.mean_bitrate / self.max_bitrate).clamp(0.0, 1.0);
        let base = 1.0 + 4.0 * bitrate_utility;
        let stall_penalty = 4.0 * self.stall_ratio() + 0.5 * f64::from(self.stalls.min(4));
        let startup_penalty = (self.startup_delay / 10.0).min(0.5);
        (base - stall_penalty - startup_penalty).clamp(1.0, 5.0)
    }
}

impl fmt::Display for QoeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qoe: start {:.2}s, {} stalls ({:.2}s), mean {:.0} B/s, score {:.2}{}",
            self.startup_delay,
            self.stalls,
            self.stall_secs,
            self.mean_bitrate,
            self.score(),
            if self.smooth() { " [smooth]" } else { "" }
        )
    }
}

/// Aggregate over many sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QoeSummary {
    /// Sessions aggregated.
    pub sessions: usize,
    /// Sessions with smooth playback.
    pub smooth: usize,
    /// Total stalls.
    pub stalls: u32,
    /// Total stalled seconds.
    pub stall_secs: f64,
    /// Mean of per-session scores.
    pub mean_score: f64,
    /// Mean startup delay over sessions that started.
    pub mean_startup: f64,
}

/// Summarize reports.
pub fn summarize(reports: &[QoeReport]) -> QoeSummary {
    if reports.is_empty() {
        return QoeSummary::default();
    }
    let started: Vec<&QoeReport> = reports
        .iter()
        .filter(|r| r.startup_delay.is_finite())
        .collect();
    QoeSummary {
        sessions: reports.len(),
        smooth: reports.iter().filter(|r| r.smooth()).count(),
        stalls: reports.iter().map(|r| r.stalls).sum(),
        stall_secs: reports.iter().map(|r| r.stall_secs).sum(),
        mean_score: reports.iter().map(|r| r.score()).sum::<f64>() / reports.len() as f64,
        mean_startup: if started.is_empty() {
            f64::INFINITY
        } else {
            started.iter().map(|r| r.startup_delay).sum::<f64>() / started.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_report() -> QoeReport {
        QoeReport {
            startup_delay: 0.5,
            stalls: 0,
            stall_secs: 0.0,
            mean_bitrate: 125_000.0,
            max_bitrate: 125_000.0,
            played_secs: 60.0,
            duration: 60.0,
            completed: true,
        }
    }

    #[test]
    fn smooth_playback_scores_high() {
        let r = smooth_report();
        assert!(r.smooth());
        assert!(r.score() > 4.5, "score {}", r.score());
        assert_eq!(r.stall_ratio(), 0.0);
        assert!(r.to_string().contains("[smooth]"));
    }

    #[test]
    fn stalls_tank_the_score() {
        let mut r = smooth_report();
        r.stalls = 5;
        r.stall_secs = 20.0;
        r.completed = false;
        assert!(!r.smooth());
        assert!(r.score() < 3.0, "score {}", r.score());
        assert!(r.stall_ratio() > 0.2);
    }

    #[test]
    fn never_started_scores_one() {
        let mut r = smooth_report();
        r.startup_delay = f64::INFINITY;
        r.played_secs = 0.0;
        assert_eq!(r.score(), 1.0);
    }

    #[test]
    fn summary_aggregates() {
        let mut bad = smooth_report();
        bad.stalls = 3;
        bad.stall_secs = 10.0;
        let s = summarize(&[smooth_report(), bad]);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.smooth, 1);
        assert_eq!(s.stalls, 3);
        assert!((s.mean_startup - 0.5).abs() < 1e-9);
        assert!(s.mean_score > 1.0 && s.mean_score < 5.0);
    }

    #[test]
    fn empty_summary_is_default() {
        assert_eq!(summarize(&[]), QoeSummary::default());
    }
}
