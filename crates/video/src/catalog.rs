//! Video assets: durations and bitrate ladders.

use std::fmt;

/// An encoding ladder: available bitrates in bytes/s, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder(Vec<f64>);

impl Ladder {
    /// Build from ascending positive bitrates.
    pub fn new(rates: &[f64]) -> Ladder {
        assert!(!rates.is_empty(), "ladder needs at least one bitrate");
        assert!(
            rates.windows(2).all(|w| w[0] < w[1]),
            "ladder must be strictly ascending"
        );
        assert!(rates.iter().all(|r| *r > 0.0));
        Ladder(rates.to_vec())
    }

    /// A single-bitrate ladder (the demo's constant-rate videos).
    pub fn constant(rate: f64) -> Ladder {
        Ladder::new(&[rate])
    }

    /// A typical SD→HD ladder around 1 Mb/s (bytes/s).
    pub fn standard() -> Ladder {
        // 400 kb/s, 800 kb/s, 1.2 Mb/s, 2.4 Mb/s in bytes/s.
        Ladder::new(&[50_000.0, 100_000.0, 150_000.0, 300_000.0])
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.0.len()
    }

    /// Bitrate of a level (clamped to the top).
    pub fn rate(&self, level: usize) -> f64 {
        self.0[level.min(self.0.len() - 1)]
    }

    /// Highest bitrate.
    pub fn max_rate(&self) -> f64 {
        *self.0.last().expect("non-empty")
    }

    /// Lowest bitrate.
    pub fn min_rate(&self) -> f64 {
        self.0[0]
    }

    /// The highest level whose bitrate is at most `budget` (level 0 if
    /// even the lowest exceeds it).
    pub fn level_for_budget(&self, budget: f64) -> usize {
        let mut level = 0;
        for (i, r) in self.0.iter().enumerate() {
            if *r <= budget {
                level = i;
            }
        }
        level
    }
}

/// A video asset.
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    /// Playback duration in seconds.
    pub duration: f64,
    /// Segment duration in seconds (ABR decision granularity).
    pub segment: f64,
    /// Encoding ladder.
    pub ladder: Ladder,
}

impl Video {
    /// A constant-bitrate clip (the demo's videos).
    pub fn constant(duration: f64, rate: f64) -> Video {
        Video {
            duration,
            segment: 2.0,
            ladder: Ladder::constant(rate),
        }
    }

    /// An ABR asset on the standard ladder.
    pub fn adaptive(duration: f64) -> Video {
        Video {
            duration,
            segment: 2.0,
            ladder: Ladder::standard(),
        }
    }
}

impl fmt::Display for Video {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "video {:.0}s @ {}-{} B/s",
            self.duration,
            self.ladder.min_rate(),
            self.ladder.max_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_lookup() {
        let l = Ladder::standard();
        assert_eq!(l.levels(), 4);
        assert_eq!(l.rate(0), 50_000.0);
        assert_eq!(l.rate(99), l.max_rate());
        assert_eq!(l.level_for_budget(120_000.0), 1);
        assert_eq!(l.level_for_budget(10.0), 0);
        assert_eq!(l.level_for_budget(1e9), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_ladder_panics() {
        let _ = Ladder::new(&[100.0, 100.0]);
    }

    #[test]
    fn video_display_names_the_clip() {
        let v = Video::constant(60.0, 125_000.0);
        assert!(v.to_string().contains("60s"));
    }
}
