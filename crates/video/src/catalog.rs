//! Video assets: constant-bitrate clips.

use std::fmt;

/// A video asset: a clip encoded at one bitrate, as the demo's are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Video {
    /// Playback duration in seconds.
    pub duration: f64,
    /// Encoding bitrate in bytes/s.
    pub rate: f64,
}

impl Video {
    /// A constant-bitrate clip (the demo's videos).
    pub fn constant(duration: f64, rate: f64) -> Video {
        assert!(rate > 0.0, "bitrate must be positive");
        Video { duration, rate }
    }
}

impl fmt::Display for Video {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "video {:.0}s @ {} B/s", self.duration, self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_rate_panics() {
        let _ = Video::constant(60.0, 0.0);
    }

    #[test]
    fn video_display_names_the_clip() {
        let v = Video::constant(60.0, 125_000.0);
        assert!(v.to_string().contains("60s"));
    }
}
