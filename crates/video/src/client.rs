//! The playback client: buffer dynamics and stall accounting.
//!
//! The demo's observable is "video playbacks are smooth when the
//! Fibbing controller is in use and stutter when disabled". The player
//! model captures exactly that: downloaded bytes become buffered
//! seconds at the current bitrate; playback drains one second per
//! second; an empty buffer is a stall (rebuffering until a target
//! level); QoE counters accumulate along the way.

use crate::catalog::Video;
use fib_igp::time::Timestamp;

/// Player lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerState {
    /// Filling the initial buffer; nothing rendered yet.
    Startup,
    /// Rendering.
    Playing,
    /// Buffer ran dry mid-playback; refilling.
    Stalled,
    /// Clip finished.
    Done,
}

/// Player tuning.
#[derive(Debug, Clone, Copy)]
pub struct PlayerConfig {
    /// Buffered seconds required to start rendering.
    pub startup_buffer: f64,
    /// Buffered seconds required to resume after a stall.
    pub rebuffer_target: f64,
    /// Buffer capacity in seconds (pauses download when full).
    pub max_buffer: f64,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            startup_buffer: 2.0,
            rebuffer_target: 2.0,
            max_buffer: 30.0,
        }
    }
}

/// A playback client for one video session.
#[derive(Debug, Clone)]
pub struct Player {
    cfg: PlayerConfig,
    video: Video,
    state: PlayerState,
    level: usize,
    /// `video.ladder.rate(level)`, kept beside the level: every tick
    /// reads it twice, and the ladder is a heap list of the session's
    /// own.
    bitrate: f64,
    buffer_secs: f64,
    played_secs: f64,
    downloaded_secs: f64,
    started_at: Option<f64>,
    session_start: f64,
    // QoE accumulators.
    stalls: u32,
    stall_secs: f64,
    bitrate_time: f64, // ∫ bitrate over played time
    switches: u32,
}

impl Player {
    /// New player for `video`, session starting at `now`.
    pub fn new(video: Video, cfg: PlayerConfig, now: Timestamp) -> Player {
        Player {
            cfg,
            bitrate: video.ladder.rate(0),
            video,
            state: PlayerState::Startup,
            level: 0,
            buffer_secs: 0.0,
            played_secs: 0.0,
            downloaded_secs: 0.0,
            started_at: None,
            session_start: now.as_secs_f64(),
            stalls: 0,
            stall_secs: 0.0,
            bitrate_time: 0.0,
            switches: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> PlayerState {
        self.state
    }

    /// Buffered content in seconds.
    pub fn buffer_secs(&self) -> f64 {
        self.buffer_secs
    }

    /// Seconds of content rendered so far.
    pub fn played_secs(&self) -> f64 {
        self.played_secs
    }

    /// Current ABR level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current bitrate (bytes/s).
    pub fn bitrate(&self) -> f64 {
        self.bitrate
    }

    /// Switch the ABR level (QoE counts the switch).
    pub fn set_level(&mut self, level: usize) {
        let clamped = level.min(self.video.ladder.levels() - 1);
        if clamped != self.level {
            self.level = clamped;
            self.bitrate = self.video.ladder.rate(clamped);
            self.switches += 1;
        }
    }

    /// `true` while the player still wants bytes.
    pub fn wants_download(&self) -> bool {
        self.state != PlayerState::Done
            && self.downloaded_secs < self.video.duration
            && self.buffer_secs < self.cfg.max_buffer
    }

    /// Advance the session by `dt` seconds during which `bytes` of
    /// content arrived. `now_secs` is the absolute session clock used
    /// for QoE timestamps.
    pub fn advance(&mut self, now_secs: f64, dt: f64, bytes: f64) {
        if self.state == PlayerState::Done || dt <= 0.0 {
            return;
        }
        // Ingest: bytes become buffered seconds at the current level's
        // bitrate, bounded by what remains of the clip.
        let rate = self.bitrate();
        if bytes > 0.0 && self.downloaded_secs < self.video.duration {
            let secs = (bytes / rate).min(self.video.duration - self.downloaded_secs);
            self.downloaded_secs += secs;
            self.buffer_secs += secs;
        }

        match self.state {
            PlayerState::Startup => {
                if self.buffer_secs >= self.cfg.startup_buffer
                    || self.downloaded_secs >= self.video.duration
                {
                    self.state = PlayerState::Playing;
                    self.started_at = Some(now_secs);
                }
            }
            PlayerState::Stalled => {
                self.stall_secs += dt;
                if self.buffer_secs >= self.cfg.rebuffer_target
                    || self.downloaded_secs >= self.video.duration
                {
                    self.state = PlayerState::Playing;
                }
            }
            PlayerState::Playing => {
                let render = dt
                    .min(self.buffer_secs)
                    .min(self.video.duration - self.played_secs);
                self.played_secs += render;
                self.buffer_secs -= render;
                self.bitrate_time += render * rate;
                if self.played_secs >= self.video.duration - 1e-9 {
                    self.state = PlayerState::Done;
                } else if render < dt - 1e-12 && self.downloaded_secs < self.video.duration {
                    // Ran dry mid-interval: stall.
                    self.state = PlayerState::Stalled;
                    self.stalls += 1;
                    self.stall_secs += dt - render;
                }
            }
            PlayerState::Done => {}
        }
    }

    /// Finalize and report QoE. Callable any time; fields reflect the
    /// session so far.
    pub fn qoe(&self) -> crate::qoe::QoeReport {
        crate::qoe::QoeReport {
            startup_delay: self
                .started_at
                .map(|t| t - self.session_start)
                .unwrap_or(f64::INFINITY),
            stalls: self.stalls,
            stall_secs: self.stall_secs,
            mean_bitrate: if self.played_secs > 0.0 {
                self.bitrate_time / self.played_secs
            } else {
                0.0
            },
            max_bitrate: self.video.ladder.max_rate(),
            switches: self.switches,
            played_secs: self.played_secs,
            duration: self.video.duration,
            completed: self.state == PlayerState::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Video;

    fn player(rate: f64) -> Player {
        Player::new(
            Video::constant(10.0, rate),
            PlayerConfig {
                startup_buffer: 1.0,
                rebuffer_target: 1.0,
                max_buffer: 5.0,
            },
            Timestamp::ZERO,
        )
    }

    #[test]
    fn smooth_playback_with_sufficient_rate() {
        let mut p = player(100.0);
        let mut t = 0.0;
        // Feed exactly the bitrate for 30 s of wall clock.
        for _ in 0..300 {
            p.advance(t, 0.1, 10.0);
            t += 0.1;
        }
        assert_eq!(p.state(), PlayerState::Done);
        let q = p.qoe();
        assert_eq!(q.stalls, 0);
        assert!(q.completed);
        assert!((q.mean_bitrate - 100.0).abs() < 1e-6);
        assert!(q.startup_delay > 0.0 && q.startup_delay < 2.0);
    }

    #[test]
    fn starved_player_stalls() {
        let mut p = player(100.0);
        let mut t = 0.0;
        // Half the required rate.
        for _ in 0..400 {
            p.advance(t, 0.1, 5.0);
            t += 0.1;
        }
        let q = p.qoe();
        assert!(q.stalls >= 1, "expected stalls, got {q:?}");
        assert!(q.stall_secs > 1.0);
    }

    #[test]
    fn fast_network_fills_buffer_then_pauses_download() {
        let mut p = player(100.0);
        // Huge burst: buffer caps at max_buffer=5 s.
        p.advance(0.0, 0.1, 100_000.0);
        assert!(p.buffer_secs() <= 10.0 + 1e-9);
        assert!(!p.wants_download() || p.buffer_secs() < 5.0);
    }

    #[test]
    fn done_player_ignores_input() {
        let mut p = player(100.0);
        let mut t = 0.0;
        for _ in 0..300 {
            p.advance(t, 0.1, 10.0);
            t += 0.1;
        }
        assert_eq!(p.state(), PlayerState::Done);
        let played = p.played_secs();
        p.advance(t, 1.0, 1000.0);
        assert_eq!(p.played_secs(), played);
    }

    #[test]
    fn level_switch_counts() {
        let mut p = Player::new(
            Video::adaptive(10.0),
            PlayerConfig::default(),
            Timestamp::ZERO,
        );
        p.set_level(2);
        p.set_level(2);
        p.set_level(0);
        assert_eq!(p.qoe().switches, 2);
    }

    #[test]
    fn never_started_reports_infinite_startup() {
        let p = player(100.0);
        assert!(p.qoe().startup_delay.is_infinite());
        assert!(!p.qoe().completed);
    }
}
