//! The playback client: buffer dynamics and stall accounting.
//!
//! The demo's observable is "video playbacks are smooth when the
//! Fibbing controller is in use and stutter when disabled". The player
//! model captures exactly that: downloaded bytes become buffered
//! seconds at the clip's bitrate; playback drains one second per
//! second; an empty buffer is a stall (rebuffering until a target
//! level); QoE counters accumulate along the way.
//!
//! A player keeps its state as values at an *anchor* instant plus
//! constant slopes: between two changes of its flow's rate, content
//! arrives at a constant number of seconds per second, and plays at
//! one. So every transition — playback starts, stalls, resumes, the
//! download completes, the clip ends — falls at an instant computed in
//! closed form from the anchor, and the player is re-anchored only
//! there and where the rate changes ([`Player::set_rate`]). Bringing a
//! player to an instant ([`Player::run_to`]) applies the transitions
//! due by then and nothing else, and [`Player::qoe_at`] reads a copy:
//! evaluating a player at any extra instant changes no bit of it.

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
    /// Buffered seconds required to resume after a stall (positive).
    pub rebuffer_target: f64,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            startup_buffer: 2.0,
            rebuffer_target: 2.0,
        }
    }
}

/// A playback client for one video session. Instants are simulated
/// seconds.
#[derive(Debug, Clone)]
pub struct Player {
    cfg: PlayerConfig,
    video: Video,
    state: PlayerState,
    /// The anchor: the instant the values below hold at.
    at: f64,
    downloaded_secs: f64,
    played_secs: f64,
    stall_secs: f64,
    /// Content seconds arriving per second: the flow's rate over the
    /// bitrate, as of its last change.
    fill: f64,
    /// When the last content second arrives at `fill`: computed where
    /// the rate changes, and read by every transition after it, so
    /// that they all agree on it.
    download_end: f64,
    /// When rendering began (infinite until then).
    started_at: f64,
    session_start: f64,
    stalls: u32,
}

impl Player {
    /// New player for `video`, session starting at `now`, receiving
    /// nothing until its rate is set.
    pub fn new(video: Video, cfg: PlayerConfig, now: Timestamp) -> Player {
        assert!(cfg.rebuffer_target > 0.0, "the rebuffer target is positive");
        let now = now.as_secs_f64();
        Player {
            cfg,
            video,
            state: PlayerState::Startup,
            at: now,
            downloaded_secs: 0.0,
            played_secs: 0.0,
            stall_secs: 0.0,
            fill: 0.0,
            download_end: f64::INFINITY,
            started_at: f64::INFINITY,
            session_start: now,
            stalls: 0,
        }
    }

    /// State at the anchor.
    pub fn state(&self) -> PlayerState {
        self.state
    }

    /// Buffered content in seconds, at the anchor.
    pub fn buffer_secs(&self) -> f64 {
        self.downloaded_secs - self.played_secs
    }

    /// Seconds of content rendered by the anchor.
    pub fn played_secs(&self) -> f64 {
        self.played_secs
    }

    /// When the download completes at the current rate (a past
    /// instant once it has; infinite while nothing arrives).
    pub fn download_end(&self) -> f64 {
        self.download_end
    }

    /// The earliest the download can complete, seen from `t` (not
    /// before the anchor): were the rest of the clip to arrive from `t`
    /// on at the clip's bitrate. Never after
    /// [`download_end`](Self::download_end).
    pub fn earliest_download_end(&self, t: f64) -> f64 {
        if t >= self.download_end {
            return self.download_end;
        }
        let downloaded = self.downloaded_secs + self.fill * (t - self.at);
        (t + (self.video.duration - downloaded)).min(self.download_end)
    }

    /// `true` while some of the clip has not arrived by `t`.
    pub fn wants_download_at(&self, t: f64) -> bool {
        t < self.download_end
    }

    /// When the clip ends if the rate stays as it is (infinite if it
    /// never does; the anchor once it has).
    pub fn clip_end(&self) -> f64 {
        let mut p = self.clone();
        loop {
            if p.state == PlayerState::Done {
                return p.at;
            }
            match p.next() {
                Some((t, next)) => p.apply(t, next),
                None => return f64::INFINITY,
            }
        }
    }

    /// The flow's rate becomes `rate` bytes/s at `t` (not before the
    /// anchor): the transitions due by `t` are applied at the old rate,
    /// and the player is re-anchored at `t`. Once the download is
    /// complete the rate no longer matters, and nothing moves.
    pub fn set_rate(&mut self, t: f64, rate: f64) {
        let t = t.max(self.at);
        if t >= self.download_end {
            return;
        }
        self.run_to(t);
        self.slide_to(t);
        self.fill = rate / self.video.rate;
        let left = self.video.duration - self.downloaded_secs;
        self.download_end = if left <= 0.0 {
            t
        } else if self.fill > 0.0 {
            t + left / self.fill
        } else {
            f64::INFINITY
        };
    }

    /// Apply every transition due by `t`, in order. The anchor moves to
    /// the last of them, never to `t` itself.
    pub fn run_to(&mut self, t: f64) {
        while let Some((when, next)) = self.next() {
            if when > t {
                break;
            }
            self.apply(when, next);
        }
    }

    /// Advance the session by `dt` seconds, ending at `now_secs`, during
    /// which `bytes` of content arrived at a constant rate: the form for
    /// a caller that feeds a player per interval.
    pub fn advance(&mut self, now_secs: f64, dt: f64, bytes: f64) {
        if dt <= 0.0 {
            return;
        }
        self.set_rate(now_secs - dt, bytes / dt);
        self.run_to(now_secs);
        self.slide_to(now_secs);
    }

    /// The next transition from the anchor: when it falls, and the
    /// state it enters. `None` once the clip is done.
    fn next(&self) -> Option<(f64, PlayerState)> {
        let (at, fill) = (self.at, self.fill);
        // When the buffer holds `target` seconds, or the whole clip has
        // arrived, whichever comes first.
        let filled = |target: f64| {
            let need = target - self.buffer_secs();
            let t = if need <= 0.0 {
                at
            } else if fill > 0.0 {
                at + need / fill
            } else {
                f64::INFINITY
            };
            t.min(self.download_end)
        };
        let (t, next) = match self.state {
            PlayerState::Startup => (filled(self.cfg.startup_buffer), PlayerState::Playing),
            PlayerState::Stalled => (filled(self.cfg.rebuffer_target), PlayerState::Playing),
            PlayerState::Playing => {
                // Dry before the last second arrives: a stall.
                let dry = if at < self.download_end && fill < 1.0 {
                    at + self.buffer_secs() / (1.0 - fill)
                } else {
                    f64::INFINITY
                };
                if dry < self.download_end {
                    (dry, PlayerState::Stalled)
                } else {
                    (
                        at + (self.video.duration - self.played_secs),
                        PlayerState::Done,
                    )
                }
            }
            PlayerState::Done => return None,
        };
        (t < f64::INFINITY).then_some((t.max(at), next))
    }

    /// Move the anchor to `t` along the current slopes, entering no
    /// state.
    fn slide_to(&mut self, t: f64) {
        let dt = t - self.at;
        if dt <= 0.0 {
            return;
        }
        self.downloaded_secs = if t >= self.download_end {
            self.video.duration
        } else {
            (self.downloaded_secs + self.fill * dt).min(self.video.duration)
        };
        match self.state {
            PlayerState::Playing => self.played_secs += dt,
            PlayerState::Stalled => self.stall_secs += dt,
            PlayerState::Startup | PlayerState::Done => {}
        }
        self.at = t;
    }

    /// Re-anchor at transition instant `t` and enter `next`.
    fn apply(&mut self, t: f64, next: PlayerState) {
        self.slide_to(t);
        match next {
            PlayerState::Playing => {
                if self.started_at.is_infinite() {
                    self.started_at = t;
                }
            }
            PlayerState::Stalled => {
                self.played_secs = self.downloaded_secs;
                self.stalls += 1;
            }
            PlayerState::Done => {
                self.downloaded_secs = self.video.duration;
                self.played_secs = self.video.duration;
            }
            PlayerState::Startup => unreachable!("no state returns to startup"),
        }
        self.state = next;
    }

    /// The session's QoE report as of `t` (not before the anchor),
    /// read from a copy: the player itself does not move.
    pub fn qoe_at(&self, t: f64) -> crate::qoe::QoeReport {
        let mut p = self.clone();
        p.run_to(t);
        p.slide_to(t);
        p.qoe()
    }

    /// The QoE report at the anchor.
    pub fn qoe(&self) -> crate::qoe::QoeReport {
        crate::qoe::QoeReport {
            startup_delay: self.started_at - self.session_start,
            stalls: self.stalls,
            stall_secs: self.stall_secs,
            mean_bitrate: if self.played_secs > 0.0 {
                self.video.rate
            } else {
                0.0
            },
            max_bitrate: self.video.rate,
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
            t += 0.1;
            p.advance(t, 0.1, 10.0);
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
            t += 0.1;
            p.advance(t, 0.1, 5.0);
        }
        let q = p.qoe();
        assert!(q.stalls >= 1, "expected stalls, got {q:?}");
        assert!(q.stall_secs > 1.0);
    }

    #[test]
    fn done_player_ignores_input() {
        let mut p = player(100.0);
        let mut t = 0.0;
        for _ in 0..300 {
            t += 0.1;
            p.advance(t, 0.1, 10.0);
        }
        assert_eq!(p.state(), PlayerState::Done);
        let played = p.played_secs();
        p.advance(t + 1.0, 1.0, 1000.0);
        assert_eq!(p.played_secs(), played);
    }

    #[test]
    fn never_started_reports_infinite_startup() {
        let p = player(100.0);
        assert!(p.qoe().startup_delay.is_infinite());
        assert!(!p.qoe().completed);
    }

    /// Half the bitrate from t = 0, one rate for the whole clip: every
    /// transition lands where the arithmetic says. Startup at 2 s (1 s
    /// of buffer at 0.5 s/s); the buffer drains at 0.5 s/s and is dry at
    /// 4 s; refilled by 6 s; dry again at 8 s, and so on until the last
    /// refill at 18 s. Its second of buffer runs out at 20 s, as the last
    /// content second arrives: that is the end of the clip, not a
    /// stall.
    #[test]
    fn transitions_fall_where_the_closed_form_puts_them() {
        let mut p = player(100.0);
        p.set_rate(0.0, 50.0);
        assert_eq!(p.download_end(), 20.0);
        let at = |t: f64| p.qoe_at(t);
        assert_eq!(at(1.9).startup_delay, f64::INFINITY);
        assert_eq!(at(2.0).startup_delay, 2.0);
        assert_eq!((at(3.9).stalls, at(4.0).stalls), (0, 1));
        assert_eq!(at(5.0).stall_secs, 1.0);
        assert_eq!(at(6.0).stall_secs, 2.0);
        assert_eq!(at(7.0).played_secs, 3.0);
        assert_eq!(at(8.0).stalls, 2);
        let end = at(30.0);
        assert!(end.completed, "{end:?}");
        assert_eq!(p.clip_end(), 20.0);
        // Stalls from 4 to 6, 8 to 10, 12 to 14 and 16 to 18 s.
        assert_eq!((end.stalls, end.stall_secs), (4, 8.0));
        assert_eq!(end.played_secs, 10.0);
        // None of the reads moved the player.
        assert_eq!((p.state(), p.played_secs()), (PlayerState::Startup, 0.0));
    }

    /// Reading or bringing a player to extra instants changes no bit:
    /// one copy is run to every millisecond and read there, another
    /// only learns of its rate changes; both give the same report.
    #[test]
    fn extra_evaluations_change_no_bit() {
        let rates = [
            (0.0, 70.0),
            (3.3, 20.0),
            (7.05, 95.0),
            (11.2, 0.0),
            (13.0, 60.0),
        ];
        let mut lazy = player(100.0);
        let mut eager = lazy.clone();
        let mut next = rates.iter().peekable();
        for ms in 0..40_000u32 {
            let t = f64::from(ms) / 1000.0;
            while let Some((_, r)) = next.next_if(|(at, _)| *at <= t) {
                lazy.set_rate(t, *r);
                eager.set_rate(t, *r);
            }
            eager.run_to(t);
            let _ = eager.qoe_at(t);
        }
        let (a, b) = (lazy.qoe_at(40.0), eager.qoe_at(40.0));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.stalls >= 2 && a.completed, "{a:?}");
    }

    #[test]
    #[should_panic(expected = "rebuffer target")]
    fn a_zero_rebuffer_target_is_refused() {
        let cfg = PlayerConfig {
            startup_buffer: 1.0,
            rebuffer_target: 0.0,
        };
        let _ = Player::new(Video::constant(1.0, 1.0), cfg, Timestamp::ZERO);
    }
}
