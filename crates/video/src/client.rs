//! The playback client: buffer dynamics and stall accounting.
//!
//! The demo's observable is "video playbacks are smooth when the
//! Fibbing controller is in use and stutter when disabled". The player
//! model captures exactly that: downloaded bytes become buffered
//! seconds at the clip's bitrate; playback drains one second per
//! second; an empty buffer is a stall (rebuffering until a target
//! level); QoE counters accumulate along the way.
//!
//! A player keeps its state as values at an *anchor* instant, and reads
//! what arrives from a content clock: the clock of the class its flow
//! follows ([`Player::follow`], see [`Clocks`]), or one of its own at
//! its flow's rate ([`Player::set_rate`]). A class's rate change costs
//! the class's clock one segment and its players nothing. Every
//! transition — playback starts, stalls, resumes, the download
//! completes, the clip ends — falls at an instant computed in closed
//! form from the anchor, and the player is re-anchored only there and
//! where its clock or its own rate changes. Bringing a player to an
//! instant ([`Player::run_to`]) applies the transitions due by then and
//! nothing else, and [`Player::qoe_at`] reads a copy: evaluating a
//! player at any extra instant changes no bit of it.

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

/// From `from` on, content arrives at `slope` seconds a second, from
/// `x` at `from`; `d` is `x − from`, never above an earlier segment's.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    from: f64,
    x: f64,
    d: f64,
    slope: f64,
}

/// Per class id, its content clock X(t) = ∫ r/b dt: the content
/// seconds a member has received, as segments ascending in `from`, 0.0
/// from 0 s on. Its members share the bitrate b, their cap. A class
/// changes rate a few hundred times a run: no clock is trimmed. X never
/// falls and, as r ≤ b, D(t) = X(t) − t never rises, so the instant X
/// rises or D falls to a number is found by a binary search.
#[derive(Debug, Clone, Default)]
pub struct Clocks(Vec<Vec<Seg>>);

/// No class clocks: what a player on a rate of its own reads.
pub(crate) const NO_CLOCKS: &Clocks = &Clocks(Vec::new());

impl Clocks {
    /// Class `class`, capped at `cap`, runs at `rate` bytes/s from
    /// `from` on: a segment, unless r/b stands. r/b is clamped to 1: a
    /// fill can leave a rate a few ulps above the cap, and D must never
    /// rise.
    pub fn set_rate(&mut self, class: u32, from: f64, rate: f64, cap: Option<f64>) {
        let i = class as usize;
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || vec![Seg::default()]);
        }
        let segs = &mut self.0[i];
        let (x, last) = (x_at(segs, from), segs[segs.len() - 1]);
        let d = (x - from).min(last.d);
        let slope = (rate / cap.unwrap_or(f64::INFINITY)).min(1.0);
        if slope.to_bits() == last.slope.to_bits() {
            return;
        }
        if last.from == from {
            segs.pop();
        }
        segs.push(Seg { from, x, d, slope });
    }

    /// Class `class`'s segments: 0.0 from 0 s on until its first rate.
    fn of(&self, class: u32) -> &[Seg] {
        const NONE_YET: &[Seg] = &[Seg {
            from: 0.0,
            x: 0.0,
            d: 0.0,
            slope: 0.0,
        }];
        self.0.get(class as usize).map_or(NONE_YET, Vec::as_slice)
    }
}

/// The last segment `starts` holds for (it holds for a prefix; the
/// first if for none), and where the next one starts. Most questions
/// are about the present: the last segment is asked first.
fn seg_where(segs: &[Seg], starts: impl Fn(&Seg) -> bool) -> (Seg, f64) {
    let last = segs.len() - 1;
    if starts(&segs[last]) {
        return (segs[last], f64::INFINITY);
    }
    let k = segs[..last].partition_point(starts).max(1) - 1;
    (segs[k], segs.get(k + 1).map_or(f64::INFINITY, |s| s.from))
}

/// The clock's content seconds at `t`.
fn x_at(segs: &[Seg], t: f64) -> f64 {
    let (s, _) = seg_where(segs, |s| s.from <= t);
    s.x + s.slope * (t - s.from)
}

/// The first instant the clock reaches `x`. On a segment that starts by
/// `fixed`, where a player's rate has not changed since `at`, it is
/// reckoned from `at`, with `need` content seconds then to come, as on
/// a rate of its own: a player computes what it did on the rate it had
/// until its clock's rate changes.
fn when_x(segs: &[Seg], x: f64, at: f64, need: f64, fixed: f64) -> f64 {
    let (s, next) = seg_where(segs, |s| s.x < x);
    let t = if s.from <= fixed {
        after(at, need, s.slope)
    } else {
        after(s.from, x - s.x, s.slope)
    };
    t.min(next)
}

/// The first instant D = X − t falls to `d`, where a buffer of `buffer`
/// seconds at `at` runs dry; reckoned as in [`when_x`].
fn when_d(segs: &[Seg], d: f64, at: f64, buffer: f64, fixed: f64) -> f64 {
    let (s, next) = seg_where(segs, |s| s.d > d);
    let t = if s.from <= fixed {
        dry(at, buffer, s.slope)
    } else {
        dry(s.from, s.d - d, s.slope)
    };
    t.min(next)
}

/// When `need` more content seconds have arrived, from `at` on at
/// `fill` a second (`at` if none are needed; infinite if none arrive).
fn after(at: f64, need: f64, fill: f64) -> f64 {
    if need <= 0.0 {
        at
    } else if fill > 0.0 {
        at + need / fill
    } else {
        f64::INFINITY
    }
}

/// When a buffer of `buffer` seconds at `at` runs dry while playing, at
/// `fill` content seconds a second (infinite if it never does).
fn dry(at: f64, buffer: f64, fill: f64) -> f64 {
    if fill < 1.0 {
        at + buffer / (1.0 - fill)
    } else {
        f64::INFINITY
    }
}

/// The content clock a player reads.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One of its own, at `fill` content seconds a second.
    Own(f64),
    /// Class `class`'s, X `lag` ahead of the player's content.
    Class(u32, f64),
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
    /// The clock it reads, since `joined`, at the rate it had since
    /// `since`, when `left` content seconds were still to come: until
    /// the clock's rate changes, instants are reckoned from the anchor,
    /// and the download's end from `since`, as on a rate of its own.
    feed: Feed,
    joined: f64,
    since: f64,
    left: f64,
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
            left: video.duration,
            cfg,
            video,
            state: PlayerState::Startup,
            at: now,
            downloaded_secs: 0.0,
            played_secs: 0.0,
            stall_secs: 0.0,
            feed: Feed::Own(0.0),
            joined: now,
            since: now,
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

    /// The segments of the clock it reads (its own in `own`), and how
    /// far X is ahead of its content.
    fn clock<'a>(&self, clocks: &'a Clocks, own: &'a mut [Seg; 1]) -> (&'a [Seg], f64) {
        match self.feed {
            Feed::Class(c, lag) => (clocks.of(c), lag),
            Feed::Own(slope) => {
                let (from, x) = (self.since, self.video.duration - self.left);
                let d = x - from;
                own[0] = Seg { from, x, d, slope };
                (own, 0.0)
            }
        }
    }

    /// When the download completes on the clock as it is (a past
    /// instant once it has; infinite while nothing arrives).
    fn download_end(&self, clocks: &Clocks) -> f64 {
        if let Feed::Own(fill) = self.feed {
            return after(self.since, self.left, fill);
        }
        let own = &mut [Seg::default()];
        let (segs, lag) = self.clock(clocks, own);
        let x = lag + self.video.duration;
        when_x(segs, x, self.since, self.left, self.joined)
    }

    /// The content downloaded by `t` (not before the anchor) if the
    /// download completes at `end`; reckoned as in [`when_x`].
    fn downloaded_at(&self, t: f64, end: f64, clocks: &Clocks) -> f64 {
        if t >= end {
            return self.video.duration;
        }
        let own = &mut [Seg::default()];
        let (segs, lag) = self.clock(clocks, own);
        let (s, _) = seg_where(segs, |s| s.from <= t);
        let secs = if s.from <= self.at.max(self.joined) {
            self.downloaded_secs + s.slope * (t - self.at)
        } else {
            s.x + s.slope * (t - s.from) - lag
        };
        secs.min(self.video.duration)
    }

    /// The earliest the download can complete, seen from `t` (not
    /// before the anchor): were the rest of the clip to arrive from `t`
    /// on at the clip's bitrate.
    pub fn earliest_download_end(&self, t: f64, clocks: &Clocks) -> f64 {
        let end = self.download_end(clocks);
        if t >= end {
            return end;
        }
        (t + (self.video.duration - self.downloaded_at(t, end, clocks))).min(end)
    }

    /// `true` while some of the clip has not arrived by `t`.
    pub fn wants_download_at(&self, t: f64, clocks: &Clocks) -> bool {
        t < self.download_end(clocks)
    }

    /// When the clip ends if the clock stays as it is (infinite if it
    /// never does; the anchor once it has).
    pub fn clip_end(&self, clocks: &Clocks) -> f64 {
        let mut p = self.clone();
        loop {
            if p.state == PlayerState::Done {
                return p.at;
            }
            match p.next(clocks) {
                Some((t, next, end)) => p.apply(t, next, end, clocks),
                None => return f64::INFINITY,
            }
        }
    }

    /// The flow's rate becomes `rate` bytes/s of its own at `t` (not
    /// before the anchor), as [`switch`](Self::switch) says.
    pub fn set_rate(&mut self, t: f64, rate: f64, clocks: &Clocks) {
        self.switch(t, Feed::Own(rate / self.video.rate), clocks);
    }

    /// The flow follows class `class` from `t` on (not before the
    /// anchor), as [`switch`](Self::switch) says; a player that follows
    /// it already does not move.
    pub fn follow(&mut self, t: f64, class: u32, clocks: &Clocks) {
        if !matches!(self.feed, Feed::Class(c, _) if c == class) {
            self.switch(t, Feed::Class(class, 0.0), clocks);
        }
    }

    /// Read `feed` from `t` on: the transitions due by `t` are applied,
    /// and the player is re-anchored at `t` unless content arrives at
    /// `t` as fast on `feed` as it did since its anchor (a flow that
    /// moves class at its rate). Once the download is complete nothing
    /// moves.
    fn switch(&mut self, t: f64, feed: Feed, clocks: &Clocks) {
        if matches!((self.feed, feed), (Feed::Own(a), Feed::Own(b)) if a.to_bits() == b.to_bits()) {
            return;
        }
        let t = t.max(self.at);
        let end = self.download_end(clocks);
        if t >= end {
            return;
        }
        self.run_to(t, clocks);
        let own = &mut [Seg::default()];
        let (segs, _) = self.clock(clocks, own);
        let (s, _) = seg_where(segs, |s| s.from <= t);
        let slope = match feed {
            Feed::Own(fill) => fill,
            Feed::Class(c, _) => seg_where(clocks.of(c), |s| s.from <= t).0.slope,
        };
        if s.from > self.joined || s.slope.to_bits() != slope.to_bits() {
            self.slide_to(t, end, clocks);
            (self.since, self.left) = (t, self.video.duration - self.downloaded_secs);
        }
        let has = self.downloaded_at(t, end, clocks);
        self.feed = match feed {
            Feed::Class(c, _) => Feed::Class(c, x_at(clocks.of(c), t) - has),
            own => own,
        };
        self.joined = t;
    }

    /// Apply every transition due by `t`, in order. The anchor moves to
    /// the last of them, never to `t` itself.
    pub fn run_to(&mut self, t: f64, clocks: &Clocks) {
        while let Some((when, next, end)) = self.next(clocks) {
            if when > t {
                break;
            }
            self.apply(when, next, end, clocks);
        }
    }

    /// Advance the session by `dt` seconds, ending at `now_secs`, during
    /// which `bytes` of content arrived at a constant rate: the form for
    /// a caller that feeds a player per interval.
    pub fn advance(&mut self, now_secs: f64, dt: f64, bytes: f64) {
        if dt <= 0.0 {
            return;
        }
        self.set_rate(now_secs - dt, bytes / dt, NO_CLOCKS);
        self.run_to(now_secs, NO_CLOCKS);
        self.slide_to(now_secs, self.download_end(NO_CLOCKS), NO_CLOCKS);
    }

    /// The next transition from the anchor: when it falls, the state it
    /// enters, and when the download completes. `None` once the clip is
    /// done.
    fn next(&self, clocks: &Clocks) -> Option<(f64, PlayerState, f64)> {
        if self.state == PlayerState::Done {
            return None;
        }
        let own = &mut [Seg::default()];
        let (segs, lag) = self.clock(clocks, own);
        let (at, end) = (self.at, self.download_end(clocks));
        let fixed = at.max(self.joined);
        let (buffer, played) = (self.buffer_secs(), self.played_secs);
        // When the buffer holds `target` seconds, or the whole clip has
        // arrived, whichever comes first.
        let filled = |target: f64| {
            let x = lag + played + target;
            when_x(segs, x, at, target - buffer, fixed).min(end)
        };
        let (t, next) = match self.state {
            PlayerState::Startup => (filled(self.cfg.startup_buffer), PlayerState::Playing),
            PlayerState::Stalled => (filled(self.cfg.rebuffer_target), PlayerState::Playing),
            PlayerState::Playing => {
                // Dry before the last second arrives: a stall.
                let dry = if at < end {
                    when_d(segs, lag + played - at, at, buffer, fixed)
                } else {
                    f64::INFINITY
                };
                if dry < end {
                    (dry, PlayerState::Stalled)
                } else {
                    (at + (self.video.duration - played), PlayerState::Done)
                }
            }
            PlayerState::Done => unreachable!("a done player has no next transition"),
        };
        (t < f64::INFINITY).then_some((t.max(at), next, end))
    }

    /// Move the anchor to `t` along the clock, entering no state, the
    /// download complete at `end`; past it, off the class's clock.
    fn slide_to(&mut self, t: f64, end: f64, clocks: &Clocks) {
        let dt = t - self.at;
        if dt <= 0.0 {
            return;
        }
        self.downloaded_secs = self.downloaded_at(t, end, clocks);
        if t >= end && matches!(self.feed, Feed::Class(..)) {
            (self.feed, self.joined, self.since, self.left) = (Feed::Own(0.0), end, end, 0.0);
        }
        match self.state {
            PlayerState::Playing => self.played_secs += dt,
            PlayerState::Stalled => self.stall_secs += dt,
            PlayerState::Startup | PlayerState::Done => {}
        }
        self.at = t;
    }

    /// Re-anchor at transition instant `t` and enter `next`.
    fn apply(&mut self, t: f64, next: PlayerState, end: f64, clocks: &Clocks) {
        self.slide_to(t, end, clocks);
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
    pub fn qoe_at(&self, t: f64, clocks: &Clocks) -> crate::qoe::QoeReport {
        let mut p = self.clone();
        p.run_to(t, clocks);
        p.slide_to(t, p.download_end(clocks), clocks);
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
        p.set_rate(0.0, 50.0, NO_CLOCKS);
        assert_eq!(p.download_end(NO_CLOCKS), 20.0);
        let at = |t: f64| p.qoe_at(t, NO_CLOCKS);
        assert_eq!(at(1.9).startup_delay, f64::INFINITY);
        assert_eq!(at(2.0).startup_delay, 2.0);
        assert_eq!((at(3.9).stalls, at(4.0).stalls), (0, 1));
        assert_eq!(at(5.0).stall_secs, 1.0);
        assert_eq!(at(6.0).stall_secs, 2.0);
        assert_eq!(at(7.0).played_secs, 3.0);
        assert_eq!(at(8.0).stalls, 2);
        let end = at(30.0);
        assert!(end.completed, "{end:?}");
        assert_eq!(p.clip_end(NO_CLOCKS), 20.0);
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
                lazy.set_rate(t, *r, NO_CLOCKS);
                eager.set_rate(t, *r, NO_CLOCKS);
            }
            eager.run_to(t, NO_CLOCKS);
            let _ = eager.qoe_at(t, NO_CLOCKS);
        }
        let (a, b) = (lazy.qoe_at(40.0, NO_CLOCKS), eager.qoe_at(40.0, NO_CLOCKS));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.stalls >= 2 && a.completed, "{a:?}");
    }

    /// Members of a class against players handed their class's rates:
    /// two members that join at different instants, stall and resume
    /// through five rate changes, and one of them read at every
    /// millisecond; each gives its reference's stalls, and its startup
    /// and stall seconds within 1e-9 s, and the one read at every
    /// millisecond the other's bits. A member that moves class at the
    /// rate it had is not re-anchored, so its report and its download's
    /// end are its reference's bit for bit; and a rate a few ulps above
    /// the cap is clamped, so D never rises.
    #[test]
    fn members_on_a_class_clock_play_as_players_on_their_rates() {
        let rates = [
            (0.0, 70.0),
            (3.3, 20.0),
            (7.05, 95.0),
            (11.2, 0.0),
            (13.0, 60.0),
        ];
        let mut clocks = Clocks::default();
        let (mut early, mut late) = (player(100.0), player(100.0));
        let (mut early_ref, mut late_ref) = (early.clone(), late.clone());
        early.follow(0.0, 0, &clocks);
        let mut eager = early.clone();
        let mut next = rates.iter().peekable();
        for ms in 0..40_000u32 {
            let t = f64::from(ms) / 1000.0;
            while let Some(&(at, r)) = next.next_if(|(at, _)| *at <= t) {
                clocks.set_rate(0, at, r, Some(100.0));
                early_ref.set_rate(at, r, NO_CLOCKS);
                if at >= 2.5 {
                    late_ref.set_rate(at, r, NO_CLOCKS);
                }
            }
            if ms == 2_500 {
                late.follow(t, 0, &clocks);
                late_ref.set_rate(t, 70.0, NO_CLOCKS);
            }
            eager.run_to(t, &clocks);
            let _ = eager.qoe_at(t, &clocks);
        }
        let at_end = |p: &Player, clocks: &Clocks| p.qoe_at(40.0, clocks);
        let early_q = at_end(&early, &clocks);
        assert_eq!(
            format!("{early_q:?}"),
            format!("{:?}", at_end(&eager, &clocks))
        );
        for (q, r) in [
            (early_q, at_end(&early_ref, NO_CLOCKS)),
            (at_end(&late, &clocks), at_end(&late_ref, NO_CLOCKS)),
        ] {
            assert!(
                q.stalls >= 2 && q.completed && q.stalls == r.stalls,
                "{q:?} against {r:?}"
            );
            assert!(
                (q.startup_delay - r.startup_delay).abs() <= 1e-9,
                "{q:?} against {r:?}"
            );
            assert!(
                (q.stall_secs - r.stall_secs).abs() <= 1e-9,
                "{q:?} against {r:?}"
            );
        }

        // A rate a few ulps above the cap is clamped: D never rises.
        let cap = 100.0;
        for at in [0.0, 5.0, 9.5] {
            clocks.set_rate(1, at, cap * (1.0 + 4.0 * f64::EPSILON), Some(cap));
        }
        assert!(clocks.of(1).iter().all(|s| s.slope == 1.0));
        assert!(clocks.of(1).windows(2).all(|w| w[1].d <= w[0].d));
    }

    /// A flow that moves class at the rate it had: its player reads the
    /// new class's clock but is not re-anchored, and plays as a player
    /// on that rate of its own, bit for bit, also where the new class
    /// took that rate after the player's anchor. Unless its old class
    /// changed rate after its anchor: then it is re-anchored, and
    /// agrees with a player handed the rates within 1e-9 s. Seeded
    /// cases draw the rates and the instants the classes take them and
    /// the flow moves, and start the player on its first class or on a
    /// rate of its own.
    #[test]
    fn a_member_that_moves_class_at_its_rate_is_not_re_anchored() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC10C);
        let (mut exact, mut after_anchor, mut changed_before) = (0, 0, 0);
        for case in 0..400 {
            let (cap, rate) = (100.0, rng.gen_range(20.0..100.0));
            let first = if rng.gen_bool(0.5) {
                rate
            } else {
                rng.gen_range(20.0..100.0)
            };
            let mut at: [f64; 3] = [0.0; 3].map(|_| rng.gen_range(0.0..4.0));
            at[2] = at[2].max(at[0]).max(at[1]) + 0.5;
            let [changed, took, moved_at] = at;
            let mut clocks = Clocks::default();
            clocks.set_rate(1, 0.0, first, Some(cap));
            clocks.set_rate(1, changed, rate, Some(cap));
            clocks.set_rate(2, 0.0, rng.gen_range(0.0..100.0), Some(cap));
            clocks.set_rate(2, took, rate, Some(cap));
            let (mut moved, mut reference) = (player(cap), player(cap));
            if first == rate && rng.gen_bool(0.5) {
                moved.set_rate(0.0, rate, &clocks);
            } else {
                moved.follow(0.0, 1, &clocks);
            }
            reference.set_rate(0.0, first, NO_CLOCKS);
            reference.set_rate(changed, rate, NO_CLOCKS);
            moved.run_to(moved_at, &clocks);
            reference.run_to(moved_at, NO_CLOCKS);
            after_anchor += usize::from(moved.at < took);
            changed_before += usize::from(first != rate && moved.at < changed);
            moved.follow(moved_at, 2, &clocks);
            let end = |p: &Player, c: &Clocks| p.download_end(c);
            let (a, b) = (end(&moved, &clocks), end(&reference, NO_CLOCKS));
            let same = first == rate;
            exact += usize::from(same);
            let close = |a: f64, b: f64| {
                if same {
                    a.to_bits() == b.to_bits()
                } else {
                    a == b || (a - b).abs() <= 1e-9
                }
            };
            assert!(close(a, b), "case {case}: download end {a} against {b}");
            for t in [moved_at + 0.05, 5.5, 8.25] {
                let a = moved.earliest_download_end(t.max(moved.at), &clocks);
                let b = reference.earliest_download_end(t.max(reference.at), NO_CLOCKS);
                assert!(close(a, b), "case {case}, at {t}: {a} against {b}");
                let (a, b) = (moved.qoe_at(t, &clocks), reference.qoe_at(t, NO_CLOCKS));
                assert_eq!(a.stalls, b.stalls, "case {case}, at {t}");
                assert!(
                    close(a.stall_secs, b.stall_secs),
                    "case {case}, at {t}: {a:?} against {b:?}"
                );
                assert!(
                    close(a.startup_delay, b.startup_delay),
                    "case {case}, at {t}"
                );
                assert!(
                    !same || format!("{a:?}") == format!("{b:?}"),
                    "case {case}, at {t}"
                );
            }
        }
        assert!(exact >= 150 && after_anchor >= 50 && changed_before >= 50, "{exact} exact cases, {after_anchor} moves after the anchor, {changed_before} after a change");
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
