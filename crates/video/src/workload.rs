//! The video workload driver: a netsim [`EventHandler`] component
//! binding players to flows.
//!
//! Each session is a video server → client pair: a rate-capped flow in
//! the simulator (the server paces at the encoding bitrate, as the
//! demo's streaming servers do) feeding a [`Player`]'s buffer. The
//! driver launches sessions on schedule, all but pauses a server once
//! its player holds the whole clip, stops it when the clip ends, and
//! shares its sessions with a [`QoeHandle`] through which the
//! experiment harness reads every session's QoE report, mid-run or
//! after it. A report is stored once, under its tag, when its session
//! finishes; the reports of sessions still playing are derived from
//! their players when somebody reads.
//!
//! A schedule is a list of [`Wave`]s: what every viewer of a wave
//! shares (server, prefix, asset) is stored once, next to the wave's
//! arrival instants. A pending session costs one 16-byte
//! `(start, wave, tag)` triple, and a player is built when its session
//! launches. The playing sessions sit in a slab: a launch takes a free
//! slot if there is one, and a session frees its slot when it
//! finishes, so the slab has as many slots as the most sessions ever
//! playing at once, and memory tracks the number of *concurrent*
//! viewers, not the length of the schedule. City-scale scenarios
//! (thousands of sessions) rely on this.
//!
//! Players sleep. A player's state is values at an anchor plus slopes
//! that hold until its flow's rate changes (see [`crate::client`]), so
//! the driver touches a session only where that rate changes or where
//! a data-plane action falls due, never per tick. It watches the
//! simulator's rate-change log ([`SimContext::watch_rates`]) and, at
//! each tick, hands every change to its session's player, which
//! re-anchors at the change's own instant. Each session is booked in a
//! per-tick calendar no later than its next action can fall due: the
//! cap flip at the first tick at or after its download completes, the
//! stop at the first tick at or after its clip ends. While its server
//! paces, a session is booked where its download would end were the
//! rest to arrive at the full bitrate, the most the server sends; so a
//! rate change never moves a booking, and a session woken early is
//! booked again. Startups, stalls and resumes fall at their exact
//! instants and need no action.
//!
//! The actions themselves (launch, cap flip, stop) stay on the 100 ms
//! tick: each one changes the data plane, and issuing them at exact
//! instants would cost one settle per session event instead of one
//! per tick.
//!
//! A rate change or a booking finds its session in one step: a table
//! from flow id, less the oldest playing session's, to slot. A
//! session's entry is cleared when it finishes, and the entries before
//! the oldest playing session's are dropped, so the table spans the
//! flows started since that session launched.

use crate::catalog::Video;
use crate::client::{Player, PlayerConfig, PlayerState};
use crate::qoe::QoeReport;
use fib_igp::time::{Dur, Timestamp};
use fib_igp::types::{Prefix, RouterId};
use fib_netsim::flow::{FlowId, FlowSpec, RateChange};
use fib_netsim::handler::{AppEvent, EventHandler};
use fib_netsim::sim::SimContext;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// The grid the driver's data-plane actions fall on.
const TICK: Dur = Dur::from_millis(100);

/// How many ticks ahead the calendar books (409.6 s): a session whose
/// next action is further off is booked at the last of them.
const CALENDAR_TICKS: usize = 4096;

/// The index of the first tick at or after `t` seconds (tick `k` falls
/// at `k × TICK`, the first at `TICK`), by the same comparison a player
/// brought to a tick's instant makes; `None` past the last tick a
/// timestamp can name (an infinite `t` included).
fn tick_at_or_after(t: f64) -> Option<u64> {
    let secs = |k: u64| Timestamp(k * TICK.0).as_secs_f64();
    let last = u64::MAX / TICK.0;
    if t.is_nan() || t > secs(last) {
        return None;
    }
    let mut k = ((t / TICK.as_secs_f64()).ceil() as u64).clamp(1, last);
    while k > 1 && t <= secs(k - 1) {
        k -= 1;
    }
    while t > secs(k) {
        k += 1;
    }
    Some(k)
}

/// One wave of viewers: sessions that differ only in when they start.
///
/// Sessions are tagged by position: session `i` of a wave gets the
/// number of sessions in the waves before it, plus `i`. The tag keys
/// the session's flow and its QoE report.
#[derive(Debug, Clone)]
pub struct Wave {
    /// Server-side ingress router.
    pub src: RouterId,
    /// Client-side destination prefix.
    pub dst: Prefix,
    /// The asset every session of the wave plays.
    pub video: Video,
    /// When each client presses play, in *generation* order (the order
    /// a seeded generator drew them, not necessarily ascending).
    pub starts: Vec<Timestamp>,
}

impl Wave {
    /// A wave of constant-bitrate sessions (the demo's shape): `rate`
    /// bytes/s, clips `secs` long.
    pub fn constant(
        src: RouterId,
        dst: Prefix,
        rate: f64,
        secs: f64,
        starts: Vec<Timestamp>,
    ) -> Wave {
        Wave {
            src,
            dst,
            video: Video::constant(secs, rate),
            starts,
        }
    }
}

/// A flow id no playing session has, in [`Shared::positions`].
const NOT_ACTIVE: u32 = u32::MAX;

/// What the driver shares with its readers.
#[derive(Default)]
struct Shared {
    /// Final reports by tag (tags are dense from 0): `Some` once the
    /// session has finished, written once.
    finished: Vec<Option<QoeReport>>,
    /// The slab of playing sessions, in no order: a slot is `None`
    /// while free.
    slots: Vec<Option<Session>>,
    /// The free slots, the last freed on top.
    free: Vec<u32>,
    /// Per flow id from `base` to the newest session's, the slot of the
    /// session whose flow it is ([`NOT_ACTIVE`] for none): what a rate
    /// change or a booking is looked up in, four bytes an id.
    positions: VecDeque<u32>,
    /// The flow id `positions` starts at: the oldest playing session's.
    base: u64,
    /// The last tick's instant, which the reports of playing sessions
    /// are derived at (`None` before the first tick).
    now: Option<Timestamp>,
    /// Player updates so far: rate changes handed to a player, and
    /// sessions woken at the tick their action fell due at.
    updates: u64,
}

/// Shared live QoE: every launched session's latest report, readable
/// by host code at any instant, mid-run included. Sessions become
/// visible at the first tick.
#[derive(Clone, Default)]
pub struct QoeHandle(Arc<Mutex<Shared>>);

impl QoeHandle {
    /// Every visible session's latest report in ascending tag order
    /// (the order [`summarize`] adds in), sessions still playing
    /// included: their players report as of the last tick. The stored
    /// reports of finished sessions and the tag-sorted playing ones
    /// merge straight into the `Vec` returned; the store is not copied.
    ///
    /// [`summarize`]: crate::qoe::summarize
    pub fn reports(&self) -> Vec<QoeReport> {
        let shared = self.0.lock();
        let mut playing: Vec<(u64, QoeReport)> = match shared.now {
            Some(now) => {
                let now = now.as_secs_f64();
                shared
                    .playing()
                    .map(|s| (s.tag, s.player.qoe_at(now)))
                    .collect()
            }
            None => Vec::new(),
        };
        playing.sort_by_key(|(tag, _)| *tag);
        let mut out = Vec::with_capacity(shared.finished.len() + playing.len());
        let mut playing = playing.into_iter().peekable();
        for (tag, report) in (0u64..).zip(&shared.finished) {
            let Some(report) = report else {
                continue;
            };
            while let Some((_, earlier)) = playing.next_if(|(t, _)| *t < tag) {
                out.push(earlier);
            }
            out.push(report.clone());
        }
        out.extend(playing.map(|(_, report)| report));
        out
    }

    /// How many player updates the driver has made: one per rate change
    /// handed to a playing session's player, and one per session woken
    /// at a tick. A driver that walked every session at every tick would
    /// make about as many as sessions times the ticks they play.
    pub fn player_updates(&self) -> u64 {
        self.0.lock().updates
    }
}

/// A playing session: its player holds a copy of the wave's asset.
struct Session {
    tag: u64,
    flow: FlowId,
    player: Player,
    /// The server is all but paused (1 B/s): the whole clip is in. It
    /// starts at the clip's rate.
    paused: bool,
}

// The slab is what memory tracks: a wider session is paid per
// concurrent viewer.
const _: () = assert!(
    std::mem::size_of::<Option<Session>>() <= 152,
    "a slot fits in 152 bytes"
);

impl Session {
    /// Start the flow and the player of session `tag` of `wave`.
    fn launch(wave: &Wave, tag: u64, api: &mut SimContext<'_>) -> Session {
        let flow = api.start_flow(
            FlowSpec::new(wave.src, wave.dst)
                .with_cap(wave.video.rate)
                .with_tag(tag),
        );
        Session {
            tag,
            flow,
            player: Player::new(wave.video, PlayerConfig::default(), api.now()),
            paused: false,
        }
    }

    /// Its clip has ended: its flow is stopped and its report is final.
    /// (A player reaches its end only where the driver brings it to a
    /// tick, and the driver stops the flow there.)
    fn finished(&self) -> bool {
        self.player.state() == PlayerState::Done
    }

    /// The earliest its next action can fall due, seen from `now`: the
    /// clip's end once the server is paused; while it paces, the
    /// download's end were the rest of the clip to arrive at the clip's
    /// bitrate, which the server is capped at. That is never later than
    /// where the rates to come put it, whatever they are (less a
    /// microsecond, against rounding), so a session booked there needs
    /// no new booking when its rate changes.
    fn earliest_due(&self, now: f64) -> f64 {
        if self.paused {
            self.player.clip_end()
        } else {
            self.player.earliest_download_end(now) - 1e-6
        }
    }
}

/// The workload driver.
pub struct VideoWorkload {
    waves: Vec<Wave>,
    /// `(start, wave, tag)` of every session, stably sorted by start:
    /// sessions due at the same instant launch in the order the waves
    /// list them. Sixteen bytes a session: setting up a 36 000-session
    /// schedule is mostly sorting this list.
    order: Vec<(Timestamp, u32, u32)>,
    /// Sessions launched so far: the next one is `order[cursor]`.
    cursor: usize,
    shared: QoeHandle,
    /// Per tick from `next_tick` on, the flows of the sessions booked at
    /// it: every playing session is booked at exactly one tick, no later
    /// than the one its next action falls due at.
    calendar: VecDeque<Vec<FlowId>>,
    /// The next tick to serve: the one `calendar` starts at.
    next_tick: u64,
    /// The rate changes drained at a tick (kept for its allocation).
    changes: Vec<RateChange>,
}

impl VideoWorkload {
    /// Build a driver over a schedule; returns the driver and the QoE
    /// handle to read during or after the run.
    pub fn new(waves: Vec<Wave>) -> (VideoWorkload, QoeHandle) {
        // Grown, not pre-sized: one 36 000-entry allocation up front
        // measured 0.25 ms slower per set-up than doubling into it.
        let mut order = Vec::new();
        for (w, wave) in waves.iter().enumerate() {
            for start in &wave.starts {
                let tag = u32::try_from(order.len()).expect("fewer than 2^32 sessions");
                order.push((*start, w as u32, tag));
            }
        }
        order.sort_by_key(|(start, _, _)| *start);
        let shared = QoeHandle::default();
        let driver = VideoWorkload {
            waves,
            order,
            cursor: 0,
            shared: shared.clone(),
            calendar: VecDeque::new(),
            next_tick: 1,
            changes: Vec::new(),
        };
        (driver, shared)
    }

    /// Launch every session due by now, in schedule order.
    fn launch_due(&mut self, shared: &mut Shared, ctx: &mut SimContext<'_>) {
        while let Some(&(start, wave, tag)) = self.order.get(self.cursor) {
            if start > ctx.now() {
                break;
            }
            self.cursor += 1;
            let session = Session::launch(&self.waves[wave as usize], u64::from(tag), ctx);
            self.book(&session, ctx.now());
            shared.place(session);
        }
    }

    /// Book `s` at the first tick at or after the earliest its next
    /// action can fall due, seen from `now`, and after `now` itself; but
    /// no further ahead than the calendar reaches (an early wake-up only
    /// books again).
    fn book(&mut self, s: &Session, now: Timestamp) {
        if let Some(k) = tick_at_or_after(s.earliest_due(now.as_secs_f64())) {
            let ahead = k.max(now.0 / TICK.0 + 1) - self.next_tick;
            let last = CALENDAR_TICKS - 1;
            let j = usize::try_from(ahead).map_or(last, |j| j.min(last));
            if self.calendar.len() <= j {
                self.calendar.resize_with(j + 1, Vec::new);
            }
            self.calendar[j].push(s.flow);
        }
    }

    /// Hand every rate change since the last tick to its session's
    /// player, in the order the settles made them.
    fn apply_rate_changes(&mut self, shared: &mut Shared, ctx: &mut SimContext<'_>) {
        ctx.take_rate_changes(&mut self.changes);
        for change in &self.changes {
            let Some(i) = shared.find(change.flow) else {
                continue;
            };
            let s = shared.slots[i].as_mut().expect("a listed slot is taken");
            if s.paused {
                continue;
            }
            s.player.set_rate(change.at.as_secs_f64(), change.rate);
            shared.updates += 1;
        }
    }

    /// Wake the sessions booked at now's tick, in flow order (launch
    /// order, the order a walk over the active set would meet them in):
    /// each takes its action if one is due, and is booked again unless
    /// it finished.
    fn wake_due(&mut self, shared: &mut Shared, ctx: &mut SimContext<'_>) {
        let now = ctx.now();
        debug_assert_eq!(now.0 / TICK.0, self.next_tick, "ticks are served in turn");
        self.next_tick += 1;
        let Some(mut due) = self.calendar.pop_front() else {
            return;
        };
        due.sort_unstable();
        for flow in due {
            let i = shared.find(flow).expect("a booked session is playing");
            shared.updates += 1;
            if !shared.act(i, ctx) {
                self.book(shared.slots[i].as_ref().expect("plays on"), now);
            }
        }
    }

    /// One tick: rate changes, then the actions due.
    fn tick(&mut self, shared: &mut Shared, ctx: &mut SimContext<'_>) {
        self.apply_rate_changes(shared, ctx);
        self.wake_due(shared, ctx);
        shared.now = Some(ctx.now());
    }
}

impl Shared {
    /// The playing sessions, in slot order.
    fn playing(&self) -> impl Iterator<Item = &Session> {
        self.slots.iter().flatten()
    }

    /// The slot of the session whose flow is `flow`, if it is playing.
    fn find(&self, flow: FlowId) -> Option<usize> {
        let at = usize::try_from(flow.0.checked_sub(self.base)?).ok()?;
        let i = *self.positions.get(at)?;
        (i != NOT_ACTIVE).then_some(i as usize)
    }

    /// Put a launched session, whose flow is newer than every flow in
    /// the table, in a free slot, or in a new one if none is free; the
    /// first flow of an empty table is its base.
    fn place(&mut self, s: Session) {
        let flow = s.flow;
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(s);
                i
            }
            None => {
                self.slots.push(Some(s));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 sessions")
            }
        };
        if self.positions.is_empty() {
            self.base = flow.0;
        }
        let at = usize::try_from(flow.0 - self.base).expect("the table fits in memory");
        self.positions.resize(at, NOT_ACTIVE);
        self.positions.push_back(i);
    }

    /// Bring the session in slot `i` to now and take the action due
    /// there, if any: a clip that has ended stops its flow, stores its
    /// final report and frees the slot; a download that has completed
    /// all but pauses its server. Returns whether the session finished.
    fn act(&mut self, i: usize, api: &mut SimContext<'_>) -> bool {
        let now = api.now().as_secs_f64();
        let s = self.slots[i].as_mut().expect("a listed slot is taken");
        s.player.run_to(now);
        if s.finished() {
            let s = self.slots[i].take().expect("a listed slot is taken");
            api.stop_flow(s.flow);
            let tag = usize::try_from(s.tag).expect("tags fit in memory");
            if self.finished.len() <= tag {
                self.finished.resize_with(tag + 1, || None);
            }
            self.finished[tag] = Some(s.player.qoe());
            self.free.push(i as u32);
            let at = (s.flow.0 - self.base) as usize;
            self.positions[at] = NOT_ACTIVE;
            while self.positions.front() == Some(&NOT_ACTIVE) {
                self.positions.pop_front();
                self.base += 1;
            }
            return true;
        }
        if !s.paused && !s.player.wants_download_at(now) {
            s.paused = true;
            api.set_flow_cap(s.flow, Some(1.0));
        }
        false
    }
}

impl EventHandler for VideoWorkload {
    fn name(&self) -> &str {
        "video-workload"
    }

    fn tick_interval(&self) -> Option<Dur> {
        Some(TICK)
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
        if !matches!(ev, AppEvent::Start | AppEvent::Tick) {
            return;
        }
        // One lock per tick. (The guard borrows a clone of the handle,
        // so that the driver's own fields may be borrowed too.)
        let handle = self.shared.clone();
        let mut shared = handle.0.lock();
        if let AppEvent::Start = ev {
            ctx.watch_rates();
        }
        self.launch_due(&mut shared, ctx);
        if let AppEvent::Tick = ev {
            self.tick(&mut shared, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::types::Metric;
    use fib_netsim::events::Event;
    use fib_netsim::link::LinkSpec;
    use fib_netsim::sim::{Sim, SimConfig};
    use fib_telemetry::mib::oids;
    use std::collections::BTreeMap;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    /// Line r1 - r2 with prefix at r2.
    fn line(capacity: f64) -> Sim {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_router(r(1));
        sim.add_router(r(2));
        sim.add_link(LinkSpec::new(r(1), r(2), Metric(1), capacity));
        sim.announce_prefix(r(2), Prefix::net24(1));
        sim
    }

    /// A constant-bitrate wave from r1 toward the line's prefix.
    fn wave(rate: f64, secs: f64, starts: Vec<Timestamp>) -> Wave {
        Wave::constant(r(1), Prefix::net24(1), rate, secs, starts)
    }

    #[test]
    fn single_session_plays_smoothly() {
        let mut sim = line(1e6);
        let waves = vec![wave(125_000.0, 20.0, vec![Timestamp::from_secs(10)])];
        let (driver, reports) = VideoWorkload::new(waves);
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(60));
        let all = reports.reports();
        let q = all.first().expect("report for tag 0");
        assert!(q.completed, "{q:?}");
        assert_eq!(q.stalls, 0);
        assert!(q.score() > 4.0);
    }

    #[test]
    fn oversubscribed_link_causes_stalls() {
        // 10 sessions of 125 kB/s over a 500 kB/s link: starvation.
        let mut sim = line(5e5);
        let waves = vec![wave(125_000.0, 30.0, vec![Timestamp::from_secs(10); 10])];
        let (driver, reports) = VideoWorkload::new(waves);
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(80));
        let stalled: usize = reports.reports().iter().filter(|q| q.stalls > 0).count();
        assert!(
            stalled >= 5,
            "expected most sessions to stall, got {stalled}/10"
        );
    }

    /// The contract, restated: flatten the waves to `(start, tag)` in
    /// the order given, tags counting up, and sort stably by start.
    fn reference_order(waves: &[Wave]) -> Vec<(Timestamp, u64)> {
        let mut flat: Vec<(Timestamp, u64)> = waves
            .iter()
            .flat_map(|w| w.starts.iter().copied())
            .zip(0u64..)
            .collect();
        flat.sort_by_key(|(start, _)| *start);
        flat
    }

    #[test]
    fn launch_order_is_a_stable_sort_by_start_and_tags_count_by_position() {
        let secs = |ts: &[u64]| ts.iter().map(|t| Timestamp::from_secs(*t)).collect();
        // Two interleaved waves that also share an instant (t = 2):
        // the wave listed first launches first there.
        let mut waves = vec![
            wave(1e5, 300.0, secs(&[0, 2, 4])),
            Wave::constant(r(2), Prefix::net24(1), 2e5, 300.0, secs(&[1, 2, 3])),
        ];
        let (driver, _) = VideoWorkload::new(waves.clone());
        let tags: Vec<u64> = driver
            .order
            .iter()
            .map(|(_, _, tag)| u64::from(*tag))
            .collect();
        assert_eq!(tags, [0, 3, 1, 4, 5, 2]);

        // A diurnal-style wave: arrivals jittered inside their
        // integration step, so starts are locally out of generation
        // order, and tags follow generation.
        let jittered = [70u64, 30, 190, 110, 250, 210, 2_000, 1_950, 2_000];
        waves.push(wave(
            1e5,
            300.0,
            jittered.map(Timestamp::from_millis).to_vec(),
        ));
        let want = reference_order(&waves);
        assert_eq!(want.len(), 15);
        assert!(want.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(want.windows(2).any(|w| w[0].1 > w[1].1), "tags cross");

        // The driver's list is the reference, and flows start in that
        // order (flow ids ascend in launch order), each from its own
        // wave's server.
        let (driver, _) = VideoWorkload::new(waves.clone());
        let got: Vec<(Timestamp, u64)> = driver
            .order
            .iter()
            .map(|(t, _, tag)| (*t, u64::from(*tag)))
            .collect();
        assert_eq!(got, want);
        let mut sim = line(1e9);
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(5));
        let launched: Vec<(u64, RouterId)> = sim.flows().map(|f| (f.tag, f.key.src)).collect();
        let src_of = |tag: u64| if (3..6).contains(&tag) { r(2) } else { r(1) };
        let want: Vec<(u64, RouterId)> = want.iter().map(|(_, tag)| (*tag, src_of(*tag))).collect();
        assert_eq!(launched, want);
    }

    #[test]
    fn finished_sessions_are_dropped_from_the_active_set() {
        let mut sim = line(1e6);
        let waves = vec![wave(1e5, 10.0, vec![Timestamp::from_secs(5); 3])];
        let (driver, reports) = VideoWorkload::new(waves);
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(60));
        // All three finished: reports persist, players are gone.
        let all = reports.reports();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|q| q.completed));
        let shared = reports.0.lock();
        assert!(shared.slots.iter().all(Option::is_none), "a slot plays");
        assert_eq!(shared.finished.len(), 3);
        assert!(
            shared.finished.iter().all(Option::is_some),
            "a report is not final"
        );
    }

    /// The tags of the final reports, ascending.
    fn final_tags(shared: &Shared) -> Vec<u64> {
        (0u64..)
            .zip(&shared.finished)
            .filter(|(_, q)| q.is_some())
            .map(|(tag, _)| tag)
            .collect()
    }

    /// What the handle used to be, kept beside the driver: an ordered
    /// map into which every session is inserted, every tick — from the
    /// players for those still playing, and the final report for those
    /// that finished.
    struct PerTickPublisher {
        driver: VideoWorkload,
        map: Arc<Mutex<BTreeMap<u64, QoeReport>>>,
    }

    impl EventHandler for PerTickPublisher {
        fn name(&self) -> &str {
            "per-tick-publisher"
        }

        fn tick_interval(&self) -> Option<Dur> {
            self.driver.tick_interval()
        }

        fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
            let tick = matches!(ev, AppEvent::Tick);
            self.driver.on_event(ctx, ev);
            if tick {
                let shared = self.driver.shared.0.lock();
                let mut map = self.map.lock();
                let now = ctx.now().as_secs_f64();
                for s in shared.playing() {
                    map.insert(s.tag, s.player.qoe_at(now));
                }
                for (tag, report) in (0u64..).zip(&shared.finished) {
                    if let Some(report) = report {
                        map.insert(tag, report.clone());
                    }
                }
            }
        }
    }

    /// The handle's contract, read mid-run between ticks: the reader
    /// yields, tag for tag, what a per-tick publisher would hold — and
    /// the stored reports are the finished sessions' and nothing else,
    /// which is what fails if per-tick publishing ever comes back.
    #[test]
    fn reader_equals_a_per_tick_publisher_and_only_finished_sessions_are_in_the_map() {
        // Eight 100 kB/s sessions over 400 kB/s, so some stall. One
        // wave each, listed against launch order so that tags run
        // against it, and each clip has its own length, so a report
        // names its session.
        let mut sim = line(4e5);
        let waves: Vec<Wave> = (0..8u64)
            .rev()
            .map(|i| wave(1e5, 6.0 + i as f64, vec![Timestamp::from_millis(700 * i)]))
            .collect();
        let (driver, handle) = VideoWorkload::new(waves);
        let reference = Arc::new(Mutex::new(BTreeMap::new()));
        sim.add_app(Box::new(PerTickPublisher {
            driver,
            map: Arc::clone(&reference),
        }));
        sim.start();

        let mut seen_both = false;
        for at_ms in [50u64, 3_030, 9_570, 14_010, 19_990, 60_000] {
            sim.run_until(Timestamp::from_millis(at_ms));
            let got = handle.reports();
            let want: Vec<QoeReport> = reference.lock().values().cloned().collect();
            assert_eq!(got, want, "at {at_ms} ms");

            let shared = handle.0.lock();
            let completed: Vec<u64> = reference
                .lock()
                .iter()
                .filter(|(_, q)| q.completed)
                .map(|(tag, _)| *tag)
                .collect();
            let finished = final_tags(&shared);
            assert_eq!(
                finished, completed,
                "at {at_ms} ms exactly the finished sessions have final reports"
            );
            // Playing: launched and not finished.
            let playing = shared.playing().count();
            let visible = if shared.now.is_some() { playing } else { 0 };
            assert_eq!(got.len(), finished.len() + visible);
            seen_both |= !finished.is_empty() && playing > 0;
            match at_ms {
                // The session due at 0 launched at start-up; no tick
                // has run yet.
                50 => assert!(got.is_empty() && playing == 1),
                60_000 => assert!(got.len() == 8 && playing == 0),
                _ => {}
            }
        }
        assert!(seen_both, "some read saw finished and playing sessions");
        assert!(handle.reports().iter().any(|q| q.stalls > 0));
    }

    /// Diamond r1 → {r2, r3} → r4 with the prefix at r4, every link of
    /// `capacity`: the ingress splits its flows over two paths by ECMP.
    fn diamond(capacity: f64) -> Sim {
        let mut sim = Sim::new(SimConfig::default());
        for n in 1..=4 {
            sim.add_router(r(n));
        }
        for (a, b) in [(1, 2), (1, 3), (2, 4), (3, 4)] {
            sim.add_link(LinkSpec::new(r(a), r(b), Metric(1), capacity));
        }
        sim.announce_prefix(r(4), Prefix::net24(1));
        sim
    }

    /// A seeded crowd on the diamond, with its faults scheduled between
    /// ticks: `n` sessions of 100 kB/s, clips of 4 to 24 s, starting
    /// over 30 s on 1.2 MB/s links; r2–r4 fails at 12.05 s and comes
    /// back at 20.05 s, and r3–r4 browns out to a third from 25.03 to
    /// 33.07 s. Flows are unroutable until the IGP has converged, move
    /// path with the failure, and change rate at every settle between
    /// two ticks; players stall and resume, downloads complete, flows
    /// are drained to 1 B/s and stopped while dozens of others play.
    fn faulted_crowd(n: usize) -> (Sim, Vec<Wave>) {
        let mut st = 0x5EED_u64;
        let mut draw = |n: u64| {
            st = st
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (st >> 33) % n
        };
        let waves: Vec<Wave> = (0..n)
            .map(|_| {
                let secs = 4.0 + draw(21) as f64;
                wave(1e5, secs, vec![Timestamp::from_millis(draw(30_000))])
            })
            .collect();
        let mut sim = diamond(1.2e6);
        let at = Timestamp::from_millis;
        let admin = |up| Event::LinkAdmin {
            a: r(2),
            b: r(4),
            up,
        };
        let capacity = |capacity| Event::LinkCapacity {
            a: r(3),
            b: r(4),
            capacity,
        };
        sim.schedule(at(12_050), admin(false));
        sim.schedule(at(20_050), admin(true));
        sim.schedule(at(25_030), capacity(4e5));
        sim.schedule(at(33_070), capacity(1.2e6));
        (sim, waves)
    }

    /// The driver as the lazy one is held to: the same launches and the
    /// same rate changes, but every session is brought to every tick
    /// and acted on there.
    struct EagerDriver(VideoWorkload);

    impl EventHandler for EagerDriver {
        fn name(&self) -> &str {
            "eager-driver"
        }

        fn tick_interval(&self) -> Option<Dur> {
            self.0.tick_interval()
        }

        fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
            if !matches!(ev, AppEvent::Tick) {
                return self.0.on_event(ctx, ev);
            }
            let handle = self.0.shared.clone();
            let mut shared = handle.0.lock();
            self.0.launch_due(&mut shared, ctx);
            self.0.apply_rate_changes(&mut shared, ctx);
            // In flow order, as the lazy driver wakes its sessions.
            let mut playing: Vec<(FlowId, usize)> = (0..shared.slots.len())
                .filter_map(|i| Some((shared.slots[i].as_ref()?.flow, i)))
                .collect();
            playing.sort_unstable();
            for (_, i) in playing {
                shared.updates += 1;
                shared.act(i, ctx);
            }
            self.0.calendar.clear();
            shared.now = Some(ctx.now());
        }
    }

    /// Each live flow's id, tag, cap and rate, as bits.
    fn flow_bits(sim: &mut Sim) -> Vec<(FlowId, u64, Option<u64>, u64)> {
        let live: Vec<(FlowId, u64, Option<u64>)> = sim
            .flows()
            .map(|f| (f.id, f.tag, f.cap.map(f64::to_bits)))
            .collect();
        let ctx = sim.ctx();
        live.into_iter()
            .map(|(id, tag, cap)| {
                let rate = ctx.flow_rate(id).expect("live").to_bits();
                (id, tag, cap, rate)
            })
            .collect()
    }

    /// Every interface's `ifOutOctets`, router by router: the bytes
    /// the rates have moved so far, integrated at every instant (each
    /// link's once, at its transmitting end).
    fn octets(sim: &mut Sim) -> String {
        let routers: Vec<RouterId> = sim.ctx().routers().collect();
        let mut ctx = sim.ctx();
        let mut out = String::new();
        for router in routers {
            let rows = ctx.snmp_walk(router, &oids::if_out_octets());
            out.push_str(&format!("{router} {rows:?}\n"));
        }
        out
    }

    /// Lazy ≡ eager: the driver, which touches a session only where its
    /// rate changes or its action falls due, against one that brings
    /// every session to every tick, two simulators side by side on the
    /// faulted crowd. After every tick every live flow has the same cap
    /// and rate on both, every interface has counted the same octets,
    /// and the readers give the same reports, bit for bit: evaluating a
    /// player at extra instants changes nothing. The lazy driver makes
    /// a small share of the eager one's player updates.
    #[test]
    fn the_lazy_driver_caps_stops_and_reports_as_the_eager_one_does() {
        let mut runs: Vec<(Sim, QoeHandle)> = Vec::new();
        for eager in [false, true] {
            let (mut sim, waves) = faulted_crowd(80);
            let (driver, handle) = VideoWorkload::new(waves);
            if eager {
                sim.add_app(Box::new(EagerDriver(driver)));
            } else {
                sim.add_app(Box::new(driver));
            }
            sim.start();
            runs.push((sim, handle));
        }
        let render = |reports: Vec<QoeReport>| format!("{reports:?}");
        let (mut drained, mut stopped, mut busiest, mut live_before) = (0, 0, 0, 0usize);
        for tick in 1..=700u64 {
            for (sim, _) in &mut runs {
                sim.run_until(Timestamp::from_millis(100 * tick + 1));
            }
            let got = flow_bits(&mut runs[0].0);
            assert_eq!(got, flow_bits(&mut runs[1].0), "tick {tick}: flows");
            assert_eq!(
                octets(&mut runs[0].0),
                octets(&mut runs[1].0),
                "tick {tick}: octets"
            );
            assert_eq!(
                render(runs[0].1.reports()),
                render(runs[1].1.reports()),
                "tick {tick}: reports"
            );
            drained += got.iter().filter(|f| f.2 == Some(1f64.to_bits())).count();
            stopped += live_before.saturating_sub(got.len());
            busiest = busiest.max(got.len());
            live_before = got.len();
        }
        let reports = runs[0].1.reports();
        assert_eq!(reports.len(), 80);
        assert!(reports.iter().all(|q| q.completed));
        let stalled = reports.iter().filter(|q| q.stalls > 0).count();
        assert!(stalled >= 10, "{stalled} sessions stalled");
        assert!(drained >= 500, "{drained} flow-ticks drained");
        assert!(stopped >= 20, "{stopped} flows stopped");
        assert!(busiest >= 30, "at most {busiest} flows at once");
        let (lazy, eager) = (runs[0].1.player_updates(), runs[1].1.player_updates());
        assert!(
            lazy * 4 < eager,
            "{lazy} lazy against {eager} eager updates"
        );
    }

    /// Memory follows concurrency: on the faulted crowd, after every
    /// tick, the slab has exactly as many slots as the most sessions
    /// that have played at once. At a tick, the sessions due launch
    /// before the finished ones leave, so those that finish at a tick
    /// played together with those still playing after it.
    #[test]
    fn the_slab_has_as_many_slots_as_sessions_ever_played_at_once() {
        let (mut sim, waves) = faulted_crowd(80);
        let (driver, handle) = VideoWorkload::new(waves);
        sim.add_app(Box::new(driver));
        sim.start();
        let (mut peak, mut finished, mut reused) = (0, 0, 0);
        for tick in 1..=700u64 {
            sim.run_until(Timestamp::from_millis(100 * tick + 1));
            let shared = handle.0.lock();
            let now_finished = final_tags(&shared).len();
            let playing = shared.playing().count();
            peak = peak.max(playing + now_finished - finished);
            finished = now_finished;
            assert_eq!(shared.slots.len(), peak, "tick {tick}");
            assert_eq!(shared.free.len(), peak - playing, "tick {tick}");
            reused = reused.max(finished.saturating_sub(peak));
        }
        assert_eq!(finished, 80, "every session finished");
        assert!((30..60).contains(&peak), "{peak} slots");
        assert!(reused > 0, "no slot was reused");
    }

    /// The tick model the players replaced, kept as a reference: bytes
    /// delivered over an interval become buffered seconds, and the
    /// state machine moves once per interval, at its end.
    struct TickPlayer {
        video: Video,
        state: PlayerState,
        buffer_secs: f64,
        played_secs: f64,
        downloaded_secs: f64,
        started_at: Option<f64>,
        session_start: f64,
        stalls: u32,
        stall_secs: f64,
    }

    impl TickPlayer {
        fn new(video: Video, now: f64) -> TickPlayer {
            TickPlayer {
                video,
                state: PlayerState::Startup,
                buffer_secs: 0.0,
                played_secs: 0.0,
                downloaded_secs: 0.0,
                started_at: None,
                session_start: now,
                stalls: 0,
                stall_secs: 0.0,
            }
        }

        fn advance(&mut self, now: f64, dt: f64, bytes: f64) {
            let cfg = PlayerConfig::default();
            if self.state == PlayerState::Done || dt <= 0.0 {
                return;
            }
            let left = self.video.duration - self.downloaded_secs;
            if bytes > 0.0 && left > 0.0 {
                let secs = (bytes / self.video.rate).min(left);
                self.downloaded_secs += secs;
                self.buffer_secs += secs;
            }
            let all_in = self.downloaded_secs >= self.video.duration;
            match self.state {
                PlayerState::Startup => {
                    if self.buffer_secs >= cfg.startup_buffer || all_in {
                        self.state = PlayerState::Playing;
                        self.started_at = Some(now);
                    }
                }
                PlayerState::Stalled => {
                    self.stall_secs += dt;
                    if self.buffer_secs >= cfg.rebuffer_target || all_in {
                        self.state = PlayerState::Playing;
                    }
                }
                PlayerState::Playing => {
                    let render = dt
                        .min(self.buffer_secs)
                        .min(self.video.duration - self.played_secs);
                    self.played_secs += render;
                    self.buffer_secs -= render;
                    if self.played_secs >= self.video.duration - 1e-9 {
                        self.state = PlayerState::Done;
                    } else if render < dt - 1e-12 && !all_in {
                        self.state = PlayerState::Stalled;
                        self.stalls += 1;
                        self.stall_secs += dt - render;
                    }
                }
                PlayerState::Done => {}
            }
        }
    }

    /// Startup delay, stalls and stall seconds of each finished session,
    /// by tag.
    type Outcomes = Arc<Mutex<BTreeMap<u64, (f64, u32, f64)>>>;

    /// A flow's bytes delivered, as the integral of its logged rate
    /// changes: the rate in force, since when, and the bytes up to then.
    #[derive(Clone, Copy)]
    struct Integral {
        rate: f64,
        since: Timestamp,
        bytes: f64,
    }

    impl Integral {
        /// A flow before its first change: at rate 0.
        const ZERO: Integral = Integral {
            rate: 0.0,
            since: Timestamp::ZERO,
            bytes: 0.0,
        };

        /// Fold in the flow's next change.
        fn change(&mut self, c: &RateChange) {
            self.bytes = self.at(c.at);
            (self.rate, self.since) = (c.rate, c.at);
        }

        /// The bytes delivered up to `t`, no earlier than the last change.
        fn at(&self, t: Timestamp) -> f64 {
            self.bytes + self.rate * (t - self.since).as_secs_f64()
        }
    }

    /// The tick model with 1 ms accounting: every player advances from
    /// its flow's delivered bytes every millisecond, while launches, cap
    /// flips and stops stay on the 100 ms grid, as the driver's do. It
    /// drains the rate-change log itself and integrates it per flow, so
    /// no lookup of the driver's is on its path.
    struct MillisecondReference {
        order: Vec<(Timestamp, Wave, u64)>,
        cursor: usize,
        /// Tag, flow, player, bytes seen, paused.
        active: Vec<(u64, FlowId, TickPlayer, f64, bool)>,
        /// Every flow's bytes delivered, from the log.
        delivered: BTreeMap<FlowId, Integral>,
        log: Vec<RateChange>,
        done: Outcomes,
    }

    impl EventHandler for MillisecondReference {
        fn name(&self) -> &str {
            "millisecond-reference"
        }

        fn tick_interval(&self) -> Option<Dur> {
            Some(Dur::from_millis(1))
        }

        fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
            let now = ctx.now();
            let on_grid = now.0 % TICK.0 == 0;
            if matches!(ev, AppEvent::Start) {
                ctx.watch_rates();
            }
            if matches!(ev, AppEvent::Start) || (on_grid && matches!(ev, AppEvent::Tick)) {
                while let Some((start, wave, tag)) = self.order.get(self.cursor) {
                    if *start > now {
                        break;
                    }
                    self.cursor += 1;
                    let flow = ctx.start_flow(
                        FlowSpec::new(wave.src, wave.dst)
                            .with_cap(wave.video.rate)
                            .with_tag(*tag),
                    );
                    let player = TickPlayer::new(wave.video, now.as_secs_f64());
                    self.active.push((*tag, flow, player, 0.0, false));
                }
            }
            if !matches!(ev, AppEvent::Tick) {
                return;
            }
            ctx.take_rate_changes(&mut self.log);
            for c in &self.log {
                self.delivered
                    .entry(c.flow)
                    .or_insert(Integral::ZERO)
                    .change(c);
            }
            let secs = now.as_secs_f64();
            let mut done = self.done.lock();
            for (tag, flow, player, seen, paused) in &mut self.active {
                let delivered = self.delivered.get(flow).map_or(0.0, |d| d.at(now));
                player.advance(secs, 0.001, delivered - *seen);
                *seen = delivered;
                if !on_grid {
                    continue;
                }
                if player.state == PlayerState::Done {
                    ctx.stop_flow(*flow);
                    let startup = player
                        .started_at
                        .map_or(f64::INFINITY, |t| t - player.session_start);
                    done.insert(*tag, (startup, player.stalls, player.stall_secs));
                } else if !*paused && player.downloaded_secs >= player.video.duration {
                    *paused = true;
                    ctx.set_flow_cap(*flow, Some(1.0));
                }
            }
            if on_grid {
                self.active.retain(|s| s.2.state != PlayerState::Done);
            }
        }
    }

    /// The players against the tick model they replaced, run with 1 ms
    /// accounting on the faulted crowd: for all but two sessions, the
    /// same stall count, a startup delay the reference rounds up by at
    /// most 1 ms, and stall seconds within 3 ms per stall. The tick
    /// model counts up to 1 ms too much at a stall's onset and up to
    /// 1 ms at its end, and refills a little later, at the rates of
    /// that later time. (A session's stop can land one tick apart where
    /// that rounding moves its clip's end across a tick, and the rates
    /// of the others follow; so two sessions are let differ.)
    #[test]
    fn the_players_match_the_tick_model_at_one_millisecond() {
        let n = 80;
        let (mut sim, waves) = faulted_crowd(n);
        let (driver, handle) = VideoWorkload::new(waves.clone());
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(70));
        let lazy = handle.reports();

        let (mut sim, _) = faulted_crowd(n);
        let mut order: Vec<(Timestamp, Wave, u64)> = waves
            .iter()
            .zip(0u64..)
            .map(|(w, tag)| (w.starts[0], w.clone(), tag))
            .collect();
        order.sort_by_key(|(start, _, _)| *start);
        let done = Arc::new(Mutex::new(BTreeMap::new()));
        sim.add_app(Box::new(MillisecondReference {
            order,
            cursor: 0,
            active: Vec::new(),
            delivered: BTreeMap::new(),
            log: Vec::new(),
            done: Arc::clone(&done),
        }));
        sim.start();
        sim.run_until(Timestamp::from_secs(70));
        let reference = done.lock();

        assert_eq!((lazy.len(), reference.len()), (n, n));
        let mut apart = Vec::new();
        let (mut stalls, mut stall_secs) = (0, 0.0);
        for (q, (tag, (startup, ref_stalls, ref_stall_secs))) in lazy.iter().zip(reference.iter()) {
            let late = startup - q.startup_delay;
            let close = (-1e-9..=0.001 + 1e-9).contains(&late)
                && q.stalls == *ref_stalls
                && (ref_stall_secs - q.stall_secs).abs() <= 0.003 * f64::from(q.stalls) + 1e-9;
            if !close {
                apart.push((*tag, q.clone(), (*startup, *ref_stalls, *ref_stall_secs)));
            }
            stalls += q.stalls;
            stall_secs += q.stall_secs;
        }
        assert!(
            apart.len() <= 2,
            "{} sessions apart: {apart:#?}",
            apart.len()
        );
        assert!(
            stalls >= 20 && stall_secs > 10.0,
            "{stalls} stalls, {stall_secs} s"
        );
    }

    /// A session whose next action lies beyond the calendar's reach is
    /// booked at its last tick, woken early, booked again, and still
    /// acts at the first tick at or after the instant: a 900 s clip at
    /// the full bitrate from 5 s on has all its bytes at 905 s and ends
    /// at 907 s, after 2 s of startup. One rate change and four
    /// wake-ups (two early ones, the flip, the stop) are all the updates
    /// its player gets.
    #[test]
    fn a_session_booked_beyond_the_calendar_acts_on_time() {
        let rate = 1e5;
        let mut sim = line(1e6);
        let (driver, handle) =
            VideoWorkload::new(vec![wave(rate, 900.0, vec![Timestamp::from_secs(5)])]);
        sim.add_app(Box::new(driver));
        sim.start();
        let cap_at = |sim: &mut Sim, ms: u64| {
            sim.run_until(Timestamp::from_millis(ms));
            sim.flows().next().map(|f| f.cap)
        };
        assert_eq!(cap_at(&mut sim, 904_999), Some(Some(rate)));
        assert_eq!(cap_at(&mut sim, 905_000), Some(Some(1.0)));
        assert_eq!(cap_at(&mut sim, 906_999), Some(Some(1.0)));
        assert_eq!(cap_at(&mut sim, 907_000), None);
        let report = &handle.reports()[0];
        assert!(report.completed && report.stalls == 0, "{report:?}");
        assert_eq!(report.startup_delay, 2.0);
        assert_eq!(handle.player_updates(), 5);
    }

    /// Starts a flow of its own every 70 ms and never stops one: ids
    /// the driver's sessions do not have, between theirs.
    struct Interloper;

    impl EventHandler for Interloper {
        fn name(&self) -> &str {
            "interloper"
        }

        fn tick_interval(&self) -> Option<Dur> {
            Some(Dur::from_millis(70))
        }

        fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
            if matches!(ev, AppEvent::Tick) {
                ctx.start_flow(FlowSpec::new(r(1), Prefix::net24(1)).with_cap(100.0));
            }
        }
    }

    /// The flow table against a scan of the playing slots, after every
    /// tick, for every id up to one past the newest: two bursts of
    /// sessions with clips of several lengths, so that sessions leave
    /// from the front and from the middle, each burst emptying the slab
    /// at its end, with another component's flows in between. The table
    /// starts at the oldest playing session's flow, and the second
    /// burst plays in the first one's slots.
    #[test]
    fn the_flow_table_resolves_every_id_as_a_scan_of_the_active_set() {
        let at = Timestamp::from_millis;
        let waves = vec![
            wave(1e5, 3.0, vec![at(1_000), at(1_300), at(5_000)]),
            wave(1e5, 6.0, vec![at(1_100), at(2_000)]),
            wave(
                1e5,
                4.0,
                vec![at(20_000), at(20_250), at(21_000), at(23_000)],
            ),
            wave(1e5, 9.0, vec![at(20_100), at(22_000)]),
        ];
        let mut sim = line(1e7);
        let (driver, handle) = VideoWorkload::new(waves);
        sim.add_app(Box::new(driver));
        sim.add_app(Box::new(Interloper));
        sim.start();
        let (mut emptied, mut gaps, mut finished) = (0, 0, 0);
        for tick in 1..=400u64 {
            sim.run_until(at(100 * tick + 1));
            let newest = sim.flows().map(|f| f.id.0).max().expect("interloper flows");
            let shared = handle.0.lock();
            for id in 0..=newest + 1 {
                let scan = (shared.slots.iter())
                    .position(|s| s.as_ref().is_some_and(|s| s.flow == FlowId(id)));
                assert_eq!(shared.find(FlowId(id)), scan, "tick {tick}: flow {id}");
            }
            let oldest = shared.playing().map(|s| s.flow.0).min();
            if oldest.is_some() {
                assert_eq!(oldest, Some(shared.base), "tick {tick}: the base");
            }
            assert_eq!(shared.positions.is_empty(), oldest.is_none(), "tick {tick}");
            let now_finished = final_tags(&shared).len();
            if now_finished > finished {
                emptied += usize::from(oldest.is_none());
            }
            finished = now_finished;
            gaps += shared
                .positions
                .iter()
                .filter(|p| **p == NOT_ACTIVE)
                .count();
            assert!(shared.slots.len() <= 6, "tick {tick}: slots are reused");
        }
        assert_eq!(finished, 11, "every session finished");
        assert_eq!(emptied, 2, "each burst empties the slab");
        assert!(gaps > 0, "other flows sit between sessions");
    }

    #[test]
    fn a_tick_index_is_the_first_tick_at_or_after_an_instant() {
        let secs = |k: u64| Timestamp(k * TICK.0).as_secs_f64();
        for k in 1..5_000u64 {
            let t = secs(k);
            assert_eq!(tick_at_or_after(t), Some(k), "{t}");
            assert_eq!(
                tick_at_or_after(f64::from_bits(t.to_bits() + 1)),
                Some(k + 1)
            );
            assert_eq!(tick_at_or_after(f64::from_bits(t.to_bits() - 1)), Some(k));
        }
        assert_eq!(tick_at_or_after(0.0), Some(1));
        assert_eq!(tick_at_or_after(f64::INFINITY), None);
        assert_eq!(tick_at_or_after(1e300), None);
    }

    #[test]
    fn sessions_launch_on_schedule() {
        let mut sim = line(1e6);
        let starts = vec![Timestamp::from_secs(5), Timestamp::from_secs(20)];
        let (driver, reports) = VideoWorkload::new(vec![wave(1e5, 100.0, starts)]);
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(10));
        assert_eq!(reports.reports().len(), 1, "only the first session yet");
        sim.run_until(Timestamp::from_secs(25));
        assert_eq!(reports.reports().len(), 2);
    }

    /// The driver, and every rate change it drains, in order.
    struct Drains(VideoWorkload, Arc<Mutex<Vec<RateChange>>>);

    impl EventHandler for Drains {
        fn name(&self) -> &str {
            "drains"
        }

        fn tick_interval(&self) -> Option<Dur> {
            self.0.tick_interval()
        }

        fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
            let tick = matches!(ev, AppEvent::Tick);
            self.0.on_event(ctx, ev);
            if tick {
                self.1.lock().extend_from_slice(&self.0.changes);
            }
        }
    }

    /// Server pacing, tick by tick, for one constant-bitrate session on
    /// a link ten times its rate: the flow is capped at the clip's
    /// rate while the player wants bytes, all but paused once every
    /// byte has arrived (the last two seconds play from the buffer),
    /// and gone when playback ends. What has arrived is the integral of
    /// the rate changes the driver drained.
    #[test]
    fn pacing_follows_the_player_and_the_flow_stops_at_the_end() {
        let (rate, secs) = (1e5, 10.0);
        let mut sim = line(1e6);
        let (driver, handle) = VideoWorkload::new(vec![wave(rate, secs, vec![Timestamp::ZERO])]);
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.add_app(Box::new(Drains(driver, Arc::clone(&log))));
        sim.start();

        let mut phases = Vec::new();
        for tick in 1..=150u64 {
            // Just after a tick: the cap is the one the tick left.
            sim.run_until(Timestamp::from_millis(100 * tick + 1));
            let shared = handle.0.lock();
            let at = Timestamp::from_millis(100 * tick);
            let now = at.as_secs_f64();
            let phase = match shared.playing().next() {
                Some(s) => {
                    let flow = sim.flows().next().expect("a playing session has a flow");
                    let (id, cap) = (flow.id, flow.cap);
                    if s.player.wants_download_at(now) {
                        assert_eq!(cap, Some(rate), "tick {tick}");
                        "paced"
                    } else {
                        assert_eq!(cap, Some(1.0), "tick {tick}");
                        // Every change before the tick was drained at it.
                        let mut delivered = Integral::ZERO;
                        for c in log.lock().iter().filter(|c| c.flow == id) {
                            delivered.change(c);
                        }
                        let delivered = delivered.at(at);
                        assert!(delivered >= rate * secs * (1.0 - 1e-9), "tick {tick}");
                        "drained"
                    }
                }
                None => {
                    assert!(sim.flows().next().is_none(), "tick {tick}");
                    assert!(shared.finished[0].is_some(), "tick {tick}");
                    "done"
                }
            };
            if phases.last() != Some(&phase) {
                phases.push(phase);
            }
        }
        assert_eq!(phases, ["paced", "drained", "done"]);
        let report = &handle.reports()[0];
        assert!(report.completed, "{report:?}");
        assert_eq!(report.stalls, 0);
        assert_eq!(report.max_bitrate, rate);
    }
}
