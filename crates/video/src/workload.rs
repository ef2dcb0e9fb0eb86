//! The video workload driver: a netsim [`EventHandler`] component
//! binding players to flows.
//!
//! Each session is a video server → client pair: a rate-capped flow in
//! the simulator (the server paces at the encoding bitrate, as the
//! demo's streaming servers do) feeding a [`Player`]'s buffer. The
//! driver launches sessions on schedule, advances players from
//! delivered bytes every tick, pauses a server while its player wants
//! no bytes, and shares its sessions with a [`QoeHandle`] through which
//! the experiment harness reads every session's QoE report, mid-run or
//! after it. A tick pays nothing for that: a report enters the ordered
//! map once, when its session finishes, and the reports of sessions
//! still playing are derived from their players when somebody reads.
//!
//! A schedule is a list of [`Wave`]s: what every viewer of a wave
//! shares (server, prefix, asset) is stored once, next to the wave's
//! arrival instants. A pending session costs one 16-byte
//! `(start, wave, tag)` triple, a player is built when its session
//! launches, and finished sessions are dropped from the active set, so
//! memory tracks the number of *concurrent* viewers, not the length of
//! the schedule. City-scale scenarios (thousands of sessions) rely on
//! this.
//!
//! A tick touches only what changed. A session's server cap is set
//! only when its pause flag flips (the driver is the only one to cap
//! its flows, and a clip's bitrate is constant), not re-set every
//! tick. A finished session is not removed at once: it stays in the
//! active set, skipped by the tick and by readers, until finished
//! sessions make up a sixteenth of the set, and then one
//! order-keeping pass drops them all. Finished sessions sit near the
//! front of a set in launch order, so removing each as it finishes
//! would move almost every playing session, tick after tick.

use crate::catalog::Video;
use crate::client::{Player, PlayerConfig, PlayerState};
use crate::qoe::QoeReport;
use fib_igp::time::{Dur, Timestamp};
use fib_igp::types::{Prefix, RouterId};
use fib_netsim::flow::{FlowId, FlowSpec};
use fib_netsim::handler::{AppEvent, EventHandler};
use fib_netsim::sim::SimContext;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How often the driver advances its players.
const TICK: Dur = Dur::from_millis(100);

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

/// What the driver shares with its readers.
#[derive(Default)]
struct Shared {
    /// Final reports by tag: one insert per session, when it finishes.
    finished: BTreeMap<u64, QoeReport>,
    /// The launched sessions, in launch order: those still playing,
    /// and the `done` that finished since the last compaction.
    active: Vec<Session>,
    /// Finished sessions still in `active`.
    done: usize,
}

/// Shared live QoE: every launched session's latest report, readable
/// by host code at any instant, mid-run included. A session becomes
/// visible at the first tick that advances it.
#[derive(Clone, Default)]
pub struct QoeHandle(Arc<Mutex<Shared>>);

impl QoeHandle {
    /// Every visible session's latest report in ascending tag order
    /// (the order [`summarize`] adds in), sessions still playing
    /// included: their players report as of the last tick. The map of
    /// finished sessions and the tag-sorted playing ones merge straight
    /// into the `Vec` returned; the map is not copied.
    ///
    /// [`summarize`]: crate::qoe::summarize
    pub fn reports(&self) -> Vec<QoeReport> {
        let shared = self.0.lock();
        let mut playing: Vec<(u64, QoeReport)> = shared
            .active
            .iter()
            .filter(|s| s.advanced && !s.finished())
            .map(|s| (s.tag, s.player.qoe()))
            .collect();
        playing.sort_by_key(|(tag, _)| *tag);
        let mut out = Vec::with_capacity(shared.finished.len() + playing.len());
        let mut playing = playing.into_iter().peekable();
        for (tag, report) in &shared.finished {
            while let Some((_, earlier)) = playing.next_if(|(t, _)| t < tag) {
                out.push(earlier);
            }
            out.push(report.clone());
        }
        out.extend(playing.map(|(_, report)| report));
        out
    }
}

/// A launched session: its player holds a copy of the wave's asset.
struct Session {
    tag: u64,
    flow: FlowId,
    player: Player,
    last_delivered: f64,
    last_advanced: Timestamp,
    /// A tick has advanced it: readers see its report from then on (a
    /// session launched at start-up is not visible before the first
    /// tick).
    advanced: bool,
    /// The server is paused (1 B/s: the player wants no bytes); it
    /// starts at the clip's rate.
    paused: bool,
}

// Every tick walks the active set: a wider session is paid per
// concurrent viewer per tick.
const _: () = assert!(
    std::mem::size_of::<Session>() <= 152,
    "a session fits in 152 bytes"
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
            last_delivered: 0.0,
            last_advanced: api.now(),
            advanced: false,
            paused: false,
        }
    }

    /// Its clip has ended: its flow is stopped and its report is final.
    fn finished(&self) -> bool {
        self.player.state() == PlayerState::Done
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
        };
        (driver, shared)
    }
}

impl Shared {
    /// Advance every playing session to now; a session whose clip ends
    /// stops its flow and leaves its final report in the map. Finished
    /// sessions leave the active set together (module docs).
    fn advance_sessions(&mut self, api: &mut SimContext<'_>) {
        let now = api.now();
        let now_secs = now.as_secs_f64();
        for s in self.active.iter_mut() {
            if s.finished() {
                continue;
            }
            let delivered = api.flow_delivered(s.flow).unwrap_or(s.last_delivered);
            let bytes = (delivered - s.last_delivered).max(0.0);
            s.last_delivered = delivered;
            let dt = (now - s.last_advanced).as_secs_f64();
            s.last_advanced = now;
            s.player.advance(now_secs, dt, bytes);
            s.advanced = true;

            if s.finished() {
                api.stop_flow(s.flow);
                self.finished.insert(s.tag, s.player.qoe());
                self.done += 1;
                continue;
            }
            // Pause/resume server pacing on buffer bounds: the cap
            // moves only when the flag flips.
            let paused = !s.player.wants_download();
            if paused != s.paused {
                s.paused = paused;
                let cap = if paused { 1.0 } else { s.player.bitrate() };
                api.set_flow_cap(s.flow, Some(cap));
            }
        }
        // Drop finished sessions' player state, so memory follows
        // concurrency, not history: in bulk, once they are a sixteenth
        // of the set.
        if self.done > 0 && self.done * 16 >= self.active.len() {
            self.active.retain(|s| !s.finished());
            self.done = 0;
        }
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
        // One lock per tick, and no ordered-map operation for a
        // session that is still playing. (The guard borrows a clone of
        // the handle, so that `launch_due` may borrow the driver.)
        let handle = self.shared.clone();
        let mut shared = handle.0.lock();
        self.launch_due(&mut shared, ctx);
        if let AppEvent::Tick = ev {
            shared.advance_sessions(ctx);
        }
    }
}

impl VideoWorkload {
    /// Launch every session due by now, in schedule order.
    fn launch_due(&mut self, shared: &mut Shared, ctx: &mut SimContext<'_>) {
        while let Some(&(start, wave, tag)) = self.order.get(self.cursor) {
            if start > ctx.now() {
                break;
            }
            self.cursor += 1;
            let session = Session::launch(&self.waves[wave as usize], u64::from(tag), ctx);
            shared.active.push(session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::types::Metric;
    use fib_netsim::link::LinkSpec;
    use fib_netsim::sim::{Sim, SimConfig};

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
        assert!(reports.0.lock().active.is_empty());
    }

    /// What the handle used to be, kept beside the driver: an ordered
    /// map into which every session a tick advanced is inserted, every
    /// tick — from the players for those still playing, and the final
    /// report for those the tick finished.
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
                for s in shared.active.iter().filter(|s| !s.finished()) {
                    map.insert(s.tag, s.player.qoe());
                }
                for (tag, report) in &shared.finished {
                    map.insert(*tag, report.clone());
                }
            }
        }
    }

    /// The handle's contract, read mid-run between ticks: the reader
    /// yields, tag for tag, what a per-tick publisher would hold — and
    /// the ordered map holds the finished sessions and nothing else,
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
            assert_eq!(
                shared.finished.keys().copied().collect::<Vec<_>>(),
                completed,
                "at {at_ms} ms the map holds exactly the finished sessions"
            );
            // Playing: launched and not finished. A finished session
            // may still sit in the active set until the next bulk
            // compaction; it counts among the finished only.
            let (playing, advanced) = shared
                .active
                .iter()
                .filter(|s| !s.finished())
                .fold((0, 0), |(n, a), s| (n + 1, a + usize::from(s.advanced)));
            assert_eq!(got.len(), shared.finished.len() + advanced);
            seen_both |= !shared.finished.is_empty() && playing > 0;
            match at_ms {
                // The session due at 0 launched at start-up; no tick
                // has advanced it yet.
                50 => assert!(got.is_empty() && playing == 1),
                60_000 => assert!(got.len() == 8 && playing == 0),
                _ => {}
            }
        }
        assert!(seen_both, "some read saw finished and playing sessions");
        assert!(handle.reports().iter().any(|q| q.stalls > 0));
    }

    /// The tick as it was, kept as the reference the driver is held
    /// to: every session's cap is set again at every tick, and the
    /// finished sessions leave the active set at every tick.
    struct ReferenceDriver(VideoWorkload);

    impl Shared {
        fn advance_sessions_reference(&mut self, api: &mut SimContext<'_>) {
            let now = api.now();
            let now_secs = now.as_secs_f64();
            for s in self.active.iter_mut() {
                let delivered = api.flow_delivered(s.flow).unwrap_or(s.last_delivered);
                let bytes = (delivered - s.last_delivered).max(0.0);
                s.last_delivered = delivered;
                let dt = (now - s.last_advanced).as_secs_f64();
                s.last_advanced = now;
                s.player.advance(now_secs, dt, bytes);
                s.advanced = true;
                if !s.player.wants_download() && s.player.state() != PlayerState::Done {
                    api.set_flow_cap(s.flow, Some(1.0));
                } else if s.player.state() != PlayerState::Done {
                    api.set_flow_cap(s.flow, Some(s.player.bitrate()));
                }
                if s.player.state() == PlayerState::Done {
                    api.stop_flow(s.flow);
                    self.finished.insert(s.tag, s.player.qoe());
                }
            }
            self.active
                .retain(|s| s.player.state() != PlayerState::Done);
        }
    }

    impl EventHandler for ReferenceDriver {
        fn name(&self) -> &str {
            "reference-driver"
        }

        fn tick_interval(&self) -> Option<Dur> {
            self.0.tick_interval()
        }

        fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
            if !matches!(ev, AppEvent::Start | AppEvent::Tick) {
                return;
            }
            let handle = self.0.shared.clone();
            let mut shared = handle.0.lock();
            self.0.launch_due(&mut shared, ctx);
            if let AppEvent::Tick = ev {
                shared.advance_sessions_reference(ctx);
            }
        }
    }

    /// The driver against the reference tick on a saturated line, two
    /// simulators side by side: after every tick every live flow has
    /// the same cap, rate and delivered bytes on both, and the readers
    /// give equal reports at every tenth tick and at the end. Sixty
    /// sessions of 100 kB/s with clips of 4 to 24 s start over 30 s on
    /// 2 MB/s, so flows are paced, drained to 1 B/s once their bytes
    /// are in, and stopped; players stall and resume; and sessions
    /// finish while dozens of others play.
    #[test]
    fn the_driver_caps_and_reports_as_the_reference_tick_does() {
        let mut st = 0x5EED_u64;
        let mut draw = |n: u64| {
            st = st
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (st >> 33) % n
        };
        let waves: Vec<Wave> = (0..60)
            .map(|_| {
                let secs = 4.0 + draw(21) as f64;
                wave(1e5, secs, vec![Timestamp::from_millis(draw(30_000))])
            })
            .collect();
        let mut runs: Vec<(Sim, QoeHandle)> = Vec::new();
        for reference in [false, true] {
            let mut sim = line(2e6);
            let (driver, handle) = VideoWorkload::new(waves.clone());
            if reference {
                sim.add_app(Box::new(ReferenceDriver(driver)));
            } else {
                sim.add_app(Box::new(driver));
            }
            sim.start();
            runs.push((sim, handle));
        }
        let flows = |sim: &Sim| -> Vec<(FlowId, u64, Option<u64>, u64, u64)> {
            sim.flows()
                .map(|f| {
                    let cap = f.cap.map(f64::to_bits);
                    (f.id, f.tag, cap, f.rate.to_bits(), f.delivered.to_bits())
                })
                .collect()
        };
        let (mut drained, mut stopped, mut busiest) = (0usize, 0usize, 0usize);
        let mut lingered = 0usize; // ticks after which a finished session awaited compaction
        let mut live_before = 0usize;
        for tick in 1..=600u64 {
            for (sim, _) in &mut runs {
                sim.run_until(Timestamp::from_millis(100 * tick + 1));
            }
            let got = flows(&runs[0].0);
            assert_eq!(got, flows(&runs[1].0), "tick {tick}: flows");
            drained += got.iter().filter(|f| f.2 == Some(1f64.to_bits())).count();
            stopped += live_before.saturating_sub(got.len());
            busiest = busiest.max(got.len());
            live_before = got.len();
            let kept = runs[0].1 .0.lock().active.iter().any(Session::finished);
            lingered += usize::from(kept);
            if tick % 10 == 0 {
                assert_eq!(
                    runs[0].1.reports(),
                    runs[1].1.reports(),
                    "tick {tick}: reports"
                );
            }
        }
        let reports = runs[0].1.reports();
        assert_eq!(reports.len(), 60);
        assert!(reports.iter().all(|q| q.completed));
        let stalled = reports.iter().filter(|q| q.stalls > 0).count();
        assert!(stalled >= 10, "{stalled} sessions stalled");
        assert!(drained >= 500, "{drained} flow-ticks drained");
        assert!(stopped >= 20, "{stopped} flows stopped");
        assert!(busiest >= 30, "at most {busiest} flows at once");
        assert!(
            lingered >= 20,
            "{lingered} ticks with a finished session kept"
        );
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

    /// Server pacing, tick by tick, for one constant-bitrate session on
    /// a link ten times its rate: the flow is capped at the clip's
    /// rate while the player wants bytes, all but paused once every
    /// byte has arrived (the last two seconds play from the buffer),
    /// and gone when playback ends.
    #[test]
    fn pacing_follows_the_player_and_the_flow_stops_at_the_end() {
        let (rate, secs) = (1e5, 10.0);
        let mut sim = line(1e6);
        let (driver, handle) = VideoWorkload::new(vec![wave(rate, secs, vec![Timestamp::ZERO])]);
        sim.add_app(Box::new(driver));
        sim.start();

        let mut phases = Vec::new();
        for tick in 1..=150u64 {
            // Just after a tick: the cap is the one the tick left.
            sim.run_until(Timestamp::from_millis(100 * tick + 1));
            let shared = handle.0.lock();
            let phase = match shared.active.first() {
                Some(s) => {
                    let flow = sim.flows().next().expect("a playing session has a flow");
                    if s.player.wants_download() {
                        assert_eq!(flow.cap, Some(rate), "tick {tick}");
                        "paced"
                    } else {
                        assert_eq!(flow.cap, Some(1.0), "tick {tick}");
                        assert!(
                            s.last_delivered >= rate * secs * (1.0 - 1e-9),
                            "tick {tick}"
                        );
                        "drained"
                    }
                }
                None => {
                    assert!(sim.flows().next().is_none(), "tick {tick}");
                    assert!(shared.finished.contains_key(&0), "tick {tick}");
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
