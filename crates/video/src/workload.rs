//! The video workload driver: a netsim [`EventHandler`] component
//! binding players to flows.
//!
//! Each session is a video server → client pair: a rate-capped flow in
//! the simulator (the server paces at the encoding bitrate, as the
//! demo's streaming servers do) feeding a [`Player`]'s buffer. The
//! driver launches sessions on schedule, advances players from
//! delivered bytes every tick, runs ABR at segment granularity, and
//! shares its sessions with a [`QoeHandle`] through which the
//! experiment harness reads every session's QoE report, mid-run or
//! after it. A tick pays nothing for that: a report enters the ordered
//! map once, when its session finishes, and the reports of sessions
//! still playing are derived from their players when somebody reads.
//!
//! A schedule is a list of [`Wave`]s: what every viewer of a wave
//! shares (server, prefix, asset, ABR policy, player tuning) is stored
//! once, next to the wave's arrival instants. A pending session costs
//! one 16-byte `(start, wave, tag)` triple, a player is built when its
//! session launches, and finished sessions are dropped from the active
//! set, so memory tracks the number of *concurrent* viewers, not the
//! length of the schedule. City-scale scenarios (thousands of
//! sessions) rely on this.

use crate::abr::{AbrInput, AbrPolicy};
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
    /// ABR policy.
    pub abr: AbrPolicy,
    /// Player tuning.
    pub player: PlayerConfig,
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
            abr: AbrPolicy::Constant(0),
            player: PlayerConfig::default(),
            starts,
        }
    }
}

/// What the driver shares with its readers.
#[derive(Default)]
struct Shared {
    /// Final reports by tag: one insert per session, when it finishes.
    finished: BTreeMap<u64, QoeReport>,
    /// The sessions still playing, in launch order.
    active: Vec<Session>,
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
            .filter(|s| s.advanced)
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

/// A launched session. What it shares with the rest of its wave stays
/// in the [`Wave`].
struct Session {
    /// Index of its wave in the driver's list.
    wave: u32,
    tag: u64,
    flow: FlowId,
    player: Player,
    last_delivered: f64,
    last_advanced: Timestamp,
    thr_ewma: f64,
    /// A tick has advanced it: readers see its report from then on (a
    /// session launched at start-up is not visible before the first
    /// tick).
    advanced: bool,
}

impl Session {
    /// Start the flow and the player of session `tag` of `waves[index]`.
    fn launch(waves: &[Wave], index: u32, tag: u64, api: &mut SimContext<'_>) -> Session {
        let wave = &waves[index as usize];
        let bitrate = wave.video.ladder.rate(match &wave.abr {
            AbrPolicy::Constant(l) => *l,
            _ => 0,
        });
        let flow = api.start_flow(
            FlowSpec::new(wave.src, wave.dst)
                .with_cap(bitrate)
                .with_tag(tag),
        );
        Session {
            wave: index,
            tag,
            flow,
            player: Player::new(wave.video.clone(), wave.player, api.now()),
            last_delivered: 0.0,
            last_advanced: api.now(),
            thr_ewma: 0.0,
            advanced: false,
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
    /// Advance every active session to now; a session whose clip ends
    /// leaves its final report in the map and the active set.
    fn advance_sessions(&mut self, waves: &[Wave], api: &mut SimContext<'_>) {
        let now = api.now();
        let now_secs = now.as_secs_f64();
        for s in self.active.iter_mut() {
            let delivered = api.flow_delivered(s.flow).unwrap_or(s.last_delivered);
            let bytes = (delivered - s.last_delivered).max(0.0);
            s.last_delivered = delivered;
            let dt = (now - s.last_advanced).as_secs_f64();
            s.last_advanced = now;
            if dt > 0.0 {
                s.thr_ewma = 0.5 * (bytes / dt) + 0.5 * s.thr_ewma;
            }
            s.player.advance(now_secs, dt, bytes);
            s.advanced = true;

            // ABR decision (no-op for Constant policies).
            let wave = &waves[s.wave as usize];
            let level = wave.abr.decide(
                &wave.video.ladder,
                AbrInput {
                    buffer_secs: s.player.buffer_secs(),
                    throughput: s.thr_ewma,
                    current_level: s.player.level(),
                },
            );
            if level != s.player.level() {
                s.player.set_level(level);
                api.set_flow_cap(s.flow, Some(s.player.bitrate()));
            }

            // Pause/resume server pacing on buffer bounds.
            if !s.player.wants_download() && s.player.state() != PlayerState::Done {
                api.set_flow_cap(s.flow, Some(1.0)); // effectively paused
            } else if s.player.state() != PlayerState::Done {
                api.set_flow_cap(s.flow, Some(s.player.bitrate()));
            }

            if s.player.state() == PlayerState::Done {
                api.stop_flow(s.flow);
                self.finished.insert(s.tag, s.player.qoe());
            }
        }
        // Drop a finished session's player state, so memory follows
        // concurrency, not history.
        self.active
            .retain(|s| s.player.state() != PlayerState::Done);
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
        // session that is still playing.
        let mut shared = self.shared.0.lock();
        while let Some(&(start, wave, tag)) = self.order.get(self.cursor) {
            if start > ctx.now() {
                break;
            }
            self.cursor += 1;
            let session = Session::launch(&self.waves, wave, u64::from(tag), ctx);
            shared.active.push(session);
        }
        if let AppEvent::Tick = ev {
            shared.advance_sessions(&self.waves, ctx);
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
                for s in &shared.active {
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
            let playing = shared.active.iter().filter(|s| s.advanced).count();
            assert_eq!(got.len(), shared.finished.len() + playing);
            seen_both |= !shared.finished.is_empty() && !shared.active.is_empty();
            match at_ms {
                // The session due at 0 launched at start-up; no tick
                // has advanced it yet.
                50 => assert!(got.is_empty() && shared.active.len() == 1),
                60_000 => assert!(got.len() == 8 && shared.active.is_empty()),
                _ => {}
            }
        }
        assert!(seen_both, "some read saw finished and playing sessions");
        assert!(handle.reports().iter().any(|q| q.stalls > 0));
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

    /// The driver's ABR block with a policy that can move. A player
    /// starts on the lowest rung and its server paces at that rung, so
    /// a rate-based policy climbs only if it bets on more than it has
    /// measured: `safety` 2.2 climbs one rung at a time (50 → 100 →
    /// 150 kB/s) until the 130 kB/s link stops it below the top one.
    #[test]
    fn adaptive_wave_moves_its_level_and_the_flow_cap_follows() {
        let mut sim = line(130_000.0);
        let video = Video::adaptive(120.0);
        let ladder = video.ladder.clone();
        let waves = vec![Wave {
            video,
            abr: AbrPolicy::RateBased { safety: 2.2 },
            ..wave(1.0, 1.0, vec![Timestamp::ZERO])
        }];
        let (driver, handle) = VideoWorkload::new(waves);
        sim.add_app(Box::new(driver));
        sim.start();

        let mut levels = Vec::new();
        for tick in 1..=400u64 {
            // Just after a tick: the cap is the one the tick left.
            sim.run_until(Timestamp::from_millis(100 * tick + 1));
            let shared = handle.0.lock();
            let s = &shared.active[0];
            let flow = sim.flows().next().expect("one live flow");
            assert_eq!(flow.cap, Some(s.player.bitrate()), "tick {tick}");
            assert_eq!(s.player.bitrate(), ladder.rate(s.player.level()));
            if levels.last() != Some(&s.player.level()) {
                levels.push(s.player.level());
            }
        }
        assert_eq!(levels, [0, 1, 2], "climbs, and never reaches rung 3");
        let report = &handle.reports()[0];
        assert_eq!(report.switches, 2);
        assert_eq!(report.max_bitrate, ladder.max_rate());
        assert!(report.stalls > 0, "150 kB/s does not fit in 130 kB/s");
        // Past the top rung the level clamps, and the rate with it.
        let player = &mut handle.0.lock().active[0].player;
        player.set_level(99);
        assert_eq!(player.level(), 3);
        assert_eq!(player.bitrate(), ladder.rate(player.level()));
    }
}
