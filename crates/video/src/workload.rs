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
//! Sessions arrive through a [`SessionSource`]: either an eager,
//! pre-materialized list (small experiments) or a [`GroupedSource`]
//! holding only compact per-wave parameters plus arrival instants —
//! the full [`SessionSpec`] (asset, ladder, player config) is built
//! lazily at launch time, and finished sessions are dropped from the
//! active set, so memory tracks the number of *concurrent* viewers,
//! not the total schedule length. City-scale scenarios (thousands of
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

/// One scheduled viewing session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// When the client presses play.
    pub start: Timestamp,
    /// Server-side ingress router.
    pub src: RouterId,
    /// Client-side destination prefix.
    pub dst: Prefix,
    /// The asset.
    pub video: Video,
    /// ABR policy.
    pub abr: AbrPolicy,
    /// Player tuning.
    pub player: PlayerConfig,
    /// Session tag (unique; keys the QoE report).
    pub tag: u64,
}

impl SessionSpec {
    /// A constant-bitrate session (the demo's shape).
    pub fn constant(
        start: Timestamp,
        src: RouterId,
        dst: Prefix,
        rate: f64,
        secs: f64,
        tag: u64,
    ) -> SessionSpec {
        SessionSpec {
            start,
            src,
            dst,
            video: Video::constant(secs, rate),
            abr: AbrPolicy::Constant(0),
            player: PlayerConfig::default(),
            tag,
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
            .map(|s| (s.spec.tag, s.player.qoe()))
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

/// Where the driver's sessions come from, in launch (time) order.
///
/// Implementations must yield sessions with non-decreasing
/// [`SessionSpec::start`]; [`SessionSource::peek_start`] lets the
/// driver stop scanning at the first future arrival.
pub trait SessionSource {
    /// Start time of the next session, `None` when exhausted.
    fn peek_start(&self) -> Option<Timestamp>;
    /// Materialize and take the next session.
    fn next_session(&mut self) -> Option<SessionSpec>;
    /// Sessions not yet launched.
    fn remaining(&self) -> usize;
}

/// An eager source: a pre-built schedule, sorted at construction.
pub struct EagerSource {
    schedule: Vec<SessionSpec>,
    cursor: usize,
}

impl EagerSource {
    /// Wrap a schedule (sorted here; stable, so equal start times keep
    /// their original order).
    pub fn new(mut schedule: Vec<SessionSpec>) -> EagerSource {
        schedule.sort_by_key(|s| s.start);
        EagerSource {
            schedule,
            cursor: 0,
        }
    }
}

impl SessionSource for EagerSource {
    fn peek_start(&self) -> Option<Timestamp> {
        self.schedule.get(self.cursor).map(|s| s.start)
    }

    fn next_session(&mut self) -> Option<SessionSpec> {
        let spec = self.schedule.get(self.cursor).cloned();
        if spec.is_some() {
            self.cursor += 1;
        }
        spec
    }

    fn remaining(&self) -> usize {
        self.schedule.len() - self.cursor
    }
}

/// One wave of identical constant-bitrate sessions: the compact form
/// a scenario stores instead of materialized [`SessionSpec`]s.
///
/// `starts` lists each session's arrival in *generation* order (the
/// order the seeded RNG produced them); session `i` gets tag
/// `tag_base + i`. The source interleaves waves by start time.
#[derive(Debug, Clone)]
pub struct SessionGroup {
    /// Server-side ingress router.
    pub src: RouterId,
    /// Client-side destination prefix.
    pub dst: Prefix,
    /// Per-video bitrate (bytes/s).
    pub rate: f64,
    /// Clip length (seconds).
    pub video_secs: f64,
    /// First tag; session `i` of the group is `tag_base + i`.
    pub tag_base: u64,
    /// Arrival instants, in generation order.
    pub starts: Vec<Timestamp>,
}

/// A lazy source over [`SessionGroup`]s: only `(start, group, index)`
/// triples are kept per session; the spec (asset, ladder, player) is
/// built when the session actually launches.
pub struct GroupedSource {
    groups: Vec<SessionGroup>,
    /// (start, group, index-in-group), stably sorted by start — the
    /// same permutation the old eager global sort produced.
    order: Vec<(Timestamp, u32, u32)>,
    cursor: usize,
}

impl GroupedSource {
    /// Build the launch order over the given waves.
    pub fn new(groups: Vec<SessionGroup>) -> GroupedSource {
        let mut order: Vec<(Timestamp, u32, u32)> = Vec::new();
        for (g, group) in groups.iter().enumerate() {
            for (i, t) in group.starts.iter().enumerate() {
                order.push((*t, g as u32, i as u32));
            }
        }
        order.sort_by_key(|(t, _, _)| *t);
        GroupedSource {
            groups,
            order,
            cursor: 0,
        }
    }

    /// Total sessions across all groups.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if no sessions are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl SessionSource for GroupedSource {
    fn peek_start(&self) -> Option<Timestamp> {
        self.order.get(self.cursor).map(|(t, _, _)| *t)
    }

    fn next_session(&mut self) -> Option<SessionSpec> {
        let (start, g, i) = *self.order.get(self.cursor)?;
        self.cursor += 1;
        let group = &self.groups[g as usize];
        Some(SessionSpec::constant(
            start,
            group.src,
            group.dst,
            group.rate,
            group.video_secs,
            group.tag_base + u64::from(i),
        ))
    }

    fn remaining(&self) -> usize {
        self.order.len() - self.cursor
    }
}

struct Session {
    spec: SessionSpec,
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

/// The workload driver.
pub struct VideoWorkload {
    source: Box<dyn SessionSource>,
    tick: Dur,
    shared: QoeHandle,
}

impl VideoWorkload {
    /// Build a driver over an eager session schedule; returns the
    /// driver and the QoE handle to read during or after the run.
    pub fn new(schedule: Vec<SessionSpec>, tick: Dur) -> (VideoWorkload, QoeHandle) {
        Self::from_source(Box::new(EagerSource::new(schedule)), tick)
    }

    /// Build a driver over any (possibly lazy) session source.
    pub fn from_source(source: Box<dyn SessionSource>, tick: Dur) -> (VideoWorkload, QoeHandle) {
        let shared = QoeHandle::default();
        (
            VideoWorkload {
                source,
                tick,
                shared: shared.clone(),
            },
            shared,
        )
    }
}

/// Launch every session of `source` that is due, onto the end of
/// `active`.
fn launch_due(source: &mut dyn SessionSource, active: &mut Vec<Session>, api: &mut SimContext<'_>) {
    let now = api.now();
    while let Some(start) = source.peek_start() {
        if start > now {
            break;
        }
        let spec = source.next_session().expect("peeked");
        let bitrate = spec.video.ladder.rate(match &spec.abr {
            AbrPolicy::Constant(l) => *l,
            _ => 0,
        });
        let flow = api.start_flow(
            FlowSpec::new(spec.src, spec.dst)
                .with_cap(bitrate)
                .with_tag(spec.tag),
        );
        let player = Player::new(spec.video.clone(), spec.player, now);
        active.push(Session {
            spec,
            flow,
            player,
            last_delivered: 0.0,
            last_advanced: now,
            thr_ewma: 0.0,
            advanced: false,
        });
    }
}

impl Shared {
    /// Advance every active session to now; a session whose clip ends
    /// leaves its final report in the map and the active set.
    fn advance_sessions(&mut self, api: &mut SimContext<'_>) {
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
            let level = s.spec.abr.decide(
                &s.spec.video.ladder,
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
                self.finished.insert(s.spec.tag, s.player.qoe());
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
        Some(self.tick)
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: AppEvent<'_>) {
        match ev {
            AppEvent::Start => {
                launch_due(&mut *self.source, &mut self.shared.0.lock().active, ctx);
            }
            // One lock per tick, and no ordered-map operation for a
            // session that is still playing.
            AppEvent::Tick => {
                let mut shared = self.shared.0.lock();
                launch_due(&mut *self.source, &mut shared.active, ctx);
                shared.advance_sessions(ctx);
            }
            AppEvent::FlowStarted(_) | AppEvent::FlowStopped(_) => {}
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

    #[test]
    fn single_session_plays_smoothly() {
        let mut sim = line(1e6);
        let spec = SessionSpec::constant(
            Timestamp::from_secs(10),
            r(1),
            Prefix::net24(1),
            125_000.0,
            20.0,
            1,
        );
        let (driver, reports) = VideoWorkload::new(vec![spec], Dur::from_millis(100));
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(60));
        let all = reports.reports();
        let q = all.first().expect("report for tag 1");
        assert!(q.completed, "{q:?}");
        assert_eq!(q.stalls, 0);
        assert!(q.score() > 4.0);
    }

    #[test]
    fn oversubscribed_link_causes_stalls() {
        // 10 sessions of 125 kB/s over a 500 kB/s link: starvation.
        let mut sim = line(5e5);
        let specs: Vec<SessionSpec> = (0..10)
            .map(|i| {
                SessionSpec::constant(
                    Timestamp::from_secs(10),
                    r(1),
                    Prefix::net24(1),
                    125_000.0,
                    30.0,
                    i,
                )
            })
            .collect();
        let (driver, reports) = VideoWorkload::new(specs, Dur::from_millis(100));
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(80));
        let stalled: usize = reports.reports().iter().filter(|q| q.stalls > 0).count();
        assert!(
            stalled >= 5,
            "expected most sessions to stall, got {stalled}/10"
        );
    }

    #[test]
    fn grouped_source_matches_eager_schedule() {
        // Two interleaved waves; the lazy source must launch the same
        // sessions (start, src, tag) in the same order as the eager
        // equivalent built from materialized specs.
        let g1 = SessionGroup {
            src: r(1),
            dst: Prefix::net24(1),
            rate: 1e5,
            video_secs: 30.0,
            tag_base: 0,
            starts: (0..5).map(|i| Timestamp::from_secs(2 * i)).collect(),
        };
        let g2 = SessionGroup {
            src: r(2),
            dst: Prefix::net24(1),
            rate: 2e5,
            video_secs: 60.0,
            tag_base: 5,
            starts: (0..5).map(|i| Timestamp::from_secs(2 * i + 1)).collect(),
        };
        let eager: Vec<SessionSpec> = g1
            .starts
            .iter()
            .enumerate()
            .map(|(i, t)| SessionSpec::constant(*t, g1.src, g1.dst, g1.rate, 30.0, i as u64))
            .chain(g2.starts.iter().enumerate().map(|(i, t)| {
                SessionSpec::constant(*t, g2.src, g2.dst, g2.rate, 60.0, 5 + i as u64)
            }))
            .collect();
        let mut lazy = GroupedSource::new(vec![g1, g2]);
        let mut reference = EagerSource::new(eager);
        assert_eq!(lazy.len(), 10);
        assert_eq!(lazy.remaining(), reference.remaining());
        while let Some(expect) = reference.next_session() {
            assert_eq!(lazy.peek_start(), Some(expect.start));
            let got = lazy.next_session().unwrap();
            assert_eq!(got.start, expect.start);
            assert_eq!(got.src, expect.src);
            assert_eq!(got.tag, expect.tag);
            assert_eq!(got.video, expect.video);
        }
        assert!(lazy.next_session().is_none());
        assert_eq!(lazy.remaining(), 0);
    }

    #[test]
    fn finished_sessions_are_dropped_from_the_active_set() {
        let mut sim = line(1e6);
        let specs: Vec<SessionSpec> = (0..3)
            .map(|i| {
                SessionSpec::constant(
                    Timestamp::from_secs(5),
                    r(1),
                    Prefix::net24(1),
                    1e5,
                    10.0,
                    i,
                )
            })
            .collect();
        let (driver, reports) = VideoWorkload::new(specs, Dur::from_millis(100));
        let idx = sim.add_app(Box::new(driver));
        let _ = idx;
        sim.start();
        sim.run_until(Timestamp::from_secs(60));
        // All three finished: reports persist, players are gone.
        let all = reports.reports();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|q| q.completed));
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
                    map.insert(s.spec.tag, s.player.qoe());
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
        // Eight 100 kB/s sessions over 400 kB/s, so some stall. Tags
        // run against launch order, and each clip has its own length,
        // so a report names its session.
        let mut sim = line(4e5);
        let specs: Vec<SessionSpec> = (0..8u64)
            .map(|i| {
                SessionSpec::constant(
                    Timestamp::from_millis(700 * i),
                    r(1),
                    Prefix::net24(1),
                    1e5,
                    6.0 + i as f64,
                    100 - i,
                )
            })
            .collect();
        let (driver, handle) = VideoWorkload::new(specs, Dur::from_millis(100));
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
        let specs = vec![
            SessionSpec::constant(
                Timestamp::from_secs(5),
                r(1),
                Prefix::net24(1),
                1e5,
                100.0,
                1,
            ),
            SessionSpec::constant(
                Timestamp::from_secs(20),
                r(1),
                Prefix::net24(1),
                1e5,
                100.0,
                2,
            ),
        ];
        let (driver, reports) = VideoWorkload::new(specs, Dur::from_millis(100));
        sim.add_app(Box::new(driver));
        sim.start();
        sim.run_until(Timestamp::from_secs(10));
        assert_eq!(reports.reports().len(), 1, "only the first session yet");
        sim.run_until(Timestamp::from_secs(25));
        assert_eq!(reports.reports().len(), 2);
    }
}
