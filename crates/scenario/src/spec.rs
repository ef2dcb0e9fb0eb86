//! The declarative scenario model and its TOML-subset binding.
//!
//! A [`ScenarioSpec`] is everything a what-if experiment needs:
//! a topology (built-in shapes or seeded generators), a controller
//! configuration, a mix of video workloads, and a timed event script
//! of faults and demand shifts. Specs live as `.toml` files under
//! `scenarios/` (see [`crate::toml`] for the exact subset) and are
//! validated strictly: unknown keys, missing fields, and wrong types
//! are errors naming the offending key.

use crate::fields::Presence::{OmitDefault, Optional, ReadOnly, Required};
use crate::fields::{default_blank, read_table, Done, Fields, Pass, Tagged};
use crate::toml;
use fib_igp::types::RouterId;
use std::fmt;

/// A spec-level validation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

pub(crate) fn fail<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// Names end up in result file names.
pub(crate) fn check_slug(what: &str, name: &str) -> Done {
    let slug = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    if name.is_empty() || !name.chars().all(slug) {
        return fail(format!(
            "{what} name `{name}` must be a non-empty [A-Za-z0-9_-]+ slug"
        ));
    }
    Ok(())
}

/// Which topology the scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's Fig. 1a graph (7 routers, blue prefix at C).
    Paper,
    /// A line of `n` routers.
    Line {
        /// Router count.
        n: u32,
    },
    /// A ring of `n` routers.
    Ring {
        /// Router count.
        n: u32,
    },
    /// A `rows x cols` grid.
    Grid {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
    },
    /// A full mesh over `n` routers.
    FullMesh {
        /// Router count.
        n: u32,
    },
    /// A random connected graph (spanning tree plus chords).
    Random {
        /// Router count.
        n: u32,
        /// Chords beyond the spanning tree.
        extra_edges: u32,
        /// Metrics drawn uniformly from `1..=max_metric`.
        max_metric: u32,
    },
    /// A Waxman random graph (distance-dependent edges).
    Waxman {
        /// Router count.
        n: u32,
        /// Waxman alpha (edge density).
        alpha: f64,
        /// Waxman beta (distance decay).
        beta: f64,
        /// Largest distance-derived metric.
        max_metric: u32,
    },
    /// A `k`-ary fat tree.
    FatTree {
        /// Arity (even, >= 2).
        k: u32,
    },
}

/// Controller configuration (one Fibbing controller per scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSpec {
    /// Router the controller's speaker attaches to.
    pub attach: u32,
    /// Utilization budget handed to the optimizer.
    pub target_util: f64,
    /// Reaction threshold.
    pub util_hi: f64,
    /// Retraction threshold (natural utilization).
    pub util_lo: f64,
    /// ECMP slot budget per router.
    pub slot_budget: u32,
    /// Demand assumed for uncapped flows (bytes/s).
    pub default_flow_rate: f64,
    /// React to server notifications (predictive mode).
    pub predictive: bool,
    /// Poll SNMP counters.
    pub use_snmp: bool,
}

impl Default for ControllerSpec {
    fn default() -> Self {
        ControllerSpec {
            attach: 1,
            target_util: 0.7,
            util_hi: 0.8,
            util_lo: 0.3,
            slot_budget: 8,
            default_flow_rate: 125_000.0,
            predictive: true,
            use_snmp: true,
        }
    }
}

/// One entry of the scenario's video workload mix.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's exact Sec. 3 schedule (1 + 30 + 31 sessions).
    Paper {
        /// First source (the paper's S1 at B).
        src1: u32,
        /// Second source (the paper's S2 at A).
        src2: u32,
        /// Per-video bitrate (bytes/s).
        rate: f64,
        /// Clip length (seconds).
        video_secs: f64,
    },
    /// `n` constant-bitrate sessions starting at `at` (spread over 1 s
    /// like the paper's batches).
    Constant {
        /// Batch start time (seconds).
        at: f64,
        /// Source router.
        src: u32,
        /// Session count.
        n: u32,
        /// Per-video bitrate (bytes/s).
        rate: f64,
        /// Clip length (seconds).
        video_secs: f64,
        /// Which sink's prefix to stream to.
        dst: usize,
    },
    /// A Poisson flash crowd.
    Poisson {
        /// First possible arrival (seconds).
        start: f64,
        /// Mean inter-arrival gap (seconds).
        mean_gap_secs: f64,
        /// Arrival count.
        n: u32,
        /// Source router.
        src: u32,
        /// Per-video bitrate (bytes/s).
        rate: f64,
        /// Clip length (seconds).
        video_secs: f64,
        /// Which sink's prefix to stream to.
        dst: usize,
    },
    /// A diurnal demand mix (sinusoidal arrival intensity).
    Diurnal {
        /// Cycle period (seconds).
        period_secs: f64,
        /// Peak arrival intensity (sessions/second).
        peak_per_sec: f64,
        /// Trough arrival intensity (sessions/second).
        trough_per_sec: f64,
        /// Source router.
        src: u32,
        /// Per-video bitrate (bytes/s).
        rate: f64,
        /// Clip length (seconds).
        video_secs: f64,
        /// Which sink's prefix to stream to.
        dst: usize,
    },
}

/// A timed entry of the fault/demand script.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// When the event fires (seconds).
    pub at: f64,
    /// What happens.
    pub kind: EventKind,
}

/// The actions an event script can take.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Fail a symmetric link.
    FailLink {
        /// One endpoint.
        a: u32,
        /// Other endpoint.
        b: u32,
    },
    /// Restore a failed link.
    RestoreLink {
        /// One endpoint.
        a: u32,
        /// Other endpoint.
        b: u32,
    },
    /// Change a link's per-direction capacity.
    SetCapacity {
        /// One endpoint.
        a: u32,
        /// Other endpoint.
        b: u32,
        /// New capacity (bytes/s).
        capacity: f64,
    },
    /// A demand surge: `n` sessions at once from `src`.
    Surge {
        /// Source router.
        src: u32,
        /// Session count.
        n: u32,
        /// Per-video bitrate (bytes/s).
        rate: f64,
        /// Clip length (seconds).
        video_secs: f64,
        /// Which sink's prefix to stream to.
        dst: usize,
    },
    /// A Poisson flash crowd starting at the event time.
    FlashCrowd {
        /// Source router.
        src: u32,
        /// Arrival count.
        n: u32,
        /// Mean inter-arrival gap (seconds).
        mean_gap_secs: f64,
        /// Per-video bitrate (bytes/s).
        rate: f64,
        /// Clip length (seconds).
        video_secs: f64,
        /// Which sink's prefix to stream to.
        dst: usize,
    },
}

/// Expected-invariant bounds a run of the scenario must satisfy
/// (the `[expect]` stanza).
///
/// Archived adversarial finds under `scenarios/found/` carry one of
/// these so the regression suite *fails* when the nasty behaviour the
/// fuzzer minimized stops reproducing — or when a fix regresses. All
/// bounds are optional and inclusive; `fwd_loops` bounds compare
/// against the loop-freedom probe's settle counter, which the suite
/// runner arms automatically for specs that carry an `[expect]`
/// stanza.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpectSpec {
    /// Upper bound on integrated unroutable flow-seconds.
    pub max_unroutable_flow_secs: Option<f64>,
    /// Lower bound on integrated unroutable flow-seconds (asserts the
    /// find still reproduces its blackout).
    pub min_unroutable_flow_secs: Option<f64>,
    /// Upper bound on the mean QoE score.
    pub max_mean_qoe: Option<f64>,
    /// Lower bound on the mean QoE score.
    pub min_mean_qoe: Option<f64>,
    /// Upper bound on total stall events.
    pub max_stalls: Option<u64>,
    /// Lower bound on total stall events.
    pub min_stalls: Option<u64>,
    /// Upper bound on lies still installed at the horizon (eventual
    /// retraction: `max_final_lies = 0`).
    pub max_final_lies: Option<u64>,
    /// Lower bound on the peak number of simultaneous lies.
    pub min_peak_lies: Option<u64>,
    /// Upper bound on settle points with a forwarding loop.
    pub max_fwd_loops: Option<u64>,
    /// Lower bound on settle points with a forwarding loop.
    pub min_fwd_loops: Option<u64>,
}

impl ExpectSpec {
    /// Check a report against the bounds; returns one human-readable
    /// line per violated bound (empty = all expectations hold).
    pub fn check(&self, report: &crate::report::ScenarioReport) -> Vec<String> {
        let mut v = Vec::new();
        let mut chk_f = |name: &str, actual: f64, min: Option<f64>, max: Option<f64>| {
            if let Some(m) = min {
                if actual < m {
                    v.push(format!("expect: {name} = {actual:.6} < min {m:.6}"));
                }
            }
            if let Some(m) = max {
                if actual > m {
                    v.push(format!("expect: {name} = {actual:.6} > max {m:.6}"));
                }
            }
        };
        chk_f(
            "unroutable_flow_secs",
            report.unroutable_flow_secs,
            self.min_unroutable_flow_secs,
            self.max_unroutable_flow_secs,
        );
        chk_f(
            "mean_qoe",
            report.qoe.mean_score,
            self.min_mean_qoe,
            self.max_mean_qoe,
        );
        let mut chk_u = |name: &str, actual: u64, min: Option<u64>, max: Option<u64>| {
            if let Some(m) = min {
                if actual < m {
                    v.push(format!("expect: {name} = {actual} < min {m}"));
                }
            }
            if let Some(m) = max {
                if actual > m {
                    v.push(format!("expect: {name} = {actual} > max {m}"));
                }
            }
        };
        chk_u(
            "stalls",
            u64::from(report.qoe.stalls),
            self.min_stalls,
            self.max_stalls,
        );
        chk_u("final_lies", report.final_lies, None, self.max_final_lies);
        chk_u("peak_lies", report.peak_lies, self.min_peak_lies, None);
        chk_u(
            "fwd_loops",
            report.fwd_loop_settles,
            self.min_fwd_loops,
            self.max_fwd_loops,
        );
        v
    }

    /// `true` if no bound is set (an empty `[expect]` stanza).
    pub fn is_empty(&self) -> bool {
        *self == ExpectSpec::default()
    }
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used for result files and tables).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Simulated horizon in seconds.
    pub horizon_secs: f64,
    /// Default seed (CLI `--seed` overrides).
    pub seed: u64,
    /// Refuse to run under any other seed. For specs whose event
    /// script names links of one particular seeded graph (the metro
    /// scenarios): a `--seed` override would either fail a ghost link
    /// or — worse — silently run a different fault against a
    /// different topology.
    pub pin_seed: bool,
    /// Per-direction link capacity in bytes/s (uniform).
    pub capacity: f64,
    /// The topology to build.
    pub topology: TopologySpec,
    /// Routers announcing destination prefixes (`Prefix::net24(i+1)`
    /// for the i-th entry). Empty = topology-specific default.
    pub sinks: Vec<u32>,
    /// The controller, if enabled (baselines omit it).
    pub controller: Option<ControllerSpec>,
    /// The workload mix.
    pub workloads: Vec<WorkloadSpec>,
    /// The fault/demand script, in time order.
    pub events: Vec<EventSpec>,
    /// Directed links to trace as named series (`ra-rb`).
    pub trace_links: Vec<(u32, u32)>,
    /// Expected-invariant bounds the suite runner enforces (archived
    /// adversarial finds carry these; hand-written scenarios may too).
    pub expect: Option<ExpectSpec>,
}

impl Tagged for TopologySpec {
    const KEY: &'static str = "kind";
    const WHAT: &'static str = "topology kind";
    const VARIANTS: &'static [(&'static str, Self)] = &[
        ("paper", TopologySpec::Paper),
        ("line", TopologySpec::Line { n: 0 }),
        ("ring", TopologySpec::Ring { n: 0 }),
        ("grid", TopologySpec::Grid { rows: 0, cols: 0 }),
        ("full_mesh", TopologySpec::FullMesh { n: 0 }),
        (
            "random",
            TopologySpec::Random {
                n: 0,
                extra_edges: 4,
                max_metric: 4,
            },
        ),
        (
            "waxman",
            TopologySpec::Waxman {
                n: 0,
                alpha: 0.6,
                beta: 0.3,
                max_metric: 4,
            },
        ),
        ("fat_tree", TopologySpec::FatTree { k: 0 }),
    ];
}

impl Fields for TopologySpec {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        self.tag(p)?;
        match self {
            TopologySpec::Paper => Ok(()),
            TopologySpec::Line { n } | TopologySpec::Ring { n } | TopologySpec::FullMesh { n } => {
                p.field("n", n, Required)
            }
            TopologySpec::Grid { rows, cols } => {
                p.field("rows", rows, Required)?;
                p.field("cols", cols, Required)
            }
            TopologySpec::Random {
                n,
                extra_edges,
                max_metric,
            } => {
                p.field("n", n, Required)?;
                p.field("extra_edges", extra_edges, Optional)?;
                p.field("max_metric", max_metric, Optional)
            }
            TopologySpec::Waxman {
                n,
                alpha,
                beta,
                max_metric,
            } => {
                p.field("n", n, Required)?;
                p.field("alpha", alpha, Optional)?;
                p.field("beta", beta, Optional)?;
                p.field("max_metric", max_metric, Optional)
            }
            TopologySpec::FatTree { k } => p.field("k", k, Required),
        }
    }
}

/// `[controller]`. `None` is a table that says `enabled = false`:
/// it reads as no controller at all, so it is never written.
impl Fields for Option<ControllerSpec> {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        let mut enabled = true;
        p.field("enabled", &mut enabled, ReadOnly)?;
        if !enabled {
            *self = None;
        }
        let Some(c) = self else { return Ok(()) };
        p.field("attach", &mut c.attach, Required)?;
        p.field("target_util", &mut c.target_util, Optional)?;
        p.field("util_hi", &mut c.util_hi, Optional)?;
        p.field("util_lo", &mut c.util_lo, Optional)?;
        p.field("slot_budget", &mut c.slot_budget, Optional)?;
        p.field("default_flow_rate", &mut c.default_flow_rate, Optional)?;
        p.field("predictive", &mut c.predictive, Optional)?;
        p.field("use_snmp", &mut c.use_snmp, Optional)
    }
}

/// What every generated session carries: its bitrate (bytes/s), its
/// clip length, and which sink's prefix it streams to (default: the
/// first).
fn stream(p: &mut impl Pass, rate: &mut f64, video_secs: &mut f64, dst: &mut usize) -> Done {
    p.field("rate", rate, Required)?;
    p.field("video_secs", video_secs, Required)?;
    p.field("dst", dst, Optional)
}

impl Tagged for WorkloadSpec {
    const KEY: &'static str = "kind";
    const WHAT: &'static str = "workload kind";
    const VARIANTS: &'static [(&'static str, Self)] = &[
        (
            "paper",
            WorkloadSpec::Paper {
                src1: 0,
                src2: 0,
                rate: 125_000.0,
                video_secs: 300.0,
            },
        ),
        (
            "constant",
            WorkloadSpec::Constant {
                at: 0.0,
                src: 0,
                n: 0,
                rate: 0.0,
                video_secs: 0.0,
                dst: 0,
            },
        ),
        (
            "poisson",
            WorkloadSpec::Poisson {
                start: 0.0,
                mean_gap_secs: 0.0,
                n: 0,
                src: 0,
                rate: 0.0,
                video_secs: 0.0,
                dst: 0,
            },
        ),
        (
            "diurnal",
            WorkloadSpec::Diurnal {
                period_secs: 0.0,
                peak_per_sec: 0.0,
                trough_per_sec: 0.0,
                src: 0,
                rate: 0.0,
                video_secs: 0.0,
                dst: 0,
            },
        ),
    ];
}

impl Fields for WorkloadSpec {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        self.tag(p)?;
        match self {
            WorkloadSpec::Paper {
                src1,
                src2,
                rate,
                video_secs,
            } => {
                p.field("src1", src1, Required)?;
                p.field("src2", src2, Required)?;
                p.field("rate", rate, Optional)?;
                p.field("video_secs", video_secs, Optional)
            }
            WorkloadSpec::Constant {
                at,
                src,
                n,
                rate,
                video_secs,
                dst,
            } => {
                p.field("at", at, Required)?;
                p.field("src", src, Required)?;
                p.field("n", n, Required)?;
                stream(p, rate, video_secs, dst)
            }
            WorkloadSpec::Poisson {
                start,
                mean_gap_secs,
                n,
                src,
                rate,
                video_secs,
                dst,
            } => {
                p.field("start", start, Required)?;
                p.field("mean_gap_secs", mean_gap_secs, Required)?;
                p.field("n", n, Required)?;
                p.field("src", src, Required)?;
                stream(p, rate, video_secs, dst)
            }
            WorkloadSpec::Diurnal {
                period_secs,
                peak_per_sec,
                trough_per_sec,
                src,
                rate,
                video_secs,
                dst,
            } => {
                p.field("period_secs", period_secs, Required)?;
                p.field("peak_per_sec", peak_per_sec, Required)?;
                p.field("trough_per_sec", trough_per_sec, Required)?;
                p.field("src", src, Required)?;
                stream(p, rate, video_secs, dst)
            }
        }
    }
}

impl Tagged for EventKind {
    const KEY: &'static str = "action";
    const WHAT: &'static str = "event action";
    const VARIANTS: &'static [(&'static str, Self)] = &[
        ("fail_link", EventKind::FailLink { a: 0, b: 0 }),
        ("restore_link", EventKind::RestoreLink { a: 0, b: 0 }),
        (
            "set_capacity",
            EventKind::SetCapacity {
                a: 0,
                b: 0,
                capacity: 0.0,
            },
        ),
        (
            "surge",
            EventKind::Surge {
                src: 0,
                n: 0,
                rate: 0.0,
                video_secs: 0.0,
                dst: 0,
            },
        ),
        (
            "flash_crowd",
            EventKind::FlashCrowd {
                src: 0,
                n: 0,
                mean_gap_secs: 0.0,
                rate: 0.0,
                video_secs: 0.0,
                dst: 0,
            },
        ),
    ];
}

impl Fields for EventSpec {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        p.field("at", &mut self.at, Required)?;
        self.kind.tag(p)?;
        match &mut self.kind {
            EventKind::FailLink { a, b } | EventKind::RestoreLink { a, b } => {
                p.field("a", a, Required)?;
                p.field("b", b, Required)
            }
            EventKind::SetCapacity { a, b, capacity } => {
                p.field("a", a, Required)?;
                p.field("b", b, Required)?;
                p.field("capacity", capacity, Required)
            }
            EventKind::Surge {
                src,
                n,
                rate,
                video_secs,
                dst,
            } => {
                p.field("src", src, Required)?;
                p.field("n", n, Required)?;
                stream(p, rate, video_secs, dst)
            }
            EventKind::FlashCrowd {
                src,
                n,
                mean_gap_secs,
                rate,
                video_secs,
                dst,
            } => {
                p.field("src", src, Required)?;
                p.field("n", n, Required)?;
                p.field("mean_gap_secs", mean_gap_secs, Required)?;
                stream(p, rate, video_secs, dst)
            }
        }
    }
}

impl Fields for ExpectSpec {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        p.field(
            "max_unroutable_flow_secs",
            &mut self.max_unroutable_flow_secs,
            OmitDefault,
        )?;
        p.field(
            "min_unroutable_flow_secs",
            &mut self.min_unroutable_flow_secs,
            OmitDefault,
        )?;
        p.field("max_mean_qoe", &mut self.max_mean_qoe, OmitDefault)?;
        p.field("min_mean_qoe", &mut self.min_mean_qoe, OmitDefault)?;
        p.field("max_stalls", &mut self.max_stalls, OmitDefault)?;
        p.field("min_stalls", &mut self.min_stalls, OmitDefault)?;
        p.field("max_final_lies", &mut self.max_final_lies, OmitDefault)?;
        p.field("min_peak_lies", &mut self.min_peak_lies, OmitDefault)?;
        p.field("max_fwd_loops", &mut self.max_fwd_loops, OmitDefault)?;
        p.field("min_fwd_loops", &mut self.min_fwd_loops, OmitDefault)
    }
}

/// The root table: scalars and arrays, then the sub-tables.
impl Fields for ScenarioSpec {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        p.field("name", &mut self.name, Required)?;
        p.field("description", &mut self.description, OmitDefault)?;
        p.field("horizon_secs", &mut self.horizon_secs, Required)?;
        // Like the root arrays, the root integer names itself without
        // its table.
        p.field("seed", &mut self.seed, Optional)
            .map_err(|_| SpecError("`seed` must be a non-negative integer".into()))?;
        p.field("pin_seed", &mut self.pin_seed, OmitDefault)?;
        p.field("capacity", &mut self.capacity, Required)?;
        p.field("sinks", &mut self.sinks, OmitDefault)?;
        p.field("trace_links", &mut self.trace_links, OmitDefault)?;
        let mut topology = Some(self.topology.clone());
        p.table("topology", &mut topology, &TopologySpec::select)?;
        match topology {
            Some(t) => self.topology = t,
            None => return fail("missing [topology] table"),
        }
        let mut controller = self.controller.take().map(Some);
        p.table("controller", &mut controller, &|_, _| {
            Ok(Some(ControllerSpec::default()))
        })?;
        self.controller = controller.flatten();
        p.tables("workload", &mut self.workloads, &WorkloadSpec::select)?;
        p.tables("event", &mut self.events, &|table, ctx| {
            let kind = EventKind::select(table, ctx)?;
            Ok(EventSpec { at: 0.0, kind })
        })?;
        p.table("expect", &mut self.expect, &default_blank)
    }
}

impl ScenarioSpec {
    /// Parse and validate a scenario from TOML-subset source.
    pub fn from_toml_str(src: &str) -> Result<ScenarioSpec, SpecError> {
        let root = toml::parse(src).map_err(|e| SpecError(e.to_string()))?;
        let mut spec = read_table(&root, "scenario", &|_, _| {
            Ok(ScenarioSpec {
                name: String::new(),
                description: String::new(),
                horizon_secs: 0.0,
                seed: 0,
                pin_seed: false,
                capacity: 0.0,
                topology: TopologySpec::Paper,
                sinks: Vec::new(),
                controller: None,
                workloads: Vec::new(),
                events: Vec::new(),
                trace_links: Vec::new(),
                expect: None,
            })
        })?;
        check_slug("scenario", &spec.name)?;
        // Time order regardless of file order (stable by original
        // index for ties, which `sort_by` preserves).
        spec.events
            .sort_by(|a, b| a.at.partial_cmp(&b.at).expect("event times are finite"));
        spec.validate()?;
        Ok(spec)
    }

    /// Structural sanity checks beyond types.
    ///
    /// Generator parameters are checked here so a bad `.toml` value
    /// surfaces as a [`SpecError`] naming the key, never as a panic
    /// from a builder's `assert!` deep inside `fib_igp`.
    fn validate(&self) -> Result<(), SpecError> {
        if self.horizon_secs <= 0.0 {
            return fail("`horizon_secs` must be positive");
        }
        if self.capacity <= 0.0 {
            return fail("`capacity` must be positive");
        }
        match self.topology {
            TopologySpec::Paper => {}
            TopologySpec::Line { n } | TopologySpec::FullMesh { n } => {
                if n < 2 {
                    return fail("`topology.n` must be at least 2");
                }
            }
            TopologySpec::Ring { n } => {
                if n < 3 {
                    return fail("`topology.n` must be at least 3 for a ring");
                }
            }
            TopologySpec::Grid { rows, cols } => {
                if rows == 0 || cols == 0 || rows * cols < 2 {
                    return fail("`topology.rows`/`topology.cols` must span at least 2 routers");
                }
            }
            TopologySpec::Random { n, max_metric, .. } => {
                if n < 2 {
                    return fail("`topology.n` must be at least 2");
                }
                if max_metric == 0 {
                    return fail("`topology.max_metric` must be at least 1");
                }
            }
            TopologySpec::Waxman { n, alpha, beta, .. } => {
                if n < 2 {
                    return fail("`topology.n` must be at least 2");
                }
                if alpha <= 0.0 || beta <= 0.0 {
                    return fail("`topology.alpha` and `topology.beta` must be positive");
                }
            }
            TopologySpec::FatTree { k } => {
                if k < 2 || k % 2 != 0 {
                    return fail("`topology.k` must be even and at least 2");
                }
            }
        }
        let within_horizon = |t: f64| (0.0..=self.horizon_secs).contains(&t);
        for (i, w) in self.workloads.iter().enumerate() {
            match w {
                WorkloadSpec::Constant { at: t, .. } | WorkloadSpec::Poisson { start: t, .. }
                    if !within_horizon(*t) =>
                {
                    return fail(format!(
                        "`workload[{i}]` starts at t={t}, outside the horizon 0..{}",
                        self.horizon_secs
                    ));
                }
                WorkloadSpec::Diurnal {
                    period_secs,
                    peak_per_sec,
                    trough_per_sec,
                    ..
                } => {
                    if *period_secs <= 0.0 {
                        return fail(format!("`workload[{i}].period_secs` must be positive"));
                    }
                    if *trough_per_sec < 0.0 || peak_per_sec < trough_per_sec {
                        return fail(format!(
                            "`workload[{i}]` needs peak_per_sec >= trough_per_sec >= 0"
                        ));
                    }
                }
                _ => {}
            }
        }
        if self.workloads.is_empty()
            && !self.events.iter().any(|e| {
                matches!(
                    e.kind,
                    EventKind::Surge { .. } | EventKind::FlashCrowd { .. }
                )
            })
        {
            return fail("scenario has no workload and no demand events — nothing to simulate");
        }
        for e in &self.events {
            if !within_horizon(e.at) {
                return fail(format!(
                    "event at t={} lies outside the horizon 0..{}",
                    e.at, self.horizon_secs
                ));
            }
            if let EventKind::SetCapacity { capacity, .. } = e.kind {
                if capacity <= 0.0 {
                    return fail("`set_capacity` events need a positive capacity");
                }
            }
        }
        if let Some(x) = &self.expect {
            let inverted_f = [
                (
                    "unroutable_flow_secs",
                    x.min_unroutable_flow_secs,
                    x.max_unroutable_flow_secs,
                ),
                ("mean_qoe", x.min_mean_qoe, x.max_mean_qoe),
            ];
            for (name, lo, hi) in inverted_f {
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    if lo > hi {
                        return fail(format!("`expect` {name} bounds are inverted"));
                    }
                }
            }
            let inverted_u = [
                ("stalls", x.min_stalls, x.max_stalls),
                ("fwd_loops", x.min_fwd_loops, x.max_fwd_loops),
            ];
            for (name, lo, hi) in inverted_u {
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    if lo > hi {
                        return fail(format!("`expect` {name} bounds are inverted"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The sink routers, applying topology-specific defaults: the
    /// paper graph's C, the highest-id router otherwise.
    pub fn effective_sinks(&self) -> Vec<RouterId> {
        if !self.sinks.is_empty() {
            return self.sinks.iter().map(|s| RouterId(*s)).collect();
        }
        match self.topology {
            TopologySpec::Paper => vec![RouterId(7)],
            TopologySpec::Line { n } | TopologySpec::Ring { n } | TopologySpec::FullMesh { n } => {
                vec![RouterId(n)]
            }
            TopologySpec::Grid { rows, cols } => vec![RouterId(rows * cols)],
            TopologySpec::Random { n, .. } | TopologySpec::Waxman { n, .. } => vec![RouterId(n)],
            TopologySpec::FatTree { k } => {
                // Last edge switch of the last pod.
                let half = k / 2;
                vec![RouterId(half * half + k * k)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
name = "demo"
description = "a full example"
horizon_secs = 55.0
seed = 7
capacity = 4e6
trace_links = ["1-3", "2-4"]
sinks = [7]

[topology]
kind = "paper"

[controller]
enabled = true
attach = 5
target_util = 0.5

[[workload]]
kind = "paper"
src1 = 2
src2 = 1
rate = 125000.0
video_secs = 300.0

[[event]]
at = 20.0
action = "fail_link"
a = 2
b = 4

[[event]]
at = 10.0
action = "surge"
src = 2
n = 5
rate = 125000.0
video_secs = 60.0
"#;

    #[test]
    fn full_spec_parses() {
        let s = ScenarioSpec::from_toml_str(FULL).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.topology, TopologySpec::Paper);
        assert_eq!(s.sinks, vec![7]);
        let ctl = s.controller.as_ref().unwrap();
        assert_eq!(ctl.attach, 5);
        assert!((ctl.target_util - 0.5).abs() < 1e-12);
        assert!((ctl.util_hi - 0.8).abs() < 1e-12, "default applies");
        assert_eq!(s.workloads.len(), 1);
        // Events are sorted by time regardless of file order.
        assert_eq!(s.events.len(), 2);
        assert!(s.events[0].at < s.events[1].at);
        assert!(matches!(s.events[0].kind, EventKind::Surge { .. }));
        assert_eq!(s.trace_links, vec![(1, 3), (2, 4)]);
    }

    #[test]
    fn sinks_default_by_topology() {
        let mut s = ScenarioSpec::from_toml_str(FULL).unwrap();
        s.sinks.clear();
        assert_eq!(s.effective_sinks(), vec![RouterId(7)]);
        s.topology = TopologySpec::FatTree { k: 4 };
        assert_eq!(s.effective_sinks(), vec![RouterId(20)]);
        s.topology = TopologySpec::Grid { rows: 3, cols: 4 };
        assert_eq!(s.effective_sinks(), vec![RouterId(12)]);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let bad = FULL.replace("target_util = 0.5", "target_utl = 0.5");
        let e = ScenarioSpec::from_toml_str(&bad).unwrap_err();
        assert!(e.to_string().contains("target_utl"), "{e}");
    }

    #[test]
    fn controller_disabled_and_missing() {
        let none = ScenarioSpec::from_toml_str(
            r#"
name = "base"
horizon_secs = 10.0
capacity = 1e6
[topology]
kind = "line"
n = 3
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 2
rate = 1e5
video_secs = 5.0
"#,
        )
        .unwrap();
        assert!(none.controller.is_none());
        let disabled = ScenarioSpec::from_toml_str(
            r#"
name = "base"
horizon_secs = 10.0
capacity = 1e6
[topology]
kind = "line"
n = 3
[controller]
enabled = false
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 2
rate = 1e5
video_secs = 5.0
"#,
        )
        .unwrap();
        assert!(disabled.controller.is_none());
    }

    #[test]
    fn validation_catches_nonsense() {
        let no_work = r#"
name = "x"
horizon_secs = 10.0
capacity = 1e6
[topology]
kind = "line"
n = 3
"#;
        assert!(ScenarioSpec::from_toml_str(no_work)
            .unwrap_err()
            .to_string()
            .contains("no workload"));
        let bad_event = FULL.replace("at = 20.0", "at = 99.0");
        assert!(ScenarioSpec::from_toml_str(&bad_event)
            .unwrap_err()
            .to_string()
            .contains("outside the horizon"));
        let bad_name = FULL.replace("name = \"demo\"", "name = \"has space\"");
        assert!(ScenarioSpec::from_toml_str(&bad_name).is_err());
    }

    #[test]
    fn generator_parameters_are_validated_not_asserted() {
        // Values the igp builders would assert on must come back as
        // SpecErrors naming the key, not process-aborting panics.
        for (topo, needle) in [
            ("kind = \"fat_tree\"\nk = 3", "topology.k"),
            ("kind = \"fat_tree\"\nk = 0", "topology.k"),
            (
                "kind = \"waxman\"\nn = 10\nalpha = 0.0\nbeta = 0.3",
                "alpha",
            ),
            (
                "kind = \"waxman\"\nn = 1\nalpha = 0.5\nbeta = 0.3",
                "topology.n",
            ),
            ("kind = \"ring\"\nn = 2", "topology.n"),
            ("kind = \"line\"\nn = 1", "topology.n"),
            ("kind = \"grid\"\nrows = 0\ncols = 3", "topology.rows"),
            ("kind = \"random\"\nn = 1", "topology.n"),
            ("kind = \"random\"\nn = 8\nmax_metric = 0", "max_metric"),
        ] {
            let src = format!(
                r#"
name = "t"
horizon_secs = 10.0
capacity = 1e6
sinks = [1]
[topology]
{topo}
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 1
rate = 1e5
video_secs = 5.0
"#
            );
            let e = ScenarioSpec::from_toml_str(&src).expect_err(&format!("should reject: {topo}"));
            assert!(e.to_string().contains(needle), "{topo}: {e}");
        }
    }

    #[test]
    fn diurnal_parameters_are_validated_not_asserted() {
        for (params, needle) in [
            (
                "period_secs = 0.0\npeak_per_sec = 1.0\ntrough_per_sec = 0.1",
                "period_secs",
            ),
            (
                "period_secs = 60.0\npeak_per_sec = 0.1\ntrough_per_sec = 1.0",
                "peak_per_sec",
            ),
            (
                "period_secs = 60.0\npeak_per_sec = 1.0\ntrough_per_sec = -0.5",
                "peak_per_sec",
            ),
        ] {
            let src = format!(
                r#"
name = "t"
horizon_secs = 10.0
capacity = 1e6
sinks = [3]
[topology]
kind = "line"
n = 3
[[workload]]
kind = "diurnal"
{params}
src = 1
rate = 1e5
video_secs = 5.0
"#
            );
            let e =
                ScenarioSpec::from_toml_str(&src).expect_err(&format!("should reject: {params}"));
            assert!(e.to_string().contains(needle), "{params}: {e}");
        }
    }

    #[test]
    fn all_generator_topologies_parse() {
        for (kind, extra) in [
            ("line", "n = 5"),
            ("ring", "n = 5"),
            ("grid", "rows = 2\ncols = 3"),
            ("full_mesh", "n = 4"),
            ("random", "n = 8\nextra_edges = 4\nmax_metric = 3"),
            ("waxman", "n = 10\nalpha = 0.5\nbeta = 0.4\nmax_metric = 3"),
            ("fat_tree", "k = 4"),
        ] {
            let src = format!(
                r#"
name = "t"
horizon_secs = 10.0
capacity = 1e6
[topology]
kind = "{kind}"
{extra}
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 1
rate = 1e5
video_secs = 5.0
"#
            );
            ScenarioSpec::from_toml_str(&src).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }
}
