//! The declarative sweep-grid model and its TOML binding.
//!
//! A [`SweepSpec`] names a set of scenarios (files under `scenarios/`)
//! and, for each, the seed range and parameter overrides to fan out
//! over. Expansion is purely combinatorial and deterministic: grid
//! entries in file order, then capacity scale, then crowd scale, then
//! seed, with each controller-on cell optionally followed by its
//! paired controller-off baseline twin.
//!
//! Override precedence, weakest to strongest:
//!
//! 1. the scenario spec's own values (`horizon_secs`, `capacity`,
//!    workload sizes);
//! 2. the sweep grid (`horizon_secs`, `capacity_scale`, `crowd_scale`,
//!    the cell seed);
//! 3. CLI flags of the `sweep` binary (`--horizon`).
//!
//! The precedence is applied in [`resolve_cell`] and pinned by tests.

use crate::fields::Presence::{OmitDefault, Optional, ReadOnly, Required};
use crate::fields::{default_blank, read_table, write_list, Done, Field, Fields, Pass};
use crate::spec::{check_slug, fail, EventKind, ScenarioSpec, SpecError, WorkloadSpec};
use crate::toml::{self, Value};
use crate::RunOptions;
use std::path::{Path, PathBuf};

/// One `[[grid]]` entry: a scenario and the ranges to fan out over.
#[derive(Debug, Clone, PartialEq)]
pub struct GridEntry {
    /// Scenario name (backed by `scenarios/<name>.toml`).
    pub scenario: String,
    /// Seeds to run, in order.
    pub seeds: Vec<u64>,
    /// Horizon override in seconds (`None` = the scenario's own).
    pub horizon_secs: Option<f64>,
    /// Capacity multipliers (each value is one grid axis point).
    pub capacity_scale: Vec<f64>,
    /// Crowd-size multipliers (each value is one grid axis point).
    pub crowd_scale: Vec<f64>,
    /// Also run a controller-off twin of every cell for deltas.
    pub baseline: bool,
}

/// A complete declarative sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (used for result files).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The grid entries, in file order.
    pub grid: Vec<GridEntry>,
}

/// One expanded cell of the grid: a single `Runner` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Index of the [`GridEntry`] this cell came from.
    pub entry: usize,
    /// Scenario name.
    pub scenario: String,
    /// Seed the cell runs under.
    pub seed: u64,
    /// Capacity multiplier applied to the scenario spec.
    pub capacity_scale: f64,
    /// Crowd-size multiplier applied to the scenario spec.
    pub crowd_scale: f64,
    /// Grid-level horizon override (`None` = the scenario's own).
    pub horizon_secs: Option<f64>,
    /// `true` for the controller-off baseline twin.
    pub baseline: bool,
}

impl SweepCell {
    /// A stable human label for tables, CSVs and failure summaries,
    /// e.g. `flash_crowd_random[cap=0.80,crowd=2.00]#s3` (baselines
    /// get a `~base` suffix).
    pub fn label(&self) -> String {
        format!(
            "{}{}#s{}{}",
            self.scenario,
            self.group_label_suffix(),
            self.seed,
            if self.baseline { "~base" } else { "" }
        )
    }

    /// The group part of the label (scenario plus scale axes), shared
    /// by every seed of one grid configuration.
    pub fn group_label(&self) -> String {
        format!("{}{}", self.scenario, self.group_label_suffix())
    }

    fn group_label_suffix(&self) -> String {
        if self.capacity_scale == 1.0 && self.crowd_scale == 1.0 {
            String::new()
        } else {
            format!(
                "[cap={:.2},crowd={:.2}]",
                self.capacity_scale, self.crowd_scale
            )
        }
    }
}

/// A non-empty array without duplicates, each entry passing `ok`.
fn distinct<T: Field + std::fmt::Display>(
    v: &Value,
    ctx: &str,
    key: &str,
    array_of: &str,
    entries: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Vec<T>, SpecError> {
    let Some(items) = v.as_array() else {
        return fail(format!("`{ctx}.{key}` must be an array of {array_of}"));
    };
    if items.is_empty() {
        return fail(format!("`{ctx}.{key}` must not be empty"));
    }
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        match T::read(item, ctx, key) {
            Ok(x) if out.contains(&x) => {
                return fail(format!("`{ctx}.{key}` has duplicate entry {x}"))
            }
            Ok(x) if ok(&x) => out.push(x),
            _ => return fail(format!("`{ctx}.{key}` entries must be {entries}")),
        }
    }
    Ok(out)
}

/// A list of seeds. A duplicate would run twice but collapse in the
/// seed-keyed delta pairing, skewing sample counts.
impl Field for Vec<u64> {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        let what = "non-negative integers";
        distinct(v, ctx, key, what, what, |_| true)
    }

    fn write(&self, out: &mut String) {
        write_list(self, out, u64::write);
    }
}

/// The points of a scale axis. Duplicates would silently collapse
/// into one stats group (grouping is by value), doubling its apparent
/// cell count.
impl Field for Vec<f64> {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        let array_of = format!("positive numbers, got {}", v.type_name());
        let entries = "positive finite numbers";
        distinct(v, ctx, key, &array_of, entries, |s: &f64| *s > 0.0)
    }

    fn write(&self, out: &mut String) {
        write_list(self, out, f64::write);
    }
}

fn positive_horizon(horizon_secs: Option<f64>, ctx: &str) -> Done {
    match horizon_secs {
        Some(h) if h <= 0.0 => fail(format!("`{ctx}.horizon_secs` must be positive")),
        _ => Ok(()),
    }
}

impl Fields for GridEntry {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        p.field("scenario", &mut self.scenario, Required)?;
        p.field("seeds", &mut self.seeds, OmitDefault)?;
        let (mut start, mut count) = (None::<u32>, None::<u32>);
        p.field("seed_start", &mut start, ReadOnly)?;
        p.field("seed_count", &mut count, ReadOnly)?;
        p.field("horizon_secs", &mut self.horizon_secs, OmitDefault)?;
        p.field("capacity_scale", &mut self.capacity_scale, Optional)?;
        p.field("crowd_scale", &mut self.crowd_scale, Optional)?;
        p.field("baseline", &mut self.baseline, Optional)?;
        p.check(|ctx| {
            // Seeds are listed (read above) or a range, never both.
            match (self.seeds.is_empty(), start, count) {
                (false, None, None) => {}
                (false, ..) => {
                    return fail(format!(
                        "`{ctx}` must use either `seeds` or `seed_start`/`seed_count`, not both"
                    ))
                }
                (true, None, None) => {
                    return fail(format!(
                        "`{ctx}` needs seeds: either `seeds = [..]` or `seed_start`/`seed_count`"
                    ))
                }
                (true, None, _) => return fail(format!("missing key `seed_start` in {ctx}")),
                (true, _, None) => return fail(format!("missing key `seed_count` in {ctx}")),
                (true, Some(_), Some(0)) => {
                    return fail(format!("`{ctx}.seed_count` must be at least 1"))
                }
                (true, Some(start), Some(count)) => {
                    let start = u64::from(start);
                    self.seeds = (start..start + u64::from(count)).collect();
                }
            }
            positive_horizon(self.horizon_secs, ctx)
        })
    }
}

/// `[defaults]` edits the blank every `[[grid]]` entry starts from.
struct Defaults(GridEntry);

impl Default for Defaults {
    fn default() -> Self {
        Defaults(GridEntry {
            scenario: String::new(),
            seeds: Vec::new(),
            horizon_secs: None,
            capacity_scale: vec![1.0],
            crowd_scale: vec![1.0],
            baseline: true,
        })
    }
}

impl Fields for Defaults {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        p.field("horizon_secs", &mut self.0.horizon_secs, OmitDefault)?;
        p.field("baseline", &mut self.0.baseline, Optional)?;
        p.check(|ctx| positive_horizon(self.0.horizon_secs, ctx))
    }
}

impl Fields for SweepSpec {
    fn fields(&mut self, p: &mut impl Pass) -> Done {
        p.field("name", &mut self.name, Required)?;
        p.field("description", &mut self.description, OmitDefault)?;
        let mut defaults = None;
        p.table("defaults", &mut defaults, &default_blank)?;
        let Defaults(blank) = defaults.unwrap_or_default();
        p.tables("grid", &mut self.grid, &|_, _| Ok(blank.clone()))
    }
}

impl SweepSpec {
    /// Parse and validate a sweep from TOML-subset source.
    pub fn from_toml_str(src: &str) -> Result<SweepSpec, SpecError> {
        let root = toml::parse(src).map_err(|e| SpecError(e.to_string()))?;
        let spec = read_table(&root, "sweep", &|_, _| {
            Ok(SweepSpec {
                name: String::new(),
                description: String::new(),
                grid: Vec::new(),
            })
        })?;
        check_slug("sweep", &spec.name)?;
        if spec.grid.is_empty() {
            return fail("sweep has no [[grid]] entries — nothing to run");
        }
        Ok(spec)
    }

    /// Expand the grid into cells, in the deterministic order results
    /// are collected and reported in: grid entry → capacity scale →
    /// crowd scale → seed, each controller-on cell immediately
    /// followed by its baseline twin (when the entry asks for one).
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for (entry, g) in self.grid.iter().enumerate() {
            for &capacity_scale in &g.capacity_scale {
                for &crowd_scale in &g.crowd_scale {
                    for &seed in &g.seeds {
                        let on = SweepCell {
                            entry,
                            scenario: g.scenario.clone(),
                            seed,
                            capacity_scale,
                            crowd_scale,
                            horizon_secs: g.horizon_secs,
                            baseline: false,
                        };
                        if g.baseline {
                            let twin = SweepCell {
                                baseline: true,
                                ..on.clone()
                            };
                            cells.push(on);
                            cells.push(twin);
                        } else {
                            cells.push(on);
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Scale the scenario spec for one grid axis point: `capacity_scale`
/// multiplies the uniform link capacity and every scripted
/// `set_capacity` target; `crowd_scale` multiplies session counts
/// (constant/Poisson workloads, surge and flash-crowd events) and
/// diurnal arrival intensities. The paper workload is deliberately
/// left untouched — it *is* the paper's fixed schedule.
pub fn apply_scales(spec: &ScenarioSpec, capacity_scale: f64, crowd_scale: f64) -> ScenarioSpec {
    let scale_n = |n: u32| -> u32 {
        if n == 0 || crowd_scale == 1.0 {
            n
        } else {
            ((n as f64 * crowd_scale).round() as u32).max(1)
        }
    };
    let mut out = spec.clone();
    out.capacity *= capacity_scale;
    for w in &mut out.workloads {
        match w {
            WorkloadSpec::Paper { .. } => {}
            WorkloadSpec::Constant { n, .. } | WorkloadSpec::Poisson { n, .. } => *n = scale_n(*n),
            WorkloadSpec::Diurnal {
                peak_per_sec,
                trough_per_sec,
                ..
            } => {
                *peak_per_sec *= crowd_scale;
                *trough_per_sec *= crowd_scale;
            }
        }
    }
    for e in &mut out.events {
        match &mut e.kind {
            EventKind::SetCapacity { capacity, .. } => *capacity *= capacity_scale,
            EventKind::Surge { n, .. } | EventKind::FlashCrowd { n, .. } => *n = scale_n(*n),
            EventKind::FailLink { .. } | EventKind::RestoreLink { .. } => {}
        }
    }
    out
}

/// Whether `spec` holds anything `crowd_scale` multiplies in
/// [`apply_scales`]: a workload other than the paper's, or a surge or
/// flash-crowd event. A grid cell of any other spec is the unscaled
/// scenario, whatever crowd scale it is labelled with.
pub(crate) fn scales_crowd(spec: &ScenarioSpec) -> bool {
    let workload = |w: &WorkloadSpec| !matches!(w, WorkloadSpec::Paper { .. });
    let crowd = |k: &EventKind| matches!(k, EventKind::Surge { .. } | EventKind::FlashCrowd { .. });
    spec.workloads.iter().any(workload) || spec.events.iter().any(|e| crowd(&e.kind))
}

/// Apply the full override chain for one cell: the scenario spec's own
/// values, overridden by the sweep grid (scales, seed, grid horizon),
/// overridden by the CLI horizon. Returns the scaled spec plus the
/// [`RunOptions`] to run it under.
pub fn resolve_cell(
    base: &ScenarioSpec,
    cell: &SweepCell,
    cli_horizon_secs: Option<f64>,
) -> (ScenarioSpec, RunOptions) {
    let spec = apply_scales(base, cell.capacity_scale, cell.crowd_scale);
    let opts = RunOptions {
        seed: Some(cell.seed),
        horizon_secs: cli_horizon_secs.or(cell.horizon_secs),
        disable_controller: cell.baseline,
        ..RunOptions::default()
    };
    (spec, opts)
}

/// The `sweeps/` directory at the workspace root.
pub fn sweeps_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("sweeps")
}

/// Load and validate a sweep grid: `arg` is a path to a `.toml` file,
/// or a bare name resolved as `sweeps/<name>.toml`.
pub fn load_sweep(arg: &str) -> Result<SweepSpec, SpecError> {
    let direct = Path::new(arg);
    let path = if direct.is_file() {
        direct.to_path_buf()
    } else {
        sweeps_dir().join(format!("{arg}.toml"))
    };
    let src = std::fs::read_to_string(&path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    SweepSpec::from_toml_str(&src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    const SWEEP: &str = r#"
name = "demo"
description = "a grid"

[defaults]
horizon_secs = 20.0
baseline = true

[[grid]]
scenario = "alpha"
seeds = [3, 1]
capacity_scale = [1.0, 0.5]

[[grid]]
scenario = "beta"
seed_start = 10
seed_count = 3
horizon_secs = 5.0
crowd_scale = [2.0]
baseline = false
"#;

    #[test]
    fn full_sweep_parses_and_expands_in_order() {
        let s = SweepSpec::from_toml_str(SWEEP).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.grid.len(), 2);
        assert_eq!(s.grid[0].seeds, vec![3, 1], "file order preserved");
        assert_eq!(s.grid[0].horizon_secs, Some(20.0), "default applies");
        assert_eq!(s.grid[1].horizon_secs, Some(5.0), "entry overrides");
        assert_eq!(s.grid[1].seeds, vec![10, 11, 12]);
        let cells = s.expand();
        // alpha: 2 caps x 1 crowd x 2 seeds x {on, base} = 8;
        // beta: 1 cap x 1 crowd x 3 seeds, no baseline = 3.
        assert_eq!(cells.len(), 11);
        assert_eq!(cells[0].label(), "alpha#s3");
        assert_eq!(cells[1].label(), "alpha#s3~base");
        assert!(!cells[0].baseline);
        assert!(cells[1].baseline);
        assert_eq!(cells[4].label(), "alpha[cap=0.50,crowd=1.00]#s3");
        assert_eq!(cells[8].scenario, "beta");
        assert_eq!(cells[8].crowd_scale, 2.0);
        assert!(cells[8..].iter().all(|c| !c.baseline));
        // Expansion is a pure function of the spec.
        assert_eq!(cells, s.expand());
    }

    #[test]
    fn seed_forms_are_exclusive_and_required() {
        let both = SWEEP.replace(
            "seeds = [3, 1]",
            "seeds = [3]\nseed_start = 0\nseed_count = 2",
        );
        let e = SweepSpec::from_toml_str(&both).unwrap_err();
        assert!(e.to_string().contains("not both"), "{e}");
        let neither = SWEEP.replace("seeds = [3, 1]\n", "");
        let e = SweepSpec::from_toml_str(&neither).unwrap_err();
        assert!(e.to_string().contains("needs seeds"), "{e}");
        let empty = SWEEP.replace("seeds = [3, 1]", "seeds = []");
        assert!(SweepSpec::from_toml_str(&empty).is_err());
        let zero = SWEEP.replace("seed_count = 3", "seed_count = 0");
        assert!(SweepSpec::from_toml_str(&zero).is_err());
    }

    #[test]
    fn bad_values_are_rejected_with_key_names() {
        for (bad, needle) in [
            (
                SWEEP.replace("capacity_scale = [1.0, 0.5]", "capacity_scale = [0.0]"),
                "capacity_scale",
            ),
            (
                SWEEP.replace("crowd_scale = [2.0]", "crowd_scale = [-1.0]"),
                "crowd_scale",
            ),
            (
                SWEEP.replace("horizon_secs = 5.0", "horizon_secs = -2.0"),
                "horizon_secs",
            ),
            (
                SWEEP.replace("scenario = \"beta\"", "scenari = \"beta\""),
                "scenari",
            ),
            (
                SWEEP.replace("name = \"demo\"", "name = \"has space\""),
                "slug",
            ),
            (
                SWEEP.replace("description = \"a grid\"", "description = 3"),
                "description",
            ),
            (
                SWEEP.replace("seeds = [3, 1]", "seeds = [3, 3]"),
                "duplicate",
            ),
            (
                SWEEP.replace("capacity_scale = [1.0, 0.5]", "capacity_scale = [0.5, 0.5]"),
                "duplicate",
            ),
        ] {
            let e = SweepSpec::from_toml_str(&bad).unwrap_err();
            assert!(e.to_string().contains(needle), "{needle}: {e}");
        }
        assert!(SweepSpec::from_toml_str("name = \"x\"").is_err(), "no grid");
    }

    const TINY_SCENARIO: &str = r#"
name = "tiny"
horizon_secs = 30.0
seed = 1
capacity = 1e6
sinks = [3]
[topology]
kind = "ring"
n = 3
[controller]
attach = 2
[[workload]]
kind = "constant"
at = 10.0
src = 1
n = 12
rate = 1e5
video_secs = 60.0
[[event]]
at = 12.0
action = "set_capacity"
a = 1
b = 2
capacity = 5e5
[[event]]
at = 15.0
action = "surge"
src = 1
n = 4
rate = 1e5
video_secs = 30.0
"#;

    #[test]
    fn scales_apply_to_capacity_and_crowd() {
        let base = ScenarioSpec::from_toml_str(TINY_SCENARIO).unwrap();
        let scaled = apply_scales(&base, 0.5, 3.0);
        assert!((scaled.capacity - 5e5).abs() < 1e-9);
        match &scaled.workloads[0] {
            WorkloadSpec::Constant { n, .. } => assert_eq!(*n, 36),
            other => panic!("unexpected workload {other:?}"),
        }
        let mut saw_cap = false;
        let mut saw_surge = false;
        for e in &scaled.events {
            match &e.kind {
                EventKind::SetCapacity { capacity, .. } => {
                    assert!((capacity - 2.5e5).abs() < 1e-9);
                    saw_cap = true;
                }
                EventKind::Surge { n, .. } => {
                    assert_eq!(*n, 12);
                    saw_surge = true;
                }
                _ => {}
            }
        }
        assert!(saw_cap && saw_surge);
        // Identity scales are a no-op.
        assert_eq!(apply_scales(&base, 1.0, 1.0), base);
    }

    #[test]
    fn override_precedence_spec_then_grid_then_cli() {
        let base = ScenarioSpec::from_toml_str(TINY_SCENARIO).unwrap();
        let mut cell = SweepCell {
            entry: 0,
            scenario: "tiny".into(),
            seed: 9,
            capacity_scale: 1.0,
            crowd_scale: 1.0,
            horizon_secs: None,
            baseline: false,
        };
        // No grid or CLI value: the scenario spec's own horizon rules
        // (RunOptions stays None so the runner falls back to it).
        let (_, opts) = resolve_cell(&base, &cell, None);
        assert_eq!(opts.horizon_secs, None);
        assert_eq!(opts.seed, Some(9), "the cell seed always applies");
        // Grid value beats the spec default.
        cell.horizon_secs = Some(12.0);
        let (_, opts) = resolve_cell(&base, &cell, None);
        assert_eq!(opts.horizon_secs, Some(12.0));
        // CLI flag beats the grid.
        let (_, opts) = resolve_cell(&base, &cell, Some(7.0));
        assert_eq!(opts.horizon_secs, Some(7.0));
        // Baseline twins disable the controller via options, never by
        // editing the spec.
        cell.baseline = true;
        let (spec, opts) = resolve_cell(&base, &cell, None);
        assert!(opts.disable_controller);
        assert!(spec.controller.is_some(), "spec untouched");
    }

    /// The sweep reference lists every key the reader accepts;
    /// `[defaults]` is documented in its top-level row.
    #[test]
    fn sweep_format_page_lists_every_accepted_key() {
        use crate::fields::{keys_of, tests::assert_documented};
        let page = include_str!("../../../../docs/SWEEP_FORMAT.md");
        let mut root = SweepSpec::from_toml_str(SWEEP).unwrap();
        assert_documented(page, "Top level", &keys_of(&mut root));
        let mut defaults = Defaults::default();
        assert_documented(page, "Top level", &keys_of(&mut defaults));
        assert_documented(page, "`[[grid]]`", &keys_of(&mut defaults.0));
    }
}
