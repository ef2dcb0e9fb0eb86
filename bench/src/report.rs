//! The whole-benchmark modes: run every workload (`--sets`, `--quick`),
//! print every metric by name, write `results/BENCH_ledger.json`, and
//! compare two such files (`--diff`).
//!
//! Each workload runs in a child process of its own (this binary,
//! re-executed with `--workload`), so `peak_rss_mb` is one workload's
//! memory and a crash in one cannot take the others' numbers with it.

use crate::catalog::{Better, Metric, Source, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::machine;
use crate::stats::median;
use crate::workloads::{WHY, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Options of a whole-benchmark run.
#[derive(Debug, Clone)]
pub struct FullOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds each child run measures for.
    pub seconds: u64,
    /// How many times to run the whole benchmark.
    pub sets: usize,
    /// Smoke mode: one rep per workload, `metro_core` cut to 8
    /// simulated seconds, no per-layer runs.
    pub quick: bool,
    /// Where the result file goes.
    pub out: PathBuf,
}

/// Line prefix a child prints its detail object under.
pub const DETAIL_PREFIX: &str = "detail: ";

/// Run this binary on one workload and parse what it printed.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    horizon: Option<f64>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(h) = horizon {
        cmd.args(["--horizon", &h.to_string()]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}", out.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child for {workload} printed nothing"))?;
    let mut result = json::parse(last).map_err(|e| format!("child for {workload}: {e}"))?;
    if let Some(detail) = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| json::parse(d).ok())
    {
        result.set("detail", detail);
    }
    Ok(result)
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

/// One workload's entry of a set: both child results folded together.
fn workload_entry(e2e: &Value, layers: Option<&Value>) -> Value {
    let count = |key: &str| {
        num(e2e, &[key]).unwrap_or(0.0) + layers.and_then(|l| num(l, &[key])).unwrap_or(0.0)
    };
    let correct = e2e.get("correct").and_then(Value::as_bool) == Some(true)
        && layers.map_or(true, |l| {
            l.get("correct").and_then(Value::as_bool) == Some(true)
        });
    let mut entry = Value::obj()
        .with("correct", correct)
        .with("ops_attempted", count("attempted"))
        .with("ops_failed", count("failed"))
        .with(
            "end_to_end",
            e2e.get("metrics").cloned().unwrap_or(Value::Null),
        );
    if let Some(l) = layers {
        entry.set(
            "per_layer",
            l.get("metrics").cloned().unwrap_or(Value::Null),
        );
    }
    let mut detail = Value::obj();
    if let Some(d) = e2e.get("detail") {
        detail.set("end_to_end", d.clone());
    }
    if let Some(d) = layers.and_then(|l| l.get("detail")) {
        detail.set("per_layer", d.clone());
    }
    entry.with("detail", detail)
}

fn print_metrics(title: &str, rows: &[Metric], values: Option<&Value>) {
    println!("  {title}");
    for m in rows {
        match values.and_then(|v| num(v, &[m.name, "value"])) {
            Some(x) => println!("    {:<38} {:>16.6} {}", m.name, x, m.unit),
            None => println!("    {:<38} {:>16} {}", m.name, "-", m.unit),
        }
    }
}

/// Spread of a metric between sets, as a share of their median.
fn set_spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

/// The values each set saw for one metric of one workload (`section`
/// is `end_to_end` or `per_layer`).
fn by_set(sets: &[Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|s| num(s, &["workloads", workload, section, metric, "value"]))
        .collect()
}

/// Run the whole benchmark; returns whether every operation succeeded.
pub fn full(opts: &FullOptions) -> Result<bool, String> {
    let mut sets: Vec<Value> = Vec::new();
    let mut all_correct = true;
    for set in 0..opts.sets {
        let mut workloads = Value::obj();
        for name in WORKLOADS {
            eprintln!("[ledger] set {}/{}: {name} …", set + 1, opts.sets);
            let (seconds, horizon) = if opts.quick {
                (0, (name == "metro_core").then_some(8.0))
            } else {
                (opts.seconds, None)
            };
            let e2e = child(name, opts.seed, seconds, false, horizon)?;
            let layers = if opts.quick {
                None
            } else {
                Some(child(name, opts.seed, seconds, true, horizon)?)
            };
            let entry = workload_entry(&e2e, layers.as_ref());
            all_correct &= entry.get("correct").and_then(Value::as_bool) == Some(true);
            println!(
                "{name} (set {}): ops_attempted {} ops_failed {}",
                set + 1,
                num(&entry, &["ops_attempted"]).unwrap_or(0.0),
                num(&entry, &["ops_failed"]).unwrap_or(0.0),
            );
            print_metrics("end to end", END_TO_END, entry.get("end_to_end"));
            if layers.is_some() {
                print_metrics("per layer", PER_LAYER, entry.get("per_layer"));
            }
            workloads.set(name, entry);
        }
        sets.push(Value::obj().with("workloads", workloads));
    }
    if sets.len() > 1 {
        println!("agreement between {} sets (spread / bound):", sets.len());
        for name in WORKLOADS {
            for m in END_TO_END {
                let spread = set_spread(&by_set(&sets, name, "end_to_end", m.name));
                let bound = m.bound.unwrap_or(0.0);
                println!(
                    "  {:<18} {:<12} {:>7.2}% / {:>5.1}%  {}",
                    name,
                    m.name,
                    spread * 100.0,
                    bound * 100.0,
                    if spread <= bound { "within" } else { "exceeds" }
                );
            }
        }
    }
    let doc = Value::obj()
        .with("bench", "ledger")
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("quick", opts.quick)
        .with("machine", machine::fingerprint())
        .with("sets", Value::Arr(sets));
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, doc.to_pretty())
        .map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("[saved {}]", opts.out.display());
    Ok(all_correct)
}

/// How a metric moved from file A to file B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved less than the band.
    Within,
    /// Worse by more than the band.
    Regressed,
    /// Better by more than the band.
    Improved,
    /// The sets of one file disagree by more than the band, so the
    /// comparison cannot be trusted either way.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Band a per-layer metric may move within before `--diff` names it:
/// counters repeat exactly, host timings get a tenth.
fn band(m: &Metric) -> f64 {
    match (m.bound, m.source) {
        (Some(b), _) => b,
        (None, Source::C) => 0.0,
        (None, _) => 0.10,
    }
}

/// Judge one metric from the values each file's sets saw.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let band = band(m);
    if set_spread(a) > band || set_spread(b) > band {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let scale = ma.abs();
    if scale == 0.0 {
        return match worse_by.total_cmp(&0.0) {
            std::cmp::Ordering::Greater => Verdict::Regressed,
            std::cmp::Ordering::Less => Verdict::Improved,
            std::cmp::Ordering::Equal => Verdict::Within,
        };
    }
    if worse_by > band * scale {
        Verdict::Regressed
    } else if -worse_by > band * scale {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("sets").and_then(Value::as_arr) {
        Some(sets) if !sets.is_empty() => Ok(sets.to_vec()),
        _ => Err(format!("{}: no `sets` in file", path.display())),
    }
}

/// Compare two result files; returns whether any end-to-end metric
/// regressed.
pub fn diff(a: &Path, b: &Path) -> Result<bool, String> {
    let (sets_a, sets_b) = (load(a)?, load(b)?);
    let mut counts = [0usize; 4];
    let mut e2e_regressed = false;
    println!(
        "{:<18} {:<38} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for name in WORKLOADS {
        for (section, rows) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for m in rows {
                let values = |sets: &[Value]| by_set(sets, name, section, m.name);
                let (va, vb) = (values(&sets_a), values(&sets_b));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let verdict = judge(m, &va, &vb);
                counts[verdict as usize] += 1;
                e2e_regressed |= verdict == Verdict::Regressed && m.source == Source::E;
                let (ma, mb) = (median(&va), median(&vb));
                let change = if ma != 0.0 {
                    (mb - ma) / ma.abs() * 100.0
                } else {
                    0.0
                };
                // Per-layer rows that did not move are not worth a line.
                if verdict != Verdict::Within || m.source == Source::E {
                    println!(
                        "{:<18} {:<38} {:>14.6} {:>14.6} {:>+7.1}%  {}",
                        name,
                        m.name,
                        ma,
                        mb,
                        change,
                        verdict.as_str()
                    );
                }
            }
        }
    }
    println!(
        "within {} / regressed {} / improved {} / unresolved {}",
        counts[Verdict::Within as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Improved as usize],
        counts[Verdict::Unresolved as usize],
    );
    Ok(e2e_regressed)
}

/// The catalogue as the markdown glossary README.md carries.
pub fn glossary() -> String {
    let mut out = String::from("| name | unit | better | source | what |\n|---|---|---|---|---|\n");
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source.tag(),
            m.what
        ));
    }
    out
}

/// The command the driver runs from the repository root (it appends
/// `--workload`, `--seed`, `--seconds` and `--trace`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// Seconds one run measures for. `metro_core` needs about 8.5 s a rep
/// on the 2-vCPU reference host, so this fits three of them.
pub const RUN_SECONDS: u64 = 25;

/// `BENCHMARK.json` as the catalogue defines it.
pub fn benchmark_json() -> Value {
    let rows = |rows: &[Metric]| {
        Value::Arr(
            rows.iter()
                .map(|m| {
                    let mut o = Value::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.as_str());
                    if let Some(b) = m.bound {
                        o.set("bound", b);
                    }
                    o
                })
                .collect(),
        )
    };
    Value::obj()
        .with(
            "command",
            Value::Arr(COMMAND.iter().map(|c| Value::from(*c)).collect()),
        )
        .with("paths", Value::Arr(vec![Value::from("bench")]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Value::Arr(
                WHY.iter()
                    .map(|(name, why)| Value::obj().with("name", *name).with("why", *why))
                    .collect(),
            ),
        )
        .with("end_to_end", rows(END_TO_END))
        .with("per_layer", rows(PER_LAYER))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> Option<&'static Metric> {
        END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let wall = find("run_cal_s").unwrap(); // lower is better
        let bound = wall.bound.unwrap();
        assert_eq!(
            judge(wall, &[10.0], &[10.0 * (1.0 + bound * 0.9)]),
            Verdict::Within
        );
        assert_eq!(
            judge(wall, &[10.0], &[10.0 * (1.0 + bound * 1.1)]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(wall, &[10.0], &[10.0 * (1.0 - bound * 1.1)]),
            Verdict::Improved
        );
        // Sets of one file that disagree by more than the bound.
        let wide = [10.0, 10.0 * (1.0 + 2.0 * bound)];
        assert_eq!(judge(wall, &wide, &[10.0]), Verdict::Unresolved);
        assert_eq!(judge(wall, &[10.0], &wide), Verdict::Unresolved);

        let qoe = find("qoe_score").unwrap(); // higher is better
        assert_eq!(judge(qoe, &[4.0], &[3.0]), Verdict::Regressed);
        assert_eq!(judge(qoe, &[4.0], &[4.5]), Verdict::Improved);

        // Counters repeat exactly: any change is named, by direction.
        let events = find("kernel.events").unwrap();
        assert_eq!(judge(events, &[100.0], &[100.0]), Verdict::Within);
        assert_eq!(judge(events, &[100.0], &[101.0]), Verdict::Regressed);
        assert_eq!(judge(events, &[100.0], &[99.0]), Verdict::Improved);
        assert_eq!(judge(events, &[0.0], &[0.0]), Verdict::Within);
        assert_eq!(judge(events, &[0.0], &[5.0]), Verdict::Regressed);
        // Host timings without a bound get a tenth.
        let probe = find("igp.spf_full_probe_us").unwrap();
        assert_eq!(judge(probe, &[100.0], &[109.0]), Verdict::Within);
        assert_eq!(judge(probe, &[100.0], &[111.0]), Verdict::Regressed);
    }

    #[test]
    fn glossary_has_a_row_per_metric() {
        let rows = glossary().lines().count();
        assert_eq!(rows, 2 + END_TO_END.len() + PER_LAYER.len());
    }
}
