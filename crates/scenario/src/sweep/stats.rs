//! Distribution aggregation and deterministic rendering.
//!
//! The stats layer folds the ordered [`CellOutcome`] list into
//! per-group distributions — a *group* is one grid configuration
//! (scenario × capacity scale × crowd scale), aggregated **across its
//! seeds** — and renders three artifacts:
//!
//! * a per-cell CSV (one row per run, counters included);
//! * a per-group distribution CSV (QoE p5/p50/p95, paired
//!   controller-on vs baseline QoE deltas, utilization and
//!   unroutable-flow-secs and reaction-latency tails);
//! * the `BENCH_sweep.json` record (both of the above plus wall-clock
//!   timing, which is the only non-deterministic content and is
//!   masked in CI's byte diffs).
//!
//! Everything here is pure folding over an already-ordered input, so
//! the rendered bytes are identical at any worker count.

use super::exec::{CellOutcome, SweepRun};
use fib_netsim::sim::SimStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Quantile of an ascending-sorted slice, by linear interpolation
/// between order statistics (the common "type 7" estimator).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A five-number view of one metric across a group's seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Dist {
    /// Build from unsorted samples (`None` when empty).
    pub fn from_samples(values: &[f64]) -> Option<Dist> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metric samples"));
        Some(Dist {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p5: quantile(&sorted, 0.05),
            p50: quantile(&sorted, 0.50),
            p95: quantile(&sorted, 0.95),
        })
    }
}

/// Aggregates for one grid configuration across its seeds.
#[derive(Debug, Clone)]
pub struct GroupDist {
    /// Index of the grid entry this group came from.
    pub entry: usize,
    /// Group label (scenario plus scale axes).
    pub label: String,
    /// Scenario name.
    pub scenario: String,
    /// Capacity multiplier of this configuration.
    pub capacity_scale: f64,
    /// Crowd multiplier of this configuration.
    pub crowd_scale: f64,
    /// Cells in the group (baseline twins included).
    pub cells: usize,
    /// Cells that failed.
    pub failed: usize,
    /// Total sessions scheduled across controller-on cells.
    pub sessions: u64,
    /// Total stalls across controller-on cells.
    pub stalls: u64,
    /// QoE mean-score distribution over controller-on seeds.
    pub qoe: Option<Dist>,
    /// QoE mean-score distribution over baseline seeds.
    pub baseline_qoe: Option<Dist>,
    /// Paired per-seed QoE delta (controller-on minus baseline).
    pub qoe_delta: Option<Dist>,
    /// Peak-utilization distribution over controller-on seeds.
    pub max_util: Option<Dist>,
    /// Unroutable-flow-seconds distribution (controller-on seeds).
    pub unroutable: Option<Dist>,
    /// Reaction-latency distribution over the seeds that reacted.
    pub reaction: Option<Dist>,
    /// Controller-on cells in which at least one lie was installed.
    pub reacted: usize,
    /// Machinery counters summed over every successful cell of the
    /// group.
    pub stats: SimStats,
}

/// The whole sweep, condensed.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Sweep name.
    pub name: String,
    /// Sweep description.
    pub description: String,
    /// Total cells.
    pub cells: usize,
    /// Failed cells.
    pub failed: usize,
    /// Per-configuration distributions, in grid order.
    pub groups: Vec<GroupDist>,
    /// Failures as `(cell index, label, error)`, in cell order.
    pub failures: Vec<(usize, String, String)>,
    /// Machinery counters summed over the whole sweep.
    pub stats: SimStats,
    /// Per-phase wall-clock attribution merged over every successful
    /// cell (span counts deterministic, percentages masked in diffs).
    pub phases: Vec<fib_trace::PhaseAttribution>,
}

/// Fixed-precision float rendering shared by every CSV/JSON cell.
fn num(v: f64) -> String {
    format!("{v:.6}")
}

fn opt_num(v: Option<f64>) -> String {
    v.map(num).unwrap_or_else(|| "-".into())
}

impl SweepSummary {
    /// Fold an ordered run into per-group distributions.
    pub fn from_run(run: &SweepRun) -> SweepSummary {
        // Group key: (entry, scale bits). Scales within one run come
        // from a single parse, so bit-equality is exact.
        type Key = (usize, u64, u64);
        let mut order: Vec<Key> = Vec::new();
        let mut buckets: BTreeMap<Key, Vec<&CellOutcome>> = BTreeMap::new();
        for o in &run.outcomes {
            let key = (
                o.cell.entry,
                o.cell.capacity_scale.to_bits(),
                o.cell.crowd_scale.to_bits(),
            );
            if !buckets.contains_key(&key) {
                order.push(key);
            }
            buckets.entry(key).or_default().push(o);
        }
        let mut groups = Vec::with_capacity(order.len());
        let mut total_stats = SimStats::default();
        let mut total_phases = fib_trace::AggSink::new();
        for o in &run.outcomes {
            if let Ok(m) = &o.result {
                total_phases.merge(&fib_trace::AggSink::from_attribution(&m.phases));
            }
        }
        for key in order {
            let cells = &buckets[&key];
            let first = cells[0];
            let mut g = GroupDist {
                entry: first.cell.entry,
                label: first.cell.group_label(),
                scenario: first.cell.scenario.clone(),
                capacity_scale: first.cell.capacity_scale,
                crowd_scale: first.cell.crowd_scale,
                cells: cells.len(),
                failed: 0,
                sessions: 0,
                stalls: 0,
                qoe: None,
                baseline_qoe: None,
                qoe_delta: None,
                max_util: None,
                unroutable: None,
                reaction: None,
                reacted: 0,
                stats: SimStats::default(),
            };
            let mut qoe = Vec::new();
            let mut base_qoe: BTreeMap<u64, f64> = BTreeMap::new();
            let mut on_qoe: BTreeMap<u64, f64> = BTreeMap::new();
            let mut max_util = Vec::new();
            let mut unroutable = Vec::new();
            let mut reaction = Vec::new();
            for o in cells {
                match &o.result {
                    Err(_) => g.failed += 1,
                    Ok(m) => {
                        g.stats += m.stats;
                        let r = &m.report;
                        if o.cell.baseline {
                            base_qoe.insert(o.cell.seed, r.qoe.mean_score);
                        } else {
                            on_qoe.insert(o.cell.seed, r.qoe.mean_score);
                            qoe.push(r.qoe.mean_score);
                            max_util.push(r.max_util);
                            unroutable.push(r.unroutable_flow_secs);
                            g.sessions += r.sessions as u64;
                            g.stalls += u64::from(r.qoe.stalls);
                            if let Some(t) = r.reaction_secs {
                                reaction.push(t);
                                g.reacted += 1;
                            }
                        }
                    }
                }
            }
            // Paired deltas, in ascending-seed order: only seeds where
            // both twins succeeded contribute.
            let deltas: Vec<f64> = on_qoe
                .iter()
                .filter_map(|(seed, on)| base_qoe.get(seed).map(|base| on - base))
                .collect();
            g.qoe = Dist::from_samples(&qoe);
            g.baseline_qoe = Dist::from_samples(&base_qoe.values().copied().collect::<Vec<_>>());
            g.qoe_delta = Dist::from_samples(&deltas);
            g.max_util = Dist::from_samples(&max_util);
            g.unroutable = Dist::from_samples(&unroutable);
            g.reaction = Dist::from_samples(&reaction);
            total_stats += g.stats;
            groups.push(g);
        }
        SweepSummary {
            name: run.spec.name.clone(),
            description: run.spec.description.clone(),
            cells: run.outcomes.len(),
            failed: run.failures().len(),
            groups,
            failures: run.failures(),
            stats: total_stats,
            phases: total_phases.attribution(),
        }
    }

    /// The per-group distribution CSV (byte-deterministic).
    pub fn dist_csv(&self) -> String {
        let mut out = String::from(
            "group,scenario,capacity_scale,crowd_scale,cells,failed,sessions,stalls,\
             qoe_p5,qoe_p50,qoe_p95,qoe_mean,base_qoe_p50,\
             dqoe_p5,dqoe_p50,dqoe_p95,\
             max_util_p50,max_util_p95,unroutable_p50,unroutable_p95,\
             reaction_p50,reaction_p95,reacted\n",
        );
        for g in &self.groups {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                g.label,
                g.scenario,
                num(g.capacity_scale),
                num(g.crowd_scale),
                g.cells,
                g.failed,
                g.sessions,
                g.stalls,
                opt_num(g.qoe.map(|d| d.p5)),
                opt_num(g.qoe.map(|d| d.p50)),
                opt_num(g.qoe.map(|d| d.p95)),
                opt_num(g.qoe.map(|d| d.mean)),
                opt_num(g.baseline_qoe.map(|d| d.p50)),
                opt_num(g.qoe_delta.map(|d| d.p5)),
                opt_num(g.qoe_delta.map(|d| d.p50)),
                opt_num(g.qoe_delta.map(|d| d.p95)),
                opt_num(g.max_util.map(|d| d.p50)),
                opt_num(g.max_util.map(|d| d.p95)),
                opt_num(g.unroutable.map(|d| d.p50)),
                opt_num(g.unroutable.map(|d| d.p95)),
                opt_num(g.reaction.map(|d| d.p50)),
                opt_num(g.reaction.map(|d| d.p95)),
                g.reacted,
            );
        }
        out
    }
}

/// CSV sanitation: cell errors can contain anything; commas and
/// newlines would break the one-row-per-cell shape.
fn csv_safe(s: &str) -> String {
    s.replace(['\n', '\r'], " ").replace(',', ";")
}

/// The per-cell CSV (byte-deterministic; one row per run).
pub fn cells_csv(run: &SweepRun) -> String {
    let mut out = String::from(
        "cell,label,scenario,seed,variant,status,sessions,max_util,mean_util,peak_lies,\
         reaction_secs,unroutable_flow_secs,stalls,qoe_score,\
         events,spf_full_runs,spf_partial_runs,paths_resolved,alloc_fills,error\n",
    );
    for (i, o) in run.outcomes.iter().enumerate() {
        let variant = if o.cell.baseline { "base" } else { "on" };
        match &o.result {
            Ok(m) => {
                let r = &m.report;
                let _ = writeln!(
                    out,
                    "{i},{},{},{},{variant},ok,{},{},{},{},{},{},{},{},{},{},{},{},{},",
                    o.cell.label(),
                    o.cell.scenario,
                    o.cell.seed,
                    r.sessions,
                    num(r.max_util),
                    num(r.mean_util),
                    r.peak_lies,
                    opt_num(r.reaction_secs),
                    num(r.unroutable_flow_secs),
                    r.qoe.stalls,
                    num(r.qoe.mean_score),
                    m.stats.events,
                    m.stats.spf_full_runs,
                    m.stats.spf_partial_runs,
                    m.stats.paths_resolved,
                    m.stats.alloc_fills,
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "{i},{},{},{},{variant},failed,-,-,-,-,-,-,-,-,-,-,-,-,-,{}",
                    o.cell.label(),
                    o.cell.scenario,
                    o.cell.seed,
                    csv_safe(&e.to_string()),
                );
            }
        }
    }
    out
}

/// Minimal JSON string escaping for names and error messages.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn dist_json(d: &Option<Dist>) -> String {
    match d {
        None => "null".into(),
        Some(d) => format!(
            "{{\"n\": {}, \"mean\": {}, \"p5\": {}, \"p50\": {}, \"p95\": {}}}",
            d.n,
            num(d.mean),
            num(d.p5),
            num(d.p50),
            num(d.p95)
        ),
    }
}

/// The `"rollup"` object: the named counters summed over `ok`
/// successful cells — `{}` when there was none to sum.
fn rollup_json(stats: &SimStats, ok: usize) -> String {
    if ok == 0 {
        return "{}".into();
    }
    let body: Vec<String> = stats
        .counters()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Render the `BENCH_sweep.json` record. `baseline` is the optional
/// reference run used for the speedup measurement: `(jobs,
/// wall_secs)` of a prior run of the *same grid* at another worker
/// count. Wall-clock keys (`wall_secs`, `cells_per_sec`,
/// `baseline_wall_secs`, `speedup_vs_baseline`) and the `jobs` counts
/// are the only non-deterministic content; CI masks exactly those.
pub fn to_json(run: &SweepRun, summary: &SweepSummary, baseline: Option<(usize, f64)>) -> String {
    let mut json = String::from("{\n  \"bench\": \"sweep\",\n");
    let _ = writeln!(json, "  \"sweep\": {},", jstr(&summary.name));
    let _ = writeln!(json, "  \"description\": {},", jstr(&summary.description));
    let _ = writeln!(json, "  \"cells\": {},", summary.cells);
    let _ = writeln!(json, "  \"failed\": {},", summary.failed);
    let _ = writeln!(json, "  \"jobs\": {},", run.jobs);
    let _ = writeln!(json, "  \"wall_secs\": {},", num(run.wall_secs));
    let _ = writeln!(
        json,
        "  \"cells_per_sec\": {},",
        num(summary.cells as f64 / run.wall_secs.max(1e-9))
    );
    if let Some((jobs, wall)) = baseline {
        let _ = writeln!(json, "  \"baseline_jobs\": {jobs},");
        let _ = writeln!(json, "  \"baseline_wall_secs\": {},", num(wall));
        let _ = writeln!(
            json,
            "  \"speedup_vs_baseline\": {},",
            num(wall / run.wall_secs.max(1e-9))
        );
    }
    json.push_str("  \"groups\": [\n");
    for (i, g) in summary.groups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"group\": {}, \"scenario\": {}, \"capacity_scale\": {}, \
             \"crowd_scale\": {}, \"cells\": {}, \"failed\": {}, \"sessions\": {}, \
             \"stalls\": {}, \"reacted\": {}, \"qoe\": {}, \"baseline_qoe\": {}, \
             \"qoe_delta\": {}, \"max_util\": {}, \"unroutable_flow_secs\": {}, \
             \"reaction_secs\": {}, \"rollup\": {}}}{}",
            jstr(&g.label),
            jstr(&g.scenario),
            num(g.capacity_scale),
            num(g.crowd_scale),
            g.cells,
            g.failed,
            g.sessions,
            g.stalls,
            g.reacted,
            dist_json(&g.qoe),
            dist_json(&g.baseline_qoe),
            dist_json(&g.qoe_delta),
            dist_json(&g.max_util),
            dist_json(&g.unroutable),
            dist_json(&g.reaction),
            rollup_json(&g.stats, g.cells - g.failed),
            if i + 1 < summary.groups.len() {
                ","
            } else {
                ""
            },
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"failures\": [\n");
    for (i, (cell, label, error)) in summary.failures.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"cell\": {cell}, \"label\": {}, \"error\": {}}}{}",
            jstr(label),
            jstr(error),
            if i + 1 < summary.failures.len() {
                ","
            } else {
                ""
            },
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"phase_attribution\": [\n");
    for (i, a) in summary.phases.iter().enumerate() {
        // `pct` is wall-derived, so it sits alone on its line where
        // both `mask_timing` and CI's sed mask can blank it; `spans`
        // is deterministic and stays in the byte comparison.
        let _ = writeln!(
            json,
            "    {{\"phase\": {}, \"spans\": {},",
            jstr(a.phase),
            a.spans
        );
        let _ = writeln!(json, "      \"pct\": {}", num(a.pct));
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < summary.phases.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"rollup\": {}",
        rollup_json(&summary.stats, summary.cells - summary.failed)
    );
    json.push_str("}\n");
    json
}

/// Mask the non-deterministic keys of a rendered `BENCH_sweep.json`:
/// the wall-clock fields and the worker counts. The `sweep` binary's
/// in-process cross-jobs identity check and the workspace tests both
/// compare through this, so the mask lives next to the renderer and
/// cannot drift out of sync with it. (CI's shell-level `sed` mask
/// names the same keys.)
pub fn mask_timing(json: &str) -> String {
    const MASKED: &[&str] = &[
        "jobs",
        "baseline_jobs",
        "wall_secs",
        "baseline_wall_secs",
        "cells_per_sec",
        "speedup_vs_baseline",
        "pct",
    ];
    let mut out = String::with_capacity(json.len());
    for line in json.lines() {
        let trimmed = line.trim_start();
        let masked = MASKED.iter().any(|k| {
            trimmed
                .strip_prefix(&format!("\"{k}\": "))
                .is_some_and(|rest| rest.trim_end_matches(',').parse::<f64>().is_ok())
        });
        if masked {
            let key = trimmed.split(':').next().unwrap_or("");
            let indent = &line[..line.len() - trimmed.len()];
            let comma = if line.trim_end().ends_with(',') {
                ","
            } else {
                ""
            };
            out.push_str(&format!("{indent}{key}: X{comma}\n"));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_timing_hits_exactly_the_wall_clock_keys() {
        let json = "{\n  \"cells\": 3,\n  \"jobs\": 4,\n  \"wall_secs\": 1.234567,\n  \
                    \"cells_per_sec\": 2.431000,\n  \"speedup_vs_baseline\": 3.100000,\n      \
                    \"pct\": 41.200000\n  \"unroutable_flow_secs\": {\"n\": 1}\n}\n";
        let masked = mask_timing(json);
        assert!(masked.contains("\"pct\": X\n"), "{masked}");
        assert!(masked.contains("\"cells\": 3"), "{masked}");
        assert!(masked.contains("\"jobs\": X"), "{masked}");
        assert!(masked.contains("\"wall_secs\": X,"), "{masked}");
        assert!(masked.contains("\"cells_per_sec\": X,"), "{masked}");
        assert!(masked.contains("\"speedup_vs_baseline\": X,"), "{masked}");
        // Deterministic metrics whose names merely contain `secs`
        // stay in the comparison.
        assert!(masked.contains("\"unroutable_flow_secs\": {\"n\": 1}"));
    }

    #[test]
    fn rollup_sums_saturating_and_is_empty_without_a_successful_cell() {
        let mut total = SimStats {
            events: u64::MAX - 1,
            reallocs: 2,
            ..SimStats::default()
        };
        total += SimStats {
            events: 5,
            reallocs: 3,
            ..SimStats::default()
        };
        let json = rollup_json(&total, 2);
        assert!(json.starts_with("{\"alloc_fills\": 0, \"alloc_skips\": 0, "));
        assert!(json.contains(&format!("\"events\": {}, ", u64::MAX)));
        assert!(json.contains("\"reallocs\": 5, "));
        assert!(json.ends_with("\"unroutable_resolutions\": 0}"));
        assert_eq!(json.matches(": ").count(), 13);
        assert_eq!(rollup_json(&total, 0), "{}");
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn dist_from_samples() {
        assert!(Dist::from_samples(&[]).is_none());
        let d = Dist::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(d.n, 3);
        assert_eq!(d.p50, 2.0);
        assert!((d.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(jstr("plain"), "\"plain\"");
        assert_eq!(jstr("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(jstr("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn csv_safe_strips_separators() {
        assert_eq!(csv_safe("a,b\nc"), "a;b c");
    }
}
