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
//!   timing and worker counts, the only non-deterministic content —
//!   marked `volatile`, so absent from the record's deterministic
//!   view).
//!
//! Everything here is pure folding over an already-ordered input, so
//! the rendered bytes are identical at any worker count.

use super::exec::{CellOutcome, SweepRun};
use fib_netsim::sim::SimStats;
use fib_trace::artifact::{volatile, Value};
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
    /// cell (span counts deterministic, percentages wall-derived).
    pub phases: Vec<fib_trace::PhaseAttribution>,
}

/// Fixed-precision float rendering shared by every CSV cell.
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

fn dist_value(d: &Option<Dist>) -> Value {
    match d {
        None => Value::Null,
        Some(d) => Value::Obj(vec![
            ("n", d.n.into()),
            ("mean", d.mean.into()),
            ("p5", d.p5.into()),
            ("p50", d.p50.into()),
            ("p95", d.p95.into()),
        ]),
    }
}

/// The `"rollup"` object: the named counters summed over `ok`
/// successful cells — `{}` when there was none to sum.
fn rollup_value(stats: &SimStats, ok: usize) -> Value {
    let counters = if ok == 0 {
        Vec::new()
    } else {
        stats
            .counters()
            .into_iter()
            .map(|(k, v)| (k, v.into()))
            .collect()
    };
    Value::Obj(counters)
}

/// Build the `BENCH_sweep.json` record. Wall-clock values
/// (`wall_secs`, `cells_per_sec`, each phase's `pct`) and the worker
/// count are the only non-deterministic content, and are marked
/// [`volatile`] here, where they are computed.
pub fn to_doc(run: &SweepRun, summary: &SweepSummary) -> Value {
    let mut doc = vec![
        ("bench", "sweep".into()),
        ("sweep", summary.name.clone().into()),
        ("description", summary.description.clone().into()),
        ("cells", summary.cells.into()),
        ("failed", summary.failed.into()),
        ("jobs", volatile(run.jobs)),
        ("wall_secs", volatile(run.wall_secs)),
        (
            "cells_per_sec",
            volatile(summary.cells as f64 / run.wall_secs.max(1e-9)),
        ),
    ];
    let groups = summary
        .groups
        .iter()
        .map(|g| {
            Value::Obj(vec![
                ("group", g.label.clone().into()),
                ("scenario", g.scenario.clone().into()),
                ("capacity_scale", g.capacity_scale.into()),
                ("crowd_scale", g.crowd_scale.into()),
                ("cells", g.cells.into()),
                ("failed", g.failed.into()),
                ("sessions", g.sessions.into()),
                ("stalls", g.stalls.into()),
                ("reacted", g.reacted.into()),
                ("qoe", dist_value(&g.qoe)),
                ("baseline_qoe", dist_value(&g.baseline_qoe)),
                ("qoe_delta", dist_value(&g.qoe_delta)),
                ("max_util", dist_value(&g.max_util)),
                ("unroutable_flow_secs", dist_value(&g.unroutable)),
                ("reaction_secs", dist_value(&g.reaction)),
                ("rollup", rollup_value(&g.stats, g.cells - g.failed)),
            ])
        })
        .collect();
    let failures = summary
        .failures
        .iter()
        .map(|(cell, label, error)| {
            Value::Obj(vec![
                ("cell", (*cell).into()),
                ("label", label.clone().into()),
                ("error", error.clone().into()),
            ])
        })
        .collect();
    // `spans` is deterministic and stays in the comparison; `pct` is
    // wall-derived.
    let phases = summary
        .phases
        .iter()
        .map(|a| {
            Value::Obj(vec![
                ("phase", a.phase.into()),
                ("spans", a.spans.into()),
                ("pct", volatile(a.pct)),
            ])
        })
        .collect();
    doc.push(("groups", Value::Arr(groups)));
    doc.push(("failures", Value::Arr(failures)));
    doc.push(("phase_attribution", Value::Arr(phases)));
    doc.push((
        "rollup",
        rollup_value(&summary.stats, summary.cells - summary.failed),
    ));
    Value::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let Value::Obj(fields) = rollup_value(&total, 2) else {
            panic!("rollup is an object");
        };
        assert_eq!(fields.len(), 13);
        assert_eq!(fields[0], ("alloc_fills", Value::Int(0)));
        assert!(fields.contains(&("events", Value::Int(u64::MAX))));
        assert!(fields.contains(&("reallocs", Value::Int(5))));
        assert_eq!(fields[12], ("unroutable_resolutions", Value::Int(0)));
        assert_eq!(rollup_value(&total, 0), Value::Obj(Vec::new()));
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
    fn csv_safe_strips_separators() {
        assert_eq!(csv_safe("a,b\nc"), "a;b c");
    }
}
