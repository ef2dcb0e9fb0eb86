//! Adversarial campaign driver: schedule exploration and scenario
//! fuzzing from the command line.
//!
//! Two modes, chosen by the positional argument:
//!
//! * `adversary explore --scenario paper_demo` — permute every batch
//!   of same-timestamp events inside `--window lo:hi` (default
//!   `14:16`, around the paper timeline's t=15 lie install):
//!   bounded-exhaustive permutation plans up to `--depth` decision
//!   points (at most `--perm-cap` permutations each, `--max-runs`
//!   total), then `--walks` seeded random walks. Every interleaving
//!   is judged against the `[expect]` stanza derived from the
//!   identity run (forwarding loops, blackout spikes, stuck lies);
//!   **any violation exits nonzero**. The distinct-schedule
//!   digest is deterministic for a seed — CI double-runs the binary
//!   and `cmp`s the JSON's deterministic view.
//! * `adversary fuzz --scenario paper_demo --iters 32` — seeded
//!   mutation campaign over the scenario spec; finds are minimized
//!   by mutation-reversal and, with `--archive DIR`, serialized as
//!   replayable regression scenarios (`pin_seed = true` plus an
//!   `[expect]` stanza) that `scenario_suite --suite found` enforces.
//!
//! Shared flags: `--seed N`, `--horizon SECS` (shrink for faster
//! campaigns). Artifacts land in `results/BENCH_adversary.json`;
//! `wall_secs`/`per_sec` are the only non-deterministic values, absent
//! from the `BENCH_adversary.det.json` written next to it.

use fib_adversary::prelude::*;
use fib_bench::cli::Cli;
use fib_bench::results_dir;
use fib_scenario::prelude::*;
use fib_trace::artifact::{save, volatile, Value};
use std::time::Instant;

fn parse_window(s: &str) -> (f64, f64) {
    let parts: Vec<&str> = s.split(':').collect();
    let pair = (|| -> Option<(f64, f64)> {
        let [lo, hi] = parts.as_slice() else {
            return None;
        };
        let (lo, hi) = (lo.parse::<f64>().ok()?, hi.parse::<f64>().ok()?);
        (lo < hi).then_some((lo, hi))
    })();
    pair.unwrap_or_else(|| {
        eprintln!("--window expects `lo:hi` seconds with lo < hi, got `{s}`");
        std::process::exit(2);
    })
}

fn load(cli: &Cli) -> ScenarioSpec {
    let name = cli.get("scenario").unwrap_or("paper_demo");
    load_scenario(name).unwrap_or_else(|e| {
        eprintln!("cannot load scenario `{name}`: {e}");
        std::process::exit(2);
    })
}

/// Save the record, closing it with the campaign's wall time and
/// simulator runs per wall second.
fn write_json(mut doc: Vec<(&'static str, Value)>, runs: usize, wall_secs: f64) {
    doc.push(("wall_secs", volatile(wall_secs)));
    doc.push(("per_sec", volatile(runs as f64 / wall_secs.max(1e-9))));
    let path = results_dir().join("BENCH_adversary.json");
    save(&path, &Value::Obj(doc)).expect("write BENCH json");
    println!("[saved {}]", path.display());
}

fn run_explore(cli: &Cli) {
    let spec = load(cli);
    let mut cfg = ExploreConfig {
        seed: cli.seed(ExploreConfig::default().seed),
        horizon_secs: cli.f64_flag("horizon"),
        ..ExploreConfig::default()
    };
    if let Some(w) = cli.get("window") {
        cfg.window = parse_window(w);
    }
    if let Some(d) = cli.u64_flag("depth") {
        cfg.max_depth = d as usize;
    }
    if let Some(p) = cli.u64_flag("perm-cap") {
        cfg.perm_cap = p.max(1);
    }
    if let Some(r) = cli.u64_flag("max-runs") {
        cfg.max_runs = (r as usize).max(1);
    }
    if let Some(w) = cli.u64_flag("walks") {
        cfg.walks = w as usize;
    }

    let wall = Instant::now();
    let out = explore(&spec, &cfg).unwrap_or_else(|e| {
        eprintln!("explore failed: {e}");
        std::process::exit(1);
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    eprintln!(
        "[adversary] {}: {} runs ({} exhaustive + {} walks), {} distinct \
         interleavings, {} decision point(s) deep, max batch {}, digest {:016x}",
        out.scenario,
        out.runs,
        out.exhaustive_runs,
        out.walk_runs,
        out.distinct,
        out.max_decisions,
        out.max_batch,
        out.digest
    );

    let doc = vec![
        ("bench", "adversary".into()),
        ("mode", "explore".into()),
        ("scenario", out.scenario.clone().into()),
        ("seed", cfg.seed.into()),
        (
            "window",
            Value::Arr(vec![out.window.0.into(), out.window.1.into()]),
        ),
        ("depth", cfg.max_depth.into()),
        ("perm_cap", cfg.perm_cap.into()),
        ("runs", out.runs.into()),
        ("exhaustive_runs", out.exhaustive_runs.into()),
        ("walk_runs", out.walk_runs.into()),
        ("distinct", out.distinct.into()),
        ("max_decisions", out.max_decisions.into()),
        ("max_batch", out.max_batch.into()),
        ("digest", format!("{:016x}", out.digest).into()),
        (
            "baseline_unroutable_flow_secs",
            out.identity.unroutable_flow_secs.into(),
        ),
        ("baseline_final_lies", out.identity.final_lies.into()),
        (
            "baseline_fwd_loop_settles",
            out.identity.fwd_loop_settles.into(),
        ),
        (
            "violations",
            Value::Arr(out.violations.iter().map(|v| v.clone().into()).collect()),
        ),
    ];
    write_json(doc, out.runs, wall_secs);

    if !out.violations.is_empty() {
        eprintln!(
            "[adversary] {} invariant violation(s):",
            out.violations.len()
        );
        for v in &out.violations {
            eprintln!("[adversary]   FAIL {v}");
        }
        std::process::exit(1);
    }
    eprintln!("[adversary] all {} interleavings safe", out.distinct);
}

fn run_fuzz(cli: &Cli) {
    let spec = load(cli);
    let mut cfg = FuzzConfig {
        seed: cli.seed(FuzzConfig::default().seed),
        horizon_secs: cli.f64_flag("horizon"),
        ..FuzzConfig::default()
    };
    if let Some(i) = cli.u64_flag("iters") {
        cfg.iters = i as usize;
    }
    if let Some(m) = cli.u64_flag("mutations") {
        cfg.max_mutations = (m as usize).max(1);
    }
    if let Some(q) = cli.f64_flag("qoe-cliff") {
        cfg.qoe_cliff = q;
    }

    let wall = Instant::now();
    let out = fuzz(&spec, &cfg).unwrap_or_else(|e| {
        eprintln!("fuzz failed: {e}");
        std::process::exit(1);
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    eprintln!(
        "[adversary] {}: {} iters, {} sim runs, {} find(s), baseline QoE {:.3}",
        out.scenario,
        out.iters,
        out.runs,
        out.finds.len(),
        out.identity.qoe.mean_score
    );
    for f in &out.finds {
        eprintln!(
            "[adversary]   iter {:03} {}: {} mutation(s), qoe {:.3}, \
             unroutable {:.3}s, loops {}, final lies {}",
            f.iter,
            f.signal,
            f.mutations.len(),
            f.report.qoe.mean_score,
            f.report.unroutable_flow_secs,
            f.report.fwd_loop_settles,
            f.report.final_lies
        );
    }

    let mut archived = Vec::new();
    if let Some(dir) = cli.get("archive") {
        let dir = std::path::PathBuf::from(dir);
        for f in &out.finds {
            match archive_find(f, &out.scenario, &dir) {
                Ok(path) => {
                    eprintln!("[adversary]   archived {}", path.display());
                    archived.push(path);
                }
                Err(e) => {
                    eprintln!("cannot archive find {:03}: {e}", f.iter);
                    std::process::exit(1);
                }
            }
        }
    }

    let finds = out
        .finds
        .iter()
        .map(|f| {
            Value::Obj(vec![
                ("iter", f.iter.into()),
                ("signal", f.signal.clone().into()),
                ("mutations", f.mutations.len().into()),
                ("mean_qoe", f.report.qoe.mean_score.into()),
                ("unroutable_flow_secs", f.report.unroutable_flow_secs.into()),
                ("fwd_loop_settles", f.report.fwd_loop_settles.into()),
                ("final_lies", f.report.final_lies.into()),
            ])
        })
        .collect();
    let doc = vec![
        ("bench", "adversary".into()),
        ("mode", "fuzz".into()),
        ("scenario", out.scenario.clone().into()),
        ("seed", out.seed.into()),
        ("iters", out.iters.into()),
        ("runs", out.runs.into()),
        ("baseline_qoe", out.identity.qoe.mean_score.into()),
        ("finds", Value::Arr(finds)),
        ("archived", archived.len().into()),
    ];
    write_json(doc, out.runs, wall_secs);
}

fn main() {
    let cli = Cli::from_env_with_positionals(
        &[
            "scenario",
            "window",
            "depth",
            "perm-cap",
            "max-runs",
            "walks",
            "seed",
            "horizon",
            "iters",
            "mutations",
            "qoe-cliff",
            "archive",
        ],
        &["explore|fuzz"],
    );
    match cli.positionals() {
        [mode] if mode == "explore" => run_explore(&cli),
        [mode] if mode == "fuzz" => run_fuzz(&cli),
        other => {
            eprintln!(
                "expected mode `explore` or `fuzz`, got `{}`",
                other.first().map(String::as_str).unwrap_or("")
            );
            std::process::exit(2);
        }
    }
}
