//! Run a named suite of declarative scenarios and compare them.
//!
//! The scenario engine (`fib-scenario`) composes topology × workload
//! × fault script from `.toml` specs under `scenarios/`; this binary
//! runs a suite, prints a comparison table, and writes per-scenario
//! CSVs (`scenario_<name>.csv` summary + `scenario_<name>_trace.csv`
//! full trace) under `results/`.
//!
//! Run: `cargo run --release -p fib-bench --bin scenario_suite -- \
//!         --suite all --seed 7`
//!
//! Besides the static suites, `--suite found` runs the adversarial
//! regression corpus under `scenarios/found/` — files archived by the
//! `adversary` fuzzer, discovered dynamically so new finds need no
//! code change. Any scenario carrying an `[expect]` stanza (every
//! archived find does) has its bounds enforced after the run; a
//! violated expectation fails the suite like a panic would.
//!
//! Flags: `--suite <all|smoke|scale|found>` (default `all`),
//! `--scenario <name>`
//! (run a single spec instead), `--seed N` (override every spec's
//! seed), `--horizon SECS` (override every spec's horizon),
//! `--trace-out PATH` (Chrome trace-event export of the whole run —
//! kernel dispatch, SPF, fluid settlement, controller optimization,
//! and the lie-lifecycle audit instants — one shared timeline across
//! the suite's scenarios, each wrapped in a `scenario.run` span; open
//! in Perfetto or `chrome://tracing`, see `docs/OBSERVABILITY.md`; its
//! deterministic view, without `ts`/`dur`, lands next to it as
//! `<PATH minus extension>.det.json`).
//!
//! When `paper_demo` runs at a horizon covering both waves, the binary
//! additionally asserts the paper's pinned control-plane milestones —
//! the t=15 single-lie plan (B splits evenly over R2 and R3) and the
//! t=35 two-lie plan (A gets three ECMP slots, two via R1) — and
//! exits nonzero if the reproduction drifts
//! (`fib_scenario::suite::check_paper_milestones`).

use fib_bench::cli::Cli;
use fib_bench::{f, results_dir, Table};
use fib_scenario::prelude::*;
use fib_scenario::sweep::panic_message;

/// Per-suite Chrome event budget (the cap cuts the deterministic
/// event sequence, so the kept prefix is identical across runs; the
/// overflow is reported in the file's `dropped` count).
const TRACE_EVENT_CAP: usize = 400_000;

fn main() {
    let cli = Cli::from_env(&["suite", "scenario", "seed", "horizon", "trace-out"]);
    let trace_out = cli.get("trace-out").map(String::from);
    let trace_epoch = std::time::Instant::now();
    let mut master_sink = trace_out
        .as_ref()
        .map(|_| fib_trace::ChromeSink::with_epoch(TRACE_EVENT_CAP, trace_epoch));
    let opts = RunOptions {
        seed: cli.u64_flag("seed"),
        horizon_secs: cli.f64_flag("horizon"),
        ..RunOptions::default()
    };

    let (names, suite_horizon, from_found): (Vec<String>, Option<f64>, bool) =
        match cli.get("scenario") {
            Some(name) => {
                let name = ALL_SCENARIOS
                    .iter()
                    .copied()
                    .chain([PREDICTIVE_PIN])
                    .find(|n| *n == name)
                    .unwrap_or_else(|| {
                        eprintln!(
                            "unknown scenario `{name}` (have: {}, {PREDICTIVE_PIN})",
                            ALL_SCENARIOS.join(", ")
                        );
                        std::process::exit(2);
                    });
                (vec![name.to_string()], None, false)
            }
            None => {
                let suite_name = cli.get("suite").unwrap_or("all");
                if suite_name == "found" {
                    let names = found_scenarios();
                    println!(
                        "== suite found: adversarial regression corpus \
                         ({} find(s) under scenarios/found/) ==\n",
                        names.len()
                    );
                    (names, None, true)
                } else {
                    let suite = find_suite(suite_name).unwrap_or_else(|| {
                        let mut have: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
                        have.push("found");
                        eprintln!("unknown suite `{suite_name}` (have: {})", have.join(", "));
                        std::process::exit(2);
                    });
                    println!("== suite {}: {} ==\n", suite.name, suite.description);
                    let names = suite.scenarios.iter().map(|s| s.to_string()).collect();
                    (names, suite.horizon_secs, false)
                }
            }
        };
    let opts = RunOptions {
        horizon_secs: opts.horizon_secs.or(suite_horizon),
        ..opts
    };

    let mut table = Table::new(&[
        "scenario",
        "rtrs",
        "links",
        "sess",
        "max util",
        "mean util",
        "peak lies",
        "react (s)",
        "unroutable (s)",
        "stalls",
        "QoE score",
    ]);
    let mut failures: Vec<(String, String)> = Vec::new();
    for name in names {
        let loaded = if from_found {
            load_found(&name)
        } else {
            load_scenario(&name)
        };
        let spec = match loaded {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[{name}] spec error: {e}");
                failures.push((name.to_string(), format!("spec error: {e}")));
                continue;
            }
        };
        println!("[{name}] {}", spec.description);
        // One diverging scenario (a panic deep in the simulator, a
        // pin_seed rejection) must not abort the suite mid-table: run
        // it to completion under a panic guard and keep going, so the
        // exit summary names every failure in one readable line.
        if master_sink.is_some() {
            fib_trace::install(Box::new(fib_trace::ChromeSink::with_epoch(
                TRACE_EVENT_CAP,
                trace_epoch,
            )));
        }
        let guarded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<_, (String, String)> {
                let _span = fib_trace::span(fib_trace::Phase::ScenarioRun);
                let mut run = build(&spec, opts)
                    .map_err(|e| (name.to_string(), format!("build error: {e}")))?;
                // The pinned-plan gate, whenever the run covers both
                // waves.
                let milestones = (name == "paper_demo" && run.horizon_secs() >= 45.0)
                    .then(|| check_paper_milestones(&mut run));
                Ok((run.finish(), milestones))
            },
        ));
        // The sink comes off the thread even when the scenario
        // panicked: whatever was traced up to the failure still lands
        // in the merged timeline.
        if let Some(master) = master_sink.as_mut() {
            if let Some(chrome) = fib_trace::take()
                .and_then(|s| s.into_any().downcast::<fib_trace::ChromeSink>().ok())
            {
                master.absorb(*chrome);
            }
        }
        let report = match guarded {
            Ok(Ok((report, milestones))) => {
                match milestones {
                    Some(Ok(())) => println!(
                        "[paper_demo] pinned t=15 single-lie and t=35 two-lie plans reproduced"
                    ),
                    Some(Err(msg)) => {
                        eprintln!("[paper_demo] MILESTONE FAILURE: milestone: {msg}");
                        failures.push((name.to_string(), format!("milestone: {msg}")));
                    }
                    None => {}
                }
                report
            }
            Ok(Err((n, msg))) => {
                eprintln!("[{n}] {msg}");
                failures.push((n, msg));
                continue;
            }
            Err(payload) => {
                let msg = format!("panic: {}", panic_message(payload));
                eprintln!("[{name}] {msg}");
                failures.push((name.to_string(), msg));
                continue;
            }
        };

        // `[expect]` enforcement: the archived-find lifecycle's gate.
        // Violated bounds fail the suite exactly like a panic would.
        if let Some(expect) = &spec.expect {
            let violations = expect.check(&report);
            if violations.is_empty() {
                println!("[{name}] expectations hold");
            }
            for v in violations {
                eprintln!("[{name}] EXPECT FAILURE: {v}");
                failures.push((name.to_string(), v));
            }
        }

        let summary_path = results_dir().join(format!("scenario_{name}.csv"));
        std::fs::write(&summary_path, report.summary_csv()).expect("write summary csv");
        let trace_path = results_dir().join(format!("scenario_{name}_trace.csv"));
        std::fs::write(&trace_path, &report.trace_csv).expect("write trace csv");
        println!(
            "[{name}] seed {} · horizon {:.0}s · saved {} + trace\n",
            report.seed,
            report.horizon_secs,
            summary_path.display()
        );

        table.row(&[
            name.to_string(),
            report.routers.to_string(),
            report.links.to_string(),
            report.sessions.to_string(),
            f(report.max_util),
            f(report.mean_util),
            report.peak_lies.to_string(),
            report
                .reaction_secs
                .map(f)
                .unwrap_or_else(|| "-".to_string()),
            f(report.unroutable_flow_secs),
            report.qoe.stalls.to_string(),
            f(report.qoe.mean_score),
        ]);
    }
    table.emit("scenario_suite");
    if let (Some(out), Some(master)) = (&trace_out, &master_sink) {
        fib_trace::artifact::save(std::path::Path::new(out), &master.doc())
            .unwrap_or_else(|e| panic!("--trace-out {out}: {e}"));
        println!(
            "[saved {out}: {} trace events ({} audit records), {} dropped]",
            master.event_count(),
            master.audits().len(),
            master.dropped()
        );
    }
    println!("Reading: the controller-on scenarios hold max utilization near the");
    println!("optimizer budget and keep QoE high; the baseline saturates and");
    println!("stalls. Fault scripts (failures, brown-outs) show reaction times");
    println!("and the blackout seconds the IGP+controller could not hide.");
    if !failures.is_empty() {
        // One readable line for CI: every failed scenario and why,
        // instead of a count buried above pages of per-scenario
        // output.
        let summary: Vec<String> = failures
            .iter()
            .map(|(n, msg)| format!("{n} ({msg})"))
            .collect();
        eprintln!(
            "suite FAILED: {} scenario(s) failed: {}",
            failures.len(),
            summary.join("; ")
        );
        std::process::exit(1);
    }
}
