//! Scaling sweep of the co-simulation data plane.
//!
//! Runs flash-crowd-plus-failure scenarios at growing size — Waxman
//! graphs from 20 routers / 200 sessions up to the shipped
//! `scenarios/metro_core.toml` (200 routers / 2 000 sessions) — and
//! reports how the incremental recompute machinery held up: events
//! processed per wall-second, reallocation counts, dirty-set path
//! re-resolutions vs the `Σ_realloc flows` a global recompute would
//! have performed (`naive_resolutions`; `resolve_ratio` is the
//! saving), allocator fill/skip counts, and full vs partial SPF runs.
//!
//! Run: `cargo run --release -p fib-bench --bin sim_scale`
//!
//! Flags: `--cases N` (first N sweep cases only — CI's smoke runs 2),
//! `--horizon SECS` (override every case's horizon), `--seed N`
//! (reseed the generated cases; `metro_core` keeps its spec seed, as
//! its fault script names seed-2016 links), `--max-secs S` (skip
//! remaining cases once the budget is spent; skipped cases are listed
//! in the JSON so CI can fail on them), `--gate PATH` (enforce the
//! events/s floors recorded in a previous run's JSON — see below),
//! `--gate-tol F` (tolerance band used when *recording* floors;
//! default 0.25 — CI's tracing-overhead gate records Noop-sink floors
//! at 0.10), `--repeat N` (run every case N times and keep the best
//! throughput — single-shot sub-second cases jitter by 5-10% on a
//! busy machine, best-of-N is what a tight tolerance band needs;
//! counters are deterministic so repeats change no artifact bytes
//! except the wall fields), `--trace off|agg` (per-case tracing sink; `agg` — the
//! default — attributes each case's wall clock by phase into the
//! JSON's `phase_attribution` arrays, `off` runs with no sink at all,
//! the configuration the events/s floors are recorded under), and
//! `--trace-out PATH` (Chrome trace-event export: every case records
//! into one shared-epoch timeline, viewable in Perfetto).
//!
//! Gating: each run records, per case, a `min_events_per_sec` floor —
//! the measured throughput minus a 25% tolerance band, and never below
//! the 60 000 events/s acceptance floor for `metro_core`. `--gate
//! PATH` replays those floors against the current run: a case running
//! slower than its recorded floor (or a gated run that skips
//! `metro_core`, or `metro_core` under the hard floor) exits nonzero.
//! CI's bench-smoke records floors with a sink-less run at a 10% band
//! and gates one traced run against them: the tracing spine may cost
//! at most 10% of throughput, and `metro_core` must clear the hard
//! floor. It gates nothing run-over-run — a floor one run of a CI job
//! hands the next measures jitter, not regressions.
//!
//! Artifacts: the comparison table (counters only — byte-identical
//! across same-build runs, diffed in CI) lands in
//! `results/bench_sim_scale.csv`; the full record including wall
//! times in `results/BENCH_sim_scale.json` so the perf trajectory is
//! tracked run-over-run like `BENCH_table_minmax_gap.json`.

use fib_bench::cli::Cli;
use fib_bench::{f, results_dir, Table};
use fib_igp::spf::shortest_paths;
use fib_igp::types::RouterId;
use fib_scenario::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// One sweep case: a generated metro-style scenario, or the shipped
/// `metro_core` spec for the flagship size.
struct Case {
    name: String,
    spec: ScenarioSpec,
}

/// Counters harvested from one run.
struct Outcome {
    routers: usize,
    links: usize,
    sessions: usize,
    events: u64,
    reallocs: u64,
    paths_resolved: u64,
    paths_skipped: u64,
    alloc_fills: u64,
    alloc_skips: u64,
    spf_full: u64,
    spf_partial: u64,
    max_util: f64,
    unroutable_flow_secs: f64,
    wall_secs: f64,
}

impl Outcome {
    /// What the pre-refactor engine would have resolved: every flow,
    /// at every reallocation.
    fn naive_resolutions(&self) -> u64 {
        self.paths_resolved + self.paths_skipped
    }

    /// Incremental saving (naive / actual).
    fn resolve_ratio(&self) -> f64 {
        if self.paths_resolved == 0 {
            0.0
        } else {
            self.naive_resolutions() as f64 / self.paths_resolved as f64
        }
    }
}

/// Build a metro-style scenario at the given size: Waxman graph, sink
/// at the best-connected router, two flash crowds from spread
/// ingresses, one non-bridge sink uplink failing mid-crowd.
fn generated_case(routers: u32, sessions: u32, seed: u64) -> Result<Case, SpecError> {
    // Edge probability scaled so the expected mean degree stays near
    // 4 across sweep sizes (a metro-ish sparseness with real path
    // diversity — a near-tree graph would leave the controller no
    // detours to lie about).
    let topology = TopologySpec::Waxman {
        n: routers,
        alpha: (13.0 / (routers as f64 - 1.0)).clamp(0.05, 0.9),
        beta: 0.3,
        max_metric: 6,
    };
    // Materialize the graph exactly as the runner will (same seed,
    // same stream) to pick the sink and a safe link to fail.
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = build_topology(&topology, &mut rng);
    let sink = topo
        .routers()
        .max_by_key(|r| (topo.links(*r).len(), r.0))
        .expect("non-empty graph");
    // Fail the sink uplink with the best-connected peer that is not a
    // bridge (removal must leave the graph connected).
    let mut uplinks: Vec<RouterId> = topo.links(sink).iter().map(|l| l.to).collect();
    uplinks.sort_by_key(|p| std::cmp::Reverse(topo.links(*p).len()));
    let fail_peer = uplinks
        .into_iter()
        .find(|peer| {
            let mut cut = topo.clone();
            cut.remove_link(sink, *peer);
            cut.remove_link(*peer, sink);
            let sp = shortest_paths(&cut, sink);
            let connected = cut.routers().all(|r| sp.dist_to(r).is_finite());
            connected
        })
        .unwrap_or_else(|| topo.links(sink)[0].to);
    // Ingresses: the two lowest-id routers at least two hops from the
    // sink (so crowds actually cross the network).
    let sp = shortest_paths(&topo, sink);
    let mut ingresses: Vec<RouterId> = topo
        .routers()
        .filter(|r| *r != sink && sp.dist_to(*r).is_finite() && !topo.has_link(sink, *r))
        .collect();
    ingresses.sort();
    ingresses.truncate(2);
    if ingresses.len() < 2 {
        return Err(SpecError("graph too small for two ingresses".into()));
    }

    let per_wave = sessions / 2;
    // Capacity sized so the crowd saturates shortest paths (forcing
    // the controller to lie) without drowning the ingress degree.
    let capacity = (per_wave as f64 * 125_000.0 / 3.0).max(2.5e6);
    let horizon = 60.0;
    let crowd_secs = 10.0;
    let mean_gap = crowd_secs / per_wave.max(1) as f64;
    let mut events = vec![
        EventSpec {
            at: 2.0,
            kind: EventKind::FlashCrowd {
                src: ingresses[0].0,
                n: per_wave,
                mean_gap_secs: mean_gap,
                rate: 125_000.0,
                video_secs: 300.0,
                dst: 0,
            },
        },
        EventSpec {
            at: 4.0,
            kind: EventKind::FlashCrowd {
                src: ingresses[1].0,
                n: sessions - per_wave,
                mean_gap_secs: mean_gap,
                rate: 125_000.0,
                video_secs: 300.0,
                dst: 0,
            },
        },
    ];
    events.push(EventSpec {
        at: 8.0,
        kind: EventKind::FailLink {
            a: fail_peer.0,
            b: sink.0,
        },
    });
    events.push(EventSpec {
        at: 30.0,
        kind: EventKind::RestoreLink {
            a: fail_peer.0,
            b: sink.0,
        },
    });
    let spec = ScenarioSpec {
        name: format!("scale_{routers}r_{sessions}s"),
        description: format!(
            "generated sweep case: {routers} routers, {sessions} sessions, \
             fail {}-{} mid-crowd",
            fail_peer.0, sink.0
        ),
        horizon_secs: horizon,
        seed,
        // The generated fault script names links of this seed's graph.
        pin_seed: true,
        capacity,
        topology,
        sinks: vec![sink.0],
        controller: Some(ControllerSpec {
            attach: sink.0,
            target_util: 0.6,
            predictive: false,
            ..ControllerSpec::default()
        }),
        workloads: Vec::new(),
        events,
        trace_links: Vec::new(),
        expect: None,
    };
    Ok(Case {
        name: format!("{routers}r/{sessions}s"),
        spec,
    })
}

fn run_case(case: &Case, opts: RunOptions) -> Result<Outcome, SpecError> {
    let wall = Instant::now();
    let mut run = build(&case.spec, opts)?;
    let horizon = run.horizon_secs();
    run.run_until_secs(horizon);
    let stats = run.sim.stats();
    let report = run.finish();
    Ok(Outcome {
        routers: report.routers,
        links: report.links,
        sessions: report.sessions,
        events: stats.events,
        reallocs: stats.reallocs,
        paths_resolved: stats.paths_resolved,
        paths_skipped: stats.paths_skipped,
        alloc_fills: stats.alloc_fills,
        alloc_skips: stats.alloc_skips,
        spf_full: stats.spf_full_runs,
        spf_partial: stats.spf_partial_runs,
        max_util: report.max_util,
        unroutable_flow_secs: report.unroutable_flow_secs,
        wall_secs: wall.elapsed().as_secs_f64(),
    })
}

/// Hard acceptance floor for the flagship case (events per
/// wall-second on `metro_core`), independent of any recorded band.
const METRO_CORE_FLOOR: f64 = 60_000.0;

/// Fraction of measured throughput a later run may lose before the
/// gate trips (machine jitter allowance).
const GATE_TOLERANCE: f64 = 0.25;

/// Extract `(name, min_events_per_sec)` floors from a previous run's
/// `BENCH_sim_scale.json` (the flat format this binary writes; no
/// JSON dependency needed for a file we author ourselves).
fn parse_floors(json: &str) -> Vec<(String, f64)> {
    let mut floors = Vec::new();
    let Some(at) = json.find("\"floors\": [") else {
        return floors;
    };
    let Some(end) = json[at..].find(']') else {
        return floors;
    };
    for obj in json[at..at + end].split('{').skip(1) {
        let name = obj
            .split("\"name\": \"")
            .nth(1)
            .and_then(|r| r.split('"').next());
        let floor = obj
            .split("\"min_events_per_sec\": ")
            .nth(1)
            .and_then(|r| r.split(['}', ','] as [char; 2]).next())
            .and_then(|v| v.trim().parse::<f64>().ok());
        if let (Some(n), Some(fl)) = (name, floor) {
            floors.push((n.to_string(), fl));
        }
    }
    floors
}

/// Per-case Chrome event budget: enough to hold the interesting
/// control-plane activity; kernel-dispatch spans beyond it are counted
/// in `dropped` (the cap cuts the deterministic event sequence, so the
/// kept prefix is still identical across runs).
const TRACE_EVENT_CAP: usize = 200_000;

/// Remove this thread's sink and return its per-phase attribution.
/// Chrome sinks are folded into `master` (the shared-epoch trace file)
/// on the way out.
fn take_phases(master: &mut Option<fib_trace::ChromeSink>) -> Vec<fib_trace::PhaseAttribution> {
    let Some(sink) = fib_trace::take() else {
        return Vec::new();
    };
    match sink.into_any().downcast::<fib_trace::AggSink>() {
        Ok(agg) => agg.attribution(),
        Err(other) => match other.downcast::<fib_trace::ChromeSink>() {
            Ok(chrome) => {
                let phases = chrome.attribution();
                if let Some(m) = master.as_mut() {
                    m.absorb(*chrome);
                }
                phases
            }
            Err(_) => Vec::new(),
        },
    }
}

fn main() {
    let cli = Cli::from_env(&[
        "cases",
        "horizon",
        "seed",
        "max-secs",
        "gate",
        "gate-tol",
        "repeat",
        "trace",
        "trace-out",
    ]);
    let repeat = cli.u64_flag("repeat").unwrap_or(1).max(1);
    let seed = cli.u64_flag("seed").unwrap_or(2016);
    let horizon = cli.f64_flag("horizon");
    let max_secs = cli.f64_flag("max-secs").unwrap_or(f64::INFINITY);
    let gate_tol = cli.f64_flag("gate-tol").unwrap_or(GATE_TOLERANCE);
    let trace_mode = cli.get("trace").unwrap_or("agg");
    if !matches!(trace_mode, "agg" | "off") {
        eprintln!("--trace expects `agg` or `off`, got `{trace_mode}`");
        std::process::exit(2);
    }
    let trace_out = cli.get("trace-out").map(String::from);
    if trace_mode == "off" && trace_out.is_some() {
        eprintln!("--trace off and --trace-out are mutually exclusive");
        std::process::exit(2);
    }
    let trace_epoch = Instant::now();
    let mut master_sink = trace_out
        .as_ref()
        .map(|_| fib_trace::ChromeSink::with_epoch(TRACE_EVENT_CAP, trace_epoch));
    let total = Instant::now();

    let mut cases: Vec<Case> = Vec::new();
    for (routers, sessions) in [(20u32, 200u32), (50, 500), (100, 1000)] {
        match generated_case(routers, sessions, seed) {
            Ok(c) => cases.push(c),
            Err(e) => {
                eprintln!("cannot generate {routers}r/{sessions}s: {e}");
                std::process::exit(1);
            }
        }
    }
    match load_scenario("metro_core") {
        Ok(spec) => cases.push(Case {
            name: "metro_core".into(),
            spec,
        }),
        Err(e) => {
            eprintln!("cannot load metro_core: {e}");
            std::process::exit(1);
        }
    }
    let limit = cli
        .u64_flag("cases")
        .map(|n| n as usize)
        .unwrap_or(cases.len());

    let mut table = Table::new(&[
        "case",
        "rtrs",
        "links",
        "sess",
        "events",
        "reallocs",
        "resolved",
        "skipped",
        "naive",
        "ratio",
        "alloc fills",
        "alloc skips",
        "spf full",
        "spf partial",
        "max util",
    ]);
    let mut json_cases = String::new();
    let mut skipped: Vec<&str> = Vec::new();
    let mut throughput: Vec<(String, f64)> = Vec::new();
    for case in cases.iter().take(limit) {
        if total.elapsed().as_secs_f64() > max_secs {
            skipped.push(&case.name);
            continue;
        }
        // `metro_core`'s fault script is bound to its spec seed; the
        // generated cases take the sweep seed via their spec already.
        let opts = RunOptions {
            horizon_secs: horizon,
            ..RunOptions::default()
        };
        eprintln!("[sim_scale] {} …", case.name);
        // Best-of-`repeat`: every run is deterministic, so repeats
        // agree on every counter (and span count) and differ only in
        // wall clock — keeping the fastest is pure noise reduction.
        let mut best: Option<Outcome> = None;
        let mut phases = Vec::new();
        for _ in 0..repeat {
            if trace_out.is_some() {
                fib_trace::install(Box::new(fib_trace::ChromeSink::with_epoch(
                    TRACE_EVENT_CAP,
                    trace_epoch,
                )));
            } else if trace_mode == "agg" {
                fib_trace::install(Box::new(fib_trace::AggSink::new()));
            }
            let o = match run_case(case, opts) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("[sim_scale] {} failed: {e}", case.name);
                    std::process::exit(1);
                }
            };
            phases = take_phases(&mut master_sink);
            best = Some(match best.take() {
                Some(b) if b.wall_secs <= o.wall_secs => b,
                _ => o,
            });
        }
        let o = best.expect("repeat >= 1");
        eprintln!(
            "[sim_scale] {}: {:.1}s wall, {:.0} events/s, resolve ratio {:.0}x",
            case.name,
            o.wall_secs,
            o.events as f64 / o.wall_secs.max(1e-9),
            o.resolve_ratio(),
        );
        table.row(&[
            case.name.clone(),
            o.routers.to_string(),
            o.links.to_string(),
            o.sessions.to_string(),
            o.events.to_string(),
            o.reallocs.to_string(),
            o.paths_resolved.to_string(),
            o.paths_skipped.to_string(),
            o.naive_resolutions().to_string(),
            f(o.resolve_ratio()),
            o.alloc_fills.to_string(),
            o.alloc_skips.to_string(),
            o.spf_full.to_string(),
            o.spf_partial.to_string(),
            f(o.max_util),
        ]);
        // `spans` counts are deterministic for a fixed seed; `pct` is
        // wall-derived and masked by CI's byte diffs (like wall_secs).
        let pa_json = phases
            .iter()
            .map(|a| {
                format!(
                    "{{\"phase\": \"{}\", \"spans\": {}, \"pct\": {:.3}}}",
                    a.phase, a.spans, a.pct
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            json_cases,
            "{}    {{\"name\": \"{}\", \"routers\": {}, \"links\": {}, \"sessions\": {}, \
             \"events\": {}, \"reallocs\": {}, \"paths_resolved\": {}, \"paths_skipped\": {}, \
             \"naive_resolutions\": {}, \"resolve_ratio\": {:.3}, \"alloc_fills\": {}, \
             \"alloc_skips\": {}, \"spf_full_runs\": {}, \"spf_partial_runs\": {}, \
             \"max_util\": {:.6}, \"unroutable_flow_secs\": {:.6}, \"wall_secs\": {:.6}, \
             \"events_per_wall_secs\": {:.3}, \"phase_attribution\": [{pa_json}]}}",
            if json_cases.is_empty() { "" } else { ",\n" },
            case.name,
            o.routers,
            o.links,
            o.sessions,
            o.events,
            o.reallocs,
            o.paths_resolved,
            o.paths_skipped,
            o.naive_resolutions(),
            o.resolve_ratio(),
            o.alloc_fills,
            o.alloc_skips,
            o.spf_full,
            o.spf_partial,
            o.max_util,
            o.unroutable_flow_secs,
            o.wall_secs,
            o.events as f64 / o.wall_secs.max(1e-9),
        );
        throughput.push((case.name.clone(), o.events as f64 / o.wall_secs.max(1e-9)));
    }
    table.emit("bench_sim_scale");

    let mut json = String::from("{\n  \"bench\": \"sim_scale\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    if !skipped.is_empty() {
        let names: Vec<String> = skipped.iter().map(|s| format!("\"{s}\"")).collect();
        let _ = writeln!(json, "  \"skipped\": [{}],", names.join(", "));
    }
    let _ = writeln!(json, "  \"cases\": [\n{json_cases}\n  ],");
    // The gate floors: measured throughput minus the tolerance
    // band, with the hard acceptance floor applied to `metro_core`.
    let _ = writeln!(json, "  \"gate\": {{");
    let _ = writeln!(json, "    \"tolerance\": {gate_tol},");
    let _ = writeln!(json, "    \"metro_core_hard_floor\": {METRO_CORE_FLOOR},");
    let floors_json: Vec<String> = throughput
        .iter()
        .map(|(name, eps)| {
            let mut floor = eps * (1.0 - gate_tol);
            if name == "metro_core" {
                floor = floor.max(METRO_CORE_FLOOR);
            }
            format!("      {{\"name\": \"{name}\", \"min_events_per_sec\": {floor:.3}}}")
        })
        .collect();
    let _ = writeln!(
        json,
        "    \"floors\": [\n{}\n    ]",
        floors_json.join(",\n")
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"total_secs\": {:.6}\n}}",
        total.elapsed().as_secs_f64()
    );
    let path = results_dir().join("BENCH_sim_scale.json");
    std::fs::write(&path, json).expect("write BENCH json");
    println!("[saved {}]", path.display());
    println!(
        "Reading: `resolved` is what the dirty-set engine actually re-resolved;\n\
         `naive` is what the old global recompute would have (every flow, every\n\
         reallocation). The ratio is the incremental saving — the acceptance\n\
         floor is 10x on metro_core. `alloc skips` are reallocations answered\n\
         from the unchanged-input cache; `spf partial` are route-phase-only\n\
         SPF runs (lie churn that never re-ran Dijkstra)."
    );
    if !skipped.is_empty() {
        eprintln!("budget exhausted; skipped: {}", skipped.join(", "));
    }

    if let (Some(out), Some(master)) = (&trace_out, &master_sink) {
        std::fs::write(out, master.to_json()).unwrap_or_else(|e| panic!("--trace-out {out}: {e}"));
        println!(
            "[saved {out}: {} trace events, {} dropped]",
            master.event_count(),
            master.dropped()
        );
    }

    if let Some(gate_path) = cli.get("gate") {
        let prev = std::fs::read_to_string(gate_path)
            .unwrap_or_else(|e| panic!("--gate {gate_path}: {e}"));
        let floors = parse_floors(&prev);
        // Every violated floor is collected (never exit on the first),
        // so one gated run reports the complete damage.
        let mut violations: Vec<String> = Vec::new();
        if !skipped.is_empty() {
            violations.push(format!("skipped cases: {}", skipped.join(", ")));
        }
        for (name, floor) in &floors {
            match throughput.iter().find(|(n, _)| n == name) {
                Some((_, eps)) if eps >= floor => {
                    eprintln!("[gate] {name}: {eps:.0} events/s >= floor {floor:.0}");
                }
                Some((_, eps)) => {
                    violations.push(format!("{name}: {eps:.0} events/s < floor {floor:.0}"));
                }
                // A case recorded in the reference but absent here is
                // only a failure if this run claimed to cover it (not
                // cut short by --cases).
                None if limit >= cases.len() => {
                    violations.push(format!("{name}: case did not run"));
                }
                None => {}
            }
        }
        // The flagship acceptance floor holds even if the reference
        // file predates it (or was tampered down).
        match throughput.iter().find(|(n, _)| n == "metro_core") {
            Some((_, eps)) if *eps >= METRO_CORE_FLOOR => {}
            Some((_, eps)) => {
                violations.push(format!(
                    "metro_core: {eps:.0} events/s < hard floor {METRO_CORE_FLOOR:.0}"
                ));
            }
            None => {
                violations.push("metro_core: did not run under --gate".into());
            }
        }
        if !violations.is_empty() {
            eprintln!("[gate] {} floor violation(s):", violations.len());
            for v in &violations {
                eprintln!("[gate]   FAIL {v}");
            }
            std::process::exit(1);
        }
        eprintln!("[gate] all events/s floors hold");
    }
}
