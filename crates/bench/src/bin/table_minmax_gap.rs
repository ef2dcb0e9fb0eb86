//! T3 — optimality: max link utilization of even ECMP, the best
//! possible even-ECMP weight setting, Fibbing's rounded plan, and the
//! fractional optimum θ* ("Fibbing can implement the optimal solution
//! to the min-max link utilization problem").
//!
//! Run: `cargo run --release -p fib-bench --bin table_minmax_gap`
//!
//! Flags: `--seed N` redraws the random topologies (default 2016),
//! `--cases N` sets how many random cases follow the paper case
//! (default 4), `--max-secs S` stops starting new cases once the
//! elapsed wall time exceeds `S` (skipped cases are recorded, the
//! table stays well-formed). Besides the table CSV, every run writes
//! `results/BENCH_table_minmax_gap.json` with per-case, per-phase wall
//! times so the perf trajectory of the optimizer hot paths is tracked
//! run over run (and `BENCH_table_minmax_gap.det.json`: the same
//! record without the wall times, byte-identical across runs).

use fib_bench::cli::Cli;
use fib_bench::{f, results_dir, Table};
use fib_te::prelude::*;
use fib_trace::artifact::{save, volatile, Value};
use fibbing::demo::{paper_capacities, paper_topology, A, B, BLUE};
use fibbing::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

struct Case {
    name: String,
    topo: Topology,
    prefix: Prefix,
    demands: Vec<(RouterId, f64)>,
    caps: BTreeMap<(RouterId, RouterId), f64>,
    /// Weight bound for the best-even-ECMP search (0 = skip).
    exhaustive_w: u32,
}

/// Largest weight bound whose search space stays tractable.
fn exhaustive_bound(sym_links: usize) -> u32 {
    for w in (2..=3u32).rev() {
        if (w as u64)
            .checked_pow(sym_links as u32)
            .map(|c| c <= 100_000)
            == Some(true)
        {
            return w;
        }
    }
    0
}

fn fibbing_util(case: &Case) -> Option<f64> {
    // Plan at an intentionally infeasible budget so the optimizer
    // falls back to θ*; then realize with lies and measure the loads
    // the rounded slot counts actually produce.
    let plan = plan_paths(&case.topo, case.prefix, &case.demands, &case.caps, 0.01, 8).ok()?;
    let mut alloc = LieAllocator::new();
    let aug = augment(&case.topo, &plan.dag, &mut alloc).ok()?;
    let lies = reduce(&case.topo, &plan.dag, &aug.lies);
    let augmented = apply_all(&case.topo, &lies);
    let demands: Vec<Demand> = case
        .demands
        .iter()
        .map(|(src, rate)| Demand {
            src: *src,
            prefix: case.prefix,
            rate: *rate,
        })
        .collect();
    let loads = spread(&augmented, &demands).ok()?;
    Some(max_utilization(&loads, &case.caps))
}

/// One case's measurements: values for the table, wall times for the
/// JSON perf record.
#[derive(Default)]
struct Measured {
    even: Option<f64>,
    best: Option<f64>,
    fib: Option<f64>,
    theta: Option<f64>,
    gap: Option<f64>,
    secs_even: f64,
    secs_best: f64,
    secs_fib: f64,
    secs_theta: f64,
    skipped: bool,
}

fn measure(case: &Case) -> Measured {
    let mut m = Measured::default();
    let mut tm = TrafficMatrix::new();
    for (s, r) in &case.demands {
        tm.add(*s, case.prefix, *r);
    }
    let t0 = Instant::now();
    m.even = even_ecmp_max_util(&case.topo, &tm, &case.caps);
    m.secs_even = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    m.best = if case.exhaustive_w >= 2 {
        best_ecmp_weights_max_util(&case.topo, &tm, &case.caps, case.exhaustive_w).map(|(u, _)| u)
    } else {
        None
    };
    m.secs_best = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    m.fib = fibbing_util(case);
    m.secs_fib = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    m.theta = min_max_theta(&case.topo, case.prefix, &case.demands, &case.caps).ok();
    m.secs_theta = t0.elapsed().as_secs_f64();
    m.gap = match (m.fib, m.theta) {
        (Some(fv), Some(tv)) if tv > 0.0 => Some(100.0 * (fv - tv) / tv),
        _ => None,
    };
    m
}

fn main() {
    let cli = Cli::from_env(&["seed", "cases", "max-secs"]);
    let seed = cli.seed(2016);
    let n_cases = cli.u64_flag("cases").unwrap_or(4) as usize;
    let max_secs = cli.f64_flag("max-secs").unwrap_or(f64::INFINITY);
    let started = Instant::now();

    println!("== T3: min-max utilization gap across routing schemes ==\n");
    let mut cases = Vec::new();

    // The paper's topology and demand.
    cases.push(Case {
        name: "paper (Fig. 1)".to_string(),
        topo: paper_topology(),
        prefix: BLUE,
        demands: vec![(A, 100.0), (B, 100.0)],
        caps: paper_capacities(100.0),
        exhaustive_w: 3, // 8 symmetric links → 3^8 = 6561, fine
    });

    // Random connected topologies with a flash crowd from two sources.
    // The sink must have degree >= 3 and the demand stays below the
    // sink cut, so the interesting part is *spreading*, not a trivial
    // single-cut bound every scheme hits alike.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut i = 0;
    while i < n_cases {
        let mut topo = fib_igp::builders::random_connected(&mut rng, 8, 5, 3);
        let routers: Vec<RouterId> = topo.routers().collect();
        let Some(sink) = routers.iter().copied().find(|r| topo.links(*r).len() >= 3) else {
            continue;
        };
        let prefix = Prefix::net24(1);
        topo.announce_prefix(sink, prefix, Metric::ZERO).unwrap();
        // Sources must not neighbor the sink (or the case degenerates
        // to a single-cut bound). Some draws leave fewer than two such
        // routers — seed 2016's very first draw has exactly one, which
        // made the old rejection loop here spin forever; redraw the
        // topology instead.
        let eligible = routers
            .iter()
            .filter(|r| **r != sink && !topo.has_link(**r, sink))
            .count();
        if eligible < 2 {
            continue;
        }
        let mut sources = Vec::new();
        while sources.len() < 2 {
            let s = routers[rng.gen_range(0..routers.len())];
            if s != sink && !sources.contains(&s) && !topo.has_link(s, sink) {
                sources.push(s);
            }
        }
        let caps: BTreeMap<(RouterId, RouterId), f64> =
            topo.all_links().map(|(a, b, _)| ((a, b), 100.0)).collect();
        let sym_links = topo.all_links().filter(|(a, b, _)| a < b).count();
        cases.push(Case {
            name: format!("random-{i} (n=8, seed {seed})"),
            topo,
            prefix,
            demands: sources.into_iter().map(|s| (s, 80.0)).collect(),
            caps,
            exhaustive_w: exhaustive_bound(sym_links),
        });
        i += 1;
    }

    let mut t = Table::new(&[
        "topology",
        "even ECMP",
        "best even-ECMP weights",
        "Fibbing (rounded)",
        "optimum θ*",
        "Fibbing gap %",
    ]);
    let cell = |v: Option<f64>| v.map(f).unwrap_or_else(|| "-".to_string());
    let mut measured = Vec::new();
    for case in &cases {
        let m = if started.elapsed().as_secs_f64() > max_secs {
            eprintln!("[{}: skipped, --max-secs {max_secs} exceeded]", case.name);
            Measured {
                skipped: true,
                ..Measured::default()
            }
        } else {
            let m = measure(case);
            eprintln!(
                "[{}: even {:.3}s, best {:.3}s, fibbing {:.3}s, theta {:.3}s]",
                case.name, m.secs_even, m.secs_best, m.secs_fib, m.secs_theta
            );
            m
        };
        if m.skipped {
            t.row(&[
                case.name.clone(),
                "skipped".to_string(),
                "skipped".to_string(),
                "skipped".to_string(),
                "skipped".to_string(),
                "-".to_string(),
            ]);
        } else {
            t.row(&[
                case.name.clone(),
                cell(m.even),
                cell(m.best),
                cell(m.fib),
                cell(m.theta),
                cell(m.gap),
            ]);
        }
        measured.push(m);
    }
    t.emit("table3_minmax_gap");
    println!("Reading: even ECMP on the deployed weights hotspots badly; even");
    println!("the *best possible* ECMP weights (NP-hard to find) are limited");
    println!("to even splits. Fibbing's rounded plans sit within a few percent");
    println!("of the fractional optimum θ*, matching the paper's claim.");

    // Machine-readable perf record: values + wall time per phase per
    // case.
    let json_cases = cases
        .iter()
        .zip(&measured)
        .map(|(case, m)| {
            let mut fields = vec![("name", case.name.clone().into())];
            if m.skipped {
                fields.push(("skipped", Value::Bool(true)));
            } else {
                fields.extend([
                    ("even", m.even.into()),
                    ("best", m.best.into()),
                    ("fibbing", m.fib.into()),
                    ("theta_star", m.theta.into()),
                    ("gap_pct", m.gap.into()),
                    ("even_secs", volatile(m.secs_even)),
                    ("best_secs", volatile(m.secs_best)),
                    ("fibbing_secs", volatile(m.secs_fib)),
                    ("theta_secs", volatile(m.secs_theta)),
                ]);
            }
            Value::Obj(fields)
        })
        .collect();
    let doc = Value::Obj(vec![
        ("bench", "table_minmax_gap".into()),
        ("seed", seed.into()),
        ("cases", Value::Arr(json_cases)),
        ("total_secs", volatile(started.elapsed().as_secs_f64())),
    ]);
    let path = results_dir().join("BENCH_table_minmax_gap.json");
    save(&path, &doc).expect("write bench json");
    println!("[saved {}]", path.display());
}
