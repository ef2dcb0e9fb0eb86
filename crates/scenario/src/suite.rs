//! Named suites over the shipped scenario files.
//!
//! A suite is an ordered list of scenario names (each backed by
//! `scenarios/<name>.toml`) plus an optional horizon override —
//! `smoke` trims the horizon so CI can run the pipeline twice and
//! byte-diff the outputs in seconds.

use crate::runner::ScenarioRun;
use crate::spec::{ScenarioSpec, SpecError};
use fib_igp::types::{Prefix, RouterId};
use std::path::PathBuf;

/// A named, ordered collection of scenarios.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// Suite name (`--suite` argument).
    pub name: &'static str,
    /// What the suite demonstrates.
    pub description: &'static str,
    /// Scenario names, in run order.
    pub scenarios: &'static [&'static str],
    /// Horizon override in seconds (`None` = per-spec horizons).
    pub horizon_secs: Option<f64>,
}

/// Every scenario file shipped under `scenarios/`.
pub const ALL_SCENARIOS: &[&str] = &[
    "paper_demo",
    "flash_crowd_random",
    "link_failure_under_load",
    "capacity_degradation",
    "diurnal_mix",
    "no_controller_baseline",
    "metro_edge",
    "metro_core",
];

/// The built-in suites.
pub const SUITES: &[Suite] = &[
    Suite {
        name: "all",
        description: "every shipped scenario at its full horizon",
        scenarios: ALL_SCENARIOS,
        horizon_secs: None,
    },
    Suite {
        name: "smoke",
        description: "reduced-horizon pipeline check (CI determinism gate)",
        scenarios: &[
            "paper_demo",
            "link_failure_under_load",
            "no_controller_baseline",
            "metro_edge",
        ],
        horizon_secs: Some(20.0),
    },
    Suite {
        name: "scale",
        description: "city-scale stress runs riding on incremental recompute",
        scenarios: &["metro_edge", "metro_core"],
        horizon_secs: None,
    },
];

/// Look up a suite by name.
pub fn find_suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// The `scenarios/` directory at the workspace root.
pub fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("scenarios")
}

/// Load and validate `scenarios/<name>.toml` (or the compiled-in
/// [`PREDICTIVE_PIN`]).
pub fn load_scenario(name: &str) -> Result<ScenarioSpec, SpecError> {
    if name == PREDICTIVE_PIN {
        return ScenarioSpec::from_toml_str(PREDICTIVE_PIN_TOML);
    }
    load_from(scenarios_dir().join(format!("{name}.toml")), name)
}

/// Name of the one scenario that is compiled in instead of shipped as
/// a file: a small cut of the ledger's `predictive_storm`. It belongs
/// to no suite; `tests/predictive_pin.rs` pins its artifacts and lie
/// audit byte for byte, `tests/observability.rs` budgets its spans,
/// and `scenario_suite --scenario predictive_pin` runs it by name.
pub const PREDICTIVE_PIN: &str = "predictive_pin";

/// Twenty routers, three prefixes at the best-connected ones, and a
/// predictive controller re-planning on every viewer start and stop
/// through six crowds cycling over the prefixes. Each crowd alone
/// fills one link (13 viewers x 8 Mb/s on 100 Mb/s links), so shortest
/// paths saturate and the controller has to lie; one of the third
/// sink's uplinks fails under the third crowd and comes back under the
/// fifth, so the real graph moves while lies for all three prefixes
/// are installed.
const PREDICTIVE_PIN_TOML: &str = r#"
name = "predictive_pin"
description = "pinned cut of predictive_storm: six crowds over three prefixes, one uplink failure"
horizon_secs = 56.0
seed = 2016
# Sinks, ingresses and the failed link are routers of this seed's graph.
pin_seed = true
capacity = 1.25e7
sinks = [7, 20, 16]

[topology]
kind = "waxman"
n = 20
alpha = 0.5
beta = 0.3
max_metric = 6

[controller]
attach = 7
target_util = 0.6
predictive = true
use_snmp = true

[[event]]
at = 6.0
action = "flash_crowd"
src = 1
n = 13
mean_gap_secs = 0.1
rate = 1e6
video_secs = 12.0
dst = 0

[[event]]
at = 12.25
action = "flash_crowd"
src = 19
n = 13
mean_gap_secs = 0.1
rate = 1e6
video_secs = 12.0
dst = 1

[[event]]
at = 18.5
action = "flash_crowd"
src = 1
n = 13
mean_gap_secs = 0.1
rate = 1e6
video_secs = 12.0
dst = 2

[[event]]
at = 20.0
action = "fail_link"
a = 20
b = 16

[[event]]
at = 24.75
action = "flash_crowd"
src = 4
n = 13
mean_gap_secs = 0.1
rate = 1e6
video_secs = 12.0
dst = 0

[[event]]
at = 31.0
action = "flash_crowd"
src = 8
n = 13
mean_gap_secs = 0.1
rate = 1e6
video_secs = 12.0
dst = 1

[[event]]
at = 32.0
action = "restore_link"
a = 20
b = 16

[[event]]
at = 37.25
action = "flash_crowd"
src = 4
n = 13
mean_gap_secs = 0.1
rate = 1e6
video_secs = 12.0
dst = 2
"#;

/// The paper's pinned control-plane milestones on a `paper_demo` run
/// (routers numbered as in `fib_igp::builders::paper_fig1`, blue is
/// the first sink's prefix). Past the t=15 wave B spreads over R2 and
/// R3 while A still forwards only via B; past the t=35 wave B holds
/// the single-lie plan (one slot each via R2 and R3) and A the two-lie
/// plan (one slot via B, two via R1 — the 1/3–2/3 split). Advances
/// `run` to 25 s, then to 45 s.
pub fn check_paper_milestones(run: &mut ScenarioRun) -> Result<(), String> {
    let [a, b, r1, r2, r3] = [1, 2, 3, 4, 5].map(RouterId);
    // Sorted next hops of `router` toward blue at `secs`.
    let mut hops = |secs: f64, router: RouterId| {
        run.run_until_secs(secs);
        let fib = run.sim.ctx().fib_nexthops(router, Prefix::net24(1));
        let mut v: Vec<RouterId> = fib.iter().map(|h| h.router).collect();
        v.sort();
        v
    };
    let (b_wave, a_idle) = (hops(25.0, b), hops(25.0, a));
    let (b_settled, a_settled) = (hops(45.0, b), hops(45.0, a));
    let spread = b_wave.contains(&r2) && b_wave.contains(&r3);
    let checks = [
        (spread, "t=25: B must spread over R2 and R3", b_wave),
        (
            a_idle == [b],
            "t=25: A must still forward only via B",
            a_idle,
        ),
        (
            b_settled == [r2, r3],
            "t=45: B's single-lie plan must be [R2, R3]",
            b_settled,
        ),
        (
            a_settled == [b, r1, r1],
            "t=45: A's two-lie plan must be 1 slot via B, 2 via R1",
            a_settled,
        ),
    ];
    match checks.into_iter().find(|(held, ..)| !held) {
        Some((_, what, got)) => Err(format!("{what}; got {got:?}")),
        None => Ok(()),
    }
}

/// The `scenarios/found/` directory: the adversarial fuzzer's archived
/// regression corpus (see `docs/ADVERSARY.md`). Unlike the shipped
/// list, this family is discovered dynamically so archiving a new find
/// needs no code change.
pub fn found_dir() -> PathBuf {
    scenarios_dir().join("found")
}

/// Scenario names under `scenarios/found/`, sorted for a stable run
/// order. Missing directory = empty corpus, not an error.
pub fn found_scenarios() -> Vec<String> {
    let mut names = Vec::new();
    let Ok(entries) = std::fs::read_dir(found_dir()) else {
        return names;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("toml") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    names
}

/// Load and validate `scenarios/found/<name>.toml`.
pub fn load_found(name: &str) -> Result<ScenarioSpec, SpecError> {
    load_from(found_dir().join(format!("{name}.toml")), name)
}

fn load_from(path: PathBuf, name: &str) -> Result<ScenarioSpec, SpecError> {
    let src = std::fs::read_to_string(&path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    let spec = ScenarioSpec::from_toml_str(&src)?;
    if spec.name != name {
        return Err(SpecError(format!(
            "scenario file {name}.toml declares name `{}`",
            spec.name
        )));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_reference_shipped_scenarios() {
        assert!(find_suite("all").is_some());
        assert!(find_suite("smoke").is_some());
        assert!(find_suite("nope").is_none());
        for suite in SUITES {
            for name in suite.scenarios {
                assert!(
                    ALL_SCENARIOS.contains(name),
                    "suite {} references unknown scenario {name}",
                    suite.name
                );
            }
        }
    }

    #[test]
    fn every_shipped_spec_parses() {
        for name in ALL_SCENARIOS {
            let spec = load_scenario(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&spec.name, name);
        }
    }

    #[test]
    fn compiled_in_scenario_parses_under_its_name() {
        let spec = load_scenario(PREDICTIVE_PIN).expect("compiled-in spec parses");
        assert_eq!(spec.name, PREDICTIVE_PIN);
        assert!(spec.pin_seed && spec.sinks.len() == 3);
        assert!(!ALL_SCENARIOS.contains(&PREDICTIVE_PIN), "in no suite");
    }

    #[test]
    fn found_corpus_parses_and_carries_expectations() {
        for name in found_scenarios() {
            let spec = load_found(&name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name);
            let expect = spec
                .expect
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: archived finds must carry [expect]"));
            assert!(
                !expect.is_empty(),
                "{name}: the [expect] stanza must constrain something"
            );
            assert!(spec.pin_seed, "{name}: archived finds must pin their seed");
        }
    }
}
