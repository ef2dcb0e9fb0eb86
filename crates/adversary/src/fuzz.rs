//! The seeded scenario fuzzer: mutate, run, score, minimize, archive.
//!
//! Each iteration derives a mutation sequence from the seed, applies
//! it to the base scenario, runs the result (loop probe armed), and
//! scores the report against one-bound `[expect]` stanzas derived
//! from the unmutated identity run, checked in this order:
//!
//! * `fwd-loop` — `max_fwd_loops = 0`, set only where the identity
//!   run was loop-free (fault scripts that micro-loop during
//!   reconvergence under the stock schedule don't count their loops
//!   as finds);
//! * `unroutable-spike` — the explorer's blackout bound
//!   (`10 × identity + 5` flow-seconds);
//! * `qoe-cliff` — `min_mean_qoe = identity − cliff` (a mutation that
//!   *gradually* degrades QoE is uninteresting; a cliff hints at a
//!   routing or retraction race). A run with no sessions has no QoE
//!   to fall off a cliff.
//!
//! Every scoring find is [`minimize`]d by greedy mutation-reversal
//! (each probe is a full deterministic sim run) and can then be
//! [`archive_find`]-ed: serialized under `scenarios/found/` with
//! `pin_seed = true` and an `[expect]` stanza recording the bad
//! behaviour, so `scenario_suite --suite found` fails loudly the day
//! a code change makes the find unreproducible — or the day the bug
//! it witnesses comes back, depending on which side of the bound the
//! stanza pins.

use crate::minimize::minimize;
use crate::mutate::{apply_all, gen_mutations, Mutation};
use crate::{run_checked, safety_stanza};
use fib_scenario::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed: derives every iteration's mutation draw.
    pub seed: u64,
    /// Mutated scenarios to try.
    pub iters: usize,
    /// Mutations composed per iteration.
    pub max_mutations: usize,
    /// QoE drop (mean score, 0..1 scale) that counts as a cliff.
    pub qoe_cliff: f64,
    /// Horizon override (seconds) for faster campaigns.
    pub horizon_secs: Option<f64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xFACE,
            iters: 32,
            max_mutations: 4,
            qoe_cliff: 0.3,
            horizon_secs: None,
        }
    }
}

/// A scoring mutated scenario, minimized.
#[derive(Debug, Clone)]
pub struct Find {
    /// Iteration that produced it.
    pub iter: usize,
    /// Signal class: `fwd-loop`, `unroutable-spike`, or `qoe-cliff`.
    pub signal: String,
    /// The minimized mutation sequence from the base spec.
    pub mutations: Vec<Mutation>,
    /// The mutated spec the signal reproduces on.
    pub spec: ScenarioSpec,
    /// The run of `spec`.
    pub report: ScenarioReport,
}

/// What a fuzzing campaign produced.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Base scenario fuzzed.
    pub scenario: String,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Iterations executed.
    pub iters: usize,
    /// Total sim runs (identity + iterations + minimization probes).
    pub runs: usize,
    /// The finds, in iteration order.
    pub finds: Vec<Find>,
    /// The unmutated identity run the signals were derived from.
    pub identity: ScenarioReport,
}

/// The signals' one-bound stanzas, in the order they are checked.
fn signals(identity: &ScenarioReport, qoe_cliff: f64) -> [(&'static str, ExpectSpec); 3] {
    let safety = safety_stanza(identity);
    [
        (
            "fwd-loop",
            ExpectSpec {
                max_fwd_loops: safety.max_fwd_loops,
                ..ExpectSpec::default()
            },
        ),
        (
            "unroutable-spike",
            ExpectSpec {
                max_unroutable_flow_secs: safety.max_unroutable_flow_secs,
                ..ExpectSpec::default()
            },
        ),
        (
            "qoe-cliff",
            ExpectSpec {
                min_mean_qoe: Some(identity.qoe.mean_score - qoe_cliff),
                ..ExpectSpec::default()
            },
        ),
    ]
}

/// The first signal whose stanza `report` breaks, if any. A run with
/// no sessions reads a mean QoE of 0, which is no cliff.
fn signal_of(
    report: &ScenarioReport,
    signals: &[(&'static str, ExpectSpec)],
) -> Option<&'static str> {
    signals
        .iter()
        .filter(|(name, _)| *name != "qoe-cliff" || report.qoe.sessions > 0)
        .find(|(_, stanza)| !stanza.check(report).is_empty())
        .map(|(name, _)| *name)
}

/// Fuzz `base` per `cfg`. Deterministic: the same base spec and
/// config reproduce the same finds (and the same minimizations).
pub fn fuzz(base: &ScenarioSpec, cfg: &FuzzConfig) -> Result<FuzzOutcome, SpecError> {
    let run_once = |spec: &ScenarioSpec| run_checked(spec, cfg.horizon_secs, None).map(|r| r.0);
    let identity = run_once(base)?;
    let signals = signals(&identity, cfg.qoe_cliff);
    let mut runs = 1usize;
    let mut finds = Vec::new();

    for iter in 0..cfg.iters {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (iter as u64).wrapping_mul(0x9E37_79B9));
        let mutations = gen_mutations(base, &mut rng, cfg.max_mutations);
        let Ok(report) = run_once(&apply_all(base, &mutations)) else {
            // A mutation produced an unrunnable spec (e.g. a retarget
            // raced a structural edit); skip, the draw was still spent.
            continue;
        };
        runs += 1;
        let Some(signal) = signal_of(&report, &signals) else {
            continue;
        };

        let mut probes = 0usize;
        let mutations = minimize(base, &mutations, |candidate| {
            probes += 1;
            run_once(candidate).is_ok_and(|r| signal_of(&r, &signals) == Some(signal))
        });
        runs += probes + 1;
        let spec = apply_all(base, &mutations);
        let report = run_once(&spec)?;
        finds.push(Find {
            iter,
            signal: signal.to_string(),
            mutations,
            spec,
            report,
        });
    }

    Ok(FuzzOutcome {
        scenario: base.name.clone(),
        seed: cfg.seed,
        iters: cfg.iters,
        runs,
        finds,
        identity,
    })
}

/// Derive the `[expect]` stanza pinning a find's bad behaviour, with
/// margins wide enough to survive benign jitter from unrelated
/// changes but tight enough to notice the signal vanishing.
fn expect_for(find: &Find) -> ExpectSpec {
    let mut x = ExpectSpec::default();
    match find.signal.as_str() {
        "fwd-loop" => {
            x.min_fwd_loops = Some(1);
        }
        "unroutable-spike" => {
            x.min_unroutable_flow_secs = Some(find.report.unroutable_flow_secs * 0.5);
        }
        _ => {
            // qoe-cliff: the find's mean QoE plus margin stays below
            // where the baseline was.
            x.max_mean_qoe = Some(find.report.qoe.mean_score + 0.1);
        }
    }
    x
}

/// Archive `find` as a replayable regression scenario under `dir`
/// (normally `scenarios/found/`): `pin_seed = true`, a provenance
/// description, and an `[expect]` stanza the suite runner enforces.
/// Returns the path written. The file name is the scenario name, so
/// `scenario_suite --suite found` picks it up by construction.
pub fn archive_find(find: &Find, base_name: &str, dir: &Path) -> std::io::Result<PathBuf> {
    let mut spec = find.spec.clone();
    spec.name = format!(
        "{base_name}_f{:03}_{}",
        find.iter,
        find.signal.replace('-', "_")
    );
    spec.pin_seed = true;
    spec.description = format!(
        "fuzzer find ({}): {} mutation(s) on `{}`; archived by fib-adversary",
        find.signal,
        find.mutations.len(),
        base_name
    );
    spec.expect = Some(expect_for(find));
    let path = dir.join(format!("{}.toml", spec.name));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, spec.to_toml_string())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately fragile base: a line topology (every link a
    /// bridge) near capacity, so mutations readily open blackouts
    /// and QoE cliffs.
    fn spec() -> ScenarioSpec {
        ScenarioSpec::from_toml_str(
            r#"
name = "fuzz_tiny"
horizon_secs = 20.0
seed = 5
capacity = 1e6

[topology]
kind = "line"
n = 4

[[workload]]
kind = "constant"
at = 2.0
src = 1
n = 6
rate = 1.5e5
video_secs = 60.0

[[event]]
at = 8.0
action = "fail_link"
a = 2
b = 3

[[event]]
at = 9.0
action = "restore_link"
a = 2
b = 3
"#,
        )
        .unwrap()
    }

    fn cfg() -> FuzzConfig {
        FuzzConfig {
            seed: 77,
            iters: 10,
            max_mutations: 3,
            qoe_cliff: 0.2,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn campaign_is_deterministic_and_scores_finds() {
        let a = fuzz(&spec(), &cfg()).unwrap();
        let b = fuzz(&spec(), &cfg()).unwrap();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.finds.len(), b.finds.len());
        for (x, y) in a.finds.iter().zip(&b.finds) {
            assert_eq!(x.signal, y.signal);
            assert_eq!(x.mutations, y.mutations);
            assert_eq!(x.spec, y.spec);
        }
        assert!(
            !a.finds.is_empty(),
            "a near-capacity line under link faults must yield finds"
        );
        // Minimized finds still reproduce their signal and are minimal
        // by construction (minimize() re-checks every single-drop).
        for f in &a.finds {
            assert!(!f.mutations.is_empty());
        }
    }

    #[test]
    fn signals_rank_loops_over_blackouts_over_cliffs() {
        let mut identity = crate::tests::report();
        identity.unroutable_flow_secs = 1.0;
        let judged = signals(&identity, 0.2);
        assert_eq!(signal_of(&identity, &judged), None);

        // Trip all three bounds, then take them back one at a time.
        let mut bad = crate::tests::report();
        bad.fwd_loop_settles = 3;
        bad.unroutable_flow_secs = 20.0;
        bad.qoe.mean_score = 0.5;
        assert_eq!(signal_of(&bad, &judged), Some("fwd-loop"));
        bad.fwd_loop_settles = 0;
        assert_eq!(signal_of(&bad, &judged), Some("unroutable-spike"));
        bad.unroutable_flow_secs = 15.0;
        assert_eq!(signal_of(&bad, &judged), Some("qoe-cliff"));
        bad.qoe.mean_score = 0.75;
        assert_eq!(signal_of(&bad, &judged), None, "a 0.15 drop is no cliff");

        // A looping identity run suppresses `fwd-loop`.
        let mut loopy = identity.clone();
        loopy.fwd_loop_settles = 1;
        let loopy = signals(&loopy, 0.2);
        let mut looping = crate::tests::report();
        looping.fwd_loop_settles = 9;
        assert_eq!(signal_of(&looping, &judged), Some("fwd-loop"));
        assert_eq!(signal_of(&looping, &loopy), None);
        looping.unroutable_flow_secs = 20.0;
        assert_eq!(signal_of(&looping, &loopy), Some("unroutable-spike"));

        // A report with no sessions has no QoE to fall off a cliff.
        let mut empty = crate::tests::report();
        empty.qoe = Default::default();
        assert_eq!(empty.qoe.mean_score, 0.0);
        assert_eq!(signal_of(&empty, &judged), None);
    }

    #[test]
    fn archived_finds_replay_with_their_expectations() {
        let out = fuzz(&spec(), &cfg()).unwrap();
        let find = &out.finds[0];
        let dir = std::env::temp_dir().join("fib_adversary_fuzz_test");
        let path = archive_find(find, "fuzz_tiny", &dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_toml_str(&text).unwrap();
        assert!(spec.pin_seed, "archived finds pin their seed");
        let expect = spec.expect.clone().expect("archived finds carry [expect]");
        assert!(!expect.is_empty());
        // Replaying the archived file (as the suite runner would)
        // satisfies its own expectation stanza.
        let report = run(&spec, RunOptions::default()).unwrap();
        let violations = expect.check(&report);
        assert!(
            violations.is_empty(),
            "archived expectation must hold on replay: {violations:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
