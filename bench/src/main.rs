//! `ledger` — see `bench/README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! ledger [--seed N] [--seconds S] [--sets K] [--quick] [--out PATH]
//!                                                        the whole benchmark
//! ledger --diff A.json B.json                            compare two result files
//! ledger --print benchmark-json|glossary                 regenerate the contract / README table
//! ```

use fib_ledger::measure::{self, Outcome};
use fib_ledger::report::{self, FullOptions, DETAIL_PREFIX, RUN_SECONDS};
use fib_ledger::workloads::{self, Input};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ledger [--workload W --trace 0|1] [--seed N] [--seconds S] [--sets K] \
[--quick] [--out PATH] | --diff A.json B.json | --print benchmark-json|glossary";

/// Flags and their values, in the order given.
struct Args(Vec<(String, Vec<String>)>);

impl Args {
    fn parse() -> Result<Args, String> {
        let mut out: Vec<(String, Vec<String>)> = Vec::new();
        for arg in std::env::args().skip(1) {
            match arg.strip_prefix("--") {
                Some(flag) => out.push((flag.to_string(), Vec::new())),
                None => match out.last_mut() {
                    Some((_, values)) => values.push(arg),
                    None => return Err(format!("unexpected argument `{arg}`")),
                },
            }
        }
        const KNOWN: [&str; 10] = [
            "workload", "seed", "seconds", "trace", "horizon", "sets", "quick", "out", "diff",
            "print",
        ];
        match out.iter().find(|(f, _)| !KNOWN.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag `--{f}`")),
            None => Ok(Args(out)),
        }
    }

    fn values(&self, flag: &str) -> Option<&[String]> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_slice())
    }

    fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    fn one(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.values(flag) {
            None => Ok(None),
            Some([v]) => Ok(Some(v)),
            Some(_) => Err(format!("`--{flag}` takes one value")),
        }
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.one(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("`--{flag} {v}` is not a valid number"))
            })
            .transpose()
    }
}

/// Keep the generated input where a reader can inspect it.
fn save_input(name: &str, seed: u64, input: &Input) {
    let (Input::Scenario { toml, .. } | Input::Sweep { toml }) = input;
    let path = Path::new("results").join(format!("ledger_{name}_seed{seed}.toml"));
    // Best effort: the run does not depend on the copy.
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(path, toml);
    }
}

/// One run on one workload: human-readable lines, then the detail
/// line, then the result object as the last line of standard output.
fn one_run(args: &Args, name: &str, start: Instant) -> Result<ExitCode, String> {
    let seed: u64 = args.num("seed")?.unwrap_or(2016);
    let seconds: f64 = args.num("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let trace = match args.one("trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let mut w = workloads::generate(name, seed).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (have: {})",
            workloads::WORKLOADS.join(", ")
        )
    })?;
    if let Some(h) = args.num::<f64>("horizon")? {
        if !(h.is_finite() && h > 0.0) {
            return Err(format!("`--horizon {h}` must be positive"));
        }
        w.cut_horizon(h);
    }
    save_input(name, seed, &w.input);
    let outcome: Outcome = if trace {
        measure::per_layer(&w)
    } else {
        measure::end_to_end(&w, seconds, start)
    };
    println!(
        "{name} seed {seed} trace {}: ops_attempted {} ops_failed {}",
        u8::from(trace),
        outcome.ops.attempted,
        outcome.ops.failed
    );
    for (m, value) in &outcome.metrics {
        println!("  {:<38} {:>16.6} {}", m.name, value, m.unit);
    }
    for why in outcome.ops.why.iter().take(20) {
        eprintln!("[ledger] FAILED {why}");
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail.to_line());
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let start = Instant::now();
    let args = Args::parse()?;
    if let Some(files) = args.values("diff") {
        let [a, b] = files else {
            return Err("`--diff` takes two result files".to_string());
        };
        let regressed = report::diff(Path::new(a), Path::new(b))?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    if let Some(what) = args.one("print")? {
        match what {
            "benchmark-json" => print!("{}", report::benchmark_json().to_pretty()),
            "glossary" => print!("{}", report::glossary()),
            other => {
                return Err(format!(
                    "`--print {other}`: expected benchmark-json or glossary"
                ))
            }
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(name) = args.one("workload")? {
        return one_run(&args, name, start);
    }
    let opts = FullOptions {
        seed: args.num("seed")?.unwrap_or(2016),
        seconds: args.num("seconds")?.unwrap_or(RUN_SECONDS),
        sets: args.num("sets")?.unwrap_or(1).max(1),
        quick: args.has("quick"),
        out: args
            .one("out")?
            .map_or_else(|| PathBuf::from("results/BENCH_ledger.json"), PathBuf::from),
    };
    let all_correct = report::full(&opts)?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
