//! A tiny shared flag parser for the bench binaries.
//!
//! `scenario_suite`, `sweep` and `adversary` take `--flag value` (or
//! `--flag=value`) pairs, `--seed N` among them; `paper` takes none.
//! Unknown flags are an error so typos fail loudly instead of silently
//! running the default experiment.

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    pairs: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Cli {
    /// Parse the process arguments, allowing only `known` flag names
    /// (without the `--` prefix). Exits with a usage message on
    /// malformed or unknown flags.
    pub fn from_env(known: &[&str]) -> Cli {
        Cli::from_env_inner(known, &[])
    }

    /// Like [`Cli::from_env`] but also accepting up to
    /// `positional.len()` positional arguments (named only for the
    /// usage message), in order, e.g. `sweep <spec.toml> --jobs 4`.
    pub fn from_env_with_positionals(known: &[&str], positional: &[&str]) -> Cli {
        Cli::from_env_inner(known, positional)
    }

    fn from_env_inner(known: &[&str], positional: &[&str]) -> Cli {
        match Cli::parse_full(std::env::args().skip(1), known, positional.len()) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: {} {}{}{}",
                    std::env::args().next().unwrap_or_default(),
                    positional
                        .iter()
                        .map(|p| format!("<{p}>"))
                        .collect::<Vec<_>>()
                        .join(" "),
                    if positional.is_empty() { "" } else { " " },
                    known
                        .iter()
                        .map(|k| format!("[--{k} <value>]"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument iterator allowing up to `max_positionals`
    /// non-flag arguments (testable core of [`Cli::from_env`] and
    /// [`Cli::from_env_with_positionals`]).
    pub fn parse_full(
        args: impl IntoIterator<Item = String>,
        known: &[&str],
        max_positionals: usize,
    ) -> Result<Cli, String> {
        let mut pairs = Vec::new();
        let mut positionals = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                if positionals.len() < max_positionals {
                    positionals.push(arg);
                    continue;
                }
                return Err(format!("unexpected argument `{arg}`"));
            };
            let (name, value) = match flag.split_once('=') {
                Some((n, v)) => (n.to_string(), v.to_string()),
                None => match args.next() {
                    Some(v) => (flag.to_string(), v),
                    None => return Err(format!("flag `--{flag}` needs a value")),
                },
            };
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag `--{name}`"));
            }
            if pairs.iter().any(|(n, _)| *n == name) {
                return Err(format!("flag `--{name}` given twice"));
            }
            pairs.push((name, value));
        }
        Ok(Cli { pairs, positionals })
    }

    /// The positional arguments, in the order given.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// A `u64` flag (panics with a clear message on a bad value).
    pub fn u64_flag(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects an unsigned integer, got `{v}`"))
        })
    }

    /// An `f64` flag (panics with a clear message on a bad value).
    pub fn f64_flag(&self, name: &str) -> Option<f64> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects a number, got `{v}`"))
        })
    }

    /// The shared experiment seed: `--seed N`, or `default`.
    pub fn seed(&self, default: u64) -> u64 {
        self.u64_flag("seed").unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_both_flag_shapes() {
        let cli = Cli::parse_full(
            args(&["--seed", "9", "--suite=smoke"]),
            &["seed", "suite"],
            0,
        )
        .unwrap();
        assert_eq!(cli.seed(7), 9);
        assert_eq!(cli.get("suite"), Some("smoke"));
        assert_eq!(cli.get("horizon"), None);
    }

    #[test]
    fn default_seed_applies() {
        let cli = Cli::parse_full(args(&[]), &["seed"], 0).unwrap();
        assert_eq!(cli.seed(2016), 2016);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(Cli::parse_full(args(&["--nope", "1"]), &["seed"], 0).is_err());
        assert!(Cli::parse_full(args(&["positional"]), &["seed"], 0).is_err());
        assert!(Cli::parse_full(args(&["--seed"]), &["seed"], 0).is_err());
        assert!(Cli::parse_full(args(&["--seed", "1", "--seed", "2"]), &["seed"], 0).is_err());
    }

    #[test]
    fn positionals_when_allowed() {
        let cli =
            Cli::parse_full(args(&["sweeps/smoke.toml", "--jobs", "4"]), &["jobs"], 1).unwrap();
        assert_eq!(cli.positionals(), ["sweeps/smoke.toml"]);
        assert_eq!(cli.u64_flag("jobs"), Some(4));
        // A second positional still errors.
        assert!(Cli::parse_full(args(&["a.toml", "b.toml"]), &[], 1).is_err());
        // And none is allowed where none is asked for.
        assert!(Cli::parse_full(args(&["a.toml"]), &[], 0).is_err());
    }

    #[test]
    fn numeric_accessors() {
        let cli = Cli::parse_full(args(&["--horizon", "12.5"]), &["horizon"], 0).unwrap();
        assert_eq!(cli.f64_flag("horizon"), Some(12.5));
        assert_eq!(cli.u64_flag("missing"), None);
    }
}
