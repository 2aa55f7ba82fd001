//! Dependency-free command-line argument parsing.
//!
//! Grammar: `starnuma <command> [word]... [--flag value]... [--switch]...`.
//! Every command states the most bare words it takes and the flags it
//! accepts ([`Args::expect_only`]): an extra word or an unknown flag is an
//! error that names it. Every command documents its flags in
//! [`crate::usage`].

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the command word, its bare words, and its
/// `--flag value` pairs and switches.
#[derive(Clone, Debug, Default)]
pub struct Args {
    command: String,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// A command-line parsing or validation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Flags that take no value.
const SWITCHES: &[&str] = &["json", "full-scale", "help", "progress"];

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when no command is given, a flag is missing its
    /// value (a following `--flag` is not a value), or a flag is given
    /// twice.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut iter = raw.into_iter();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command; try `starnuma help`".into()))?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                args.positionals.push(token);
                continue;
            };
            if SWITCHES.contains(&name) {
                args.switches.push(name.to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError(format!("flag --{name} requires a value")))?;
            if value.starts_with("--") {
                return Err(ArgError(format!(
                    "flag --{name} requires a value, got flag {value}"
                )));
            }
            if args.flags.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("flag --{name} given twice")));
            }
        }
        Ok(args)
    }

    /// The command word (`run`, `compare`, ...).
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A string flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A string flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A required flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the flag is absent.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// An integer flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value does not parse.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects an integer, got '{v}'"))),
        }
    }

    /// Whether a value-less switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Re-targets a wrapper invocation at its first bare word:
    /// `profile run --workload bfs` dispatches as `run --workload bfs`.
    /// `None` when there is no bare word.
    pub(crate) fn rewrap(&self) -> Option<Args> {
        let (inner, rest) = self.positionals.split_first()?;
        Some(Args {
            command: inner.clone(),
            positionals: rest.to_vec(),
            ..self.clone()
        })
    }

    /// Rejects more than `positionals` bare words and any flag outside
    /// `flags` (catches typos), and returns the bare words.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first extra word or unknown flag.
    pub fn expect_only(&self, positionals: usize, flags: &[&str]) -> Result<&[String], ArgError> {
        if let Some(extra) = self.positionals.get(positionals) {
            return Err(ArgError(format!(
                "unexpected positional argument '{extra}'"
            )));
        }
        for name in self
            .flags
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
        {
            if !flags.contains(&name) {
                return Err(ArgError(format!(
                    "unknown flag --{name} for command '{}'",
                    self.command
                )));
            }
        }
        Ok(&self.positionals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = parse(&["run", "--workload", "bfs", "--json", "--seed", "7"]).unwrap();
        assert_eq!(a.command(), "run");
        assert_eq!(a.get("workload"), Some("bfs"));
        assert_eq!(a.get_u64("seed", 0).unwrap(), 7);
        assert!(a.switch("json"));
        assert!(!a.switch("full-scale"));
    }

    #[test]
    fn keeps_every_bare_word() {
        let a = parse(&["bench-diff", "old", "--tolerance", "0.1", "new"]).unwrap();
        assert_eq!(a.command(), "bench-diff");
        assert_eq!(a.expect_only(2, &["tolerance"]).unwrap(), ["old", "new"]);
        assert_eq!(a.get("tolerance"), Some("0.1"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse(&["run", "--workload"]).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
    }

    /// A flag is not taken as the previous flag's value: `--ledger
    /// --json` would otherwise write a ledger directory named `--json`.
    #[test]
    fn a_flag_is_not_a_value() {
        let e = parse(&["run", "--ledger", "--json"]).unwrap_err();
        assert!(e.to_string().contains("--ledger"), "{e}");
        assert!(e.to_string().contains("--json"), "{e}");
        let e = parse(&["run", "--seed", "--workload", "bfs"]).unwrap_err();
        assert!(e.to_string().contains("--seed") && e.to_string().contains("--workload"));
        assert_eq!(
            parse(&["run", "--seed", "-1"]).unwrap().get("seed"),
            Some("-1")
        );
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        let e = parse(&["run", "--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn extra_positional_is_named() {
        let a = parse(&["inspect", "t.jsonl", "--top", "3", "oops"]).unwrap();
        let e = a.expect_only(1, &["top"]).unwrap_err();
        assert!(e.to_string().contains("'oops'"), "{e}");
        assert_eq!(a.expect_only(2, &["top"]).unwrap(), ["t.jsonl", "oops"]);
    }

    #[test]
    fn empty_is_an_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn expect_only_catches_typos() {
        let a = parse(&["run", "--workload", "bfs", "--sed", "1"]).unwrap();
        let e = a.expect_only(0, &["workload", "seed"]).unwrap_err();
        assert!(e.to_string().contains("--sed"));
        assert!(a.expect_only(0, &["workload", "sed"]).is_ok());
    }

    #[test]
    fn rewrap_retargets_at_the_first_bare_word() {
        let a = parse(&["profile", "run", "x", "--workload", "bfs"]).unwrap();
        let inner = a.rewrap().unwrap();
        assert_eq!(inner.command(), "run");
        assert_eq!(inner.expect_only(1, &["workload"]).unwrap(), ["x"]);
        assert_eq!(inner.get("workload"), Some("bfs"));
        assert!(parse(&["profile"]).unwrap().rewrap().is_none());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["topology"]).unwrap();
        assert_eq!(a.get_or("sockets", "16"), "16");
        assert_eq!(a.get_u64("sockets", 16).unwrap(), 16);
        assert!(a.require("sockets").is_err());
    }

    #[test]
    fn bad_integer_is_an_error() {
        let a = parse(&["run", "--seed", "abc"]).unwrap();
        assert!(a.get_u64("seed", 0).is_err());
    }
}
