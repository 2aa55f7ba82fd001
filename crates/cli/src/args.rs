//! Dependency-free command-line argument parsing.
//!
//! Grammar: `starnuma <command> [--flag value]... [--switch]...`.
//! Unknown flags are errors; every command documents its flags in
//! [`crate::usage`].

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the command word plus `--flag value` pairs.
#[derive(Clone, Debug, Default)]
pub struct Args {
    command: String,
    subcommand: Option<String>,
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
    /// value, or a positional argument appears where none is expected.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command; try `starnuma help`".into()))?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        // `profile run` / `inspect <path>` style subcommand.
        if let Some(next) = iter.peek() {
            if !next.starts_with("--") {
                args.subcommand = iter.next();
            }
        }
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{token}'"
                )));
            };
            if SWITCHES.contains(&name) {
                args.switches.push(name.to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError(format!("flag --{name} requires a value")))?;
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

    /// The optional subcommand (`profile run` → `run`).
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
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

    /// Re-targets a wrapper invocation at its inner command:
    /// `profile run --workload bfs` dispatches as `run --workload bfs`.
    pub(crate) fn rewrap(&self, inner: &str) -> Args {
        let mut rewrapped = self.clone();
        rewrapped.command = inner.to_string();
        rewrapped.subcommand = None;
        rewrapped
    }

    /// Rejects any flags outside the allowed set (catches typos).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first unknown flag.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for name in self
            .flags
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
        {
            if !allowed.contains(&name) {
                return Err(ArgError(format!(
                    "unknown flag --{name} for command '{}'",
                    self.command
                )));
            }
        }
        Ok(())
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
    fn parses_subcommand() {
        let a = parse(&["profile", "run", "--workload", "tc"]).unwrap();
        assert_eq!(a.command(), "profile");
        assert_eq!(a.subcommand(), Some("run"));
        assert_eq!(a.get("workload"), Some("tc"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse(&["run", "--workload"]).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        let e = parse(&["run", "--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn unexpected_positional_is_an_error() {
        let e = parse(&["run", "--seed", "1", "oops"]).unwrap_err();
        assert!(e.to_string().contains("positional"));
    }

    #[test]
    fn empty_is_an_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn expect_only_catches_typos() {
        let a = parse(&["run", "--workload", "bfs", "--sed", "1"]).unwrap();
        let e = a.expect_only(&["workload", "seed"]).unwrap_err();
        assert!(e.to_string().contains("--sed"));
        assert!(a.expect_only(&["workload", "sed"]).is_ok());
    }

    #[test]
    fn rewrap_retargets_at_the_inner_command() {
        let a = parse(&["profile", "run", "--workload", "bfs"]).unwrap();
        let inner = a.rewrap("run");
        assert_eq!(inner.command(), "run");
        assert_eq!(inner.subcommand(), None);
        assert_eq!(inner.get("workload"), Some("bfs"));
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
