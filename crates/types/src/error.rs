//! The workspace's one error type.

use core::fmt;
use std::error::Error;

/// Why a configuration was rejected: every problem the checks found, one
/// line each, in the order they ran (`SystemParams`, then `RunConfig`).
/// Each line names the field, its bad value and what is accepted.
///
/// # Examples
///
/// ```
/// use starnuma_types::StarNumaError;
///
/// assert_eq!(StarNumaError::check(Vec::new()), Ok(()));
/// let err = StarNumaError::check(vec![
///     "SystemParams.num_sockets = 13: must be a positive multiple of 4".to_string(),
/// ])
/// .unwrap_err();
/// assert_eq!(err.problems().len(), 1);
/// assert!(err.to_string().contains("num_sockets = 13"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StarNumaError {
    problems: Vec<String>,
}

impl StarNumaError {
    /// An error with one problem.
    pub fn new(problem: impl Into<String>) -> Self {
        StarNumaError {
            problems: vec![problem.into()],
        }
    }

    /// `Ok` when `problems` is empty, else the error listing all of them.
    ///
    /// # Errors
    ///
    /// Returns the error when at least one problem was found.
    pub fn check(problems: Vec<String>) -> Result<(), Self> {
        if problems.is_empty() {
            Ok(())
        } else {
            Err(StarNumaError { problems })
        }
    }

    /// The problems, in the order they were found.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The problems a check's outcome carries, for a later layer to
    /// append its own to: empty when the check passed.
    pub fn problems_of(outcome: Result<(), Self>) -> Vec<String> {
        outcome.err().map_or_else(Vec::new, |e| e.problems)
    }
}

impl fmt::Display for StarNumaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration")?;
        match self.problems.as_slice() {
            [one] => write!(f, ": {one}"),
            many => {
                write!(f, " ({} problems):", many.len())?;
                for p in many {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for StarNumaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_problem_renders_on_one_line() {
        let e = StarNumaError::new("boom");
        assert_eq!(e.to_string(), "invalid configuration: boom");
        assert_eq!(e.problems(), ["boom"]);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StarNumaError>();
    }

    #[test]
    fn every_problem_is_listed_in_order() {
        let e = StarNumaError::check(vec!["a = 1: bad".into(), "b = 2: bad".into()]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid configuration (2 problems):\n  a = 1: bad\n  b = 2: bad"
        );
        let mut later = StarNumaError::problems_of(Err(e));
        later.push("c = 3: bad".into());
        assert_eq!(later, ["a = 1: bad", "b = 2: bad", "c = 3: bad"]);
        assert!(StarNumaError::problems_of(Ok(())).is_empty());
    }
}
