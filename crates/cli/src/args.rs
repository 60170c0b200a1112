//! Minimal argument parsing: `fcnemu <command> [positionals] [--flag value]`.
//!
//! The grammar is fixed and small, so a hand-rolled parser keeps the
//! dependency set to the workspace's approved crates.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Subcommand name (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
    /// `--flag[=value]` pairs; a flag given without a value maps to `None`.
    pub flags: BTreeMap<String, Option<String>>,
    /// Everything after a literal `--` separator, verbatim and unparsed —
    /// `fcnemu request <addr> <kind> -- <forwarded args>` ships these to
    /// the daemon without this parser interpreting their `--flags`.
    pub rest: Vec<String>,
}

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Args {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
        let mut it = argv.iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| ParseError("missing command".into()))?
            .clone();
        let mut positionals = Vec::new();
        let mut flags = BTreeMap::new();
        let mut rest = Vec::new();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    // A bare `--` ends parsing; the remainder passes through.
                    rest.extend(it.cloned());
                    break;
                }
                // `--flag=value` or `--flag value` or bare boolean flag.
                if let Some((k, v)) = name.split_once('=') {
                    flags.insert(k.to_string(), Some(v.to_string()));
                } else {
                    let value = it.next_if(|n| !n.starts_with("--")).cloned();
                    flags.insert(name.to_string(), value);
                }
            } else {
                positionals.push(tok.clone());
            }
        }
        Ok(Args {
            command,
            positionals,
            flags,
            rest,
        })
    }

    /// Required positional by index.
    pub fn pos(&self, i: usize, what: &str) -> Result<&str, ParseError> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| ParseError(format!("missing <{what}> argument")))
    }

    /// Required positional parsed as a count.
    pub fn count(&self, i: usize, what: &str) -> Result<usize, ParseError> {
        self.pos(i, what)?
            .parse()
            .map_err(|_| ParseError(format!("{what} must be a positive integer")))
    }

    /// A value-taking flag's text: `None` when absent, and an error naming
    /// the flag when it is given without a value.
    pub fn value(&self, name: &str) -> Result<Option<&str>, ParseError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(None) => Err(ParseError(format!("--{name} needs a value"))),
            Some(Some(v)) => Ok(Some(v)),
        }
    }

    /// Optional value-taking flag parsed into `T` ([`Args::value`]).
    pub fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ParseError> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => parse_value(name, v),
        }
    }

    /// [`Args::flag`], refusing a value below `min`.
    pub fn flag_min<T>(&self, name: &str, default: T, min: T) -> Result<T, ParseError>
    where
        T: std::str::FromStr + PartialOrd + fmt::Display,
    {
        let v = self.flag(name, default)?;
        if v < min {
            return Err(ParseError(format!(
                "--{name} must be at least {min}, not {v}"
            )));
        }
        Ok(v)
    }

    /// Boolean flag: `false` when absent, `true` when bare, and otherwise
    /// its value parsed as a `bool`.
    pub fn switch(&self, name: &str) -> Result<bool, ParseError> {
        match self.flags.get(name) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => parse_value(name, v),
        }
    }

    /// Reject the first flag that `allowed` does not name, so a misspelled
    /// or retired flag fails loudly instead of silently running the
    /// defaults. `context` names the program in the message.
    pub fn only_flags(&self, allowed: &[&str], context: &str) -> Result<(), ParseError> {
        match self.flags.keys().find(|k| !allowed.contains(&k.as_str())) {
            None => Ok(()),
            Some(k) => Err(ParseError(format!("unknown flag --{k} for {context}"))),
        }
    }
}

/// The largest machine size a size positional (`<size>`, `<n>`, `<m>`)
/// may ask for. A machine is built whole before any work, so a larger one
/// would abort the process on allocation (or overflow the `u32` node ids)
/// instead of failing with a typed error; the largest size any doc, test
/// or CI step uses is 16 384.
pub const MAX_SIZE: usize = 1 << 16;

/// The most `--trials` a run may ask for: the trial list is allocated up
/// front. Docs, tests and CI use at most 9.
pub const MAX_TRIALS: usize = 1 << 10;

/// The largest `beta --max-ticks` budget a run may ask for: 2³² − 1 ticks.
/// The router counts ticks in a `u64`, but the reports resolve a cell's
/// tick count only below 2³²: the `bandwidth_cell_ticks` histogram's last
/// finite bucket ends at 2³² − 1 and lumps every larger count into `+Inf`.
/// A larger budget would let a cell run past what its report can show. The
/// default budget is 4 000 000; docs and tests ask for at most 1 000 000.
pub const MAX_TICKS: usize = u32::MAX as usize;

/// The most `verify --steps` a run may ask for: the check simulates every
/// step, at about 1 µs each, so 2³² steps would run for about an hour.
/// Docs and tests use at most 5.
pub const MAX_STEPS: usize = 1 << 16;

/// Refuse `value` above `max`, naming it `what`.
pub fn at_most(what: &str, value: usize, max: usize) -> Result<usize, ParseError> {
    if value > max {
        return Err(ParseError(format!(
            "{what} must be at most {max}, not {value}"
        )));
    }
    Ok(value)
}

/// Refuse a `--jobs` count above [`fcn_exec::MAX_JOBS`]: each worker is an
/// OS thread, so the bound is checked where the flag is parsed, before any
/// work starts.
pub fn check_jobs(jobs: usize) -> Result<usize, ParseError> {
    at_most("--jobs", jobs, fcn_exec::MAX_JOBS)
}

fn parse_value<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("invalid value for --{name}: {v:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = Args::parse(&argv("beta mesh2 256 --trials 4 --steady")).unwrap();
        assert_eq!(a.command, "beta");
        assert_eq!(a.positionals, vec!["mesh2", "256"]);
        assert_eq!(a.flag::<usize>("trials", 1).unwrap(), 4);
        assert_eq!(a.switch("steady"), Ok(true));
        assert_eq!(a.switch("missing"), Ok(false));
    }

    #[test]
    fn jobs_above_the_bound_are_refused() {
        assert_eq!(check_jobs(0), Ok(0));
        assert_eq!(check_jobs(fcn_exec::MAX_JOBS), Ok(fcn_exec::MAX_JOBS));
        let err = check_jobs(fcn_exec::MAX_JOBS + 1).unwrap_err();
        assert_eq!(err.0, "--jobs must be at most 64, not 65");
        assert!(check_jobs(usize::MAX).is_err());
    }

    #[test]
    fn parses_equals_form() {
        let a = Args::parse(&argv("build tree 63 --format=dot")).unwrap();
        assert_eq!(a.value("format").unwrap(), Some("dot"));
    }

    #[test]
    fn a_bare_value_flag_is_an_error_naming_it() {
        let a = Args::parse(&argv("machines --quick --metrics-out")).unwrap();
        assert_eq!(a.switch("quick"), Ok(true));
        let err = a.value("metrics-out").unwrap_err();
        assert_eq!(err.0, "--metrics-out needs a value");
        let a = Args::parse(&argv("beta mesh2 16 --jobs --verbose")).unwrap();
        assert_eq!(a.switch("verbose"), Ok(true));
        let err = a.flag::<usize>("jobs", 0).unwrap_err();
        assert_eq!(err.0, "--jobs needs a value");
        assert_eq!(a.switch("missing"), Ok(false));
        let a = Args::parse(&argv("x --quick=no")).unwrap();
        assert!(a.switch("quick").is_err());
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn flag_type_errors_are_reported() {
        let a = Args::parse(&argv("beta mesh2 256 --trials many")).unwrap();
        let err = a.flag::<usize>("trials", 1).unwrap_err();
        assert!(err.0.contains("trials"));
    }

    #[test]
    fn pos_accessor_errors() {
        let a = Args::parse(&argv("bound de_bruijn")).unwrap();
        assert_eq!(a.pos(0, "guest").unwrap(), "de_bruijn");
        assert!(a.pos(1, "host").is_err());
    }

    #[test]
    fn double_dash_passes_the_remainder_through_verbatim() {
        let a = Args::parse(&argv("request 127.0.0.1:4615 beta -- mesh2 64 --trials 2")).unwrap();
        assert_eq!(a.positionals, vec!["127.0.0.1:4615", "beta"]);
        assert_eq!(a.rest, vec!["mesh2", "64", "--trials", "2"]);
        assert!(
            !a.flags.contains_key("trials"),
            "flags after -- must not be parsed"
        );
        // A trailing `--` with nothing after it is legal and empty.
        let a = Args::parse(&argv("request addr ping --")).unwrap();
        assert!(a.rest.is_empty());
        // No `--` at all leaves rest empty.
        let a = Args::parse(&argv("beta mesh2 64")).unwrap();
        assert!(a.rest.is_empty());
    }

    #[test]
    fn boolean_then_positional_disambiguation() {
        // `--steady` followed by another flag stays boolean.
        let a = Args::parse(&argv("beta mesh2 --steady --trials 2")).unwrap();
        assert_eq!(a.switch("steady"), Ok(true));
        assert_eq!(a.flag::<usize>("trials", 0).unwrap(), 2);
    }
}
