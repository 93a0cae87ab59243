//! The harness binaries' shared command line: every argument is checked
//! against what the binary declares, once, before any work starts.
//!
//! A binary lists its boolean flags and its valued options; anything else
//! — an unknown flag, a stray positional, an option missing its value —
//! prints the usage line to stderr and exits with status 2, as does an
//! unparsable `DAMQ_SWEEP_THREADS`. A harness with nothing to configure
//! calls `cli::parse(&[], &[])`, so `table4 --bogus` is an error instead
//! of a silently ignored typo.

use crate::sweep;

/// The checked arguments of one harness invocation.
#[derive(Debug)]
pub struct Args {
    flags: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Whether boolean `flag` (spelled with its dashes) was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The value given for `option`, if any (the last one wins).
    pub fn value(&self, option: &str) -> Option<&str> {
        let given = self.values.iter().rev().find(|(o, _)| o == option);
        given.map(|(_, v)| v.as_str())
    }
}

/// Parses the process arguments against the declared `flags` and valued
/// `options`, and validates `DAMQ_SWEEP_THREADS`; on any error prints the
/// usage line and exits with status 2.
pub fn parse(flags: &[&str], options: &[&str]) -> Args {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    let args = parse_from(argv, flags, options).unwrap_or_else(|problem| {
        let mut usage = format!("usage: {program}");
        for flag in flags {
            usage.push_str(&format!(" [{flag}]"));
        }
        for option in options {
            usage.push_str(&format!(" [{option} <value>]"));
        }
        fail(&format!("{problem}\n{usage}"))
    });
    // Resolving the worker count now reports a bad DAMQ_SWEEP_THREADS
    // before the harness prints or simulates anything.
    sweep::worker_count();
    args
}

/// Reports a bad invocation on stderr and exits with status 2.
#[expect(clippy::print_stderr, reason = "the harness status channel")]
pub fn fail(problem: &str) -> ! {
    eprintln!("error: {problem}");
    std::process::exit(2)
}

fn parse_from(
    mut argv: impl Iterator<Item = String>,
    flags: &[&str],
    options: &[&str],
) -> Result<Args, String> {
    let mut args = Args {
        flags: Vec::new(),
        values: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        if flags.contains(&arg.as_str()) {
            args.flags.push(arg);
        } else if options.contains(&arg.as_str()) {
            let value = argv.next().ok_or(format!("{arg} needs a value"))?;
            args.values.push((arg, value));
        } else {
            return Err(format!("unknown argument '{arg}'"));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(argv: &[&str], flags: &[&str], options: &[&str]) -> Result<Args, String> {
        parse_from(argv.iter().map(|&a| a.to_owned()), flags, options)
    }

    #[test]
    fn declared_flags_and_options_parse() {
        let args = parse_strs(
            &["--smoke", "--out", "a", "--out", "b"],
            &["--smoke", "--verbose"],
            &["--out", "--seed"],
        )
        .unwrap();
        assert!(args.flag("--smoke"));
        assert!(!args.flag("--verbose"));
        assert_eq!(args.value("--out"), Some("b"));
        assert_eq!(args.value("--seed"), None);
    }

    #[test]
    fn anything_undeclared_is_an_error() {
        assert_eq!(
            parse_strs(&["--bogus"], &[], &[]).unwrap_err(),
            "unknown argument '--bogus'"
        );
        // A positional is not an option value: `obs_report x.json`.
        assert!(parse_strs(&["x.json"], &[], &["--out"]).is_err());
        assert_eq!(
            parse_strs(&["--out"], &[], &["--out"]).unwrap_err(),
            "--out needs a value"
        );
        assert!(parse_strs(&["--smoke", "extra"], &["--smoke"], &[]).is_err());
    }
}
