//! The one command-line parser: every `lagoon` subcommand reads its
//! arguments through [`parse`] against its [`Spec`], and the usage is
//! printed from the same specs, so no option is accepted without being
//! listed. Options may come before, between or after the positionals;
//! an unknown option, a value option without its value, an option given
//! twice and a positional the subcommand does not take are errors.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::str::FromStr;

use lagoon_diag::limits::{Setting, SETTINGS};
use lagoon_diag::Limits;

/// What one subcommand takes.
pub struct Spec {
    /// The subcommand's name.
    pub name: &'static str,
    /// Its positionals as the usage shows them: `[…]` marks an optional
    /// one, and a trailing `...` lets the last repeat.
    pub positionals: &'static [&'static str],
    /// Options that take a value, each with its placeholder
    /// (`"--jobs N"`).
    pub values: &'static [&'static str],
    /// Options that take no value.
    pub switches: &'static [&'static str],
    /// Whether the budget flags of [`SETTINGS`] are value options too.
    pub budgets: bool,
}

/// A command line read against its [`Spec`].
#[derive(Debug, Default)]
pub struct Parsed {
    /// The positionals, in order.
    pub positionals: Vec<String>,
    /// Each option given, with its value (`None` for a switch).
    options: BTreeMap<String, Option<String>>,
}

impl Parsed {
    /// Whether option `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.options.contains_key(flag)
    }

    /// The value of option `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.options.get(flag)?.as_deref()
    }

    /// The value of option `flag` as a `T`, or `default` when it was
    /// not given.
    ///
    /// # Errors
    ///
    /// The reason, when the value does not parse.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value '{v}'")),
        }
    }

    /// The budget flags given, each with its value.
    ///
    /// # Errors
    ///
    /// The reason, when a value is not a non-negative integer.
    pub fn budgets(&self) -> Result<Vec<(&'static Setting, u64)>, String> {
        SETTINGS
            .iter()
            .filter(|s| self.has(s.flag))
            .map(|s| Ok((s, self.get(s.flag, 0)?)))
            .collect()
    }

    /// `base` with every budget flag given set on it.
    ///
    /// # Errors
    ///
    /// As [`Parsed::budgets`].
    pub fn limits(&self, mut base: Limits) -> Result<Limits, String> {
        for (setting, value) in self.budgets()? {
            base.set(setting.budget, value);
        }
        Ok(base)
    }
}

/// Reads `args` (the words after the subcommand) against `spec`.
///
/// # Errors
///
/// A one-line reason for an unknown option, a value option without its
/// value, an option given twice, or missing or extra positionals.
pub fn parse(spec: &Spec, args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let flag = Some(arg.as_str());
        let takes_value = spec.values.iter().any(|v| v.split(' ').next() == flag)
            || (spec.budgets && SETTINGS.iter().any(|s| s.flag == arg));
        let value = if takes_value {
            match args.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(format!("{arg} needs a value")),
            }
        } else if spec.switches.contains(&arg.as_str()) {
            None
        } else {
            return Err(format!("{} takes no option {arg}", spec.name));
        };
        if parsed.options.insert(arg.clone(), value).is_some() {
            return Err(format!("{arg} given twice"));
        }
    }
    let required = spec
        .positionals
        .iter()
        .filter(|p| !p.starts_with('['))
        .count();
    let most = match spec.positionals.last() {
        Some(p) if p.ends_with("...") => usize::MAX,
        _ => spec.positionals.len(),
    };
    let given = parsed.positionals.len();
    if given < required {
        return Err(format!("{} needs {}", spec.name, spec.positionals[given]));
    }
    if let Some(extra) = parsed.positionals.get(most) {
        return Err(format!("{} takes no argument {extra}", spec.name));
    }
    Ok(parsed)
}

/// The usage text for `specs`, with the budget flags listed once.
pub fn usage(specs: &[&Spec]) -> String {
    let mut out = String::from("usage:\n");
    for spec in specs {
        let _ = write!(out, "  lagoon {}", spec.name);
        for positional in spec.positionals {
            let _ = write!(out, " {positional}");
        }
        for option in spec.values.iter().chain(spec.switches) {
            let _ = write!(out, " [{option}]");
        }
        out.push_str(if spec.budgets {
            " [limit options]\n"
        } else {
            "\n"
        });
    }
    out.push_str("\nlimit options:\n");
    for setting in &SETTINGS {
        let _ = writeln!(out, "  {} <n>", setting.flag);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "run",
        positionals: &["<file.lag>"],
        values: &["--cache-dir <dir>"],
        switches: &["--stats"],
        budgets: true,
    };

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_may_come_anywhere() {
        for line in [
            "--stats f.lag --cache-dir c",
            "f.lag --stats --cache-dir c",
            "--cache-dir c --stats f.lag",
        ] {
            let parsed = parse(&SPEC, &words(line)).expect(line);
            assert_eq!(parsed.positionals, ["f.lag"], "{line}");
            assert!(parsed.has("--stats"), "{line}");
            assert_eq!(parsed.value("--cache-dir"), Some("c"), "{line}");
        }
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for (line, reason) in [
            ("f.lag --max-step 10", "run takes no option --max-step"),
            ("f.lag --cache-dir", "--cache-dir needs a value"),
            ("f.lag --cache-dir --stats", "--cache-dir needs a value"),
            ("f.lag --stats --stats", "--stats given twice"),
            ("--stats", "run needs <file.lag>"),
            ("f.lag g.lag", "run takes no argument g.lag"),
        ] {
            assert_eq!(parse(&SPEC, &words(line)).unwrap_err(), reason, "{line}");
        }
    }

    #[test]
    fn budget_flags_set_only_what_is_given() {
        let parsed = parse(&SPEC, &words("f.lag --max-steps 10 --timeout-ms 5")).unwrap();
        let limits = parsed.limits(Limits::default()).unwrap();
        assert_eq!(
            limits,
            Limits {
                max_vm_steps: 10,
                timeout: Some(std::time::Duration::from_millis(5)),
                ..Limits::default()
            }
        );
        let keys: Vec<_> = parsed
            .budgets()
            .unwrap()
            .iter()
            .map(|(s, v)| (s.key, *v))
            .collect();
        assert_eq!(keys, [("max_vm_steps", 10), ("timeout_ms", 5)]);
        let bad = parse(&SPEC, &words("f.lag --max-steps -1")).unwrap();
        assert_eq!(
            bad.limits(Limits::default()).unwrap_err(),
            "--max-steps: bad value '-1'"
        );
    }

    #[test]
    fn the_usage_lists_every_option() {
        let text = usage(&[&SPEC]);
        assert!(
            text.contains("lagoon run <file.lag> [--cache-dir <dir>] [--stats] [limit options]\n")
        );
        for setting in &SETTINGS {
            assert!(text.contains(setting.flag), "{text}");
        }
    }
}
