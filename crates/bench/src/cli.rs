//! The `bayes` command line: one parser and one dispatch table
//! (`cmd::COMMANDS`) for every table, figure and tool.
//!
//! `bayes <command> [flags]` runs one command. A command accepts
//! exactly the flags its table entry declares, and `--help` lists them.
//! An unknown command, an unknown flag, a flag without its value, a
//! value that does not parse, or a missing or surplus operand prints
//! the usage and exits with status 2.

use crate::cmd::COMMANDS;
use bayes_obs::{JsonlRecorder, RecorderHandle};
use std::process::ExitCode;
use std::sync::Arc;

/// One flag of a command: `Flag(name, metavar, help)`. The metavar
/// names the value the flag takes: empty for a switch, `<n>` for a whole
/// number of at least 1, `<ms>` for a whole number, anything else for any
/// text.
pub(crate) struct Flag(pub &'static str, pub &'static str, pub &'static str);

/// One entry of the dispatch table.
pub(crate) struct Command {
    name: &'static str,
    run: fn(&Args) -> ExitCode,
    about: &'static str,
    flags: &'static [Flag],
    /// The one positional operand the command requires, if any.
    operand: Option<&'static str>,
}

impl Command {
    pub(crate) const fn new(
        name: &'static str,
        run: fn(&Args) -> ExitCode,
        about: &'static str,
        flags: &'static [Flag],
    ) -> Self {
        let operand = None;
        Self {
            name,
            run,
            about,
            flags,
            operand,
        }
    }

    pub(crate) const fn with_operand(mut self, operand: &'static str) -> Self {
        self.operand = Some(operand);
        self
    }

    /// The `--help` text: synopsis, summary, one line per flag.
    fn usage(&self) -> String {
        let operand = self.operand.map_or(String::new(), |o| format!(" {o}"));
        let flags = (self.flags.iter())
            .map(|Flag(name, metavar, help)| (format!("{name} {metavar}"), *help))
            .chain([("-h, --help".to_string(), "print this help")]);
        let (name, about, flags) = (self.name, self.about, columns(flags));
        format!("usage: bayes {name}{operand} [flags]\n{about}\n\nflags:\n{flags}")
    }

    /// Parses the command's arguments; `Ok(None)` asks for `--help`.
    fn parse(&self, argv: &[String]) -> Result<Option<Args>, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with('-') {
                if args.operand.is_some() || self.operand.is_none() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                args.operand = Some(arg.clone());
                continue;
            }
            let Some(&Flag(name, metavar, _)) = self.flags.iter().find(|f| f.0 == arg) else {
                return Err(format!("unknown flag '{arg}'"));
            };
            if metavar.is_empty() {
                args.given.push((name, None));
                continue;
            }
            let v = (it.next().filter(|v| !v.starts_with("--")))
                .ok_or_else(|| format!("{arg} requires a value"))?;
            let (valid, want) = match metavar {
                "<n>" => (
                    v.parse::<u64>().is_ok_and(|n| n >= 1),
                    "a whole number of at least 1",
                ),
                "<ms>" => (v.parse::<u64>().is_ok(), "a whole number of milliseconds"),
                _ => (true, ""),
            };
            if !valid {
                return Err(format!("{arg} takes {want}, not '{v}'"));
            }
            args.given.push((name, Some(v.clone())));
        }
        match (self.operand, &args.operand) {
            (Some(operand), None) => Err(format!("missing {operand}")),
            _ => Ok(Some(args)),
        }
    }
}

/// A command's parsed arguments, checked against its table entry.
#[derive(Default)]
pub(crate) struct Args {
    given: Vec<(&'static str, Option<String>)>,
    operand: Option<String>,
    /// A [`JsonlRecorder`] on `--trace <path>`; without the flag, the
    /// null recorder, and recording costs nothing.
    pub(crate) trace: RecorderHandle,
}

impl Args {
    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value of the last `flag` given.
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        let last = self.given.iter().rev().find(|(name, _)| *name == flag);
        last.and_then(|(_, v)| v.as_deref())
    }

    /// The value of a `<n>` or `<ms>` flag.
    pub(crate) fn number(&self, flag: &str) -> Option<u64> {
        (self.value(flag)).map(|v| v.parse().expect("numbers are checked when parsed"))
    }

    /// The operand of a command that declares one.
    pub(crate) fn operand(&self) -> &str {
        self.operand
            .as_deref()
            .expect("operands are checked when parsed")
    }
}

/// The top-level usage: every command with its summary.
fn overview() -> String {
    let commands = columns(COMMANDS.iter().map(|c| (c.name.to_string(), c.about)));
    let help = "`bayes <command> --help` lists a command's flags.";
    format!("usage: bayes <command> [flags]\n\ncommands:\n{commands}\n{help}\n")
}

/// Two aligned columns, a row a line, indented by two spaces.
fn columns<'a>(rows: impl Iterator<Item = (String, &'a str)>) -> String {
    let rows: Vec<_> = rows.collect();
    let width = rows.iter().map(|(left, _)| left.len()).max().unwrap_or(0);
    rows.iter()
        .map(|(left, right)| format!("  {left:<width$}  {right}\n"))
        .collect()
}

/// Runs `bayes` on its arguments (the program name excluded).
pub fn main(argv: &[String]) -> ExitCode {
    let usage_error = |err: String, usage: String| {
        eprint!("bayes: {err}\n{usage}");
        ExitCode::from(2)
    };
    let Some((name, rest)) = argv.split_first() else {
        return usage_error("no command given".into(), overview());
    };
    if name == "--help" || name == "-h" {
        print!("{}", overview());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return usage_error(format!("unknown command '{name}'"), overview());
    };
    let mut args = match cmd.parse(rest) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", cmd.usage());
            return ExitCode::SUCCESS;
        }
        Err(err) => return usage_error(format!("{name}: {err}"), cmd.usage()),
    };
    if let Some(path) = args.value("--trace") {
        match JsonlRecorder::create(path) {
            Ok(rec) => args.trace = RecorderHandle::new(Arc::new(rec)),
            Err(err) => {
                eprintln!("cannot create trace file {path}: {err}");
                return ExitCode::from(2);
            }
        }
    }
    (cmd.run)(&args)
}
