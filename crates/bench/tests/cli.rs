//! The `bayes` command line: every command and every flag of the
//! nineteen programs it replaced is listed by `--help`, and a mistyped
//! command, flag or value exits with status 2 and the usage instead of
//! running.

use std::process::{Command, Output};

/// Every command with the flags it parses, as the separate programs
/// before `bayes` parsed them, each with a value it accepts.
const COMMANDS: &[(&str, &[&str])] = &[
    ("table1", &[]),
    ("table2", &["--trace t.jsonl"]),
    ("fig1", &["--trace t.jsonl"]),
    ("fig2", &[]),
    ("fig3", &[]),
    ("fig4", &[]),
    ("fig5", &["--trace t.jsonl"]),
    ("fig6", &[]),
    ("fig7", &[]),
    ("fig8", &[]),
    ("hmc_vs_nuts", &[]),
    ("accel_study", &[]),
    ("ablation_subsample", &["--trace t.jsonl"]),
    ("ablation_partition", &[]),
    ("sweep_scaling", &["--trace t.jsonl", "--cores 2"]),
    (
        "serve_sim",
        &[
            "--cores 4",
            "--trace t.jsonl",
            "--state-dir state",
            "--kill-after-ms 150",
            "--recover",
            "--policy-demo",
            "--telemetry",
            "--inject-fault",
        ],
    ),
    ("serve_top", &["--interval-ms 0", "--once"]),
    ("trace_report", &["--csv", "--follow", "--interval-ms 250"]),
    (
        "fault_smoke",
        &[
            "--checkpoint ck.json",
            "--resume-from ck.json",
            "--inject-faults",
            "--trace t.jsonl",
        ],
    ),
];

fn bayes(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_bayes"))
        .args(args)
        .output();
    out.expect("bayes starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("UTF-8 output")
}

/// The first word of each indented line of a usage text.
fn listed(usage: &str) -> Vec<String> {
    let rows = usage.lines().filter(|l| l.starts_with("  "));
    rows.filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect()
}

/// Runs `args`, which must be refused: status 2, nothing run (no
/// stdout), and the usage of `command` on stderr after the reason.
fn assert_refused(args: &[&str], command: &str, reason: &str) {
    let out = bayes(args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran: {}", text(&out.stdout));
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    let usage = format!("usage: bayes {command}");
    assert!(
        stderr.contains(&usage),
        "{args:?} printed no usage: {stderr}"
    );
}

#[test]
fn help_lists_every_command() {
    let out = bayes(&["--help"]);
    assert!(out.status.success());
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed(&text(&out.stdout)), names);
}

#[test]
fn each_command_help_lists_every_flag_it_parses() {
    for (name, flags) in COMMANDS {
        let out = bayes(&[name, "--help"]);
        assert!(out.status.success(), "{name} --help failed");
        let names = flags
            .iter()
            .map(|f| f.split(' ').next().unwrap().to_string());
        let want: Vec<String> = names.chain(["-h,".to_string()]).collect();
        assert_eq!(listed(&text(&out.stdout)), want, "{name} --help");

        // Every flag, with its value, parses: `--help` at the end is
        // reached, so nothing runs and the usage comes back.
        let mut args = vec![*name];
        args.extend(flags.iter().flat_map(|f| f.split(' ')));
        args.push("--help");
        let out = bayes(&args);
        assert!(out.status.success(), "{args:?}: {}", text(&out.stderr));
        assert!(text(&out.stdout).starts_with(&format!("usage: bayes {name}")));
    }
}

#[test]
fn an_unknown_flag_is_refused() {
    assert_refused(
        &["fig5", "--trcae", "t.jsonl"],
        "fig5",
        "unknown flag '--trcae'",
    );
    assert_refused(&["table1", "--trace", "t.jsonl"], "table1", "unknown flag");
}

#[test]
fn a_flag_without_its_value_is_refused() {
    assert_refused(&["fig5", "--trace"], "fig5", "--trace requires a value");
    let args = ["serve_sim", "--state-dir", "--recover"];
    assert_refused(&args, "serve_sim", "--state-dir requires a value");
    let args = ["sweep_scaling", "--cores", "0"];
    assert_refused(&args, "sweep_scaling", "--cores takes a whole number");
}

#[test]
fn an_unknown_command_is_refused() {
    assert_refused(&["fig9"], "<command>", "unknown command 'fig9'");
    assert_refused(&[], "<command>", "no command given");
}

#[test]
fn a_trace_command_needs_exactly_one_trace() {
    assert_refused(
        &["trace_report", "--csv"],
        "trace_report",
        "missing <trace.jsonl>",
    );
    let args = ["serve_top", "a.jsonl", "b.jsonl"];
    assert_refused(&args, "serve_top", "unexpected argument 'b.jsonl'");
}

#[test]
fn a_refused_flag_combination_creates_no_trace() {
    let trace =
        std::env::temp_dir().join(format!("bayes-cli-refused-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let path = trace.to_str().expect("UTF-8 temp path");
    let args = ["serve_sim", "--kill-after-ms", "150", "--trace", path];
    assert_refused(&args, "serve_sim", "require --state-dir");
    let args = [
        "serve_sim",
        "--state-dir",
        "s",
        "--kill-after-ms",
        "150",
        "--recover",
    ];
    assert_refused(&args, "serve_sim", "mutually exclusive");
    assert!(!trace.exists(), "the refused run created {path}");
}
