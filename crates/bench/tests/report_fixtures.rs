//! `trace_report` and `serve_top` over committed traces: each fixture
//! under `tests/fixtures/` is a trace a bench binary wrote, next to the
//! text report, the CSV and (for job-server traces) the `serve_top
//! --once` frame the binaries rendered from it. Every expected file must
//! come back byte for byte; TESTING.md says how each trace was made.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Traces with a text and a CSV expectation.
const TRACES: &[&str] = &[
    "fig1",
    "fig5",
    "serve_mix",
    "recover",
    "telemetry",
    "policy",
    "fault_smoke",
    "subsample",
];

/// Job-server traces, which also pin a `serve_top` frame.
const SERVER_TRACES: &[&str] = &["serve_mix", "recover", "telemetry", "policy"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs `bin` over the trace `trace` (with `flag`, if any) and compares
/// its stdout with the expected file, failing on a non-zero exit.
fn assert_renders(bin: &str, trace: &str, flag: Option<&str>, expected: &str) {
    let trace = fixture(&format!("{trace}.jsonl"));
    let out = Command::new(bin).arg(&trace).args(flag).output();
    let out = out.expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{bin} {trace:?} {flag:?} failed: {stderr}"
    );
    let got = String::from_utf8(out.stdout).expect("UTF-8 output");
    let want = std::fs::read_to_string(fixture(expected)).expect("the expected file reads");
    assert!(got == want, "{expected} differs; got:\n{got}");
}

#[test]
fn trace_report_renders_every_fixture_as_committed() {
    for trace in TRACES {
        let bin = env!("CARGO_BIN_EXE_trace_report");
        assert_renders(bin, trace, None, &format!("{trace}.txt"));
        assert_renders(bin, trace, Some("--csv"), &format!("{trace}.csv"));
    }
}

#[test]
fn serve_top_renders_every_server_fixture_as_committed() {
    for trace in SERVER_TRACES {
        let bin = env!("CARGO_BIN_EXE_serve_top");
        assert_renders(bin, trace, Some("--once"), &format!("{trace}.top.txt"));
    }
}
