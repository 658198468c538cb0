//! serve_top: live text dashboard over a job server trace.
//!
//! Re-reads the JSONL trace a running server writes through
//! `--trace` and redraws a compact status screen each tick: the
//! telemetry rates from `metrics_sample` events (with an ASCII trend
//! strip per source), the jobs table folded from the `job_*`
//! lifecycle events, and the journal-replay footer. The dashboard is
//! a pure trace consumer — it shares no state with the server, so it
//! can watch a run from another process or replay a finished trace.
//!
//! `--once` renders a single frame without clearing the screen and
//! exits (CI smoke and piping into files); the default mode clears
//! and redraws every `--interval-ms` (default 500) until killed. A
//! missing file is waited on, not fatal: the dashboard may start
//! before the server.

use super::{Args, ExitCode};
use crate::load_report;
use crate::report::{Cell, TraceReport};
use std::time::Duration;

/// Trend strip glyphs, lowest to highest.
const RAMP: &[u8] = b" .:-=+*#@";

/// Renders the last `width` values as an ASCII trend strip scaled to
/// the window maximum (a flat zero window renders as spaces).
fn sparkline(values: &[f64], width: usize) -> String {
    let tail = &values[values.len().saturating_sub(width)..];
    let max = tail.iter().cloned().fold(0.0_f64, f64::max);
    tail.iter()
        .map(|v| {
            if max <= 0.0 || !v.is_finite() {
                ' '
            } else {
                let idx = ((v / max) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.min(RAMP.len() - 1)] as char
            }
        })
        .collect()
}

fn render(report: &TraceReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve_top — {} trace lines, {} undecodable, schema {}",
        report.lines,
        report.skipped,
        report.schema()
    );

    let rollups = report.telemetry();
    if rollups.is_empty() {
        let _ = writeln!(
            out,
            "\ntelemetry: no metrics_sample events yet (server started without a sampler?)"
        );
    } else {
        let _ = writeln!(
            out,
            "\n{:<14} {:>8} {:>10} {:>10} {:>9} {:>12}  trend(it/s)",
            "source", "samples", "it/s", "grad/s", "wal_apnd", "wal_p99(us)"
        );
        for t in rollups {
            let series: Vec<f64> = t.list("iters_per_sec").iter().map(Cell::num).collect();
            let _ = writeln!(
                out,
                "{} {:>10.1} {}  [{}]",
                t.fill("{source:<14} {samples:>8}"),
                series.last().copied().unwrap_or(0.0),
                t.fill("{grad_evals_per_sec:>10.1} {wal_appends:>9} {last_wal_p99_ns:>12.1us}"),
                sparkline(&series, 24),
            );
        }
    }

    let jobs = report.groups("jobs");
    if jobs.is_empty() {
        let _ = writeln!(out, "\njobs: none submitted yet");
    } else {
        let _ = writeln!(
            out,
            "\n{:<6} {:<14} {:<12} {:>4} {:>7} {:>8} {:>6} {:>9}",
            "job", "name", "workload", "prio", "places", "preempt", "recov", "state"
        );
        for j in jobs {
            let state = if j.has("iters_done") {
                "done"
            } else if j.has("deadline_ms") {
                "expired"
            } else if j.has("shed_queue_depth") {
                "shed"
            } else if j.f64("placements") > 0.0 {
                "running"
            } else {
                "queued"
            };
            let row = "{job:<6} {name:<14} {workload:<12} {priority:>4} {placements:>7} {preemptions:>8} {recoveries:>6}";
            let _ = writeln!(out, "{} {state:>9}", j.fill(row));
        }
        let done = jobs.iter().filter(|j| j.has("iters_done")).count();
        let _ = writeln!(out, "{} of {} jobs finished", done, jobs.len());
    }

    for jr in report.groups("journal") {
        let line = jr.fill("journal {path}: {records} records, {jobs_recovered} jobs recovered");
        let _ = writeln!(out, "{line}");
    }
    out
}

pub fn run(args: &Args) -> ExitCode {
    let path = args.operand();
    if args.has("--once") {
        return match load_report(path) {
            Ok(report) => {
                print!("{}", render(&report));
                ExitCode::SUCCESS
            }
            Err(code) => code,
        };
    }
    let interval = Duration::from_millis(args.number("--interval-ms").unwrap_or(500).max(1));
    loop {
        if std::fs::metadata(path).is_err() {
            println!("waiting for {path} ...");
        } else {
            match load_report(path) {
                // Clear and home, then the fresh frame.
                Ok(report) => print!("\x1b[2J\x1b[H{}", render(&report)),
                Err(code) => return code,
            }
        }
        std::thread::sleep(interval);
    }
}
