//! serve_top: live text dashboard over a job server trace.
//!
//! Usage: `serve_top <trace.jsonl> [--interval-ms N] [--once]`
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

use bayes_bench::report::{Cell, TraceReport};
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

fn main() {
    let mut path: Option<String> = None;
    let mut interval_ms: u64 = 500;
    let mut once = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => {
                interval_ms = argv.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--interval-ms requires a positive integer");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!("usage: serve_top <trace.jsonl> [--interval-ms N] [--once]");
                return;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: serve_top <trace.jsonl> [--interval-ms N] [--once]");
        std::process::exit(2);
    };

    if once {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                std::process::exit(2);
            }
        };
        match TraceReport::parse(&text) {
            Ok(r) => print!("{}", render(&r)),
            Err(err) => {
                eprintln!("cannot decode {path}: {err}");
                std::process::exit(1);
            }
        }
        return;
    }

    let interval = Duration::from_millis(interval_ms.max(1));
    loop {
        match std::fs::read_to_string(&path) {
            Ok(text) => match TraceReport::parse(&text) {
                Ok(r) => {
                    // Clear and home, then the fresh frame.
                    print!("\x1b[2J\x1b[H{}", render(&r));
                }
                Err(err) => {
                    eprintln!("cannot decode {path}: {err}");
                    std::process::exit(1);
                }
            },
            Err(_) => println!("waiting for {path} ..."),
        }
        std::thread::sleep(interval);
    }
}
