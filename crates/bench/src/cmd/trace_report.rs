//! trace_report: characterize a bayes-obs JSONL trace.
//!
//! Reads the trace produced by any command's `--trace` flag and
//! prints the characterization aggregates — per-run phase time
//! breakdown (from the span profiler), sampler totals, convergence
//! and elision timelines, fault/retry summaries, live telemetry
//! rollups, and simulated counter rollups. `--csv` emits the same
//! aggregates as flat CSV (`section,model,name,field,value`) for
//! spreadsheet/plot ingestion.
//!
//! `--follow` tails a live trace: the file is re-read whenever it
//! grows and the refreshed report is printed after a `=== refresh`
//! separator, so an in-flight server run can be watched with nothing
//! fancier than a second terminal. The mode tolerates the file not
//! existing yet (it waits) and a torn last line (the writer flushes
//! whole lines, a partial tail merely counts as undecodable until the
//! next refresh).

use super::{Args, ExitCode};
use crate::load_report;
use crate::report::TraceReport;
use std::time::Duration;

pub fn run(args: &Args) -> ExitCode {
    let path = args.operand();
    let csv = args.has("--csv");
    if !args.has("--follow") {
        return match load_report(path) {
            Ok(report) => print_report(&report, csv),
            Err(code) => code,
        };
    }
    // Tail mode: re-render whenever the trace grows. Runs until killed.
    let interval = Duration::from_millis(args.number("--interval-ms").unwrap_or(500).max(1));
    let mut last_len: Option<u64> = None;
    loop {
        let len = std::fs::metadata(path).map(|m| m.len()).ok();
        if len.is_some() && len != last_len {
            last_len = len;
            let report = match load_report(path) {
                Ok(report) => report,
                Err(code) => return code,
            };
            println!(
                "=== refresh ({} lines, {} undecodable) ===",
                report.lines, report.skipped
            );
            print_report(&report, csv);
        }
        std::thread::sleep(interval);
    }
}

fn print_report(report: &TraceReport, csv: bool) -> ExitCode {
    if csv {
        print!("{}", report.to_csv());
    } else {
        print!("{report}");
    }
    ExitCode::SUCCESS
}
