//! The figure/table harness behind the `bayes` binary.
//!
//! Every command (module `cmd`) prints the rows/series of one table or
//! figure from the paper, or drives one tool; `EXPERIMENTS.md` records
//! how the output maps onto the original. The harness keeps the
//! expensive steps (signature measurement) in one place so figures stay
//! consistent.

use bayes_archsim::WorkloadSignature;
use bayes_suite::{registry, Workload};
use report::TraceReport;
use std::process::ExitCode;

pub mod cli;
mod cmd;
pub mod report;

/// Reads and decodes the trace at `path`, or says why not and returns
/// the exit status: 2 if it cannot be read, 1 if it cannot be decoded.
pub(crate) fn load_report(path: &str) -> Result<TraceReport, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|err| {
        eprintln!("cannot read {path}: {err}");
        ExitCode::from(2)
    })?;
    TraceReport::parse(&text).map_err(|err| {
        eprintln!("cannot decode {path}: {err}");
        ExitCode::FAILURE
    })
}

/// A workload together with its measured signature.
pub struct Measured {
    /// The workload (full + dynamics models).
    pub workload: Workload,
    /// The measured signature feeding the performance model.
    pub sig: WorkloadSignature,
}

/// Measures all ten workloads at the given scale.
///
/// `probe_iters` controls the short real NUTS run used to extract
/// leapfrogs-per-iteration and chain imbalance; 30 is plenty for the
/// figures.
pub fn measure_all(scale: f64, probe_iters: usize, seed: u64) -> Vec<Measured> {
    registry::workload_names()
        .iter()
        .map(|name| {
            let workload = registry::workload(name, scale, seed).expect("registry name");
            let sig = WorkloadSignature::measure(&workload, probe_iters, seed);
            Measured { workload, sig }
        })
        .collect()
}

/// Prints a figure/table banner.
pub fn banner(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}");
    println!();
}

/// Formats seconds compactly.
pub fn fmt_time(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_ranges() {
        assert_eq!(fmt_time(250.0), "250s");
        assert_eq!(fmt_time(2.34), "2.3s");
        assert_eq!(fmt_time(0.005), "5ms");
    }

    #[test]
    fn measure_all_covers_registry() {
        // Tiny scale keeps this test fast.
        let all = measure_all(0.02, 6, 1);
        assert_eq!(all.len(), 10);
        assert!(all.iter().all(|m| m.sig.tape_nodes > 0));
    }
}
