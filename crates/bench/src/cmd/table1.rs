//! Table I: a summary of BayesSuite workloads.

use super::{Args, ExitCode};
use bayes_suite::registry;

pub fn run(_: &Args) -> ExitCode {
    crate::banner(
        "Table I",
        "A summary of BayesSuite workloads (data column notes the synthetic substitute).",
    );
    println!(
        "{:<10} {:<36} {:<70} {:<55} {:>9} {:>6}",
        "Name", "Model", "Application", "Data", "bytes", "iters"
    );
    for name in registry::workload_names() {
        let w = registry::workload(name, 1.0, 42).expect("registry name");
        let m = w.meta();
        println!(
            "{:<10} {:<36} {:<70} {:<55} {:>9} {:>6}",
            m.name, m.family, m.application, m.data, m.modeled_data_bytes, m.default_iters
        );
    }
    ExitCode::SUCCESS
}
