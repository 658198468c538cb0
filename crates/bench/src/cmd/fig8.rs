//! Figure 8: overall speedup of the proposed techniques (convergence
//! detection + platform selection) over the naive baseline — the
//! paper's 5.8× average (oracle 6.2×).

use super::{Args, ExitCode};
use bayes_sched::Pipeline;
use bayes_suite::registry;

pub fn run(_: &Args) -> ExitCode {
    crate::banner(
        "Figure 8",
        "Overall speedup over the Broadwell/no-elision baseline (oracle points are \
         energy-optimal, not latency-optimal).",
    );
    let pipeline = Pipeline::new();

    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>8} {:>8} {:>9}",
        "name", "platform", "iters used", "baseline", "speedup", "oracle", "energy -%"
    );
    let mut results = Vec::new();
    for name in registry::workload_names() {
        let w = registry::workload(name, 1.0, 42).expect("registry name");
        let r = pipeline.optimize(&w);
        println!(
            "{:<10} {:>10} {:>6}/{:<5} {:>10} {:>8.2} {:>8.2} {:>8.0}%",
            r.workload,
            r.platform,
            r.iters_used,
            r.iters_configured,
            crate::fmt_time(r.baseline_time_s),
            r.speedup(),
            r.oracle_speedup(),
            r.energy_saving() * 100.0
        );
        results.push(r);
    }
    let avg = bayes_sched::pipeline::average_speedup(&results);
    let avg_oracle = results.iter().map(|r| r.oracle_speedup()).sum::<f64>() / results.len() as f64;
    println!(
        "\naverage speedup {avg:.2}x (paper: 5.8x); oracle average {avg_oracle:.2}x (paper: 6.2x)"
    );
    ExitCode::SUCCESS
}
