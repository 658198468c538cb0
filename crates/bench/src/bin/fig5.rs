//! Figure 5: the convergence process of 12cities — R̂ and KL
//! divergence to ground truth per iteration checkpoint, with the
//! detected convergence point.

use bayes_sched::ElisionStudy;
use bayes_sched::StudyConfig;
use bayes_suite::registry;

fn main() {
    let trace = bayes_bench::trace_recorder_from_args();
    let profiler = bayes_bench::trace_profiler(&trace);
    bayes_bench::banner(
        "Figure 5",
        "12cities convergence: R-hat (blue line) and KL to ground truth (green line).",
    );
    let w = registry::workload("12cities", 1.0, 42).expect("registry name");
    let study = ElisionStudy::run_profiled(
        w.dynamics_model(),
        &StudyConfig::new(4, w.meta().default_iters).with_seed(42),
        &trace,
        &profiler,
    );
    println!("{:>6} {:>8} {:>12}", "iter", "R-hat", "KL");
    for ((t, r), (_, kl)) in study.rhat_trace.iter().zip(&study.kl_trace) {
        let marker = if Some(*t) == study.converged_at {
            "  <- converged (R-hat < 1.1)"
        } else {
            ""
        };
        println!("{t:>6} {r:>8.3} {kl:>12.4}{marker}");
    }
    match study.converged_at {
        Some(c) => println!(
            "\nconverged at {c} of {} iterations: {:.0}% of iterations elided, {:.0}% of work \
             (paper: 12cities converges at 600 of 2000; 70% of iterations, 53% of latency)",
            study.total_iters,
            study.iter_saving * 100.0,
            study.work_saving * 100.0
        ),
        None => println!("\ndid not converge within the configured iterations"),
    }
    trace.flush();
}
