//! The paper's computation-elision mechanism, live: run a BayesSuite
//! workload with a convergence monitor that halts the chains the
//! moment R̂ stays below 1.1 — no preset iteration count executed in
//! full, exactly Section VI-A's proposal.

use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::runtime::run_until_converged;
use bayes_mcmc::summary;
use bayes_mcmc::{ConvergenceDetector, RunConfig};
use bayes_obs::{Event, MemoryRecorder, RecorderHandle};
use bayes_suite::registry;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = registry::workload("butterfly", 1.0, 7).ok_or("unknown workload")?;
    let configured = workload.meta().default_iters;
    println!(
        "running {} with runtime convergence detection (user configured {} iterations)…",
        workload.name(),
        configured
    );

    // Watch the monitor work: a memory recorder captures the checkpoint
    // events the convergence walker emits (observation only — the run
    // is bit-identical with or without it).
    let events = Arc::new(MemoryRecorder::new());
    let cfg = RunConfig::new(configured)
        .with_chains(4)
        .with_seed(7)
        .with_recorder(RecorderHandle::new(events.clone()));
    let detector = ConvergenceDetector::new();
    let out = run_until_converged(&Nuts::default(), workload.dynamics_model(), &cfg, &detector);

    println!("\nmonitor checkpoints (R-hat over the trailing half):");
    for event in events.take() {
        if let Event::Checkpoint {
            iter,
            max_rhat,
            streak,
            converged,
            ..
        } = event
        {
            let mark = if converged { "  <- stop" } else { "" };
            println!("  iter {iter:>5}  max R-hat {max_rhat:>6.3}  streak {streak}{mark}");
        }
    }

    match out.stopped_at {
        Some(at) => println!(
            "monitor stopped the run at iteration {at}: {:.0}% of the configured work elided",
            out.iterations_elided() * 100.0
        ),
        None => println!("no convergence before the configured limit — ran in full"),
    }
    let executed: Vec<usize> = out.run.chains.iter().map(|c| c.draws.len()).collect();
    println!("iterations executed per chain: {executed:?}");

    // The truncated run still supports full posterior reporting.
    let rows = summary::summarize(&out.run);
    println!("\nposterior summary (first 6 parameters):");
    print!("{}", summary::format_table(&rows[..rows.len().min(6)]));
    Ok(())
}
