//! Quickstart: sample a BayesSuite posterior, check convergence, and
//! characterize the workload on a simulated datacenter platform.
//!
//! ```text
//! cargo run --release -p bayes-repro --example quickstart
//! ```

use bayes_archsim::{characterize, Platform, SimConfig, WorkloadSignature};
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::{chain, RunConfig};
use bayes_suite::registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a workload from the registry (scale 1.0 = full synthetic
    //    dataset; the seed fixes the generated data).
    let workload = registry::workload("12cities", 1.0, 7).ok_or("unknown workload")?;
    println!(
        "workload: {} — {}",
        workload.name(),
        workload.meta().application
    );

    // 2. Run NUTS: 4 chains, 1000 iterations (half warmup).
    let cfg = RunConfig::new(1000).with_chains(4).with_seed(7);
    let run = chain::run(&Nuts::default(), workload.dynamics_model(), &cfg);
    println!(
        "sampled {} chains x {} iterations, {} gradient evaluations",
        run.chains.len(),
        cfg.iters,
        run.total_grad_evals()
    );
    println!(
        "max split R-hat: {:.3} (converged if < 1.1)",
        run.max_rhat()
    );
    // β (the speed-limit effect) is parameter 2 of this model.
    println!(
        "speed-limit effect beta: {:.3} ± {:.3}  (the study's finding: negative)",
        run.mean(2),
        run.sd(2)
    );

    // 3. Characterize the same workload on the simulated Skylake of
    //    Table II — the Figure 1 flow.
    let sig = WorkloadSignature::measure(&workload, 20, 7);
    let report = characterize(
        &sig,
        &Platform::skylake(),
        &SimConfig {
            cores: 4,
            chains: 4,
            iters: 1000,
        },
    );
    println!(
        "simulated on {}: IPC {:.2}, LLC MPKI {:.2}, est. time {:.2}s, energy {:.0} J",
        report.platform, report.ipc, report.llc_mpki, report.time_s, report.energy_j
    );
    Ok(())
}
