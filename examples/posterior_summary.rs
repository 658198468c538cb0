//! Production-style posterior report: quantiles, MCSE, ESS, and the
//! rank-normalized split-R̂ for a BayesSuite workload — what the
//! "Bayesian inference as a service" endpoint of the paper's
//! introduction would return to a user.

use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::summary;
use bayes_mcmc::{chain, RunConfig};
use bayes_suite::registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = registry::workload("racial", 1.0, 7).ok_or("unknown workload")?;
    println!("{} — {}\n", workload.name(), workload.meta().application);
    let cfg = RunConfig::new(1000).with_chains(4).with_seed(3).threaded();
    let run = chain::run(&Nuts::default(), workload.dynamics_model(), &cfg);

    let rows = summary::summarize(&run);
    // The threshold-test parameters of interest: per-race thresholds
    // (indices 4..8 in this parameterization).
    println!("search thresholds by race group (lower = less evidence required):");
    print!("{}", summary::format_table(&rows[4..8]));
    println!(
        "\nfull model: {} parameters, worst rank-R̂ {:.3}",
        rows.len(),
        rows.iter().map(|r| r.rhat_rank).fold(f64::NAN, f64::max)
    );
    Ok(())
}
