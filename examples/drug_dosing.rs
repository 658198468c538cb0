//! PK/PD analysis with the `ode` workload: infer the Friberg–Karlsson
//! myelosuppression parameters from (synthetic) neutrophil counts, then
//! use the posterior to predict the nadir — the clinically critical
//! minimum of the circulating-cell trajectory — for a new dose level.

use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::{chain, RunConfig};
use bayes_suite::registry;
use bayes_suite::workloads::ode::simulate_circulating;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = registry::workload("ode", 1.0, 99).ok_or("unknown workload")?;
    println!("fitting the Friberg–Karlsson model with NUTS (ODE inside the likelihood)…");
    let cfg = RunConfig::new(500).with_chains(2).with_seed(5);
    let run = chain::run(&Nuts::default(), workload.dynamics_model(), &cfg);
    println!("max R-hat {:.3}", run.max_rhat());

    // Posterior predictive nadir for a hypothetical 2x dose, from a
    // thinned sample of the posterior.
    let draws = run.pooled_draws();
    let dose = 6.0;
    let mut nadirs = Vec::new();
    for d in draws.iter().step_by(draws.len() / 50).take(50) {
        let traj = simulate_circulating(d, dose, 200);
        let nadir = traj.iter().cloned().fold(f64::INFINITY, f64::min);
        nadirs.push(nadir);
    }
    nadirs.sort_by(f64::total_cmp);
    let q = |p: f64| nadirs[((nadirs.len() - 1) as f64 * p) as usize];
    println!("\nposterior predictive neutrophil nadir at dose {dose}:");
    println!(
        "  median {:.2}, 90% interval [{:.2}, {:.2}]",
        q(0.5),
        q(0.05),
        q(0.95)
    );
    println!("  (baseline count is 5.0; grade-4 neutropenia threshold would be ~0.5)");
    Ok(())
}
